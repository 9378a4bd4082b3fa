"""Numerical certification of the distillation-vs-supervision identities.

Three facts are checked to double precision:

1. The distillation gradient against a convex combination of two target
   distributions equals the same convex combination of the gradients against
   each target separately (checked through the real loss code path).
2. Any localization probability vector decomposes into two classification
   probabilities under the affine system {sum p = 1, sum q = 1,
   u1*p + u2*q = l}: for every trial the system's coefficient matrix has
   rank ``len(l) + 1``, and a nonnegative pair (p, q) reconstructs ``l``
   exactly. All trials of one length are solved as one stack.
3. Adding distillation to the two-hot supervised loss rescales its
   per-logit gradient by ``gamma + (lam / tau) * c_i / (u_i - p_i)`` in
   expectation under an additive teacher-confidence model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .boxdist import PROB_SUM_TOL, TwoHotTarget, generalized_softmax
from .losses import dfl_loss, kd_loss

__all__ = [
    "DecompositionResult",
    "RescalingReport",
    "verify_proposition1",
    "decompose_localization",
    "gradient_rescaling_ratio",
    "incorrect_position_gradient_sum",
    "certify_proposition1",
    "certify_decomposition",
    "certify_rescaling",
]

logger = logging.getLogger(__name__)

# Largest negative entry a decomposition may carry and still count as on the simplex.
SIMPLEX_TOL = 1e-10

# Noise scales by which a scored Monte-Carlo teacher mean must sit inside the
# simplex: nearer the boundary, rejecting off-simplex draws truncates the
# noise, which the closed form does not model. The rescaling certificate
# redraws at most _MC_MAX_REDRAWS teacher means per scored instance.
_MC_SIMPLEX_MARGIN = 6.0
_MC_MAX_REDRAWS = 1000
_RESCALING_SIZE = 9


def _check_simplex(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be a 1-D probability vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
        raise ValueError(f"{name} must be strictly positive (logit reconstruction needs log)")
    if abs(p.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{name} must sum to 1, got {p.sum()!r}")
    return p


def _logits_for(p: np.ndarray, tau: float) -> np.ndarray:
    """Logits whose tempered softmax reproduces ``p`` (up to rounding)."""
    return tau * np.log(p)


def verify_proposition1(s, p, q, u1: float, tau: float,
                        perturbation: float = 0.0) -> float:
    """Max elementwise gap between the combined-target gradient and the
    combination of per-target gradients.

    All three inputs are tempered probability vectors; the gradients are
    computed through :func:`locdistill.losses.kd_loss` on reconstructed
    logits. ``perturbation`` biases the combined-target gradient and exists
    only as a negative-control hook for the verification CLI.
    """
    s = _check_simplex(s, "student probabilities")
    p = _check_simplex(p, "first target")
    q = _check_simplex(q, "second target")
    if s.shape != p.shape or p.shape != q.shape:
        raise ValueError("probability vectors must share one length")
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if not math.isfinite(perturbation):  # a NaN gap would vanish in the certificate's max
        raise ValueError(f"perturbation must be finite, got {perturbation}")
    u2 = 1.0 - u1
    combined = u1 * p + u2 * q
    z_s = _logits_for(s, tau)
    g_combined = kd_loss(z_s, _logits_for(combined, tau), tau).grad + perturbation
    g_p = kd_loss(z_s, _logits_for(p, tau), tau).grad
    g_q = kd_loss(z_s, _logits_for(q, tau), tau).grad
    return float(np.abs(g_combined - (u1 * g_p + u2 * g_q)).max())


@dataclass(frozen=True)
class DecompositionResult:
    """Decomposition of a localization probability into two classification ones."""

    p: np.ndarray
    q: np.ndarray
    residual: float
    simplex_feasible: bool


def _decomposition_system(l: np.ndarray, u1) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(..., m + 2, 2m)`` and right-hand sides ``(..., m + 2)``
    of {sum p = 1, sum q = 1, u1*p + u2*q = l}, for one ``l`` of length ``m``
    or a stack ``(n, m)`` with one ``u1`` per row."""
    u1 = np.asarray(u1, dtype=np.float64)[..., None, None]
    m = l.shape[-1]
    eye = np.eye(m)
    rows = np.zeros(l.shape[:-1] + (m + 2, 2 * m))
    rows[..., 0, :m] = 1.0
    rows[..., 1, m:] = 1.0
    rows[..., 2:, :m] = u1 * eye
    rows[..., 2:, m:] = (1.0 - u1) * eye
    b = np.concatenate([np.ones(l.shape[:-1] + (2,)), l], axis=-1)
    return rows, b


def _decompose_stack(l: np.ndarray, u1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonnegative decompositions of a stack ``l`` of probability vectors,
    shape ``(n, m)``, with weights ``u1`` in (0, 1) of shape ``(n,)``.

    Returns ``(x, residual, rank)``: the pairs ``x = (p, q)`` as ``(n, 2m)``,
    each row's largest violation of the affine system, and each system's
    numerical rank. The minimum-norm solution ``x_mn`` and ``(l, l)`` both
    solve the system, so every point of the segment between them does too;
    where ``x_mn`` has negative entries, the first nonnegative point of that
    segment is returned, otherwise ``x_mn`` itself.
    """
    m = l.shape[-1]
    a_mat, b = _decomposition_system(l, u1)
    x = (np.linalg.pinv(a_mat) @ b[..., None])[..., 0]
    rank = np.linalg.matrix_rank(a_mat)
    toward = np.concatenate([l, l], axis=-1) - x
    t = np.divide(-x, toward, out=np.zeros_like(x), where=x < 0.0).max(axis=-1)
    x = x + t[:, None] * toward
    p, q = x[:, :m], x[:, m:]
    u1 = u1[:, None]
    residual = np.abs(u1 * p + (1.0 - u1) * q - l).max(axis=-1)
    residual = np.maximum(residual, np.abs(p.sum(axis=-1) - 1.0))
    residual = np.maximum(residual, np.abs(q.sum(axis=-1) - 1.0))
    return x, residual, rank


def decompose_localization(l, u1: float, i: int, j: int) -> DecompositionResult:
    """Solve {sum p = 1, sum q = 1, u1*p + u2*q = l} for a nonnegative (p, q).

    ``l`` must be a probability vector (zero entries allowed). Returns the
    minimum-norm solution when it is nonnegative, and otherwise the first
    nonnegative point on the segment from it to the solution ``(l, l)``;
    ``simplex_feasible`` reports whether both halves are nonnegative.
    ``i`` and ``j`` identify the bracketing positions of the underlying
    two-hot target and must differ; they do not affect the algebra.
    """
    l = np.asarray(l, dtype=np.float64)
    if l.ndim != 1:
        raise ValueError(f"localization vector must be 1-D, got shape {l.shape}")
    m = l.shape[0]
    if not np.all(np.isfinite(l)) or np.any(l < 0.0):
        raise ValueError("localization vector must be finite and nonnegative")
    if abs(l.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"localization vector must sum to 1, got {l.sum()!r}")
    if not (0.0 < u1 < 1.0):
        raise ValueError(f"u1 must lie strictly inside (0, 1), got {u1}")
    if i == j:
        raise ValueError("bracketing indices must differ")
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"indices ({i}, {j}) out of range for length {m}")
    x, residual, _ = _decompose_stack(l[None, :], np.array([u1], dtype=np.float64))
    x = x[0]
    return DecompositionResult(p=x[:m], q=x[m:], residual=float(residual[0]),
                               simplex_feasible=bool(x.min() >= -SIMPLEX_TOL))


@dataclass(frozen=True)
class RescalingReport:
    """Measured vs. predicted gradient-rescaling ratio at the probed index."""

    measured_ratio: float
    predicted_ratio: float
    abs_error: float
    std_error: float | None = None
    trials: int = 0

    def __post_init__(self) -> None:
        for name in ("measured_ratio", "predicted_ratio", "abs_error"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if abs(self.abs_error - abs(self.measured_ratio - self.predicted_ratio)) > 1e-15:
            raise ValueError("abs_error must equal |measured - predicted|")


def _prepare_confidence(p_tau: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Center the confidence vector and shrink it until the teacher stays
    strictly inside the simplex; any shrink is logged."""
    c = c - c.mean()
    scale = 1.0
    floor = 1e-6
    q = p_tau + c
    if q.min() < floor:
        worst = (p_tau - floor) / np.maximum(-c, 1e-300)
        scale = min(1.0, float(worst[c < 0.0].min())) if np.any(c < 0.0) else 1.0
        logger.warning("confidence vector scaled by %.6g to keep the teacher on the simplex", scale)
        c = scale * c
    return c


def gradient_rescaling_ratio(
    p,
    c,
    eta_scale: float,
    gamma: float,
    lam: float,
    tau: float,
    target: TwoHotTarget,
    trials: int = 0,
    rng: np.random.Generator | None = None,
) -> RescalingReport:
    """Measure the per-logit gradient rescaling that distillation applies to
    the two-hot supervised loss, and compare it to the closed form
    ``gamma + (lam / tau) * c_i / (u_i - p_i)``.

    The teacher's tempered distribution follows the additive model
    ``q_tau = p_tau + c + eta`` with ``eta`` zero-mean noise of scale
    ``eta_scale``. With ``eta_scale = 0`` the measured ratio is computed
    through the real loss code paths and must match exactly; with noise the
    ratio is averaged over ``trials`` Monte-Carlo draws.
    """
    p = _check_simplex(p, "student probabilities")
    c = np.asarray(c, dtype=np.float64)
    if c.shape != p.shape:
        raise ValueError(f"confidence vector shape {c.shape} does not match {p.shape}")
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if not (0.0 <= eta_scale < math.inf):
        raise ValueError(f"eta_scale must be nonnegative and finite, got {eta_scale}")
    i = target.i
    if i + 1 >= p.shape[0]:
        raise ValueError("two-hot target index out of range for the probability vector")
    denom = target.u1 - p[i]
    if abs(denom) < 1e-9:
        raise ValueError("predicted ratio is singular: u_i equals p_i at the probed index")

    z_s = np.log(p)
    p_tau = generalized_softmax(z_s, tau)
    c_eff = _prepare_confidence(p_tau, c)
    predicted = gamma + (lam / tau) * c_eff[i] / denom
    dfl_grad_i = dfl_loss(z_s, target).grad[i]

    if eta_scale == 0.0:
        q_tau = p_tau + c_eff
        ld_grad_i = (gamma * dfl_grad_i
                     + lam * kd_loss(z_s, _logits_for(q_tau, tau), tau).grad[i])
        measured = float(ld_grad_i / dfl_grad_i)
        return RescalingReport(
            measured_ratio=measured,
            predicted_ratio=float(predicted),
            abs_error=abs(measured - predicted),
            trials=0,
        )

    if trials < 2:
        raise ValueError("Monte-Carlo mode needs at least 2 trials")
    if rng is None:
        rng = np.random.default_rng(0)
    m = p.shape[0]
    ratios = np.empty(trials)
    done = 0
    while done < trials:
        draw = min(trials - done, 65536)
        eta = rng.normal(0.0, eta_scale, size=(draw, m))
        eta -= eta.mean(axis=1, keepdims=True)
        q_tau = p_tau[None, :] + c_eff[None, :] + eta
        ok = q_tau.min(axis=1) > 1e-9  # off-simplex draws are rejected and redrawn
        n_ok = int(ok.sum())
        # (gamma * dfl + (lam / tau) * (p_tau - q_tau))_i / dfl_i, vectorized
        # over trials; identical to composing dfl_loss and kd_loss gradients.
        num = gamma * dfl_grad_i + (lam / tau) * (p_tau[i] - q_tau[ok, i])
        ratios[done:done + n_ok] = num / dfl_grad_i
        done += n_ok
    measured = float(ratios.mean())
    std_error = float(ratios.std(ddof=1) / math.sqrt(trials))
    return RescalingReport(
        measured_ratio=measured,
        predicted_ratio=float(predicted),
        abs_error=abs(measured - predicted),
        std_error=std_error,
        trials=trials,
    )


def incorrect_position_gradient_sum(
    student_logits,
    teacher_logits,
    target: TwoHotTarget,
    gamma: float,
    lam: float,
    tau: float,
) -> tuple[float, float]:
    """Return ``(sum over s != i of grad_s, -grad_i)`` for the combined
    two-hot supervised + distillation gradient; the two agree because the
    gradient is tangent to the simplex (entries sum to zero)."""
    g = gamma * dfl_loss(student_logits, target).grad
    if lam != 0.0:
        g = g + lam * kd_loss(student_logits, teacher_logits, tau).grad
    i = target.i
    return float(g.sum() - g[i]), float(-g[i])


# ---------------------------------------------------------------------------
# randomized certificates (consumed by the verification CLI)
# ---------------------------------------------------------------------------

def _spawn_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def certify_proposition1(trials: int = 1000, sizes: tuple[int, ...] = (5, 9, 17),
                         seed: int = 0, perturbation: float = 0.0) -> dict:
    """Randomized certificate for the combined-target gradient identity."""
    rng = _spawn_rng(seed, 1)
    worst = 0.0
    for k in range(trials):
        m = sizes[k % len(sizes)]
        s = rng.dirichlet(np.ones(m))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(m))
        u1 = rng.uniform(0.05, 0.95)
        tau = rng.uniform(1.0, 20.0)
        worst = max(worst, verify_proposition1(s, p, q, u1, tau, perturbation=perturbation))
    return {"max_discrepancy": worst, "trials": trials, "sizes": list(sizes)}


def certify_decomposition(trials: int = 1000, sizes: tuple[int, ...] = (5, 9, 17),
                          seed: int = 0) -> dict:
    """Randomized certificate for the decomposition: the residual, the rank
    and the smallest entry of any returned (p, q), which is nonnegative
    when every pair lies on the simplex."""
    rng = _spawn_rng(seed, 2)
    drawn: dict[int, tuple[list, list]] = {}
    for k in range(trials):
        m = sizes[k % len(sizes)]
        l = rng.dirichlet(np.ones(m))
        u1 = rng.uniform(0.05, 0.95)
        rng.choice(m, size=2, replace=False)  # bracketing indices; the algebra ignores them
        ls, u1s = drawn.setdefault(m, ([], []))
        ls.append(l)
        u1s.append(u1)
    worst = 0.0
    ranks_ok = True
    min_entry = math.inf
    for m, (ls, u1s) in drawn.items():
        x, residual, rank = _decompose_stack(np.array(ls), np.array(u1s))
        worst = max(worst, float(residual.max()))
        ranks_ok = ranks_ok and bool(np.all(rank == m + 1))
        min_entry = min(min_entry, float(x.min()))
    return {"max_residual": worst, "rank_ok": ranks_ok, "min_entry": min_entry,
            "trials": trials, "sizes": list(sizes)}


def _check_rescaling_noise(eta_scale: float, size: int = _RESCALING_SIZE) -> None:
    """Raise ``ValueError`` unless a teacher mean of ``size`` bins, whose
    smallest component is at most ``1 / size``, can sit the Monte-Carlo
    margin inside the simplex."""
    if not (0.0 <= eta_scale < math.inf):
        raise ValueError(f"eta_scale must be nonnegative and finite, got {eta_scale!r}")
    if _MC_SIMPLEX_MARGIN * eta_scale >= 1.0 / size:
        raise ValueError(f"eta_scale {eta_scale!r} is too large for {size} bins: the Monte-Carlo "
                         f"margin {_MC_SIMPLEX_MARGIN:g} * eta_scale must stay below 1/{size}")


def certify_rescaling(trials: int = 1000, seed: int = 0, size: int = _RESCALING_SIZE,
                      mc_instances: int = 5, mc_trials: int = 100_000,
                      eta_scale: float = 0.01) -> dict:
    """Randomized certificate for the gradient-rescaling corollary.

    The noise-free identity is checked over ``trials`` random instances;
    the noisy expectation over ``mc_instances`` Monte-Carlo runs of
    ``mc_trials`` draws each, requiring agreement within 3 standard errors.
    Monte-Carlo instances whose teacher mean ``p_tau + c`` has a component
    less than ``6 * eta_scale`` inside the simplex are redrawn rather than
    scored: there the rejection of off-simplex noise draws truncates the
    noise, which the closed form does not model. ``ValueError`` is raised
    when ``eta_scale`` leaves no room for that margin, or when more than
    ``_MC_MAX_REDRAWS`` teacher means per scored instance fall inside it.
    """
    _check_rescaling_noise(eta_scale, size)
    rng = _spawn_rng(seed, 3)

    def random_instance():
        p = rng.dirichlet(np.ones(size))
        i = int(rng.integers(0, size - 1))
        u1 = rng.uniform(0.05, 0.95)
        target = TwoHotTarget(i=i, u1=u1, u2=1.0 - u1)
        if abs(target.u1 - p[i]) < 0.05:  # keep the probed ratio well-conditioned
            return None
        c = rng.normal(0.0, 0.01, size=size)
        gamma = rng.uniform(0.25, 2.0)
        lam = rng.uniform(0.25, 2.0)
        tau = rng.uniform(1.0, 20.0)
        return p, c, gamma, lam, tau, target

    worst = 0.0
    done = 0
    while done < trials:
        inst = random_instance()
        if inst is None:
            continue
        p, c, gamma, lam, tau, target = inst
        report = gradient_rescaling_ratio(p, c, 0.0, gamma, lam, tau, target)
        worst = max(worst, report.abs_error)
        done += 1

    mc_max_err_over_se = 0.0
    mc_ok = True
    done = 0
    redraws = 0
    while done < mc_instances:
        inst = random_instance()
        if inst is None:
            continue
        p, c, gamma, lam, tau, target = inst
        teacher_mean = generalized_softmax(np.log(p), tau) + c - c.mean()
        if teacher_mean.min() < _MC_SIMPLEX_MARGIN * eta_scale:
            redraws += 1
            if redraws > _MC_MAX_REDRAWS * mc_instances:
                raise ValueError(f"eta_scale {eta_scale!r}: {redraws} teacher means fell within "
                                 f"{_MC_SIMPLEX_MARGIN:g} * eta_scale of the simplex boundary")
            continue
        report = gradient_rescaling_ratio(
            p, c, eta_scale, gamma, lam, tau, target,
            trials=mc_trials, rng=_spawn_rng(seed, 4 + done))
        ratio = report.abs_error / report.std_error if report.std_error else 0.0
        mc_max_err_over_se = max(mc_max_err_over_se, ratio)
        mc_ok = mc_ok and report.abs_error <= 3.0 * report.std_error
        done += 1

    return {
        "max_abs_error": worst,
        "trials": trials,
        "mc_ok": mc_ok,
        "mc_max_err_over_se": mc_max_err_over_se,
        "mc_instances": mc_instances,
        "mc_trials": mc_trials,
        "eta_scale": eta_scale,
    }

"""Numerical certification of the distillation-vs-supervision identities.

Three facts are checked to double precision. Each certificate draws all
trials of one vector length with one generator call per quantity, taking the
lengths in order of first appearance, and solves them as one stack; the
gradients come from the loss kernels that training uses
(``boxdist._log_softmax_pair``, ``losses._tempered_kl``, ``losses._cross_entropy``).

1. The distillation gradient against a convex combination of two target
   distributions equals the same convex combination of the gradients against
   each target separately.
2. Any localization probability vector decomposes into two classification
   probabilities under the affine system {sum p = 1, sum q = 1,
   u1*p + u2*q = l}: for every trial the system's coefficient matrix has
   rank ``len(l) + 1``, and a nonnegative pair (p, q) reconstructs ``l``
   exactly.
3. Adding distillation to the two-hot supervised loss rescales its
   per-logit gradient by ``gamma + (lam / tau) * c_i / (u_i - p_i)`` in
   expectation under an additive teacher-confidence model. The noise-free
   identity and the Monte-Carlo expectation are each solved as one stack;
   the expectation averages each instance over antithetic draws of the one
   noise coordinate the ratio reads, so it equals the closed form to
   rounding.

The public one-vector functions (:func:`verify_proposition1`,
:func:`decompose_localization`, :func:`gradient_rescaling_ratio`) are
validated one-row calls of the same stacked kernels. The stacks are drawn
as ``(n, m)`` arrays, one trial per row, and reach the kernels transposed,
bins first (see :mod:`locdistill.losses`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._checks import (check_count, check_finite, check_nonnegative, check_positive,
                      check_unit_interval)
from .boxdist import (PROB_SUM_TOL, TwoHotTarget, _as_probabilities, _log_softmax_pair,
                      _softmax, _two_hot)
from .losses import _cross_entropy, _tempered_kl

__all__ = [
    "DecompositionResult",
    "RescalingReport",
    "verify_proposition1",
    "decompose_localization",
    "gradient_rescaling_ratio",
    "certify_proposition1",
    "certify_decomposition",
    "certify_rescaling",
]

logger = logging.getLogger(__name__)


def _check_simplex(p, name: str) -> np.ndarray:
    """``p`` as float64 if it is a strictly positive probability vector, or an
    ``(n, m)`` stack whose every row is one."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (1, 2):
        raise ValueError(f"{name} must be a 1-D probability vector or an (n, m) stack of them, "
                         f"got shape {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
        raise ValueError(f"{name} must be strictly positive (logit reconstruction needs log)")
    sums = np.atleast_1d(p.sum(axis=-1))
    off = np.flatnonzero(np.abs(sums - 1.0) > PROB_SUM_TOL)
    if off.size:
        raise ValueError(f"{name} must sum to 1, got {float(sums[off[0]])!r}")
    return p


def _check_sizes(sizes) -> tuple[int, ...]:
    if len(sizes) == 0:
        raise ValueError("sizes must be a non-empty list of lengths")
    return tuple(check_count("sizes", m, 2) for m in sizes)


def _check_pairs(name: str, value) -> int:
    """``value`` as an ``int``: antithetic Monte-Carlo draws come in pairs."""
    if not (value >= 2 and value % 2 == 0):  # an even float is integral
        raise ValueError(f"{name} must be an even number of at least 2 draws, got {value!r}")
    return int(value)


def _logits_for(p: np.ndarray, tau) -> np.ndarray:
    """Logits whose tempered softmax reproduces ``p`` (up to rounding)."""
    return tau * np.log(p)


def _proposition1_gaps(s: np.ndarray, p: np.ndarray, q: np.ndarray, u1: np.ndarray,
                       tau: np.ndarray, perturbation: float = 0.0) -> np.ndarray:
    """Each row's max elementwise gap between the combined-target gradient
    and the combination of per-target gradients.

    ``s``, ``p`` and ``q`` are ``(n, m)`` stacks of tempered probabilities,
    ``u1`` and ``tau`` ``(n, 1)`` columns. The three teachers' gradients are
    one call of the training KD kernel on the transposed ``(m, 3, n, 1)``
    array: its trailing anchor axis is 1, so the ``1 / (tau * K)`` divisor
    is the one-row one. ``perturbation`` biases the combined-target
    gradient (a negative control).
    """
    u2 = 1.0 - u1
    combined = u1 * p + u2 * q
    teachers = np.stack([combined, p, q], axis=1).T[..., None]
    lt, q_t = _log_softmax_pair(_logits_for(teachers, tau), tau)
    _, grad = _tempered_kl(_logits_for(s.T[:, None, :, None], tau), lt, q_t, tau)
    g_combined, g_p, g_q = grad[:, 0], grad[:, 1], grad[:, 2]
    return np.abs(g_combined + perturbation - (u1 * g_p + u2 * g_q)).max(axis=0)[:, 0]


def verify_proposition1(s, p, q, u1: float, tau: float,
                        perturbation: float = 0.0) -> float:
    """Max elementwise gap between the combined-target gradient and the
    combination of per-target gradients.

    All three inputs are tempered probability vectors and ``u1`` in [0, 1]
    weights the first target; the gradients come from the KD training kernel
    on reconstructed logits (see :func:`_proposition1_gaps`, of which this is
    the one-row call). ``perturbation`` biases the combined-target gradient
    and exists only as a negative-control hook for the verification CLI.
    """
    s = _check_simplex(s, "student probabilities")
    p = _check_simplex(p, "first target")
    q = _check_simplex(q, "second target")
    if s.ndim != 1 or s.shape != p.shape or p.shape != q.shape:
        raise ValueError("probability vectors must be 1-D and share one length")
    check_unit_interval("u1", u1)  # outside, the combined target leaves the simplex
    check_positive("temperature", tau)
    check_finite("perturbation", perturbation)  # a NaN gap would vanish in the certificate's max
    return float(_proposition1_gaps(s[None], p[None], q[None], np.array([[u1]]),
                                    np.array([[tau]]), perturbation)[0])


@dataclass(frozen=True)
class DecompositionResult:
    """Decomposition of a localization probability into two classification ones."""

    p: np.ndarray
    q: np.ndarray
    residual: float


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


def _min_norm_solve(a_mat: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(np.linalg.pinv(a_mat) @ b, np.linalg.matrix_rank(a_mat))`` for a
    stack of systems, from one SVD. The cutoffs are numpy's own, so ``x`` is
    the pseudo-inverse solution bit for bit."""
    u, s, vt = np.linalg.svd(a_mat, full_matrices=False)
    s_max = s.max(axis=-1, keepdims=True)
    rank = np.count_nonzero(s > s_max * (max(a_mat.shape[-2:]) * np.finfo(s.dtype).eps),
                            axis=-1)
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-15 * s_max)
    pinv = np.swapaxes(vt, -1, -2) @ (s_inv[..., None] * np.swapaxes(u, -1, -2))
    return (pinv @ b[..., None])[..., 0], rank


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
    x, rank = _min_norm_solve(*_decomposition_system(l, u1))
    toward = np.concatenate([l, l], axis=-1) - x
    t = np.divide(-x, toward, out=np.zeros_like(x), where=x < 0.0).max(axis=-1)
    x = x + t[:, None] * toward
    p, q = x[:, :m], x[:, m:]
    u1 = u1[:, None]
    residual = np.abs(u1 * p + (1.0 - u1) * q - l).max(axis=-1)
    residual = np.maximum(residual, np.abs(p.sum(axis=-1) - 1.0))
    residual = np.maximum(residual, np.abs(q.sum(axis=-1) - 1.0))
    return x, residual, rank


def decompose_localization(l, u1: float) -> DecompositionResult:
    """Solve {sum p = 1, sum q = 1, u1*p + u2*q = l} for a nonnegative (p, q).

    ``l`` must be a probability vector (zero entries allowed). Returns the
    minimum-norm solution when it is nonnegative, and otherwise the first
    nonnegative point on the segment from it to the solution ``(l, l)``.
    """
    l = _as_probabilities(l, name="localization vector")
    m = l.shape[0]
    if not (0.0 < u1 < 1.0):
        raise ValueError(f"u1 must lie strictly inside (0, 1), got {u1}")
    x, residual, _ = _decompose_stack(l[None, :], np.array([u1], dtype=np.float64))
    x = x[0]
    return DecompositionResult(p=x[:m], q=x[m:], residual=float(residual[0]))


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
        # Written so that a NaN anywhere fails it.
        if not abs(self.abs_error - abs(self.measured_ratio - self.predicted_ratio)) <= 1e-15:
            raise ValueError("abs_error must equal |measured - predicted|")


def _prepare_confidence(p_tau: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Center each row of the ``(n, m)`` confidence stack and shrink it until
    its teacher stays strictly inside the simplex. A call that shrinks any
    row logs one line: how many rows, and the smallest scale."""
    c = c - c.mean(axis=-1, keepdims=True)
    floor = 1e-6
    low = (p_tau + c).min(axis=-1) < floor
    if not low.any():
        return c
    worst = np.where(c < 0.0, (p_tau - floor) / np.maximum(-c, 1e-300), np.inf).min(axis=-1)
    scale = np.where(low, np.minimum(1.0, worst), 1.0)
    logger.warning("%d of %d confidence vectors scaled, the smallest by %.6g, to keep the "
                   "teacher on the simplex", int(low.sum()), low.size, scale.min())
    return c * scale[:, None]


def _rescaling_setup(p: np.ndarray, c: np.ndarray, i: np.ndarray, u1: np.ndarray,
                     u2: np.ndarray, gamma: np.ndarray, lam: np.ndarray, tau: np.ndarray):
    """The noise-free steps of the rescaling identity for ``(n, m)`` stacks
    ``p`` and ``c`` and per-row ``(n,)`` two-hot targets ``(i, u1, u2)`` and
    coefficients. Returns the transposed ``(m, n, 1)`` student logits,
    ``p_tau``, the prepared confidence, the predicted ratio and the two-hot
    DFL gradient at ``i``. The softmax and the DFL gradient are one call
    each of the training kernels on the transposed stack, whose trailing
    anchor axis is 1."""
    n, m = p.shape
    rows = np.arange(n)
    z_s = np.log(p).T[..., None]
    p_tau = _softmax(z_s, tau[:, None])[..., 0].T
    c_eff = _prepare_confidence(p_tau, c)
    predicted = gamma + (lam / tau) * c_eff[rows, i] / (u1 - p[rows, i])
    target, picks = _two_hot(i, u1, u2, m)
    _, dfl_grad, _ = _cross_entropy(z_s, picks, target[..., None], 1.0)
    return z_s, p_tau, c_eff, predicted, dfl_grad[i, rows, 0]


def _exact_rescaling(p: np.ndarray, c: np.ndarray, i: np.ndarray, u1: np.ndarray,
                     u2: np.ndarray, gamma: np.ndarray, lam: np.ndarray,
                     tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measured and predicted noise-free rescaling ratios, ``(n,)`` each, for
    the stacked instances of :func:`_rescaling_setup`. The teacher is
    ``q_tau = p_tau + c``; its KD gradient is one call of the training KD
    kernel on the transposed ``(m, n, 1)`` stack."""
    z_s, p_tau, c_eff, predicted, dfl_i = _rescaling_setup(p, c, i, u1, u2, gamma, lam, tau)
    tau_col = tau[:, None]
    lt, q = _log_softmax_pair(_logits_for(p_tau + c_eff, tau_col).T[..., None], tau_col)
    _, kd_grad = _tempered_kl(z_s, lt, q, tau_col)
    ld_i = gamma * dfl_i + lam * kd_grad[i, np.arange(p.shape[0]), 0]
    return ld_i / dfl_i, predicted


def _noisy_rescaling(p: np.ndarray, c: np.ndarray, i: np.ndarray, u1: np.ndarray,
                     u2: np.ndarray, gamma: np.ndarray, lam: np.ndarray, tau: np.ndarray,
                     eta_scale: float, trials: int, rngs) -> tuple[np.ndarray, ...]:
    """Measured mean, predicted ratio and standard error, ``(n,)`` each, of
    the rescaling identity under teacher noise, for the stacked instances of
    :func:`_rescaling_setup` and one generator per row.

    Only the probed bin of each centred noise vector enters the ratio. For
    ``m`` iid N(0, eta^2) entries, ``eta_i - mean(eta)`` is N(0, eta^2 (m - 1) / m),
    so each row draws ``trials / 2`` values of that marginal and uses each
    with both signs.
    """
    n, m = p.shape
    rows = np.arange(n)
    _, p_tau, c_eff, predicted, dfl_i = _rescaling_setup(p, c, i, u1, u2, gamma, lam, tau)
    scale = eta_scale * math.sqrt((m - 1) / m)
    half = trials // 2
    p_tau_i = p_tau[rows, i][:, None]
    dfl_i = dfl_i[:, None]
    # One (n, trials) buffer, turned in place from the signed draws into
    # q_tau_i and then into (gamma * dfl + (lam / tau) * (p_tau - q_tau))_i / dfl_i,
    # identical to composing the dfl_loss and kd_loss gradients.
    ratios = np.empty((n, trials))
    for row, rng in zip(ratios, rngs):
        row[:half] = rng.normal(0.0, scale, size=half)
    np.negative(ratios[:, :half], out=ratios[:, half:])
    ratios += p_tau_i + c_eff[rows, i][:, None]
    np.subtract(p_tau_i, ratios, out=ratios)
    ratios *= (lam / tau)[:, None]
    ratios += gamma[:, None] * dfl_i
    ratios /= dfl_i
    measured = ratios.mean(axis=1)
    # ratios.std(axis=1, ddof=1), without its (n, trials) copy.
    ratios -= measured[:, None]
    std = np.sqrt(np.square(ratios, out=ratios).sum(axis=1) / (trials - 1))
    return measured, predicted, std / math.sqrt(trials)


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
    ``eta_scale``, centred so that ``q_tau`` sums to 1. With
    ``eta_scale = 0`` the measured ratio is computed through the real loss
    code paths and must match exactly. With noise the ratio is averaged over
    ``trials`` (even) Monte-Carlo draws: ``trials / 2`` draws of the probed
    bin's centred noise, taken from its exact marginal (the one-row call of
    :func:`_noisy_rescaling`), each used as ``+eta_i`` and ``-eta_i``. The
    ratio is affine in ``q_tau``, so this antithetic average equals the
    closed form to rounding. The draws are not restricted to the simplex:
    the ratio needs only ``q_tau`` summing to 1. ``std_error`` is what an
    average of independent draws would carry.
    """
    p = _check_simplex(p, "student probabilities")
    c = np.asarray(c, dtype=np.float64)
    if p.ndim != 1 or c.shape != p.shape:
        raise ValueError(f"confidence vector shape {c.shape} does not match the 1-D {p.shape}")
    if not np.isfinite(c).all():
        raise ValueError("confidence vector must be finite")
    check_positive("temperature", tau)
    check_finite("gamma", gamma)
    check_finite("lam", lam)
    check_nonnegative("eta_scale", eta_scale)
    i = target.i
    if i + 1 >= p.shape[0]:
        raise ValueError("two-hot target index out of range for the probability vector")
    if abs(target.u1 - p[i]) < 1e-9:
        raise ValueError("predicted ratio is singular: u_i equals p_i at the probed index")

    row = (p[None], c[None], np.array([i]),
           *(np.array([v], dtype=np.float64) for v in (target.u1, target.u2, gamma, lam, tau)))
    if eta_scale == 0.0:
        measured, predicted = _exact_rescaling(*row)
        return RescalingReport(
            measured_ratio=measured[0],
            predicted_ratio=predicted[0],
            abs_error=abs(measured[0] - predicted[0]),
            trials=0,
        )

    trials = _check_pairs("trials", trials)
    if rng is None:
        rng = np.random.default_rng(0)
    measured, predicted, std_error = _noisy_rescaling(*row, eta_scale, trials, [rng])
    return RescalingReport(
        measured_ratio=measured[0],
        predicted_ratio=predicted[0],
        abs_error=abs(measured[0] - predicted[0]),
        std_error=float(std_error[0]),
        trials=trials,
    )


# ---------------------------------------------------------------------------
# randomized certificates (consumed by the verification CLI)
# ---------------------------------------------------------------------------

def _spawn_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _trials_per_size(trials: int, sizes) -> dict[int, int]:
    """Trial ``k`` has length ``sizes[k % len(sizes)]``: the number of trials
    of each distinct length, in order of first appearance, lengths with no
    trial left out."""
    counts = dict.fromkeys(sizes, 0)
    for k, m in enumerate(sizes):
        counts[m] += len(range(k, trials, len(sizes)))
    return {m: n for m, n in counts.items() if n}


def certify_proposition1(trials: int = 1000, sizes: tuple[int, ...] = (5, 9, 17),
                         seed: int = 0, perturbation: float = 0.0) -> dict:
    """Randomized certificate for the combined-target gradient identity:
    the trials of one length are solved as one stack."""
    trials = check_count("trials", trials)
    sizes = _check_sizes(sizes)
    check_finite("perturbation", perturbation)
    rng = _spawn_rng(seed, 1)
    worst = 0.0
    for m, n in _trials_per_size(trials, sizes).items():
        s, p, q = rng.dirichlet(np.ones(m), size=(3, n))
        u1 = rng.uniform(0.05, 0.95, size=(n, 1))
        tau = rng.uniform(1.0, 20.0, size=(n, 1))
        for name, stack in (("student probabilities", s), ("first target", p),
                            ("second target", q)):
            _check_simplex(stack, name)
        gaps = _proposition1_gaps(s, p, q, u1, tau, perturbation)
        worst = max(worst, float(gaps.max()))
    return {"max_discrepancy": worst, "trials": trials, "sizes": list(sizes)}


def certify_decomposition(trials: int = 1000, sizes: tuple[int, ...] = (5, 9, 17),
                          seed: int = 0) -> dict:
    """Randomized certificate for the decomposition: the residual, the rank
    and the smallest entry of any returned (p, q), which is nonnegative
    when every pair lies on the simplex."""
    trials = check_count("trials", trials)
    sizes = _check_sizes(sizes)
    rng = _spawn_rng(seed, 2)
    worst = 0.0
    ranks_ok = True
    min_entry = math.inf
    for m, n in _trials_per_size(trials, sizes).items():
        l = rng.dirichlet(np.ones(m), size=n)
        u1 = rng.uniform(0.05, 0.95, size=n)
        x, residual, rank = _decompose_stack(l, u1)
        worst = max(worst, float(residual.max()))
        ranks_ok = ranks_ok and bool(np.all(rank == m + 1))
        min_entry = min(min_entry, float(x.min()))
    return {"max_residual": worst, "rank_ok": ranks_ok, "min_entry": min_entry,
            "trials": trials, "sizes": list(sizes)}


def _rescaling_draws(rng: np.random.Generator, n: int, size: int) -> tuple:
    """Exactly ``n`` rescaling instances of ``size`` bins, as the stacks
    ``(p, c, i, u1, gamma, lam, tau)``. Candidates are drawn in blocks as
    large as the shortfall, one generator call per quantity, and kept where
    the probed ratio is well-conditioned, ``|u1 - p_i| >= 0.05``."""
    blocks = []
    kept = 0
    while kept < n:
        k = n - kept
        p = rng.dirichlet(np.ones(size), size=k)
        i = rng.integers(0, size - 1, size=k)
        u1 = rng.uniform(0.05, 0.95, size=k)
        c = rng.normal(0.0, 0.01, size=(k, size))
        gamma = rng.uniform(0.25, 2.0, size=k)
        lam = rng.uniform(0.25, 2.0, size=k)
        tau = rng.uniform(1.0, 20.0, size=k)
        keep = np.abs(u1 - p[np.arange(k), i]) >= 0.05
        blocks.append(tuple(a[keep] for a in (p, c, i, u1, gamma, lam, tau)))
        kept += int(keep.sum())
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def certify_rescaling(trials: int = 1000, seed: int = 0, size: int = 9,
                      mc_instances: int = 5, mc_trials: int = 100_000,
                      eta_scale: float = 0.01) -> dict:
    """Randomized certificate for the gradient-rescaling corollary.

    The noise-free identity is checked over ``trials`` random instances,
    solved as one stack; the noisy expectation over ``mc_instances`` further
    instances, also one stack, each row averaged over ``mc_trials``
    antithetic draws from its own generator (see :func:`_noisy_rescaling`).
    Both kinds of instance come from :func:`_rescaling_draws` on one
    generator, and each part reports its largest absolute error against the
    closed form.
    """
    trials = check_count("trials", trials)
    mc_instances = check_count("mc_instances", mc_instances)
    mc_trials = _check_pairs("mc_trials", mc_trials)
    size = check_count("size", size, 2)
    check_nonnegative("eta_scale", eta_scale)
    rng = _spawn_rng(seed, 3)

    p, c, i, u1, gamma, lam, tau = _rescaling_draws(rng, trials, size)
    measured, predicted = _exact_rescaling(_check_simplex(p, "student probabilities"),
                                           c, i, u1, 1.0 - u1, gamma, lam, tau)
    worst = float(np.abs(measured - predicted).max())

    p, c, i, u1, gamma, lam, tau = _rescaling_draws(rng, mc_instances, size)
    stack = (_check_simplex(p, "student probabilities"), c, i, u1, 1.0 - u1, gamma, lam, tau)
    if eta_scale == 0.0:
        measured, predicted = _exact_rescaling(*stack)
    else:
        rngs = [_spawn_rng(seed, 4 + k) for k in range(mc_instances)]
        measured, predicted, _ = _noisy_rescaling(*stack, eta_scale, mc_trials, rngs)
    mc_worst = float(np.abs(measured - predicted).max())

    return {
        "max_abs_error": worst,
        "trials": trials,
        "mc_max_abs_error": mc_worst,
        "mc_instances": mc_instances,
        "mc_trials": mc_trials,
        "eta_scale": eta_scale,
    }

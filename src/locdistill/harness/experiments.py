"""Teacher-student training schemes, evaluation metrics, and the per-seed
unit of work.

Training is deterministic full-batch gradient descent with fixed per-block
steps; every gradient comes from the loss module's closed forms. The
teacher is trained against the true edge mixtures (soft distribution
targets plus regression to the true boxes), emulating a stronger,
longer-trained model; students see only the sampled observations plus
whatever distillation signal their scheme adds. A scheme is the set of
terms it adds (:data:`SCHEMES`), and :func:`scheme_weights` is the one
place that turns it into a student's row of per-term weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .._checks import check_finite
from ..boxdist import BinGrid, _decode, _entropy, _log_softmax_pair
from ..losses import _COMPONENTS, _TERMS, DistillConfig, SceneObjective, _imitation, _tempered_kl
from .data import (
    Dataset,
    HarnessConfig,
    N_CLASSES,
    N_EDGES,
    binned_mixture,
    gen_dataset,
)
from .models import LinearLocalizer, init_localizer

__all__ = [
    "SCHEMES",
    "scheme_weights",
    "DivergenceError",
    "ExperimentReport",
    "train",
    "train_teacher",
    "evaluate",
    "run_cell",
    "run_seed",
]

_SEED_TAG_TEACHER = 0x7EAC
_SEED_TAG_STUDENT = 0x57D0

# A trace's loss columns are the objective's components, in order, then the total.
TRACE_COLUMNS = ("step", "L_cls", "L_reg", "L_DFL", "LD_main", "LD_vlr",
                 "KD_main", "KD_vlr", "total")


# Each scheme is the set of terms it adds to the supervised ones: names of
# losses._TERMS, and "fi" for feature imitation.
SCHEMES: dict[str, frozenset[str]] = {
    "baseline": frozenset(),
    "tbr": frozenset({"tbr"}),
    "kd_main": frozenset({"kd_main"}),
    "ld_main": frozenset({"ld_main"}),
    "ld_main_vlr": frozenset({"ld_main", "ld_vlr"}),
    "selective": frozenset({"ld_main", "ld_vlr", "kd_main"}),
    "feature_imitation": frozenset({"fi"}),
}


def _resolve_scheme(scheme: str) -> frozenset[str]:
    if scheme not in SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; valid schemes: {', '.join(sorted(SCHEMES))}"
        )
    return SCHEMES[scheme]


def scheme_weights(scheme: str, dcfg: DistillConfig, cfg: HarnessConfig) -> list[float]:
    """The row of per-term weights, in ``_TERMS`` order, that ``scheme``
    trains with: the supervised weights of ``dcfg``, its distillation
    weights on the terms the scheme adds and 0 elsewhere, and TBR at
    ``cfg.tbr_weight`` if the scheme adds it.

    LD terms run at ``tau**2`` times their weight, which keeps the LD step
    independent of ``tau`` (Hinton et al., arXiv:1503.02531, section 2).
    In LD schemes the two-hot supervised term runs at ``cfg.ld_dfl_scale``
    times its weight: the distilled distributions carry the edge
    supervision, and at full weight the noisy sampled targets drown the
    teacher signal.
    """
    terms = _resolve_scheme(scheme) | {"cls", "reg", "dfl"}
    ld_scale = dcfg.tau * dcfg.tau
    scale = {"dfl": cfg.ld_dfl_scale if terms & {"ld_main", "ld_vlr"} else 1.0,
             "ld_main": ld_scale, "ld_vlr": ld_scale}
    weight = {t: getattr(dcfg, "w_" + t) for t in _COMPONENTS} | {"tbr": cfg.tbr_weight}
    return [weight[t] * scale.get(t, 1.0) if t in terms else 0.0 for t in _TERMS]


def _check_imitation(schemes, cfg: HarnessConfig) -> None:
    """Feature imitation trains the features alone, so it needs
    ``cfg.train_features``."""
    if not cfg.train_features:
        for scheme in schemes:
            if "fi" in _resolve_scheme(scheme):
                raise ValueError(f"scheme {scheme!r} imitates features, which "
                                 "harness.train_features=false leaves untrained")


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss: names the scheme (or
    ``teacher``), the seed, the temperature and the step."""

    def __init__(self, who: str, seed: int, tau: float, step: int) -> None:
        super().__init__(who, seed, tau, step)

    def __str__(self) -> str:
        who, seed, tau, step = self.args
        return (f"{who} training diverged: non-finite loss at step {step} "
                f"(seed {seed}, tau {tau:g})")


def _descend(students: LinearLocalizer, x: np.ndarray, objective: SceneObjective,
             cfg: HarnessConfig, epochs: int, run: tuple, imitate=None,
             trace: list | None = None) -> None:
    """Full-batch gradient descent on ``objective`` for ``epochs`` steps, in
    place, of a stack of S students: ``students`` with a leading scheme axis
    and ``objective`` over the same S schemes. ``imitate``, if given, is
    ``(models, features)``: the indices of the students that imitate
    features and the one ``(A, hidden)`` block they all imitate; it adds
    feature imitation, on bins-first ``(hidden, A)`` blocks, to every step
    of those students. ``trace`` holds one list per scheme, which collects
    each step's loss components before its update. ``run`` is
    ``(names, seed, tau)``; a :class:`DivergenceError` names the first
    scheme, in stack order, that is non-finite at the earliest such step."""
    names, seed, tau = run
    # x is fixed under full-batch descent, so the bins-first inputs and the
    # rows whose edges the objective reads are taken once.
    xt = np.ascontiguousarray(x.T)
    blocks = [(x[rows], models) for rows, models in objective.edge_blocks]
    xt_blocks = [(np.ascontiguousarray(x_rows.T), models) for x_rows, models in blocks]
    fi = None  # the students that imitate features
    if imitate is not None:
        fi, features = imitate
        imitated = np.ascontiguousarray(features.T)
    log = np.empty((epochs, len(TRACE_COLUMNS) - 1, len(names)))
    # The finite check on each step's loss replaces numpy's overflow warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(epochs):
            values, g_cls, g_edges, terms = objective.block_step(
                *students.block_logits(xt, *xt_blocks))
            g_hidden = None
            if fi is not None:
                fi_values, g_fi = _imitation(students.block_features(xt, fi), imitated)
                values[fi] += cfg.fi_weight * fi_values
                g_hidden = cfg.fi_weight * g_fi
            d_head, d_features = students.block_gradients(
                x, g_cls, *((x_rows, g, models) for (x_rows, models), g in zip(blocks, g_edges)),
                grad_hidden=g_hidden, train_features=cfg.train_features, hidden_models=fi)
            finite = np.isfinite(values)
            if not finite.all():
                raise DivergenceError(names[np.argmin(finite)], seed, tau, step)
            log[step, :-1] = terms[:len(_COMPONENTS)]
            log[step, -1] = values
            d_head *= cfg.lr
            students.head_weights -= d_head
            if d_features is not None:
                d_features *= cfg.lr
                students.feature_weights -= d_features
    for rows, out in zip(log.transpose(2, 0, 1).tolist(), trace or ()):
        out.extend(dict(zip(TRACE_COLUMNS, (step, *row))) for step, row in enumerate(rows))


def train(
    students: LinearLocalizer,
    dataset: Dataset,
    schemes: list[str],
    teacher: LinearLocalizer | None,
    cfg: HarnessConfig,
    dcfg: DistillConfig,
    seed: int = 0,
) -> tuple[LinearLocalizer, list[list[dict]]]:
    """Train a stack of students in place, student ``i`` under
    ``schemes[i]``, whose :func:`scheme_weights` row is its row of the
    objective; returns the stack and one per-epoch loss trace per scheme
    (components before each update step). Feature imitation needs
    ``cfg.train_features``. The teacher's forward
    runs once, for every scheme. ``seed`` only names the run in a
    :class:`DivergenceError`. One scheme is a stack of one
    (``model[None]``, ``[scheme]``)."""
    if isinstance(schemes, str):
        raise TypeError(f"schemes must be a list of scheme names, got the string {schemes!r}")
    if students.feature_weights.ndim != 3 or len(students.feature_weights) != len(schemes):
        raise ValueError(f"{len(schemes)} schemes need a stack of {len(schemes)} students, "
                         f"got feature weights of shape {students.feature_weights.shape}")
    _check_imitation(schemes, cfg)
    distilling = [scheme for scheme in schemes if _resolve_scheme(scheme)]
    if distilling and teacher is None:
        raise ValueError(f"scheme {distilling[0]!r} distills from a teacher but none was given")
    stack = dataset.train
    x = stack.features
    teacher_out = teacher_hidden = None
    if distilling:
        teacher_out, teacher_hidden = teacher.forward(x)
    objective = SceneObjective(stack.truth, stack.masks, dcfg, teacher_out, N_CLASSES,
                               weights=[scheme_weights(s, dcfg, cfg) for s in schemes])
    fi = np.flatnonzero(["fi" in SCHEMES[s] for s in schemes])
    traces: list[list[dict]] = [[] for _ in schemes]
    _descend(students, x, objective, cfg, cfg.epochs, (tuple(schemes), seed, dcfg.tau),
             (fi, teacher_hidden) if fi.size else None, traces)
    return students, traces


def train_teacher(
    dataset: Dataset,
    cfg: HarnessConfig,
    dcfg: DistillConfig,
    seed: int,
) -> LinearLocalizer:
    """Train the teacher on the true mixtures.

    Supervision: classification cross-entropy everywhere, and on main
    positives the edge cross-entropy against the binned true mixture (in
    place of the two-hot DFL target, at unit weight) plus regression to the
    true box.
    """
    model = _new_model(cfg, dataset.grid, seed, _SEED_TAG_TEACHER)
    stack = dataset.train
    x = stack.features
    main_idx = np.flatnonzero(stack.main)
    # Smoothed distribution targets keep the teacher's logits bounded, so
    # distilling students have a finite equilibrium to converge to.
    m = dataset.grid.size
    bayes = binned_mixture(stack.centers[main_idx], stack.weights[main_idx], dataset.grid)
    bayes_main = (1.0 - cfg.label_smoothing) * bayes + cfg.label_smoothing / m
    # Regression targets the true geometry.
    true_truth = replace(stack.truth, edge_targets=stack.true_edges)
    weights = [[dcfg.w_cls, dcfg.w_reg, 1.0] + [0.0] * (len(_TERMS) - 3)]
    objective = SceneObjective(true_truth, stack.masks, dcfg, None, N_CLASSES,
                               edge_dists=bayes_main, weights=weights)
    _descend(model[None], x, objective, cfg, cfg.teacher_epochs, (("teacher",), seed, dcfg.tau))
    return model


@dataclass(frozen=True)
class ExperimentReport:
    """Held-out metrics for one (scheme, seed) run."""

    scheme: str
    seed: int
    mae_edges: float
    kl_box: float
    kl_cls: float
    pearson_features: float
    pearson_box_logits: float
    flatness: float
    trace: tuple[dict, ...] = ()

    METRICS = ("mae_edges", "kl_box", "kl_cls", "pearson_features",
               "pearson_box_logits", "flatness")

    def __post_init__(self) -> None:
        for name in self.METRICS:
            object.__setattr__(self, name,
                               check_finite(f"report metric {name}", float(getattr(self, name))))
        for name in ("pearson_features", "pearson_box_logits"):
            v = getattr(self, name)
            if not (-1.0 - 1e-12 <= v <= 1.0 + 1e-12):
                raise ValueError(f"{name} must lie in [-1, 1], got {v}")
        object.__setattr__(self, "trace", tuple(self.trace))

    def rows(self) -> list[tuple[str, int, str, float]]:
        """Long-format (scheme, seed, metric, value) rows."""
        return [(self.scheme, self.seed, m, getattr(self, m)) for m in self.METRICS]


def _mean_pearson_columns(a: np.ndarray, b: np.ndarray) -> float:
    """Per-dimension Pearson correlation across samples, averaged over dims.

    Constant dimensions correlate as 1 when the two sides agree exactly and
    0 otherwise (the usual 0/0 case is undefined; this keeps self-comparison
    at exactly 1).
    """
    if a.shape != b.shape:
        raise ValueError(f"correlation needs matching shapes, got {a.shape} vs {b.shape}")
    a0 = a - a.mean(axis=0)
    b0 = b - b.mean(axis=0)
    sa = np.sqrt((a0 * a0).sum(axis=0))
    sb = np.sqrt((b0 * b0).sum(axis=0))
    live = (sa > 0.0) & (sb > 0.0)
    r = np.zeros(a.shape[1])
    r[live] = (a0[:, live] * b0[:, live]).sum(axis=0) / (sa[live] * sb[live])
    both_const = (sa == 0.0) & (sb == 0.0)
    r[both_const] = np.where(
        np.all(a[:, both_const] == b[:, both_const], axis=0), 1.0, 0.0)
    return float(r.mean())


def _mean_kl(z_teacher: np.ndarray, z_student: np.ndarray) -> float:
    """Teacher-to-student KL at unit temperature, averaged per anchor, on
    the bins-first (``.T``) views of ``(A, ...)`` logits."""
    return _tempered_kl(z_student.T, *_log_softmax_pair(z_teacher.T, 1.0), 1.0)[0]


def evaluate(students: LinearLocalizer, teacher: LinearLocalizer, dataset: Dataset,
             schemes: list[str], seed: int, traces) -> list[ExperimentReport]:
    """Held-out metrics of each student of a stack, in order, under its
    scheme's name and trace: decoded-edge MAE on positives, teacher-student
    KL per head, per-dimension Pearson correlations, and distribution
    flatness. The teacher's held-out forward runs once."""
    if not dataset.heldout:
        raise ValueError("dataset has no held-out split to evaluate on")
    stack = dataset.heldout
    x = stack.features
    main_idx = np.flatnonzero(stack.main)
    if main_idx.size == 0:
        raise ValueError("held-out split has no main positives to score MAE on")
    out_t, h_t = teacher.forward(x)
    a = x.shape[0]
    reports = []
    for i, (scheme, trace) in enumerate(zip(schemes, traces, strict=True)):
        out_s, h_s = students[i].forward(x)
        p_main, decoded = _decode(out_s.edge_logits[main_idx].T, dataset.grid)
        reports.append(ExperimentReport(
            scheme=scheme,
            seed=seed,
            mae_edges=float(np.abs(decoded - stack.true_edges[main_idx].T).mean()),
            kl_box=_mean_kl(out_t.edge_logits, out_s.edge_logits),
            kl_cls=_mean_kl(out_t.cls_logits, out_s.cls_logits),
            pearson_features=_mean_pearson_columns(h_t, h_s),
            pearson_box_logits=_mean_pearson_columns(
                out_t.edge_logits.reshape(a, -1), out_s.edge_logits.reshape(a, -1)),
            flatness=float(_entropy(p_main).mean()),
            trace=tuple(trace),
        ))
    return reports


def _new_model(cfg: HarnessConfig, grid: BinGrid, seed: int,
               tag: int = _SEED_TAG_STUDENT) -> LinearLocalizer:
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), tag)))
    return init_localizer(cfg.input_dim, cfg.hidden_dim, N_CLASSES, N_EDGES,
                          grid.size, rng)


def run_cell(cfg: HarnessConfig, dcfg: DistillConfig, schemes: list[str], seed: int,
             dataset: Dataset, teacher: LinearLocalizer) -> list[ExperimentReport]:
    """Train every scheme from the seed's one initial student as one stack
    on the seed's dataset and teacher, then evaluate each; reports in
    scheme order."""
    students = LinearLocalizer.stack([_new_model(cfg, dataset.grid, seed)] * len(schemes))
    students, traces = train(students, dataset, schemes, teacher, cfg, dcfg, seed)
    return evaluate(students, teacher, dataset, schemes, seed, traces)


def run_seed(cfg: HarnessConfig, dcfg: DistillConfig, schemes: list[str],
             seed: int) -> tuple[Dataset, list[ExperimentReport]]:
    """Every scheme of one seed: the seed's dataset and teacher are built
    once, and :func:`run_cell` trains its schemes together as one stacked
    student. Returns the dataset and the reports in scheme order."""
    dataset = gen_dataset(cfg, dcfg, seed)
    teacher = train_teacher(dataset, cfg, dcfg, seed)
    return dataset, run_cell(cfg, dcfg, schemes, seed, dataset, teacher)

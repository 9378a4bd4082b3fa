"""Teacher-student training schemes, evaluation metrics, and the per-seed
unit of work.

Training is deterministic full-batch gradient descent with fixed per-block
steps; every gradient comes from the loss module's closed forms. The
teacher is trained against the true edge mixtures (soft distribution
targets plus regression to the true boxes), emulating a stronger,
longer-trained model; students see only the sampled observations plus
whatever distillation signal their scheme enables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..boxdist import BinGrid, _entropy, _log_softmax
from ..losses import (
    DistillConfig,
    SceneObjective,
    SceneOutputs,
    feature_imitation_loss,
    _tempered,
    _tempered_kl,
)
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
    "SchemeSpec",
    "SCHEMES",
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

TRACE_COLUMNS = ("step", "L_cls", "L_reg", "L_DFL", "LD_main", "LD_vlr",
                 "KD_main", "KD_vlr", "total")


@dataclass(frozen=True)
class SchemeSpec:
    """Which loss terms a training scheme enables."""

    ld_main: bool = False
    ld_vlr: bool = False
    kd_main: bool = False
    kd_vlr: bool = False
    tbr: bool = False
    fi: bool = False

    @property
    def needs_teacher(self) -> bool:
        """Whether any enabled term reads the teacher."""
        return any((self.ld_main, self.ld_vlr, self.kd_main, self.kd_vlr, self.tbr, self.fi))


SCHEMES: dict[str, SchemeSpec] = {
    "baseline": SchemeSpec(),
    "tbr": SchemeSpec(tbr=True),
    "kd_main": SchemeSpec(kd_main=True),
    "ld_main": SchemeSpec(ld_main=True),
    "ld_main_vlr": SchemeSpec(ld_main=True, ld_vlr=True),
    "selective": SchemeSpec(ld_main=True, ld_vlr=True, kd_main=True),
    "feature_imitation": SchemeSpec(fi=True),
}


def scheme_config(scheme: SchemeSpec, base: DistillConfig,
                  ld_dfl_scale: float = 1.0) -> DistillConfig:
    """Zero out the distillation weights a scheme does not use and weight
    its LD terms by ``tau**2``, which keeps the LD step independent of
    ``tau`` (Hinton et al., arXiv:1503.02531, section 2).

    In LD schemes the two-hot supervised term runs at ``ld_dfl_scale``
    times its weight: the distilled distributions carry the edge
    supervision, and at full weight the noisy sampled targets drown the
    teacher signal.
    """
    distills_boxes = scheme.ld_main or scheme.ld_vlr
    ld_scale = base.tau * base.tau
    return replace(
        base,
        w_dfl=base.w_dfl * ld_dfl_scale if distills_boxes else base.w_dfl,
        w_ld_main=base.w_ld_main * ld_scale if scheme.ld_main else 0.0,
        w_ld_vlr=base.w_ld_vlr * ld_scale if scheme.ld_vlr else 0.0,
        w_kd_main=base.w_kd_main if scheme.kd_main else 0.0,
        w_kd_vlr=base.w_kd_vlr if scheme.kd_vlr else 0.0,
    )


def _resolve_scheme(scheme: str) -> SchemeSpec:
    if scheme not in SCHEMES:
        raise ValueError(
            f"unknown scheme {scheme!r}; valid schemes: {', '.join(sorted(SCHEMES))}"
        )
    return SCHEMES[scheme]


def _apply_update(model: LinearLocalizer, g_cls, g_edges, g_hidden,
                  hidden, x, cfg: HarnessConfig) -> None:
    d_edges = g_edges.reshape(len(g_edges), -1).T @ hidden
    model.cls_weights -= cfg.lr * (g_cls.T @ hidden)
    model.edge_weights -= cfg.lr * d_edges.reshape(model.edge_weights.shape)
    if cfg.train_features:
        model.feature_weights -= cfg.lr * (g_hidden.T @ x)


def _hidden_grad(model: LinearLocalizer, g_cls, g_edges) -> np.ndarray:
    w_edges = model.edge_weights
    return (g_cls @ model.cls_weights
            + g_edges.reshape(len(g_edges), -1) @ w_edges.reshape(-1, w_edges.shape[-1]))


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss: names the scheme (or
    ``teacher``), the seed, the temperature and the step."""

    def __init__(self, who: str, seed: int, tau: float, step: int) -> None:
        super().__init__(who, seed, tau, step)

    def __str__(self) -> str:
        who, seed, tau, step = self.args
        return (f"{who} training diverged: non-finite loss at step {step} "
                f"(seed {seed}, tau {tau:g})")


def train(
    model: LinearLocalizer,
    dataset: Dataset,
    scheme: str,
    teacher: LinearLocalizer | None,
    cfg: HarnessConfig,
    dcfg: DistillConfig,
    seed: int = 0,
) -> tuple[LinearLocalizer, list[dict]]:
    """Train a student in place under one scheme; returns the model and the
    per-epoch loss trace (components before each update step). ``seed``
    only names the run in a :class:`DivergenceError`."""
    spec = _resolve_scheme(scheme)
    if spec.needs_teacher and teacher is None:
        raise ValueError(f"scheme {scheme!r} distills from a teacher but none was given")
    run_cfg = scheme_config(spec, dcfg, cfg.ld_dfl_scale)

    stack = dataset.train
    x = stack.features
    a = x.shape[0]
    teacher_out: SceneOutputs | None = None
    teacher_hidden = None
    if teacher is not None:
        teacher_out, teacher_hidden = teacher.forward(x)
    if spec.fi and teacher_hidden is not None \
            and teacher_hidden.shape[1] != model.hidden_dim:
        raise ValueError(
            "feature imitation needs matching hidden sizes "
            f"(student {model.hidden_dim}, teacher {teacher_hidden.shape[1]})"
        )

    objective = SceneObjective(stack.truth, stack.masks, run_cfg, teacher_out, N_CLASSES,
                               tbr_weight=cfg.tbr_weight if spec.tbr else 0.0)
    everywhere = np.ones(a, dtype=bool)
    trace: list[dict] = []
    # The finite check on each step's loss replaces numpy's overflow warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.epochs):
            out, hidden = model.forward(x)
            value, g_cls, g_edges, comps = objective.step(out)
            g_hidden = _hidden_grad(model, g_cls, g_edges)
            if spec.fi:
                fi = feature_imitation_loss(hidden, teacher_hidden, everywhere)
                value += cfg.fi_weight * fi.value
                g_hidden = g_hidden + cfg.fi_weight * fi.grad
            if not math.isfinite(value):
                raise DivergenceError(scheme, seed, dcfg.tau, step)
            trace.append({
                "step": step,
                "L_cls": comps["cls"],
                "L_reg": comps["reg"],
                "L_DFL": comps["dfl"],
                "LD_main": comps["ld_main"],
                "LD_vlr": comps["ld_vlr"],
                "KD_main": comps["kd_main"],
                "KD_vlr": comps["kd_vlr"],
                "total": value,
            })
            _apply_update(model, g_cls, g_edges, g_hidden, hidden, x, cfg)
    return model, trace


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
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _SEED_TAG_TEACHER)))
    model = init_localizer(cfg.input_dim, cfg.teacher_hidden_dim, N_CLASSES,
                           N_EDGES, dataset.grid.size, rng)
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
    teacher_cfg = replace(dcfg, w_dfl=1.0, w_ld_main=0.0, w_ld_vlr=0.0,
                          w_kd_main=0.0, w_kd_vlr=0.0)
    objective = SceneObjective(true_truth, stack.masks, teacher_cfg, None, N_CLASSES,
                               edge_dists=bayes_main)

    with np.errstate(over="ignore", invalid="ignore"):  # see train
        for step in range(cfg.teacher_epochs):
            out, hidden = model.forward(x)
            value, g_cls, g_edges, _ = objective.step(out)
            if not math.isfinite(value):
                raise DivergenceError("teacher", seed, dcfg.tau, step)
            g_hidden = _hidden_grad(model, g_cls, g_edges)
            _apply_update(model, g_cls, g_edges, g_hidden, hidden, x, cfg)
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
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"report metric {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
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
    """Teacher-to-student KL at unit temperature, averaged per anchor."""
    return _tempered_kl(z_student, *_tempered(z_teacher, 1.0), 1.0)[0]


def evaluate(model: LinearLocalizer, teacher: LinearLocalizer, dataset: Dataset,
             scheme: str = "", seed: int = 0,
             trace: list[dict] | tuple[dict, ...] = ()) -> ExperimentReport:
    """Held-out metrics: decoded-edge MAE on positives, teacher-student KL
    per head, per-dimension Pearson correlations, and distribution flatness."""
    if not dataset.heldout:
        raise ValueError("dataset has no held-out split to evaluate on")
    stack = dataset.heldout
    x = stack.features
    out_s, h_s = model.forward(x)
    out_t, h_t = teacher.forward(x)

    main_idx = np.flatnonzero(stack.main)
    if main_idx.size == 0:
        raise ValueError("held-out split has no main positives to score MAE on")
    p_edges = np.exp(_log_softmax(out_s.edge_logits, 1.0))
    decoded = p_edges @ dataset.grid.endpoints
    mae = float(np.abs(decoded[main_idx] - stack.true_edges[main_idx]).mean())

    entropy = float(_entropy(p_edges[main_idx]).mean())

    a = x.shape[0]
    return ExperimentReport(
        scheme=scheme,
        seed=seed,
        mae_edges=mae,
        kl_box=_mean_kl(out_t.edge_logits, out_s.edge_logits),
        kl_cls=_mean_kl(out_t.cls_logits, out_s.cls_logits),
        pearson_features=_mean_pearson_columns(h_t, h_s),
        pearson_box_logits=_mean_pearson_columns(
            out_t.edge_logits.reshape(a, -1), out_s.edge_logits.reshape(a, -1)),
        flatness=entropy,
        trace=tuple(trace),
    )


def _new_student(cfg: HarnessConfig, grid: BinGrid, seed: int) -> LinearLocalizer:
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _SEED_TAG_STUDENT)))
    return init_localizer(cfg.input_dim, cfg.hidden_dim, N_CLASSES, N_EDGES,
                          grid.size, rng)


def run_cell(cfg: HarnessConfig, dcfg: DistillConfig, scheme: str, seed: int,
             dataset: Dataset, teacher: LinearLocalizer) -> ExperimentReport:
    """Train and evaluate one (scheme, seed) cell on the seed's dataset and
    teacher, which every scheme of the seed shares."""
    spec = _resolve_scheme(scheme)
    student = _new_student(cfg, dataset.grid, seed)
    student, trace = train(student, dataset, scheme,
                           teacher if spec.needs_teacher else None, cfg, dcfg, seed)
    return evaluate(student, teacher, dataset, scheme=scheme, seed=seed, trace=trace)


def run_seed(cfg: HarnessConfig, dcfg: DistillConfig, schemes: list[str],
             seed: int) -> tuple[Dataset, list[ExperimentReport]]:
    """Every scheme of one seed: the seed's dataset and teacher are built
    once and shared by its cells. Returns the dataset and the reports in
    scheme order."""
    dataset = gen_dataset(cfg, dcfg, seed)
    teacher = train_teacher(dataset, cfg, dcfg, seed)
    return dataset, [run_cell(cfg, dcfg, scheme, seed, dataset, teacher)
                     for scheme in schemes]

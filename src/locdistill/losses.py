"""Training and distillation losses, each with its analytic gradient.

Every operation returns a :class:`LossResult` holding the loss value and the
gradient with respect to the student quantity it differentiates (logits, box
corners, or feature entries). Gradients are exact closed forms and are pinned
against central finite differences by the test suite.

Each logit-space term has one kernel, batched over K anchors, and the
composite :class:`SceneObjective` trains with those kernels:
``_cross_entropy`` (classification and the two-hot DFL) and
``_tempered_kl`` (KD and LD, on class or edge logits alike), each, and the
teacher's side, on ``boxdist._log_softmax_pair``, one exponential per softmax.
The scalar functions (:func:`ce_loss`, :func:`dfl_loss`, :func:`kd_loss`,
:func:`ld_edge_loss`, :func:`ld_box_loss`) are validated one-anchor calls
of them, so the finite-difference suite pins the code that trains.

The kernels work bins first: a distribution's short axis (bins or classes)
leads, then any edge axis, and the K anchors come last, the reverse (``.T``)
of the public ``(A, C)`` and ``(A, E, m)`` layout; the box terms take
``(4, K)`` rows of decoded edges, since GIoU and the TBR gate's distance do
not depend on the anchors' sample points (``geometry._giou_edges``). Every
numpy call of a training step then runs over contiguous rows of K anchors.
:class:`SceneObjective` fixes at build the edge rows its terms read, the
main positives and then any VLR that LD reads, and each head's terms as
blocks of one tempered KL; its training step takes and returns bins-first
blocks over those rows alone, which the harness's model computes and
consumes directly.
Its public-layout :meth:`~SceneObjective.step` gathers those rows and
scatters their gradients back, so :class:`SceneOutputs` and the scalar
losses are unchanged.

Conventions:

* Cross-entropy ``H(p, g) = -sum_i g_i ln p_i`` weights the student's
  log-probabilities by the target distribution ``g``.
* Distillation losses report the cross-entropy as their canonical ``value``
  and the KL divergence (teacher entropy subtracted) as the ``kl``
  diagnostic; both have the same gradient ``(p_tau - q_tau) / tau``.
* Box edges are ordered ``(t, b, l, r)``: distances from a sample point to
  the top, bottom, left, and right sides.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from ._checks import check_finite, check_nonnegative, check_positive, check_unit_interval
from .boxdist import (BinGrid, TwoHotTarget, _as_probabilities, _as_vector, _decode,
                      _expectation, _log_softmax_pair, _two_hot, encode_targets)
from .geometry import BoundingBox, _edge_area, _giou_batch, _giou_edges
from .regions import RegionMasks

__all__ = [
    "LossResult",
    "DistillConfig",
    "SceneOutputs",
    "SceneTruth",
    "ce_loss",
    "kd_loss",
    "ld_edge_loss",
    "ld_box_loss",
    "dfl_loss",
    "tbr_loss",
    "giou_regression_loss",
    "feature_imitation_loss",
    "SceneObjective",
    "total_loss",
    "scene_tbr_loss",
]


@dataclass(frozen=True)
class LossResult:
    """A loss value and its gradient w.r.t. the differentiated student parameter.

    ``grad`` matches the parameter's shape: logit-space losses return the
    logits' shape (``(m,)`` per edge, ``(E, m)`` per box), box losses a
    length-4 vector over ``(x1, y1, x2, y2)``, feature imitation the
    feature-matrix shape, and scene-level losses the flat layout documented
    in :func:`total_loss`.
    """

    value: float
    grad: np.ndarray
    kl: float | None = None
    components: dict[str, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", check_finite("loss value", float(self.value)))
        g = np.asarray(self.grad, dtype=np.float64)
        if not np.isfinite(g).all():
            raise ValueError("loss gradient must be finite")
        object.__setattr__(self, "grad", g)


@dataclass(frozen=True)
class DistillConfig:
    """All scalars the distillation pipeline needs.

    The four distillation weights default to the tied scheme: LD terms
    follow the regression weight, KD terms follow the classification
    weight. Pass explicit values (including 0) to override.
    """

    grid: BinGrid
    tau: float = 10.0
    gamma_vlr: float = 0.25
    alpha_pos: float = 0.5
    w_cls: float = 1.0
    w_reg: float = 1.0
    w_dfl: float = 1.0
    w_ld_main: float | None = None
    w_ld_vlr: float | None = None
    w_kd_main: float | None = None
    w_kd_vlr: float | None = None
    tbr_margin: float = 0.1

    def __post_init__(self) -> None:
        check_positive("tau", self.tau)
        check_unit_interval("gamma_vlr", self.gamma_vlr)
        check_unit_interval("alpha_pos", self.alpha_pos, open_low=True)
        check_nonnegative("tbr_margin", self.tbr_margin)
        ties = {"w_ld_main": self.w_reg, "w_ld_vlr": self.w_reg,
                "w_kd_main": self.w_cls, "w_kd_vlr": self.w_cls}
        for name, tied in ties.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, float(tied))
        for name in ("w_cls", "w_reg", "w_dfl", "w_ld_main", "w_ld_vlr",
                     "w_kd_main", "w_kd_vlr"):
            object.__setattr__(self, name, float(check_nonnegative(name, getattr(self, name))))

    @property
    def distills(self) -> bool:
        return (self.w_ld_main > 0 or self.w_ld_vlr > 0
                or self.w_kd_main > 0 or self.w_kd_vlr > 0)


# ---------------------------------------------------------------------------
# loss kernels, bins first: distributions on axis 0, K anchors on the last
# ---------------------------------------------------------------------------

def _cross_entropy(z: np.ndarray, picks, target: np.ndarray,
                   weight: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Softmax cross-entropy ``-sum g ln p`` at unit temperature over K anchors.

    ``z`` and ``target`` have shape ``(m, ..., K)``: distributions on axis 0,
    anchors on the last. ``picks`` holds flat (C-order) indices covering the
    target's nonzero entries; the value is read from those alone. Returns
    the value summed over the other axes and averaged over the K anchors,
    its gradient times ``weight``, which is ``weight * (p - target) / K``,
    and the probabilities ``p``.
    """
    k = z.shape[-1]
    ls, p = _log_softmax_pair(z, 1.0)
    # Methods and ufunc reductions called directly, as np.take and
    # ndarray.sum would call them: this runs on every training step.
    picked = target.take(picks) * ls.take(picks)
    value = -float(np.add.reduce(picked, axis=None) / k)
    return value, (p - target) * (weight / k), p


def _tempered_kl(z_s: np.ndarray, lt: np.ndarray, q: np.ndarray, tau,
                 sizes: tuple[int, ...] | None = None, divisor=None,
                 weight=None) -> tuple[list[float], np.ndarray]:
    """Tempered KL and its student-logit gradient, the one kernel of KD and
    LD, over K anchors in consecutive blocks of ``sizes`` (default: one).

    ``z_s`` is ``(m, ..., K)``, logits on axis 0 and anchors on the last;
    the teacher's tempered log-probabilities ``lt`` and probabilities ``q``
    match or broadcast against it. Returns each block's KL, summed over the
    other axes and averaged over the block, and the gradient ``weight * (p -
    q) / divisor``, per column its block's weight and ``tau * size``
    (default: no weight and ``tau * K``)."""
    ls, p = _log_softmax_pair(z_s, tau)
    terms = q * (lt - ls)
    values, end = [], 0
    for size in sizes or (z_s.shape[-1],):
        values.append(float(np.add.reduce(terms[..., end:end + size], axis=None) / size))
        end += size
    grad = p - q
    grad /= tau * end if divisor is None else divisor
    return values, grad if weight is None else np.multiply(grad, weight, out=grad)


_Distill = namedtuple("_Distill", "names rows sizes lt q divisor weight")


def _distill_block(tau: float, head: np.ndarray, *terms) -> _Distill | None:
    """The active ones of ``terms``, ``(name, weight, anchors)`` triples on
    a frozen teacher head ``(A, ...)``, as consecutive blocks of one tempered
    KL with the teacher's side and each column's divisor and weight
    precomputed; ``None`` when no term has a positive weight and an anchor."""
    active = [(name, w, rows) for name, w, rows in terms if w > 0.0 and rows.size]
    if not active:
        return None
    names, weights, rows = zip(*active)
    sizes = tuple(r.size for r in rows)
    rows = np.concatenate(rows)
    return _Distill(names, rows, sizes, *_log_softmax_pair(head[rows].T, tau),
                    np.repeat([tau * n for n in sizes], sizes), np.repeat(weights, sizes))


def _one_anchor_kd(zs: np.ndarray, zt: np.ndarray, tau: float) -> LossResult:
    """The tempered-KL kernel on one anchor of equal-shape logits, ``(m,)``
    or ``(E, m)``, with the teacher entropy added back to give the
    cross-entropy ``value``."""
    lt, q = _log_softmax_pair(zt.T[..., None], tau)
    (kl,), grad = _tempered_kl(zs.T[..., None], lt, q, tau)
    return LossResult(value=kl - float(np.vdot(q, lt)), grad=grad[..., 0].T, kl=kl)


# ---------------------------------------------------------------------------
# logit-space losses: validated one-row views of the kernels
# ---------------------------------------------------------------------------

def ce_loss(logits, target_weights) -> LossResult:
    """Cross-entropy against target weights (one-hot, two-hot or soft).

    ``value = -sum_i g_i ln p_i`` with ``p = softmax(z)``; ``grad = p - g``.
    """
    z = _as_vector(logits)
    g = _as_probabilities(target_weights, name="target weights")
    if z.shape != g.shape:
        raise ValueError(f"logits {z.shape} and target weights {g.shape} differ in length")
    value, grad, _ = _cross_entropy(z[:, None], np.flatnonzero(g), g[:, None], 1.0)
    return LossResult(value=value, grad=grad[:, 0])


def kd_loss(student_logits, teacher_logits, tau: float) -> LossResult:
    """Distillation loss between tempered student and teacher distributions.

    ``value`` is the cross-entropy of the student's tempered log-probabilities
    under the teacher's tempered probabilities; ``kl`` subtracts the teacher
    entropy so a perfectly matched student scores exactly 0. The gradient for
    either variant is ``(p_tau - q_tau) / tau``.
    """
    check_positive("temperature", tau)
    zs = _as_vector(student_logits, name="student logits")
    zt = _as_vector(teacher_logits, name="teacher logits")
    if zs.shape != zt.shape:
        raise ValueError(f"student {zs.shape} and teacher {zt.shape} logit lengths differ")
    return _one_anchor_kd(zs, zt, tau)


def ld_edge_loss(student_logits, teacher_logits, tau: float) -> LossResult:
    """Localization distillation for a single edge's logits.

    Identical contract to :func:`kd_loss` applied to the ``n + 1`` logits of
    one edge distribution; shares the same code path.
    """
    return kd_loss(student_logits, teacher_logits, tau)


def ld_box_loss(student_logits, teacher_logits, tau: float) -> LossResult:
    """Localization distillation summed over all edges of a box.

    ``student_logits`` and ``teacher_logits`` are equal-shape ``(E, m)``
    arrays, one row of logits per edge. The value, ``kl`` and gradient are
    those of :func:`ld_edge_loss` summed (value, ``kl``) or stacked
    (gradient, ``(E, m)``) over the rows: the box is one anchor of the
    tempered-KL kernel the composite objective trains with.
    """
    check_positive("temperature", tau)
    zs = np.asarray(student_logits, dtype=np.float64)
    zt = np.asarray(teacher_logits, dtype=np.float64)
    if zs.ndim != 2 or zs.shape != zt.shape:
        raise ValueError(f"student {zs.shape} and teacher {zt.shape} edge logits must be "
                         "equal-shape (edges, bins) arrays")
    if not (np.isfinite(zs).all() and np.isfinite(zt).all()):
        raise ValueError("edge logits must be finite")
    return _one_anchor_kd(zs, zt, tau)


def dfl_loss(logits, target: TwoHotTarget) -> LossResult:
    """Distribution focal loss for one edge: a two-hot weighted cross-entropy.

    ``value = u1 * H(p, g_i) + u2 * H(p, g_(i+1))``; the gradient is
    ``p_k - u1*[k = i] - u2*[k = i+1]`` (so ``p_i - u1`` at the left index).
    """
    z = _as_vector(logits)
    g, picks = _two_hot(target.i, target.u1, target.u2, z.shape[0])
    value, grad, _ = _cross_entropy(z[:, None], picks, g[:, None], 1.0)
    return LossResult(value=value, grad=grad[:, 0])


# ---------------------------------------------------------------------------
# box-space losses
# ---------------------------------------------------------------------------

def giou_regression_loss(student_box: BoundingBox, gt_box: BoundingBox) -> LossResult:
    """Box regression loss ``1 - GIoU`` with gradient over the 4 student corners."""
    vals, grads = _giou_batch(np.asarray(student_box.to_list())[:, None],
                              np.asarray(gt_box.to_list())[:, None])
    return LossResult(value=1.0 - float(vals[0]), grad=-grads[:, 0])


def _l2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L2 distances between ``(4,)`` or ``(4, K)`` boxes: corner rows, or
    edge rows from a point each pair shares, whose distance is the same."""
    return np.sqrt(((a - b) ** 2).sum(axis=0))


def tbr_loss(
    student_box: BoundingBox,
    teacher_box: BoundingBox,
    gt_box: BoundingBox,
    margin: float,
) -> LossResult:
    """Teacher-bounded regression: regress toward the ground truth only when
    the student is worse than the teacher by more than ``margin``.

    The gate compares corner-coordinate L2 distances to the ground truth;
    when active the loss is ``1 - GIoU(student, gt)``, otherwise the result
    is exactly zero with a zero gradient.
    """
    check_nonnegative("margin", margin)
    s = np.asarray(student_box.to_list())
    t = np.asarray(teacher_box.to_list())
    g = np.asarray(gt_box.to_list())
    if _l2(s, g) + margin > _l2(t, g):
        return giou_regression_loss(student_box, gt_box)
    return LossResult(value=0.0, grad=np.zeros(4))


def _imitation(ms: np.ndarray, mt: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean L2 distance between the columns of bins-first ``(D, K)`` feature
    blocks (one column per location) and its gradient w.r.t. ``ms``;
    unchecked, for a training loop's step.

    The subgradient is 0 on a column that matches exactly (the norm is not
    differentiable at 0).
    """
    diff = ms - mt
    norms = np.sqrt((diff * diff).sum(axis=0))
    grad = np.divide(diff, norms * diff.shape[1], out=np.zeros_like(diff),
                     where=norms > 0.0)
    return float(norms.mean()), grad


def feature_imitation_loss(student_feats, teacher_feats, region) -> LossResult:
    """Mean per-location L2 distance between feature matrices over a region.

    ``student_feats`` and ``teacher_feats`` are ``(L, D)`` arrays of equal
    shape; ``region`` is a boolean mask over the ``L`` locations. The
    gradient w.r.t. the student features is zero outside the region.
    Validated form of the training kernel ``_imitation`` on the region's rows,
    transposed.
    """
    ms = np.asarray(student_feats, dtype=np.float64)
    mt = np.asarray(teacher_feats, dtype=np.float64)
    if ms.shape != mt.shape:
        raise ValueError(f"feature shapes differ: {ms.shape} vs {mt.shape}")
    if ms.ndim != 2:
        raise ValueError(f"features must be (locations, dims) matrices, got {ms.shape}")
    mask = np.asarray(region, dtype=bool)
    if mask.shape != (ms.shape[0],):
        raise ValueError(f"region mask shape {mask.shape} does not match {ms.shape[0]} locations")
    if not mask.any():
        raise ValueError("imitation region is empty")
    value, region_grad = _imitation(ms[mask].T, mt[mask].T)
    grad = np.zeros_like(ms)
    grad[mask] = region_grad.T
    return LossResult(value=value, grad=grad)


# ---------------------------------------------------------------------------
# scene-level composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneOutputs:
    """One model's head outputs for every anchor of a scene.

    Built unchecked, since a training loop builds one per step; the public
    losses and :class:`SceneObjective` validate the outputs they are given
    (see :func:`_checked`).
    """

    cls_logits: np.ndarray   # (A, C)
    edge_logits: np.ndarray  # (A, E, m)

    @property
    def n_anchors(self) -> int:
        return self.cls_logits.shape[0]


def _checked(outputs: SceneOutputs) -> SceneOutputs:
    """``outputs`` as float64 arrays, after checking shapes and finiteness."""
    cls_logits = np.asarray(outputs.cls_logits, dtype=np.float64)
    edge_logits = np.asarray(outputs.edge_logits, dtype=np.float64)
    if cls_logits.ndim != 2:
        raise ValueError(f"cls_logits must be (anchors, classes), got {cls_logits.shape}")
    if edge_logits.ndim != 3:
        raise ValueError(f"edge_logits must be (anchors, edges, bins), got {edge_logits.shape}")
    if cls_logits.shape[0] != edge_logits.shape[0]:
        raise ValueError("cls_logits and edge_logits disagree on the anchor count")
    if not (np.isfinite(cls_logits).all() and np.isfinite(edge_logits).all()):
        raise ValueError("scene logits must be finite")
    return SceneOutputs(cls_logits=cls_logits, edge_logits=edge_logits)


@dataclass(frozen=True)
class SceneTruth:
    """Ground truth for a scene: labels and observed edge targets.

    ``edge_targets`` rows are only read for main-positive anchors; other rows
    may hold arbitrary placeholders. No loss reads the anchors' sample
    points: GIoU and the TBR gate's distance do not move with them.
    """

    labels: np.ndarray        # (A,)
    edge_targets: np.ndarray  # (A, E)

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        targets = np.asarray(self.edge_targets, dtype=np.float64)
        if labels.ndim != 1 or targets.ndim != 2 or labels.shape[0] != targets.shape[0]:
            raise ValueError("labels must be (A,) and edge_targets (A, E)")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edge_targets", targets)


def _require_distances(grid: BinGrid, term: str) -> None:
    """Box terms decode boxes from edge distances, so ``term`` needs a grid
    of nonnegative ones."""
    if grid.e_min < 0.0:
        raise ValueError(f"{term} needs nonnegative edge distances (grid.e_min >= 0)")


def _expectation_chain(p: np.ndarray, yhat: np.ndarray, endpoints: np.ndarray,
                       g_edge_vals: np.ndarray) -> np.ndarray:
    """Chain an edge-value gradient through the softmax expectation decode.

    ``p`` is ``(m, E, K)`` probabilities, their expectations ``yhat`` and
    ``g_edge_vals`` are ``(E, K)``; returns the ``(m, E, K)`` gradient
    w.r.t. the edge logits.
    """
    return g_edge_vals * p * (endpoints[:, None, None] - yhat)


class SceneObjective:
    """The composite objective of one scene, compiled for repeated steps.

    Built once per (truth, masks, config, teacher outputs): it validates
    the inputs and computes everything that does not depend on the
    student, bins first: the main/VLR indices, the one-hot labels, the main
    rows' edge target distributions, their target edges and box areas, and
    the frozen teacher's tempered log-probabilities on the rows each active
    distillation term reads. ``edge_rows`` are the anchors whose edge
    logits any term reads: the main positives, then the VLR when an
    ``ld_vlr`` term is active. :meth:`block_step` then does only
    student-dependent work on those rows and checks nothing: it is a
    training loop's inner step. :meth:`step` is its public-layout form and
    :func:`total_loss` its validated one-shot form, which defines the math.

    The main rows' edge targets default to the two-hot encodings of
    ``truth.edge_targets`` (DFL). ``edge_dists``, ``(K, E, m)`` over the K
    main positives, replaces them with any target distributions (the
    general distribution of GFL); the term keeps the weight ``w_dfl``.
    ``tbr_weight > 0`` adds that multiple of teacher-bounded regression
    (:func:`scene_tbr_loss`) to every step, on the edges the step decodes
    anyway.
    """

    def __init__(self, truth: SceneTruth, masks: RegionMasks, cfg: DistillConfig,
                 teacher: SceneOutputs | None, n_classes: int,
                 edge_dists: np.ndarray | None = None, tbr_weight: float = 0.0) -> None:
        a, n_edges = truth.edge_targets.shape
        m = cfg.grid.size
        self.cls_shape = (a, int(n_classes))
        self.edge_shape = (a, n_edges, m)
        if len(masks) != a:
            raise ValueError("scene truth and masks disagree on the anchor count")
        if ((truth.labels < 0) | (truth.labels >= n_classes)).any():
            raise ValueError("class labels out of range")
        if cfg.distills and teacher is None:
            raise ValueError("distillation weights are active but no teacher outputs given")
        if teacher is not None:
            teacher = _checked(teacher)
            if (teacher.cls_logits.shape != self.cls_shape
                    or teacher.edge_logits.shape != self.edge_shape):
                raise ValueError("teacher and student scene outputs must have identical shapes")
        if cfg.w_reg > 0.0:
            _require_distances(cfg.grid, "the box regression term")
        self.cfg = cfg
        self.tbr_weight = float(check_nonnegative("tbr_weight", tbr_weight))
        # Each cross-entropy target, bins first, with the flat picks of its
        # nonzero entries.
        self._cls_picks = truth.labels * a + np.arange(a)
        self._onehot = np.zeros((int(n_classes), a))
        np.put(self._onehot, self._cls_picks, 1.0)
        self.main_idx = np.flatnonzero(masks.main)
        self.vlr_idx = np.flatnonzero(masks.vlr)

        k = self.main_idx.size
        self._edges_g = np.ascontiguousarray(truth.edge_targets[self.main_idx].T)
        if edge_dists is None:
            self._edge_dists, self._edge_picks = _two_hot(
                *encode_targets(self._edges_g, cfg.grid), m)
        else:
            edge_dists = np.asarray(edge_dists, dtype=np.float64)
            if edge_dists.shape != (k, n_edges, m):
                raise ValueError(f"edge_dists must be {(k, n_edges, m)} over the "
                                 f"main positives, got {edge_dists.shape}")
            self._edge_dists = np.ascontiguousarray(edge_dists.T)
            # A general distribution may be nonzero anywhere: pick every entry.
            self._edge_picks = np.arange(edge_dists.size)
        # A union holds its ground-truth box, so a positive area makes every
        # GIoU of a step defined once the student's edges are nonnegative.
        self._area_g = _edge_area(self._edges_g)
        if (cfg.w_reg > 0.0 or self.tbr_weight > 0.0) and (self._area_g <= 0.0).any():
            raise ValueError("giou undefined: a main ground-truth box has zero area")

        # Frozen teacher: each head's distillation terms as one tempered KL.
        # LD reads the last edge columns of a step: the main block when
        # ld_main is active, then the VLR block when ld_vlr is.
        self._ld = self._kd = None
        if teacher is not None:
            self._ld = _distill_block(cfg.tau, teacher.edge_logits,
                                      ("ld_main", cfg.w_ld_main, self.main_idx),
                                      ("ld_vlr", cfg.w_ld_vlr, self.vlr_idx))
            self._kd = _distill_block(cfg.tau, teacher.cls_logits,
                                      ("kd_main", cfg.w_kd_main, self.main_idx),
                                      ("kd_vlr", cfg.w_kd_vlr, self.vlr_idx))
        ld_vlr = self._ld is not None and self._ld.names[-1] == "ld_vlr"
        self.edge_rows = np.concatenate([self.main_idx, self.vlr_idx]) if ld_vlr else self.main_idx
        if self.tbr_weight > 0.0:
            if teacher is None:
                raise ValueError("teacher-bounded regression needs teacher outputs")
            _require_distances(cfg.grid, "teacher-bounded regression")
            _, edges_t = _decode(teacher.edge_logits[self.main_idx].T, cfg.grid)
            self._tbr_reference = _l2(edges_t, self._edges_g)

    def _check_student(self, student: SceneOutputs) -> None:
        if (student.cls_logits.shape != self.cls_shape
                or student.edge_logits.shape != self.edge_shape):
            raise ValueError(
                f"student outputs {student.cls_logits.shape} / {student.edge_logits.shape} "
                f"do not match the scene's {self.cls_shape} / {self.edge_shape}"
            )

    def step(self, student: SceneOutputs
             ) -> tuple[float, np.ndarray, np.ndarray, dict[str, float]]:
        """The objective at ``student``: ``(value, grad_cls (A, C),
        grad_edges (A, E, m), components)``; see :func:`total_loss`. With a
        ``tbr_weight``, its multiple of TBR is in the value and gradient but
        not in the components. The public-layout form of :meth:`block_step`:
        zero outside ``edge_rows``."""
        value, g_cls, g_rows, components = self.block_step(
            student.cls_logits.T, student.edge_logits[self.edge_rows].T)
        grad_edges = np.zeros(self.edge_shape)
        grad_edges[self.edge_rows] = g_rows.T
        return value, g_cls.T, grad_edges, components

    def block_step(self, z_cls: np.ndarray, z_edges: np.ndarray
                   ) -> tuple[float, np.ndarray, np.ndarray, dict[str, float]]:
        """The objective at the bins-first student logits ``z_cls`` ``(C, A)``
        and ``z_edges`` ``(m, E, K)`` on the K ``edge_rows``: ``(value,
        grad_cls (C, A), grad_edges (m, E, K), components)``. The main block
        is ``[..., :k]`` over the k main positives, the VLR block the rest."""
        cfg = self.cfg
        kl = dict.fromkeys(("ld_main", "ld_vlr", "kd_main", "kd_vlr"), 0.0)

        # Classification cross-entropy over every anchor, and KD on its
        # columns; LD over the edge columns [lo:] it reads, then over the
        # main block the edge cross-entropy (DFL) and the box regression
        # with any TBR, added to the same gradient.
        l_cls, grad_cls, _ = _cross_entropy(z_cls, self._cls_picks, self._onehot, cfg.w_cls)
        if self._kd is not None:
            rows = self._kd.rows
            grad_cls[:, rows] += self._distill(self._kd, z_cls.take(rows, axis=1), kl)
        k = self.main_idx.size
        grad_edges = np.empty(z_edges.shape)
        lo = k
        if self._ld is not None:
            lo = z_edges.shape[-1] - self._ld.rows.size
            grad_edges[..., lo:] = self._distill(self._ld, z_edges[..., lo:], kl)
        l_reg = l_dfl = l_tbr = 0.0
        if k:
            l_dfl, g_main, p_e = _cross_entropy(z_edges[..., :k], self._edge_picks,
                                                self._edge_dists, cfg.w_dfl)
            l_reg, l_tbr, g_box = self._box_terms(p_e)
            g_main += g_box
            if lo:
                grad_edges[..., :k] = g_main
            else:
                grad_edges[..., :k] += g_main

        components = {"cls": l_cls, "reg": l_reg, "dfl": l_dfl, **kl}
        value = (cfg.w_cls * l_cls + cfg.w_reg * l_reg + cfg.w_dfl * l_dfl
                 + cfg.w_ld_main * kl["ld_main"] + cfg.w_ld_vlr * kl["ld_vlr"]
                 + cfg.w_kd_main * kl["kd_main"] + cfg.w_kd_vlr * kl["kd_vlr"]
                 + self.tbr_weight * l_tbr)
        return value, grad_cls, grad_edges, components

    def _distill(self, block: _Distill, z: np.ndarray, kl: dict[str, float]) -> np.ndarray:
        """The gradient of one head's terms at its student columns ``z``; values go to ``kl``."""
        values, grad = _tempered_kl(z, block.lt, block.q, self.cfg.tau, block.sizes,
                                    block.divisor, block.weight)
        kl.update(zip(block.names, values))
        return grad

    def _box_terms(self, p: np.ndarray) -> tuple[float, float, np.ndarray]:
        """The box terms at the student's main-row edge probabilities ``p``:
        the ``1 - GIoU`` regression value, the TBR value (0 unless
        ``tbr_weight > 0``), and the ``(m, E, K)`` edge-logit gradient of
        their sum at weights ``w_reg`` and ``tbr_weight``, chained through
        the decode once. Both act on the decoded edges directly (see
        :func:`~locdistill.geometry._giou_edges`). TBR is the regression
        term on the anchors whose decoded edges are farther from the ground
        truth's than the teacher's by more than the margin."""
        k = self.main_idx.size
        yhat = _expectation(p, self.cfg.grid)
        giou_vals, dgiou = _giou_edges(yhat, self._edges_g, self._area_g)
        l_reg = float(np.add.reduce(1.0 - giou_vals) / k)  # the mean
        l_tbr = 0.0
        weight = self.cfg.w_reg
        if self.tbr_weight > 0.0:
            active = _l2(yhat, self._edges_g) + self.cfg.tbr_margin > self._tbr_reference
            l_tbr = float(np.add.reduce(1.0 - giou_vals[active]) / k)
            weight = weight + self.tbr_weight * active
        return l_reg, l_tbr, _expectation_chain(p, yhat, self.cfg.grid.endpoints,
                                                dgiou * (-weight / k))


def _flat_grad(grad_cls: np.ndarray, grad_edges: np.ndarray) -> np.ndarray:
    return np.concatenate([grad_cls.ravel(), grad_edges.ravel()])


def total_loss(
    student: SceneOutputs,
    teacher: SceneOutputs | None,
    truth: SceneTruth,
    masks: RegionMasks,
    cfg: DistillConfig,
) -> LossResult:
    """Composite per-scene objective with selective region distillation.

    ``value = w_cls*L_cls + w_reg*L_reg + w_dfl*L_DFL
    + w_ld_main*LD(main) + w_ld_vlr*LD(vlr)
    + w_kd_main*KD(main) + w_kd_vlr*KD(vlr)``.

    Supervised terms: classification cross-entropy averaged over all
    anchors; ``1 - GIoU`` regression and DFL averaged over main positives.
    Each distillation term is averaged over its own mask and enters the
    value as the KL diagnostic, so a student matching its teacher
    contributes exactly zero.

    The gradient is flat: the ``(A, C)`` classification block (C-order)
    followed by the ``(A, E, m)`` edge block.
    One-shot form of :class:`SceneObjective`, which training loops build
    once and step repeatedly.
    """
    student = _checked(student)
    objective = SceneObjective(truth, masks, cfg, teacher, student.cls_logits.shape[1])
    objective._check_student(student)
    value, grad_cls, grad_edges, components = objective.step(student)
    return LossResult(value=value, grad=_flat_grad(grad_cls, grad_edges),
                      components=components)


def scene_tbr_loss(
    student: SceneOutputs,
    teacher: SceneOutputs,
    truth: SceneTruth,
    main_mask: np.ndarray,
    cfg: DistillConfig,
) -> LossResult:
    """Teacher-bounded regression over the main region of a scene.

    Boxes are decoded from the edge expectations of both models; the gate
    and loss follow :func:`tbr_loss` per anchor, averaged over main
    positives, and the gradient flows back to the student edge logits
    through the expectation decode. Flat layout as in :func:`total_loss`.
    One-shot form of a :class:`SceneObjective` whose only term is TBR.
    """
    student = _checked(student)
    a = student.n_anchors
    main_mask = np.asarray(main_mask, dtype=bool)
    if main_mask.shape != (a,):
        raise ValueError(f"main mask shape {main_mask.shape} does not match {a} anchors")
    masks = RegionMasks(main=main_mask, vlr=np.zeros(a, dtype=bool))
    tbr_only = replace(cfg, w_cls=0.0, w_reg=0.0, w_dfl=0.0, w_ld_main=0.0,
                       w_ld_vlr=0.0, w_kd_main=0.0, w_kd_vlr=0.0)
    objective = SceneObjective(truth, masks, tbr_only, teacher,
                               student.cls_logits.shape[1], tbr_weight=1.0)
    objective._check_student(student)
    value, _, grad_edges, _ = objective.step(student)
    return LossResult(value=value,
                      grad=_flat_grad(np.zeros_like(student.cls_logits), grad_edges))

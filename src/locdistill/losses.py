"""Training and distillation losses, each with its analytic gradient.

Every operation returns a :class:`LossResult` holding the loss value and the
gradient with respect to the student quantity it differentiates (logits, box
corners, or feature entries). Gradients are exact closed forms and are pinned
against central finite differences by the test suite.

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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boxdist import BinGrid, TwoHotTarget, PROB_SUM_TOL, _as_vector, encode_targets
from .geometry import BoundingBox, _giou_batch
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
        object.__setattr__(self, "value", float(self.value))
        g = np.asarray(self.grad, dtype=np.float64)
        if not math.isfinite(self.value):
            raise ValueError(f"loss value must be finite, got {self.value!r}")
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
        if not (0.0 < self.tau < math.inf):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (0.0 <= self.gamma_vlr <= 1.0):
            raise ValueError(f"gamma_vlr must lie in [0, 1], got {self.gamma_vlr}")
        if not (0.0 < self.alpha_pos <= 1.0):
            raise ValueError(f"alpha_pos must lie in (0, 1], got {self.alpha_pos}")
        if not (0.0 <= self.tbr_margin < math.inf):
            raise ValueError(f"tbr_margin must be nonnegative and finite, got {self.tbr_margin}")
        ties = {"w_ld_main": self.w_reg, "w_ld_vlr": self.w_reg,
                "w_kd_main": self.w_cls, "w_kd_vlr": self.w_cls}
        for name, tied in ties.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, float(tied))
        for name in ("w_cls", "w_reg", "w_dfl", "w_ld_main", "w_ld_vlr",
                     "w_kd_main", "w_kd_vlr"):
            v = float(getattr(self, name))
            if v < 0.0 or not np.isfinite(v):
                raise ValueError(f"{name} must be a nonnegative finite weight, got {v}")
            object.__setattr__(self, name, v)

    @property
    def distills(self) -> bool:
        return (self.w_ld_main > 0 or self.w_ld_vlr > 0
                or self.w_kd_main > 0 or self.w_kd_vlr > 0)


# ---------------------------------------------------------------------------
# softmax helpers (batched over the last axis)
# ---------------------------------------------------------------------------

def _log_softmax(z: np.ndarray, tau: float) -> np.ndarray:
    # In place on the fresh quotient, with the ufunc reductions called
    # directly: this runs tens of thousands of times per training run.
    zt = np.asarray(z, dtype=np.float64) / tau
    zt -= np.maximum.reduce(zt, axis=-1, keepdims=True)
    zt -= np.log(np.add.reduce(np.exp(zt), axis=-1, keepdims=True))
    return zt


# ---------------------------------------------------------------------------
# logit-space losses
# ---------------------------------------------------------------------------

def ce_loss(logits, target_weights, tau: float = 1.0) -> LossResult:
    """Cross-entropy against target weights (one-hot or two-hot).

    ``value = -sum_i g_i ln p_i`` with ``p = softmax(z / tau)``;
    ``grad = (p - g) / tau``, the plain ``p - g`` at ``tau = 1``.
    """
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    z = _as_vector(logits)
    g = _as_vector(target_weights, name="target weights")
    if z.shape != g.shape:
        raise ValueError(f"logits {z.shape} and target weights {g.shape} differ in length")
    if np.any(g < 0.0) or abs(g.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError("target weights must be nonnegative and sum to 1")
    ls = _log_softmax(z, tau)
    value = -float(np.dot(g, ls))
    grad = (np.exp(ls) - g) / tau
    return LossResult(value=value, grad=grad)


def kd_loss(student_logits, teacher_logits, tau: float) -> LossResult:
    """Distillation loss between tempered student and teacher distributions.

    ``value`` is the cross-entropy of the student's tempered log-probabilities
    under the teacher's tempered probabilities; ``kl`` subtracts the teacher
    entropy so a perfectly matched student scores exactly 0. The gradient for
    either variant is ``(p_tau - q_tau) / tau``.
    """
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    zs = _as_vector(student_logits, name="student logits")
    zt = _as_vector(teacher_logits, name="teacher logits")
    if zs.shape != zt.shape:
        raise ValueError(f"student {zs.shape} and teacher {zt.shape} logit lengths differ")
    ls = _log_softmax(zs, tau)
    lt = _log_softmax(zt, tau)
    q = np.exp(lt)
    value = -float(np.dot(q, ls))
    kl = float(np.dot(q, lt - ls))
    grad = (np.exp(ls) - q) / tau
    return LossResult(value=value, grad=grad, kl=kl)


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
    (gradient, ``(E, m)``) over the rows; computed as one call of the
    tempered-KL kernel the composite objective trains with.
    """
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    zs = np.asarray(student_logits, dtype=np.float64)
    zt = np.asarray(teacher_logits, dtype=np.float64)
    if zs.ndim != 2 or zs.shape != zt.shape:
        raise ValueError(f"student {zs.shape} and teacher {zt.shape} edge logits must be "
                         "equal-shape (edges, bins) arrays")
    if not (np.isfinite(zs).all() and np.isfinite(zt).all()):
        raise ValueError("edge logits must be finite")
    lt = _log_softmax(zt, tau)
    q = np.exp(lt)
    # One box is one anchor of the kernel, so its KL is summed over edges.
    kl, grad = _tempered_kl(zs[None], lt[None], q[None], tau)
    return LossResult(value=kl - float((q * lt).sum()), grad=grad[0], kl=kl)


def dfl_loss(logits, target: TwoHotTarget) -> LossResult:
    """Distribution focal loss for one edge: a two-hot weighted cross-entropy.

    ``value = u1 * H(p, g_i) + u2 * H(p, g_(i+1))``; the gradient is
    ``p_k - u1*[k = i] - u2*[k = i+1]`` (so ``p_i - u1`` at the left index).
    """
    z = _as_vector(logits)
    g = target.as_weights(z.shape[0])
    return ce_loss(z, g, tau=1.0)


# ---------------------------------------------------------------------------
# box-space losses
# ---------------------------------------------------------------------------

def giou_regression_loss(student_box: BoundingBox, gt_box: BoundingBox) -> LossResult:
    """Box regression loss ``1 - GIoU`` with gradient over the 4 student corners."""
    vals, grads = _giou_batch(
        np.asarray([student_box.to_list()]), np.asarray([gt_box.to_list()])
    )
    return LossResult(value=1.0 - float(vals[0]), grad=-grads[0])


def _corner_l2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(((a - b) ** 2).sum(axis=-1))


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
    if margin < 0.0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    s = np.asarray(student_box.to_list())
    t = np.asarray(teacher_box.to_list())
    g = np.asarray(gt_box.to_list())
    if _corner_l2(s, g) + margin > _corner_l2(t, g):
        return giou_regression_loss(student_box, gt_box)
    return LossResult(value=0.0, grad=np.zeros(4))


def feature_imitation_loss(student_feats, teacher_feats, region) -> LossResult:
    """Mean per-location L2 distance between feature matrices over a region.

    ``student_feats`` and ``teacher_feats`` are ``(L, D)`` arrays of equal
    shape; ``region`` is a boolean mask over the ``L`` locations. The
    gradient w.r.t. the student features is zero outside the region.
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
    count = int(mask.sum())
    if count == 0:
        raise ValueError("imitation region is empty")
    diff = ms[mask] - mt[mask]
    norms = np.sqrt((diff * diff).sum(axis=1))
    value = float(norms.mean())
    grad = np.zeros_like(ms)
    # Subgradient 0 where a location matches exactly (norm not differentiable at 0).
    safe = norms > 0.0
    rows = np.flatnonzero(mask)[safe]
    grad[rows] = diff[safe] / (norms[safe, None] * count)
    return LossResult(value=value, grad=grad)


# ---------------------------------------------------------------------------
# scene-level composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneOutputs:
    """One model's head outputs for every anchor of a scene."""

    cls_logits: np.ndarray   # (A, C)
    edge_logits: np.ndarray  # (A, E, m)

    def __post_init__(self) -> None:
        cls_logits = np.asarray(self.cls_logits, dtype=np.float64)
        edge_logits = np.asarray(self.edge_logits, dtype=np.float64)
        if cls_logits.ndim != 2:
            raise ValueError(f"cls_logits must be (anchors, classes), got {cls_logits.shape}")
        if edge_logits.ndim != 3:
            raise ValueError(f"edge_logits must be (anchors, edges, bins), got {edge_logits.shape}")
        if cls_logits.shape[0] != edge_logits.shape[0]:
            raise ValueError("cls_logits and edge_logits disagree on the anchor count")
        if not (np.isfinite(cls_logits).all() and np.isfinite(edge_logits).all()):
            raise ValueError("scene logits must be finite")
        object.__setattr__(self, "cls_logits", cls_logits)
        object.__setattr__(self, "edge_logits", edge_logits)

    @property
    def n_anchors(self) -> int:
        return self.cls_logits.shape[0]


@dataclass(frozen=True)
class SceneTruth:
    """Ground truth for a scene: labels, observed edge targets, sample points.

    ``edge_targets`` rows are only read for main-positive anchors; other rows
    may hold arbitrary placeholders.
    """

    labels: np.ndarray        # (A,)
    edge_targets: np.ndarray  # (A, E)
    points: np.ndarray | None = None  # (A, 2); defaults to the origin

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        targets = np.asarray(self.edge_targets, dtype=np.float64)
        if labels.ndim != 1 or targets.ndim != 2 or labels.shape[0] != targets.shape[0]:
            raise ValueError("labels must be (A,) and edge_targets (A, E)")
        points = self.points
        if points is None:
            points = np.zeros((labels.shape[0], 2))
        points = np.asarray(points, dtype=np.float64)
        if points.shape != (labels.shape[0], 2):
            raise ValueError(f"points must be (A, 2), got {points.shape}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edge_targets", targets)
        object.__setattr__(self, "points", points)


# Corner k of a box is point[_CORNER_AXIS[k]] + _CORNER_SIGN[k] * edge[_CORNER_EDGE[k]]:
# (x1, y1, x2, y2) = (px - l, py - t, px + r, py + b) with edges (t, b, l, r).
_CORNER_AXIS = np.array([0, 1, 0, 1])
_CORNER_EDGE = np.array([2, 0, 3, 1])
_CORNER_SIGN = np.array([-1.0, -1.0, 1.0, 1.0])
# The inverse map: edge e moves corner _EDGE_CORNER[e] with sign _EDGE_SIGN[e].
_EDGE_CORNER = np.array([1, 3, 0, 2])
_EDGE_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])


def _boxes_from_edges(points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(K, 4) corner boxes from sample points and (t, b, l, r) distances."""
    return points[:, _CORNER_AXIS] + edges[:, _CORNER_EDGE] * _CORNER_SIGN


def _box_grad_to_edges(g_box: np.ndarray) -> np.ndarray:
    """Map a corner gradient (x1, y1, x2, y2) to an edge gradient (t, b, l, r)."""
    return g_box[:, _EDGE_CORNER] * _EDGE_SIGN


def _tempered_kl(z_s: np.ndarray, lt: np.ndarray, q: np.ndarray,
                 tau: float) -> tuple[float, np.ndarray]:
    """Mean-per-anchor tempered KL and its gradient w.r.t. the student logits.

    ``z_s`` has shape ``(K, ...)`` with logits on the last axis; ``lt`` and
    ``q`` are the teacher's tempered log-probabilities and probabilities on
    the same rows. The KL is summed over all non-anchor axes and averaged
    over the K anchors.
    """
    k = z_s.shape[0]
    ls = _log_softmax(z_s, tau)
    value = float((q * (lt - ls)).sum() / k)
    grad = (np.exp(ls) - q) / (tau * k)
    return value, grad


def _expectation_chain(p: np.ndarray, yhat: np.ndarray, endpoints: np.ndarray,
                       g_edge_vals: np.ndarray) -> np.ndarray:
    """Chain an edge-value gradient through the softmax expectation decode.

    ``p`` is ``(K, E, m)`` probabilities, ``yhat = p @ endpoints`` and
    ``g_edge_vals`` are ``(K, E)``; returns the ``(K, E, m)`` gradient
    w.r.t. the edge logits.
    """
    return g_edge_vals[:, :, None] * p * (endpoints - yhat[:, :, None])


def _decoded_boxes(points: np.ndarray, edge_logits: np.ndarray,
                   endpoints: np.ndarray) -> np.ndarray:
    """Boxes decoded from edge logits by the softmax expectation."""
    return _boxes_from_edges(points, np.exp(_log_softmax(edge_logits, 1.0)) @ endpoints)


def _tbr_block(z_main: np.ndarray, points: np.ndarray, boxes_t: np.ndarray,
               boxes_g: np.ndarray, margin: float,
               endpoints: np.ndarray) -> tuple[float, np.ndarray]:
    """Teacher-bounded regression over K main rows: the value averaged over
    the K rows and the ``(K, E, m)`` gradient w.r.t. their edge logits."""
    k = z_main.shape[0]
    p_s = np.exp(_log_softmax(z_main, 1.0))
    yhat = p_s @ endpoints
    boxes_s = _boxes_from_edges(points, yhat)
    active = _corner_l2(boxes_s, boxes_g) + margin > _corner_l2(boxes_t, boxes_g)
    grad = np.zeros_like(p_s)
    value = 0.0
    if active.any():
        giou_vals, dgiou = _giou_batch(boxes_s[active], boxes_g[active])
        value = float((1.0 - giou_vals).sum() / k)
        grad[active] = _expectation_chain(p_s[active], yhat[active], endpoints,
                                          _box_grad_to_edges(-dgiou / k))
    return value, grad


class SceneObjective:
    """The composite objective of one scene, compiled for repeated steps.

    Built once per (truth, masks, config, teacher outputs): it validates
    the inputs and computes everything that does not depend on the
    student, namely the main/VLR indices, the one-hot labels, the two-hot
    targets, the ground-truth boxes, and the frozen teacher's tempered
    log-probabilities on the rows each active distillation term reads.
    :meth:`step` then does only student-dependent work; :func:`total_loss`
    is its one-shot form and defines the math.
    """

    def __init__(self, truth: SceneTruth, masks: RegionMasks, cfg: DistillConfig,
                 teacher: SceneOutputs | None, n_classes: int) -> None:
        a, n_edges = truth.edge_targets.shape
        self.cls_shape = (a, int(n_classes))
        self.edge_shape = (a, n_edges, cfg.grid.size)
        if len(masks) != a:
            raise ValueError("scene truth and masks disagree on the anchor count")
        if ((truth.labels < 0) | (truth.labels >= n_classes)).any():
            raise ValueError("class labels out of range")
        if cfg.distills and teacher is None:
            raise ValueError("distillation weights are active but no teacher outputs given")
        if teacher is not None and (teacher.cls_logits.shape != self.cls_shape
                                    or teacher.edge_logits.shape != self.edge_shape):
            raise ValueError("teacher and student scene outputs must have identical shapes")
        if cfg.w_reg > 0.0 and cfg.grid.e_min < 0.0:
            raise ValueError(
                "the box regression term needs nonnegative edge distances (grid.e_min >= 0)"
            )
        self.cfg = cfg
        self._anchors = np.arange(a)
        self._labels = truth.labels
        self._onehot = np.zeros(self.cls_shape)
        self._onehot[self._anchors, truth.labels] = 1.0
        self.main_idx = np.flatnonzero(masks.main)
        self.vlr_idx = np.flatnonzero(masks.vlr)

        k = self.main_idx.size
        targets = truth.edge_targets[self.main_idx]
        idx, self._u1, self._u2 = encode_targets(targets, cfg.grid)
        rows = np.arange(k)[:, None]
        cols = np.arange(n_edges)[None, :]
        self._at_left = (rows, cols, idx)
        self._at_right = (rows, cols, idx + 1)
        self._two_hot = np.zeros((k, n_edges, cfg.grid.size))
        self._two_hot[self._at_left] += self._u1
        self._two_hot[self._at_right] += self._u2
        self._points = truth.points[self.main_idx]
        self._boxes_g = _boxes_from_edges(self._points, targets)

        # Frozen teacher: main-row edge logits (decoded on first TBR use) and
        # the tempered log-probabilities and probabilities of each active
        # distillation term's rows.
        self._teacher_main_edges = None
        self._teacher_terms: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if teacher is None:
            return
        self._teacher_main_edges = teacher.edge_logits[self.main_idx]
        for name, weight, rows_idx, logits in (
                ("ld_main", cfg.w_ld_main, self.main_idx, teacher.edge_logits),
                ("ld_vlr", cfg.w_ld_vlr, self.vlr_idx, teacher.edge_logits),
                ("kd_main", cfg.w_kd_main, self.main_idx, teacher.cls_logits),
                ("kd_vlr", cfg.w_kd_vlr, self.vlr_idx, teacher.cls_logits)):
            if weight > 0.0 and rows_idx.size:
                lt = _log_softmax(logits[rows_idx], cfg.tau)
                self._teacher_terms[name] = (lt, np.exp(lt))

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
        grad_edges (A, E, m), components)``; see :func:`total_loss`."""
        self._check_student(student)
        cfg = self.cfg
        tau = cfg.tau
        terms = self._teacher_terms
        endpoints = cfg.grid.endpoints
        a = self.cls_shape[0]
        main_idx, vlr_idx = self.main_idx, self.vlr_idx
        k_main = main_idx.size

        # Classification cross-entropy over every anchor.
        ls_cls = _log_softmax(student.cls_logits, 1.0)
        l_cls = float(-ls_cls[self._anchors, self._labels].mean())
        grad_cls = cfg.w_cls * (np.exp(ls_cls) - self._onehot) / a
        grad_edges = np.zeros(self.edge_shape)

        l_reg = l_dfl = 0.0
        ld_main = ld_vlr = kd_main = kd_vlr = 0.0
        if k_main:
            z_main = student.edge_logits[main_idx]
            ls_e = _log_softmax(z_main, 1.0)
            p_e = np.exp(ls_e)
            l_dfl = float(-(self._u1 * ls_e[self._at_left]
                            + self._u2 * ls_e[self._at_right]).sum() / k_main)
            g_main = cfg.w_dfl * (p_e - self._two_hot) / k_main

            yhat = p_e @ endpoints
            boxes_s = _boxes_from_edges(self._points, yhat)
            giou_vals, dgiou = _giou_batch(boxes_s, self._boxes_g)
            l_reg = float((1.0 - giou_vals).mean())
            g_edge_vals = _box_grad_to_edges(-cfg.w_reg * dgiou / k_main)
            g_main += _expectation_chain(p_e, yhat, endpoints, g_edge_vals)

            if "ld_main" in terms:
                ld_main, g = _tempered_kl(z_main, *terms["ld_main"], tau)
                g_main += cfg.w_ld_main * g
            grad_edges[main_idx] = g_main
            if "kd_main" in terms:
                kd_main, g = _tempered_kl(student.cls_logits[main_idx], *terms["kd_main"], tau)
                grad_cls[main_idx] += cfg.w_kd_main * g
        if "ld_vlr" in terms:
            ld_vlr, g = _tempered_kl(student.edge_logits[vlr_idx], *terms["ld_vlr"], tau)
            grad_edges[vlr_idx] = cfg.w_ld_vlr * g
        if "kd_vlr" in terms:
            kd_vlr, g = _tempered_kl(student.cls_logits[vlr_idx], *terms["kd_vlr"], tau)
            grad_cls[vlr_idx] += cfg.w_kd_vlr * g

        components = {
            "cls": l_cls,
            "reg": l_reg,
            "dfl": l_dfl,
            "ld_main": ld_main,
            "ld_vlr": ld_vlr,
            "kd_main": kd_main,
            "kd_vlr": kd_vlr,
        }
        value = (cfg.w_cls * l_cls + cfg.w_reg * l_reg + cfg.w_dfl * l_dfl
                 + cfg.w_ld_main * ld_main + cfg.w_ld_vlr * ld_vlr
                 + cfg.w_kd_main * kd_main + cfg.w_kd_vlr * kd_vlr)
        return value, grad_cls, grad_edges, components

    @cached_property
    def _boxes_t(self) -> np.ndarray:
        """The teacher's decoded main boxes, the TBR gate's reference."""
        if self._teacher_main_edges is None:
            raise ValueError("teacher-bounded regression needs teacher outputs")
        if self.cfg.grid.e_min < 0.0:
            raise ValueError(
                "teacher-bounded regression needs nonnegative edge distances (grid.e_min >= 0)"
            )
        return _decoded_boxes(self._points, self._teacher_main_edges, self.cfg.grid.endpoints)

    def tbr_step(self, student: SceneOutputs) -> tuple[float, np.ndarray]:
        """Teacher-bounded regression at ``student``: ``(value, grad_edges
        (A, E, m))``; see :func:`scene_tbr_loss`."""
        self._check_student(student)
        boxes_t = self._boxes_t
        grad_edges = np.zeros(self.edge_shape)
        value = 0.0
        if self.main_idx.size:
            value, grad_edges[self.main_idx] = _tbr_block(
                student.edge_logits[self.main_idx], self._points, boxes_t,
                self._boxes_g, self.cfg.tbr_margin, self.cfg.grid.endpoints)
        return value, grad_edges


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
    objective = SceneObjective(truth, masks, cfg, teacher, student.cls_logits.shape[1])
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
    through the expectation decode. Flat layout as in :func:`total_loss`;
    :meth:`SceneObjective.tbr_step` is the compiled form.
    """
    a = student.n_anchors
    if cfg.grid.e_min < 0.0:
        raise ValueError(
            "teacher-bounded regression needs nonnegative edge distances (grid.e_min >= 0)"
        )
    main_mask = np.asarray(main_mask, dtype=bool)
    if main_mask.shape != (a,):
        raise ValueError(f"main mask shape {main_mask.shape} does not match {a} anchors")
    grad_edges = np.zeros_like(student.edge_logits)
    main_idx = np.flatnonzero(main_mask)
    value = 0.0
    if main_idx.size:
        endpoints = cfg.grid.endpoints
        points = truth.points[main_idx]
        value, grad_edges[main_idx] = _tbr_block(
            student.edge_logits[main_idx], points,
            _decoded_boxes(points, teacher.edge_logits[main_idx], endpoints),
            _boxes_from_edges(points, truth.edge_targets[main_idx]),
            cfg.tbr_margin, endpoints)
    return LossResult(value=value,
                      grad=_flat_grad(np.zeros_like(student.cls_logits), grad_edges))

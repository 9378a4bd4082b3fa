"""The axis-aligned box type plus the IoU-family overlap metrics.

The overlap metrics follow the standard closed forms:

* IoU:  intersection area / union area.
* GIoU: IoU - (enclosing_area - union_area) / enclosing_area.
* DIoU: IoU - squared center distance / squared enclosing-box diagonal.

GIoU has one implementation, :func:`_giou_edges`, on the edge distances
``(t, b, l, r)`` of box pairs from a point each pair shares: GIoU does not
move with that point (as IoU in UnitBox, Yu et al., arXiv:1608.01471), so
training computes it, and its gradient, on the decoded edges directly.
:func:`_giou_batch` is its view on corner boxes, with the origin as the
shared point, and :func:`giou` that view's 1x1 case. All functions are
pure and the box type is an immutable value, so everything here is safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_finite

__all__ = [
    "BoundingBox",
    "iou",
    "giou",
    "diou",
    "diou_matrix",
]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in corner form ``(x1, y1, x2, y2)``.

    Degenerate boxes (zero width or height) are legal values; operations
    that would divide by a zero area raise instead of returning sentinels.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            object.__setattr__(self, name, check_finite(name, float(getattr(self, name))))
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(
                f"BoundingBox requires x1 <= x2 and y1 <= y2, got "
                f"({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def to_list(self) -> list[float]:
        """Flat ``[x1, y1, x2, y2]`` form used by the JSONL dataset files."""
        return [self.x1, self.y1, self.x2, self.y2]

    @classmethod
    def from_list(cls, values) -> "BoundingBox":
        if len(values) != 4:
            raise ValueError(f"expected 4 values for a box, got {len(values)}")
        return cls(*map(float, values))


def _intersection_area(a: BoundingBox, b: BoundingBox) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union, in [0, 1].

    Raises ValueError when the union has zero area (both boxes degenerate),
    where the ratio is undefined.
    """
    inter = _intersection_area(a, b)
    union = a.area + b.area - inter
    if union <= 0.0:
        raise ValueError("iou undefined: union of the two boxes has zero area")
    return inter / union


def _edge_area(e: np.ndarray) -> np.ndarray:
    """Areas ``(t + b) * (l + r)`` of the boxes of ``(4, K)`` edge rows."""
    return (e[0] + e[1]) * (e[2] + e[3])


def _giou_edges(s: np.ndarray, g: np.ndarray, area_g: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """GIoU of box pairs given as edge distances from a point the two boxes
    of a pair share, and its gradient w.r.t. the first box's edges.

    ``s`` and ``g`` are ``(4, ...)`` rows ``t, b, l, r`` that broadcast, such
    as a stack ``(4, S, K)`` of students' edges against one ground truth
    ``(4, 1, K)``; ``area_g`` is :func:`_edge_area` of ``g``. Returns
    ``(giou (...), dgiou/ds (4, ...))``.
    The shared point cancels: intersection height and width are the sums of
    the per-edge minima, the hull's the sums of the maxima, and a box's are
    ``t + b`` and ``l + r``. At tied edges the gradient takes the one-sided
    subgradient: a tie moves neither the intersection nor the hull. No
    check: a pair whose union is empty gives NaN.
    """
    # Each per-axis quantity is a (2, ...) block with a y row (t, b) and an
    # x row (l, r): the (2, 2, ...) views pair each edge with its opposite.
    s2, g2 = s.reshape(2, 2, *s.shape[1:]), g.reshape(2, 2, *g.shape[1:])
    near, far = np.minimum(s2, g2), np.maximum(s2, g2)
    inner = near[:, 0] + near[:, 1]  # ih, iw
    outer = far[:, 0] + far[:, 1]    # ch, cw
    size_s = s2[:, 0] + s2[:, 1]     # h, w

    # Selections multiply by boolean masks; a masked-out entry may then be
    # -0.0, which every later use treats as 0.0.
    overlap = (inner[0] > 0.0) & (inner[1] > 0.0)
    inter = inner[0] * inner[1] * overlap
    union = size_s[0] * size_s[1] + area_g - inter
    enclosing = outer[0] * outer[1]
    giou = inter / union - (enclosing - union) / enclosing

    # Edge derivatives: moving t or b changes an area by its width, moving
    # l or r by its height, hence the swapped axis rows ([::-1]). An edge
    # moves the intersection where it is the nearer of the pair and the
    # hull where it is the farther.
    d_inter = (inner[::-1] * overlap)[:, None] * (s2 < g2)
    d_union = size_s[::-1, None] - d_inter
    d_enc = outer[::-1, None] * (s2 > g2)

    d_giou = (d_inter * union - inter * d_union) / (union * union)
    d_giou += (d_union * enclosing - union * d_enc) / (enclosing * enclosing)
    return giou, d_giou.reshape(4, *d_giou.shape[2:])


def _giou_batch(boxes_s: np.ndarray, boxes_g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GIoU of ``(4, K)`` corner boxes (rows ``x1, y1, x2, y2``) and its
    gradient w.r.t. the first argument's corners: the view of
    :func:`_giou_edges` with the origin as the shared point (``t = -y1,
    b = y2, l = -x1, r = x2``; negation is exact). Raises on a pair with
    an empty union.
    """
    s = np.asarray(boxes_s, dtype=np.float64)
    g = np.asarray(boxes_g, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != 4 or s.shape != g.shape:
        raise ValueError(f"expected matching (4, K) box arrays, got {s.shape} and {g.shape}")
    es, eg = (np.stack([-c[1], c[3], -c[0], c[2]]) for c in (s, g))
    with np.errstate(divide="ignore", invalid="ignore"):
        giou, d = _giou_edges(es, eg, _edge_area(eg))
    if np.isnan(giou).any():
        # An empty union means both boxes are degenerate; an empty hull, that
        # they are also flat along one line.
        hull = np.maximum(es, eg)
        if (_edge_area(hull) <= 0.0).any():
            raise ValueError("giou undefined: an enclosing box has zero area")
        raise ValueError("giou undefined: a box pair has zero union area")
    return giou, np.stack([-d[2], -d[0], d[3], d[1]])


def giou(a: BoundingBox, b: BoundingBox) -> float:
    """Generalized IoU, in [-1, 1]; penalizes empty space in the hull.

    The 1x1 corner view of :func:`_giou_edges`, the kernel the
    box-regression losses train with.
    """
    vals, _ = _giou_batch(np.asarray(a.to_list())[:, None],
                          np.asarray(b.to_list())[:, None])
    return float(vals[0])


def diou(a: BoundingBox, b: BoundingBox) -> float:
    """Distance IoU: IoU minus normalized squared center distance, in (-1, 1]."""
    cw = max(a.x2, b.x2) - min(a.x1, b.x1)
    ch = max(a.y2, b.y2) - min(a.y1, b.y1)
    diag_sq = cw * cw + ch * ch
    if diag_sq <= 0.0:
        raise ValueError("diou undefined: enclosing box has zero diagonal")
    (ax, ay), (bx, by) = a.center, b.center
    center_dist_sq = (ax - bx) ** 2 + (ay - by) ** 2
    return iou(a, b) - center_dist_sq / diag_sq


def diou_matrix(anchors: list[BoundingBox], gts: list[BoundingBox]) -> np.ndarray:
    """Pairwise DIoU matrix, shape ``(len(anchors), len(gts))``."""
    if not anchors:
        raise ValueError("diou_matrix: anchor list is empty")
    if not gts:
        raise ValueError("diou_matrix: ground-truth list is empty")
    out = np.empty((len(anchors), len(gts)), dtype=np.float64)
    for i, a in enumerate(anchors):
        for j, g in enumerate(gts):
            out[i, j] = diou(a, g)
    return out

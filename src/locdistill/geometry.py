"""The axis-aligned box type plus the IoU-family overlap metrics.

The overlap metrics follow the standard closed forms:

* IoU:  intersection area / union area.
* GIoU: IoU - (enclosing_area - union_area) / enclosing_area.
* DIoU: IoU - squared center distance / squared enclosing-box diagonal.

GIoU has one implementation, :func:`_giou_batch`, which also returns the
gradient the box-regression losses train with; :func:`giou` is its 1x1
view. All functions are pure and the box type is an immutable value, so
everything here is safe to call concurrently.
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


def _giou_batch(boxes_s: np.ndarray, boxes_g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized GIoU and its gradient w.r.t. the first argument's corners.

    Inputs are ``(4, K)`` arrays with rows ``x1, y1, x2, y2``. Returns
    ``(giou (K,), dgiou/ds (4, K))``. Non-smooth corner-alignment points
    take the one-sided subgradient.
    """
    s = np.asarray(boxes_s, dtype=np.float64)
    g = np.asarray(boxes_g, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != 4 or s.shape != g.shape:
        raise ValueError(f"expected matching (4, K) box arrays, got {s.shape} and {g.shape}")
    # Each per-axis quantity is a (2, K) block with an x row and a y row, so
    # one ufunc call covers both axes. Per-corner minima and maxima and
    # comparisons take one call over all four rows. The single-box calls of
    # the scalar losses are dominated by call count, not array size.
    near, far = np.minimum(s, g), np.maximum(s, g)
    inner = near[2:] - far[:2]  # iw, ih
    outer = far[2:] - near[:2]  # cw, ch
    size_s = s[2:] - s[:2]
    size_g = g[2:] - g[:2]

    # Selections multiply by boolean masks; a masked-out entry may then be
    # -0.0, which every later use treats as 0.0.
    overlap = (inner[0] > 0.0) & (inner[1] > 0.0)
    inter = inner[0] * inner[1] * overlap
    union = size_s[0] * size_s[1] + size_g[0] * size_g[1] - inter
    enclosing = outer[0] * outer[1]
    if (enclosing <= 0.0).any():
        raise ValueError("giou undefined: an enclosing box has zero area")
    if (union <= 0.0).any():
        raise ValueError("giou undefined: a box pair has zero union area")

    giou = inter / union - (enclosing - union) / enclosing

    # Corner derivatives. Moving x1 or x2 changes an area by its height and
    # moving y1 or y2 by its width, hence the swapped axis rows ([::-1]).
    s_above, s_below = s > g, s < g
    live = inner[::-1] * overlap
    d_inter = np.concatenate([-live, live]) * np.concatenate([s_above[:2], s_below[2:]])
    d_area = np.concatenate([-size_s[::-1], size_s[::-1]])
    d_union = d_area - d_inter
    span = outer[::-1]
    d_enc = np.concatenate([-span, span]) * np.concatenate([s_below[:2], s_above[2:]])

    d_giou = (d_inter * union - inter * d_union) / (union * union)
    d_giou += (d_union * enclosing - union * d_enc) / (enclosing * enclosing)
    return giou, d_giou


def giou(a: BoundingBox, b: BoundingBox) -> float:
    """Generalized IoU, in [-1, 1]; penalizes empty space in the hull.

    The 1x1 view of :func:`_giou_batch`, the kernel the box-regression
    losses train with.
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

"""Axis-aligned and rotated box types plus the IoU-family overlap metrics.

The overlap metrics follow the standard closed forms:

* IoU:  intersection area / union area.
* GIoU: IoU - (enclosing_area - union_area) / enclosing_area.
* DIoU: IoU - squared center distance / squared enclosing-box diagonal.

All functions are pure and all types are immutable values, so everything
here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundingBox",
    "RotatedBox",
    "RotatedDeltas",
    "iou",
    "giou",
    "diou",
    "diou_matrix",
    "encode_rotated",
    "decode_rotated",
]

_HALF_PI = math.pi / 2.0


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name}: coordinates must be finite, got {v!r}")


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
        object.__setattr__(self, "x1", float(self.x1))
        object.__setattr__(self, "y1", float(self.y1))
        object.__setattr__(self, "x2", float(self.x2))
        object.__setattr__(self, "y2", float(self.y2))
        _require_finite("BoundingBox", self.x1, self.y1, self.x2, self.y2)
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

    def translated(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)


def _wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi/2, pi/2) (rectangles repeat with period pi)."""
    return (theta + _HALF_PI) % math.pi - _HALF_PI


@dataclass(frozen=True)
class RotatedBox:
    """Rotated box ``(cx, cy, w, h, theta)`` in long-edge canonical form.

    Construction normalizes the representation: the long edge is stored as
    ``w`` (swapping extents rotates theta by pi/2) and ``theta`` is wrapped
    into ``[-pi/2, pi/2)``. Extents must be strictly positive.
    """

    cx: float
    cy: float
    w: float
    h: float
    theta: float

    def __post_init__(self) -> None:
        cx, cy, w, h, theta = (
            float(self.cx),
            float(self.cy),
            float(self.w),
            float(self.h),
            float(self.theta),
        )
        _require_finite("RotatedBox", cx, cy, w, h, theta)
        if w <= 0.0 or h <= 0.0:
            raise ValueError(f"RotatedBox extents must be positive, got w={w}, h={h}")
        if h > w:
            w, h = h, w
            theta = theta + _HALF_PI
        theta = _wrap_angle(theta)
        object.__setattr__(self, "cx", cx)
        object.__setattr__(self, "cy", cy)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "theta", theta)

    def to_list(self) -> list[float]:
        """Flat ``[cx, cy, w, h, theta]`` form used by the JSONL dataset files."""
        return [self.cx, self.cy, self.w, self.h, self.theta]

    @classmethod
    def from_list(cls, values) -> "RotatedBox":
        if len(values) != 5:
            raise ValueError(f"expected 5 values for a rotated box, got {len(values)}")
        return cls(*map(float, values))


@dataclass(frozen=True)
class RotatedDeltas:
    """Dimensionless parametric regression targets for a rotated box.

    ``dw`` and ``dh`` are log extent ratios; ``dtheta`` is an angle
    difference wrapped into ``[-pi/2, pi/2)``.
    """

    dx: float
    dy: float
    dw: float
    dh: float
    dtheta: float

    def __post_init__(self) -> None:
        for name in ("dx", "dy", "dw", "dh", "dtheta"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"RotatedDeltas.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)

    def to_list(self) -> list[float]:
        return [self.dx, self.dy, self.dw, self.dh, self.dtheta]


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


def giou(a: BoundingBox, b: BoundingBox) -> float:
    """Generalized IoU, in [-1, 1]; penalizes empty space in the hull."""
    cw = max(a.x2, b.x2) - min(a.x1, b.x1)
    ch = max(a.y2, b.y2) - min(a.y1, b.y1)
    enclosing = cw * ch
    if enclosing <= 0.0:
        raise ValueError("giou undefined: enclosing box has zero area")
    inter = _intersection_area(a, b)
    union = a.area + b.area - inter
    if union <= 0.0:
        raise ValueError("giou undefined: union of the two boxes has zero area")
    return inter / union - (enclosing - union) / enclosing


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


def encode_rotated(anchor: RotatedBox, gt: RotatedBox) -> RotatedDeltas:
    """Parametric encoding of ``gt`` relative to ``anchor``.

    Center offsets are normalized by the anchor extents, extents are
    log ratios, and the angle difference is wrapped to ``[-pi/2, pi/2)``.
    """
    return RotatedDeltas(
        dx=(gt.cx - anchor.cx) / anchor.w,
        dy=(gt.cy - anchor.cy) / anchor.h,
        dw=math.log(gt.w / anchor.w),
        dh=math.log(gt.h / anchor.h),
        dtheta=_wrap_angle(gt.theta - anchor.theta),
    )


def decode_rotated(anchor: RotatedBox, d: RotatedDeltas) -> RotatedBox:
    """Inverse of :func:`encode_rotated`; zero deltas return the anchor."""
    return RotatedBox(
        cx=anchor.cx + d.dx * anchor.w,
        cy=anchor.cy + d.dy * anchor.h,
        w=anchor.w * math.exp(d.dw),
        h=anchor.h * math.exp(d.dh),
        theta=anchor.theta + d.dtheta,
    )


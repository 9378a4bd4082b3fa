"""Label assignment for the main distillation region and the VLR.

The main region is the set of positive anchors under max-IoU thresholding.
The valuable localization region (VLR) collects anchors whose DIoU to some
ground-truth box falls in ``[gamma * alpha_pos, alpha_pos]`` and that are
not already main positives, so the two masks stay disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundingBox, diou_matrix, iou

__all__ = [
    "RegionMasks",
    "assign_main",
    "assign_vlr",
    "compute_region_masks",
    "UnfoldedAnchors",
    "unfold_anchors",
    "fold_membership",
]


@dataclass(frozen=True)
class RegionMasks:
    """Per-anchor membership flags; an anchor is never both main and VLR."""

    main: np.ndarray
    vlr: np.ndarray

    def __post_init__(self) -> None:
        main = np.asarray(self.main, dtype=bool)
        vlr = np.asarray(self.vlr, dtype=bool)
        if main.shape != vlr.shape or main.ndim != 1:
            raise ValueError(
                f"masks must be 1-D vectors of equal length, got {main.shape} and {vlr.shape}"
            )
        if np.any(main & vlr):
            raise ValueError("an anchor cannot be both main-positive and VLR")
        main.flags.writeable = False
        vlr.flags.writeable = False
        object.__setattr__(self, "main", main)
        object.__setattr__(self, "vlr", vlr)

    def __len__(self) -> int:
        return self.main.shape[0]


def _validate_thresholds(alpha_pos: float, gamma: float | None = None) -> None:
    if not (0.0 < alpha_pos <= 1.0):
        raise ValueError(f"alpha_pos must lie in (0, 1], got {alpha_pos}")
    if gamma is not None and not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")


def assign_main(
    anchors: list[BoundingBox], gts: list[BoundingBox], alpha_pos: float
) -> np.ndarray:
    """Positive mask: anchor i is positive iff ``max_j IoU(anchor_i, gt_j) >= alpha_pos``.

    An empty ground-truth list is a valid background scene (all False).
    """
    _validate_thresholds(alpha_pos)
    if not anchors:
        raise ValueError("assign_main: anchor list is empty")
    out = np.zeros(len(anchors), dtype=bool)
    if not gts:
        return out
    for i, a in enumerate(anchors):
        out[i] = any(iou(a, g) >= alpha_pos for g in gts)
    return out


def _diou_band(main: np.ndarray, anchors: list[BoundingBox], gts: list[BoundingBox],
               alpha_pos: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The DIoU matrix, and its band ``[gamma * alpha_pos, alpha_pos]`` minus the ``main`` anchors."""
    x = diou_matrix(anchors, gts) if gts else np.empty((len(anchors), 0))
    in_band = np.any((x >= gamma * alpha_pos) & (x <= alpha_pos), axis=1)
    return x, in_band & ~main


def assign_vlr(
    anchors: list[BoundingBox],
    gts: list[BoundingBox],
    alpha_pos: float,
    gamma: float,
) -> np.ndarray:
    """VLR mask: DIoU to some gt in ``[gamma * alpha_pos, alpha_pos]``, main excluded.

    ``gamma = 0`` admits every anchor with ``0 <= DIoU <= alpha_pos``;
    as ``gamma`` grows toward 1 the region shrinks to empty.
    """
    _validate_thresholds(alpha_pos, gamma)
    if not anchors:
        raise ValueError("assign_vlr: anchor list is empty")
    return _diou_band(assign_main(anchors, gts, alpha_pos), anchors, gts, alpha_pos, gamma)[1]


def compute_region_masks(
    anchors: list[BoundingBox],
    gts: list[BoundingBox],
    alpha_pos: float,
    gamma: float,
) -> RegionMasks:
    """Main and VLR assignment for one scene, with the main region computed once."""
    return _masks_and_diou(anchors, gts, alpha_pos, gamma)[0]


def _masks_and_diou(
    anchors: list[BoundingBox],
    gts: list[BoundingBox],
    alpha_pos: float,
    gamma: float,
) -> tuple[RegionMasks, np.ndarray]:
    """:func:`compute_region_masks` plus the ``(len(anchors), len(gts))``
    DIoU matrix it assigned the VLR from, each DIoU computed once."""
    _validate_thresholds(alpha_pos, gamma)
    main = assign_main(anchors, gts, alpha_pos)
    x, vlr = _diou_band(main, anchors, gts, alpha_pos, gamma)
    return RegionMasks(main=main, vlr=vlr), x


@dataclass(frozen=True)
class UnfoldedAnchors:
    """Flat anchor list with back-references to the originating locations."""

    anchors: tuple[BoundingBox, ...]
    location_index: np.ndarray
    n_locations: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.location_index, dtype=np.int64)
        idx.flags.writeable = False
        object.__setattr__(self, "anchors", tuple(self.anchors))
        object.__setattr__(self, "location_index", idx)


def unfold_anchors(per_location_anchors: list[list[BoundingBox]]) -> UnfoldedAnchors:
    """Flatten per-location anchor lists in stable (location-major) order.

    All locations must carry the same number of anchors.
    """
    if not per_location_anchors:
        raise ValueError("unfold_anchors: no locations given")
    counts = {len(loc) for loc in per_location_anchors}
    if counts == {0}:
        raise ValueError("unfold_anchors: locations carry no anchors")
    if len(counts) != 1:
        raise ValueError(f"unfold_anchors: inconsistent per-location anchor counts {sorted(counts)}")
    anchors: list[BoundingBox] = []
    location_index: list[int] = []
    for loc_id, loc in enumerate(per_location_anchors):
        for a in loc:
            anchors.append(a)
            location_index.append(loc_id)
    return UnfoldedAnchors(
        anchors=tuple(anchors),
        location_index=np.asarray(location_index, dtype=np.int64),
        n_locations=len(per_location_anchors),
    )


def fold_membership(unfolded: UnfoldedAnchors, flags) -> np.ndarray:
    """Fold flat per-anchor flags back per location (any anchor sets it)."""
    flags = np.asarray(flags, dtype=bool)
    if flags.shape != unfolded.location_index.shape:
        raise ValueError(
            f"flags length {flags.shape} does not match {unfolded.location_index.shape} anchors"
        )
    out = np.zeros(unfolded.n_locations, dtype=bool)
    np.logical_or.at(out, unfolded.location_index, flags)
    return out

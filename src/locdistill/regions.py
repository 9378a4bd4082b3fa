"""Label assignment for the main distillation region and the VLR.

The main region is the set of positive anchors under max-IoU thresholding.
The valuable localization region (VLR) collects anchors whose DIoU to some
ground-truth box falls in ``[gamma * alpha_pos, alpha_pos]`` and that are
not already main positives, so the two masks stay disjoint.

One pass, :func:`_masks_and_diou`, evaluates geometry's scalar pair kernel
once per anchor-gt pair into ``(N, M)`` IoU and DIoU matrices and reads
both masks off them; :func:`compute_region_masks`, :func:`assign_main` and
:func:`assign_vlr` are its views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_unit_interval
from .geometry import BoundingBox, _overlap_matrices

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
        # Copies, so that freezing them leaves the caller's arrays writeable.
        main = np.array(self.main, dtype=bool)
        vlr = np.array(self.vlr, dtype=bool)
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


def assign_main(
    anchors: list[BoundingBox], gts: list[BoundingBox], alpha_pos: float
) -> np.ndarray:
    """Positive mask: anchor i is positive iff ``max_j IoU(anchor_i, gt_j) >= alpha_pos``.

    An empty ground-truth list is a valid background scene (all False).
    """
    return _masks_and_diou(anchors, gts, alpha_pos, 0.0)[0].main


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
    return _masks_and_diou(anchors, gts, alpha_pos, gamma)[0].vlr


def compute_region_masks(
    anchors: list[BoundingBox],
    gts: list[BoundingBox],
    alpha_pos: float,
    gamma: float,
) -> RegionMasks:
    """Main and VLR assignment for one scene, each pair's IoU and DIoU computed once."""
    return _masks_and_diou(anchors, gts, alpha_pos, gamma)[0]


def _masks_and_diou(anchors: list[BoundingBox], gts: list[BoundingBox], alpha_pos: float,
                    gamma: float) -> tuple[RegionMasks, np.ndarray]:
    """:func:`compute_region_masks` plus the ``(len(anchors), len(gts))``
    DIoU matrix it assigned the VLR from."""
    check_unit_interval("gamma", gamma)
    check_unit_interval("alpha_pos", alpha_pos, open_low=True)
    if not anchors:
        raise ValueError("region assignment: anchor list is empty")
    ious, x = _overlap_matrices(anchors, gts)
    main = np.any(ious >= alpha_pos, axis=1)
    vlr = np.any((x >= gamma * alpha_pos) & (x <= alpha_pos), axis=1) & ~main
    return RegionMasks(main=main, vlr=vlr), x


@dataclass(frozen=True)
class UnfoldedAnchors:
    """Flat anchor list with back-references to the originating locations."""

    anchors: tuple[BoundingBox, ...]
    location_index: np.ndarray
    n_locations: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchors", tuple(self.anchors))
        idx = np.array(self.location_index, dtype=np.int64)  # a copy, frozen below
        if idx.shape != (len(self.anchors),):
            raise ValueError(f"location_index of shape {idx.shape} does not match "
                             f"{len(self.anchors)} anchors")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_locations):
            raise ValueError(f"location_index entries must lie in [0, {self.n_locations}), "
                             f"got [{idx.min()}, {idx.max()}]")
        idx.flags.writeable = False
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

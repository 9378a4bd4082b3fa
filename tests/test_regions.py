import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locdistill.geometry import BoundingBox, diou, iou
from locdistill.regions import (
    RegionMasks,
    assign_main,
    assign_vlr,
    compute_region_masks,
    fold_membership,
    unfold_anchors,
)

from oracles import brute_force_regions


def _box(x1, y1, x2, y2):
    return BoundingBox(x1, y1, x2, y2)


def _random_scene(rng, n_anchors=8, n_gts=2):
    def rand_boxes(n):
        out = []
        for _ in range(n):
            x1 = rng.uniform(-4, 4)
            y1 = rng.uniform(-4, 4)
            out.append(_box(x1, y1, x1 + rng.uniform(0.5, 4), y1 + rng.uniform(0.5, 4)))
        return out

    return rand_boxes(n_anchors), rand_boxes(n_gts)


class TestAssignMain:
    def test_identical_anchor_is_positive(self):
        b = _box(0, 0, 2, 2)
        assert assign_main([b], [b], 0.5).tolist() == [True]

    def test_disjoint_scene_all_negative(self):
        anchors = [_box(0, 0, 1, 1), _box(2, 2, 3, 3)]
        gts = [_box(10, 10, 11, 11)]
        assert not assign_main(anchors, gts, 0.5).any()

    def test_hand_scene_matches_pairwise_oracle(self):
        anchors = [_box(0, 0, 2, 2), _box(0.5, 0.5, 2.5, 2.5),
                   _box(3, 3, 5, 5), _box(1, 1, 2, 2)]
        gts = [_box(0.2, 0.2, 2.2, 2.2)]
        got = assign_main(anchors, gts, 0.5)
        expected = [iou(a, gts[0]) >= 0.5 for a in anchors]
        assert got.tolist() == expected

    def test_empty_gts_is_valid_background(self):
        anchors = [_box(0, 0, 1, 1)]
        assert assign_main(anchors, [], 0.5).tolist() == [False]

    def test_empty_anchors_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            assign_main([], [_box(0, 0, 1, 1)], 0.5)

    def test_invalid_threshold_rejected(self):
        b = _box(0, 0, 1, 1)
        with pytest.raises(ValueError):
            assign_main([b], [b], 0.0)
        with pytest.raises(ValueError):
            assign_main([b], [b], 1.5)


class TestAssignVLR:
    def test_gamma_one_empty_on_strict_interior(self):
        rng = np.random.default_rng(1)
        anchors, gts = _random_scene(rng)
        vlr = assign_vlr(anchors, gts, 0.5, 1.0)
        assert not vlr.any()

    def test_gamma_zero_selects_full_band(self):
        rng = np.random.default_rng(2)
        anchors, gts = _random_scene(rng)
        vlr = assign_vlr(anchors, gts, 0.5, 0.0)
        main = assign_main(anchors, gts, 0.5)
        for i, a in enumerate(anchors):
            in_band = any(0.0 <= diou(a, g) <= 0.5 for g in gts)
            assert vlr[i] == (in_band and not main[i])

    def test_hand_scene_against_thresholds(self):
        # anchor with DIoU 0.3 to the gt: selected at gamma=0.25 (bound 0.125)
        anchor = _box(0.8, 0.0, 2.8, 2.0)
        gt = _box(0, 0, 2, 2)
        assert 0.125 <= diou(anchor, gt) <= 0.5
        assert assign_vlr([anchor], [gt], 0.5, 0.25).tolist() == [True]

    def test_mains_are_excluded(self):
        b = _box(0, 0, 2, 2)
        assert assign_vlr([b], [b], 0.5, 0.25).tolist() == [False]

    def test_invalid_gamma_rejected(self):
        b = _box(0, 0, 1, 1)
        with pytest.raises(ValueError):
            assign_vlr([b], [b], 0.5, -0.1)
        with pytest.raises(ValueError):
            assign_vlr([b], [b], 0.5, 1.2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_gamma_monotone_shrinkage(self, seed):
        rng = np.random.default_rng(seed)
        anchors, gts = _random_scene(rng, n_anchors=6, n_gts=2)
        previous = None
        for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
            vlr = assign_vlr(anchors, gts, 0.5, gamma)
            if previous is not None:
                assert not (vlr & ~previous).any()  # larger gamma never adds
            previous = vlr

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        anchors, gts = _random_scene(rng, n_anchors=10, n_gts=3)
        gamma = float(rng.uniform(0, 1))
        main = assign_main(anchors, gts, 0.5)
        vlr = assign_vlr(anchors, gts, 0.5, gamma)
        bf_main, bf_vlr = brute_force_regions(
            [a.to_list() for a in anchors], [g.to_list() for g in gts], 0.5, gamma)
        assert np.array_equal(main, bf_main)
        assert np.array_equal(vlr, bf_vlr)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        anchors, gts = _random_scene(rng)
        masks = compute_region_masks(anchors, gts, 0.5, 0.25)
        shifted = compute_region_masks(
            [a.translated(13.5, -7.25) for a in anchors],
            [g.translated(13.5, -7.25) for g in gts], 0.5, 0.25)
        assert np.array_equal(masks.main, shifted.main)
        assert np.array_equal(masks.vlr, shifted.vlr)


class TestRegionMasks:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="both"):
            RegionMasks(main=np.array([True]), vlr=np.array([True]))

    def test_compute_region_masks_disjoint(self):
        rng = np.random.default_rng(17)
        anchors, gts = _random_scene(rng)
        masks = compute_region_masks(anchors, gts, 0.5, 0.25)
        assert not (masks.main & masks.vlr).any()

    def test_main_region_computed_once(self, monkeypatch):
        from locdistill import geometry, regions

        calls = []

        def counting(a, b):
            calls.append(1)
            return iou(a, b)

        monkeypatch.setattr(geometry, "iou", counting)
        monkeypatch.setattr(regions, "iou", counting)
        anchors, gts = _random_scene(np.random.default_rng(23), n_anchors=60, n_gts=4)
        masks = compute_region_masks(anchors, gts, 0.5, 0.25)
        # At most one IoU per pair for the main region and one inside each DIoU.
        assert len(calls) <= 2 * len(anchors) * len(gts)
        assert np.array_equal(masks.main, assign_main(anchors, gts, 0.5))
        assert np.array_equal(masks.vlr, assign_vlr(anchors, gts, 0.5, 0.25))


class TestUnfoldAnchors:
    def test_single_anchor_per_location_is_identity(self):
        boxes = [_box(i, 0, i + 1, 1) for i in range(3)]
        unfolded = unfold_anchors([[b] for b in boxes])
        assert unfolded.anchors == tuple(boxes)
        assert unfolded.location_index.tolist() == [0, 1, 2]

    def test_stable_location_major_order(self):
        per_loc = [
            [_box(0, 0, 1, 1), _box(0, 0, 2, 2), _box(0, 0, 3, 3)],
            [_box(5, 5, 6, 6), _box(5, 5, 7, 7), _box(5, 5, 8, 8)],
        ]
        unfolded = unfold_anchors(per_loc)
        assert len(unfolded.anchors) == 6
        assert unfolded.location_index.tolist() == [0, 0, 0, 1, 1, 1]
        assert unfolded.anchors[:3] == tuple(per_loc[0])

    def test_fold_membership_round_trip(self):
        per_loc = [[_box(0, 0, 1, 1), _box(0, 0, 2, 2)] for _ in range(4)]
        unfolded = unfold_anchors(per_loc)
        flags = np.array([False, True, False, False, True, True, False, False])
        folded = fold_membership(unfolded, flags)
        assert folded.tolist() == [True, False, True, False]

    def test_ragged_input_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            unfold_anchors([[_box(0, 0, 1, 1)], [_box(0, 0, 1, 1), _box(0, 0, 2, 2)]])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            unfold_anchors([])
        with pytest.raises(ValueError):
            unfold_anchors([[], []])

    def test_fold_length_mismatch_rejected(self):
        unfolded = unfold_anchors([[_box(0, 0, 1, 1)]])
        with pytest.raises(ValueError):
            fold_membership(unfolded, np.array([True, False]))

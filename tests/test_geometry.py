import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locdistill.geometry import (
    BoundingBox,
    diou,
    diou_matrix,
    giou,
    iou,
)

from oracles import grid_overlap_oracle


def _box(x1, y1, x2, y2):
    return BoundingBox(x1, y1, x2, y2)


coords = st.floats(-20.0, 20.0, allow_nan=False)
sizes = st.floats(0.1, 10.0, allow_nan=False)


@st.composite
def boxes(draw):
    x1 = draw(coords)
    y1 = draw(coords)
    return BoundingBox(x1, y1, x1 + draw(sizes), y1 + draw(sizes))


class TestIoU:
    def test_identity(self):
        b = _box(0, 0, 1, 1)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(_box(0, 0, 1, 1), _box(5, 5, 6, 6)) == 0.0

    def test_hand_value(self):
        # I = 1, U = 4 + 4 - 1 = 7
        assert abs(iou(_box(0, 0, 2, 2), _box(1, 1, 3, 3)) - 1 / 7) < 1e-12

    def test_hand_value_matches_grid_oracle(self):
        got = grid_overlap_oracle((0, 0, 2, 2), (1, 1, 3, 3), resolution=1e-3)
        assert abs(got["iou"] - 1 / 7) < 1e-12

    def test_zero_union_errors(self):
        point = _box(1, 1, 1, 1)
        with pytest.raises(ValueError, match="union"):
            iou(point, point)

    def test_degenerate_against_regular_is_fine(self):
        assert iou(_box(0, 0, 0, 1), _box(2, 0, 3, 1)) == 0.0

    @given(boxes(), boxes())
    @settings(max_examples=80, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(boxes())
    @settings(max_examples=40, deadline=None)
    def test_equal_boxes_score_one(self, a):
        assert iou(a, a) == 1.0


class TestGIoU:
    def test_identity(self):
        b = _box(0, 0, 3, 2)
        assert giou(b, b) == 1.0

    def test_hand_value(self):
        # disjoint unit boxes with a unit gap: IoU 0, C = 3, U = 2
        assert abs(giou(_box(0, 0, 1, 1), _box(2, 0, 3, 1)) + 1 / 3) < 1e-12

    def test_zero_enclosing_errors(self):
        with pytest.raises(ValueError, match="enclosing"):
            giou(_box(0, 0, 1, 0), _box(2, 0, 3, 0))

    @given(boxes(), boxes())
    @settings(max_examples=80, deadline=None)
    def test_never_exceeds_iou(self, a, b):
        assert giou(a, b) <= iou(a, b) + 1e-15
        assert -1.0 <= giou(a, b) <= 1.0


class TestDIoU:
    def test_identity(self):
        b = _box(-1, -1, 1, 1)
        assert diou(b, b) == 1.0

    def test_hand_value(self):
        # IoU 0, center distance^2 = 4, enclosing diagonal^2 = 10
        assert abs(diou(_box(0, 0, 1, 1), _box(2, 0, 3, 1)) + 0.4) < 1e-12

    def test_concentric_equals_iou(self):
        a = _box(-1, -1, 1, 1)
        b = _box(-2, -2, 2, 2)
        assert diou(a, b) == iou(a, b)

    def test_zero_diagonal_errors(self):
        p = _box(1, 1, 1, 1)
        with pytest.raises(ValueError, match="diagonal"):
            diou(p, p)

    @given(boxes(), boxes())
    @settings(max_examples=80, deadline=None)
    def test_bounded_below_and_by_iou(self, a, b):
        v = diou(a, b)
        assert v <= iou(a, b) + 1e-15
        assert v > -1.0


class TestDiouMatrix:
    def test_single_pair_identity(self):
        b = _box(0, 0, 1, 1)
        assert diou_matrix([b], [b]).tolist() == [[1.0]]

    def test_matches_elementwise_calls(self):
        anchors = [_box(0, 0, 2, 2), _box(1, 0, 3, 1)]
        gts = [_box(0.5, 0.5, 2.5, 2.5)]
        x = diou_matrix(anchors, gts)
        assert x.shape == (2, 1)
        for i, a in enumerate(anchors):
            assert x[i, 0] == diou(a, gts[0])

    def test_row_permutation_equivariance(self):
        anchors = [_box(0, 0, 1, 1), _box(2, 2, 4, 4), _box(-1, 0, 1, 2)]
        gts = [_box(0, 0, 2, 2), _box(3, 3, 4, 4)]
        x = diou_matrix(anchors, gts)
        x_rev = diou_matrix(anchors[::-1], gts)
        assert np.array_equal(x[::-1], x_rev)

    def test_empty_inputs_error(self):
        b = _box(0, 0, 1, 1)
        with pytest.raises(ValueError):
            diou_matrix([], [b])
        with pytest.raises(ValueError):
            diou_matrix([b], [])


class TestGridOracleAgreement:
    def test_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = _random_flat_box(rng)
            b = _random_flat_box(rng)
            expected = grid_overlap_oracle(a, b)
            box_a, box_b = BoundingBox(*a), BoundingBox(*b)
            assert abs(iou(box_a, box_b) - expected["iou"]) < 2e-3
            assert abs(giou(box_a, box_b) - expected["giou"]) < 2e-3
            assert abs(diou(box_a, box_b) - expected["diou"]) < 2e-3


def _random_flat_box(rng):
    x1 = rng.uniform(-2.0, 2.0)
    y1 = rng.uniform(-2.0, 2.0)
    return (x1, y1, x1 + rng.uniform(0.5, 3.0), y1 + rng.uniform(0.5, 3.0))


class TestBoundingBoxInvariants:
    def test_inverted_coordinates_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(1, 0, 0, 1)
        with pytest.raises(ValueError):
            BoundingBox(0, 1, 1, 0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, float("nan"), 1)

    def test_list_round_trip(self):
        b = _box(0.5, -1.5, 2.0, 3.5)
        assert BoundingBox.from_list(b.to_list()) == b

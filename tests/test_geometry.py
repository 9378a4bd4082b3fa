import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from locdistill.geometry import (
    BoundingBox,
    _edge_area,
    _giou_batch,
    _giou_edges,
    diou,
    diou_matrix,
    giou,
    iou,
)

from oracles import _oracle_giou_and_grad, grid_overlap_oracle


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

    def test_zero_union_errors(self):
        # two flat boxes on different lines: a nonempty hull, an empty union
        with pytest.raises(ValueError, match="union"):
            giou(_box(0, 0, 1, 0), _box(0, 2, 1, 2))

    @given(boxes(), boxes())
    @settings(max_examples=80, deadline=None)
    def test_never_exceeds_iou(self, a, b):
        assert giou(a, b) <= iou(a, b) + 1e-15
        assert -1.0 <= giou(a, b) <= 1.0


def _edges_from(point, box):
    """(t, b, l, r) distances of a corner box from a point."""
    (px, py), (x1, y1, x2, y2) = point, box
    return np.array([py - y1, y2 - py, px - x1, x2 - px])


points = st.tuples(st.floats(-30.0, 30.0, allow_nan=False),
                   st.floats(-30.0, 30.0, allow_nan=False))


class TestGIoUOnEdges:
    """The training kernel, on edge distances from a point the two boxes
    of a pair share."""

    @given(boxes(), boxes(), points, points)
    @settings(max_examples=300, deadline=None)
    def test_shared_point_cancels(self, a, b, p1, p2):
        """Moving the shared point moves neither the GIoU nor its edge
        gradient, and both equal the corner view's. Pairs with two
        coordinates of an axis closer than 1e-6 but not equal are left out:
        rounding the distances may tie them or close the intersection, and
        either switches a one-sided subgradient."""
        for axis in (0, 1):
            c = np.array([a.to_list()[axis::2], b.to_list()[axis::2]]).ravel()
            gaps = np.abs(c[:, None] - c[None, :])
            assume(((gaps == 0.0) | (gaps > 1e-6)).all())
        results = []
        for p in (p1, p2):
            s, g = (_edges_from(p, box.to_list())[:, None] for box in (a, b))
            results.append(_giou_edges(s, g, _edge_area(g)))
        (v1, d1), (v2, d2) = results
        assert abs(v1[0] - v2[0]) <= 1e-12
        assert np.abs(d1 - d2).max() <= 1e-12 * max(1.0, np.abs(d1).max())
        vals, d_corner = _giou_batch(np.array(a.to_list())[:, None],
                                     np.array(b.to_list())[:, None])
        assert abs(vals[0] - v1[0]) <= 1e-12
        # d/dt = -d/dy1, d/db = d/dy2, d/dl = -d/dx1, d/dr = d/dx2
        d_edges = np.array([-d_corner[1], d_corner[3], -d_corner[0], d_corner[2]])
        assert np.abs(d_edges - d1).max() <= 1e-12 * max(1.0, np.abs(d1).max())

    def test_ties_take_the_one_sided_subgradient(self):
        """On 2000 random pairs with forced corner ties, the kernel gives the
        corner-by-corner reference's subgradient: a tied corner moves
        neither the intersection nor the hull."""
        rng = np.random.default_rng(17)
        k = 2000
        near = rng.integers(-4, 4, size=(2, k)).astype(float)
        s = np.concatenate([near, near + rng.integers(5, 9, size=(2, k))])
        # Each corner of g moves by at most 2, less than any side of s; one
        # corner per pair stays tied, the others tie by chance.
        shift = rng.integers(-2, 3, size=(4, k)).astype(float)
        shift[rng.integers(0, 4, size=k), np.arange(k)] = 0.0
        g = s + shift
        # A third of the pairs move g by s's width: their x-sides overlap,
        # touch or part, at a tie where g's left side meets s's right side.
        g[[0, 2]] += (rng.random(k) < 1 / 3) * (s[2] - s[0])
        vals, grad = _giou_batch(s, g)
        ref_vals, ref_grad = _oracle_giou_and_grad(s.T, g.T)
        assert np.abs(vals - ref_vals).max() <= 1e-14
        assert np.abs(grad - ref_grad.T).max() <= 1e-14


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

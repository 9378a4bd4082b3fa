import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locdistill.boxdist import (
    TwoHotTarget,
    decode_expectation,
    encode_target,
    flatness,
    generalized_softmax,
    make_grid,
)

# Ranges keep |z_i - z_j| / tau below the exp underflow threshold (~745), so
# the strict-positivity invariant is testable; saturation beyond that is
# covered separately.
logit_vectors = st.lists(st.floats(-30.0, 30.0, allow_nan=False), min_size=2, max_size=12)
temperatures = st.floats(0.2, 50.0, allow_nan=False)


class TestMakeGrid:
    def test_unit_grid(self):
        g = make_grid(0, 8, 8)
        assert np.array_equal(g.endpoints, np.arange(9.0))
        assert g.delta == 1.0

    def test_symmetric_grid(self):
        g = make_grid(-5, 5, 10)
        assert np.array_equal(g.endpoints, np.arange(-5.0, 6.0))

    def test_minimal_grid(self):
        g = make_grid(0, 1, 1)
        assert g.endpoints.tolist() == [0.0, 1.0]

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            make_grid(0, 8, 0)
        with pytest.raises(ValueError):
            make_grid(8, 0, 4)
        with pytest.raises(ValueError):
            make_grid(3, 3, 4)


class TestGeneralizedSoftmax:
    def test_zero_logits_give_uniform(self):
        for tau in (0.5, 1.0, 10.0):
            p = generalized_softmax(np.zeros(5), tau)
            assert np.allclose(p, 0.2, atol=1e-15)

    def test_hand_value(self):
        p = generalized_softmax([math.log(2), 0.0], 1.0)
        assert p[0] == pytest.approx(2 / 3, abs=1e-12)
        assert p[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_large_temperature_flattens(self):
        p = generalized_softmax([3.0, 0.0, 0.0], 1000.0)
        assert np.all(np.abs(p - 1 / 3) < 1e-3)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            generalized_softmax([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            generalized_softmax([1.0, 2.0], -3.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="temperature must be positive and finite"):
                generalized_softmax([1.0, 2.0], bad)

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValueError):
            generalized_softmax([1.0, float("inf")], 1.0)

    @given(logit_vectors, temperatures)
    @settings(max_examples=100, deadline=None)
    def test_simplex_point(self, z, tau):
        p = generalized_softmax(z, tau)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0.0)

    @given(logit_vectors, temperatures, st.floats(-100.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, z, tau, c):
        z = np.asarray(z)
        assert np.allclose(
            generalized_softmax(z, tau), generalized_softmax(z + c, tau), atol=1e-12
        )

    def test_temperature_equals_logit_rescaling(self):
        z = np.array([0.4, -1.2, 2.5, 0.0])
        for tau in (2.0, 10.0):
            assert np.array_equal(
                generalized_softmax(z, tau), generalized_softmax(z / tau, 1.0)
            )

    def test_argmax_mass_monotone_in_temperature(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.normal(0, 2, size=7)
            masses = [generalized_softmax(z, t).max() for t in (1e-3, 0.3, 1, 3, 10, 100)]
            assert all(a >= b - 1e-15 for a, b in zip(masses, masses[1:]))
            assert masses[0] > 0.99  # tau -> 0 concentrates on the argmax

    def test_extreme_spread_saturates(self):
        # beyond the exp(-745) underflow the loser bins round to exactly 0
        p = generalized_softmax([22.0, -25.0], 0.0625)
        assert p.tolist() == [1.0, 0.0]
        assert p.sum() == 1.0

    def test_one_softmax_kernel_for_training_and_theory(self):
        from locdistill import boxdist, losses

        assert losses._log_softmax is boxdist._log_softmax
        z = np.random.default_rng(5).normal(0, 3, size=(4, 9))
        tau = np.array([[0.5], [1.0], [3.0], [20.0]])
        stacked = boxdist._softmax(z, tau)
        assert np.array_equal(stacked, np.exp(losses._log_softmax(z, tau)))
        for row, t in zip(range(4), tau[:, 0]):
            assert np.array_equal(generalized_softmax(z[row], t), stacked[row])

    def test_uniform_limit(self):
        z = np.random.default_rng(4).normal(0, 3, size=9)
        dev = [np.abs(generalized_softmax(z, t) - 1 / 9).max() for t in (1e2, 1e4, 1e6)]
        assert dev[0] > dev[1] > dev[2]
        assert dev[2] < 1e-6


class TestEncodeTarget:
    def test_endpoint_hit(self):
        t = encode_target(3.0, make_grid(0, 8, 8))
        assert (t.i, t.u1, t.u2) == (3, 1.0, 0.0)

    def test_midpoint(self):
        t = encode_target(2.5, make_grid(0, 8, 8))
        assert (t.i, t.u1, t.u2) == (2, 0.5, 0.5)

    def test_interpolation(self):
        t = encode_target(2.3, make_grid(0, 8, 8))
        assert t.i == 2
        assert t.u1 == pytest.approx(0.7, abs=1e-12)
        assert t.u2 == pytest.approx(0.3, abs=1e-12)

    def test_upper_endpoint(self):
        t = encode_target(8.0, make_grid(0, 8, 8))
        assert (t.i, t.u1, t.u2) == (7, 0.0, 1.0)

    def test_out_of_range_rejected(self):
        g = make_grid(0, 8, 8)
        with pytest.raises(ValueError, match="outside"):
            encode_target(-0.001, g)
        with pytest.raises(ValueError, match="outside"):
            encode_target(8.001, g)

    @given(st.floats(0.0, 8.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_reconstruction(self, y):
        g = make_grid(0, 8, 8)
        t = encode_target(y, g)
        pts = g.endpoints
        assert t.u1 * pts[t.i] + t.u2 * pts[t.i + 1] == pytest.approx(y, abs=1e-12)
        assert pts[t.i] <= y <= pts[t.i + 1]


class TestDecodeExpectation:
    def test_one_hot(self):
        g = make_grid(0, 8, 8)
        p = np.zeros(9)
        p[5] = 1.0
        assert decode_expectation(p, g) == 5.0

    def test_uniform(self):
        g = make_grid(0, 8, 8)
        assert decode_expectation(np.full(9, 1 / 9), g) == pytest.approx(4.0, abs=1e-12)

    def test_two_hot_round_trip(self):
        g = make_grid(0, 8, 8)
        t = encode_target(2.3, g)
        assert decode_expectation(t.as_weights(9), g) == pytest.approx(2.3, abs=1e-12)

    def test_invalid_inputs_rejected(self):
        g = make_grid(0, 8, 8)
        with pytest.raises(ValueError):
            decode_expectation(np.full(8, 1 / 8), g)  # wrong length
        with pytest.raises(ValueError):
            decode_expectation(np.full(9, 1.0), g)  # not normalized

    @given(st.floats(-5.0, 5.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_on_offset_grid(self, y):
        g = make_grid(-5, 5, 10)
        t = encode_target(y, g)
        assert decode_expectation(t.as_weights(g.size), g) == pytest.approx(y, abs=1e-12)


class TestFlatness:
    def test_one_hot_is_zero(self):
        p = np.zeros(6)
        p[2] = 1.0
        assert flatness(p) == 0.0

    def test_uniform_is_log_m(self):
        for m in (2, 5, 9):
            assert flatness(np.full(m, 1 / m)) == pytest.approx(math.log(m), abs=1e-12)

    def test_two_mass_points(self):
        assert flatness([0.5, 0.5, 0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)


class TestTwoHotTarget:
    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            TwoHotTarget(0, 0.7, 0.7)
        with pytest.raises(ValueError):
            TwoHotTarget(0, -0.1, 1.1)
        with pytest.raises(ValueError):
            TwoHotTarget(-1, 0.5, 0.5)

    def test_dense_weights(self):
        t = TwoHotTarget(1, 0.25, 0.75)
        assert t.as_weights(4).tolist() == [0.0, 0.25, 0.75, 0.0]
        with pytest.raises(ValueError):
            t.as_weights(2)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locdistill import theory
from locdistill.boxdist import TwoHotTarget, generalized_softmax
from locdistill.losses import dfl_loss, kd_loss
from locdistill.theory import (
    certify_decomposition,
    certify_proposition1,
    certify_rescaling,
    decompose_localization,
    gradient_rescaling_ratio,
    incorrect_position_gradient_sum,
    verify_proposition1,
    _decompose_stack,
    _decomposition_system,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestProposition1:
    def test_u1_one_is_exactly_zero(self):
        rng = _rng(1)
        s, p, q = (rng.dirichlet(np.ones(7)) for _ in range(3))
        assert verify_proposition1(s, p, q, u1=1.0, tau=5.0) == 0.0

    def test_equal_targets_degenerate(self):
        rng = _rng(2)
        s, p = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        assert verify_proposition1(s, p, p, u1=0.3, tau=2.0) < 1e-15

    def test_random_trials_within_double_precision(self):
        rng = _rng(3)
        for _ in range(300):
            m = int(rng.integers(3, 18))
            s, p, q = (rng.dirichlet(np.ones(m)) for _ in range(3))
            u1 = rng.uniform(0.05, 0.95)
            tau = rng.uniform(1.0, 20.0)
            assert verify_proposition1(s, p, q, u1, tau) <= 1e-12

    def test_non_simplex_rejected(self):
        ok = np.array([0.3, 0.7])
        with pytest.raises(ValueError):
            verify_proposition1(np.array([0.5, 0.6]), ok, ok, 0.5, 1.0)
        with pytest.raises(ValueError):
            verify_proposition1(ok, np.array([1.0, 0.0]), ok, 0.5, 1.0)  # zero entry

    def test_perturbation_hook_breaks_identity(self):
        rng = _rng(4)
        s, p, q = (rng.dirichlet(np.ones(5)) for _ in range(3))
        assert verify_proposition1(s, p, q, 0.4, 3.0, perturbation=1e-6) > 1e-7
        with pytest.raises(ValueError, match="perturbation must be finite"):
            certify_proposition1(trials=1, sizes=(5,), perturbation=float("nan"))

    def test_certificate(self):
        cert = certify_proposition1(trials=150, sizes=(5, 9, 17), seed=0)
        assert cert["max_discrepancy"] <= 1e-12
        assert cert["trials"] == 150


class TestDecomposition:
    def test_exact_two_hot_case(self):
        m, i, j, u1 = 6, 2, 3, 0.4
        gi, gj = np.zeros(m), np.zeros(m)
        gi[i] = 1.0
        gj[j] = 1.0
        l = u1 * gi + (1 - u1) * gj
        result = decompose_localization(l, u1, i, j)
        assert result.residual <= 1e-12
        assert result.simplex_feasible
        # the canonical pair (g_i, g_j) itself satisfies the affine system
        assert np.abs(u1 * gi + (1 - u1) * gj - l).max() == 0.0

    def test_affine_constraint_always_met(self):
        rng = _rng(11)
        for _ in range(100):
            m = int(rng.integers(3, 18))
            l = rng.dirichlet(np.ones(m))
            u1 = rng.uniform(0.05, 0.95)
            i, j = rng.choice(m, size=2, replace=False)
            result = decompose_localization(l, u1, int(i), int(j))
            u2 = 1 - u1
            assert np.abs(u1 * result.p + u2 * result.q - l).max() <= 1e-10
            assert abs(result.p.sum() - 1) <= 1e-10
            assert abs(result.q.sum() - 1) <= 1e-10

    def test_matches_dense_least_squares_oracle(self):
        rng = _rng(12)
        for _ in range(25):
            m = int(rng.integers(3, 10))
            l = rng.dirichlet(np.ones(m))
            u1 = rng.uniform(0.1, 0.9)
            result = decompose_localization(l, u1, 0, 1)
            a_mat, b = _decomposition_system(l, u1)
            x_oracle = np.linalg.lstsq(a_mat, b, rcond=None)[0]
            if result.simplex_feasible and x_oracle.min() >= -1e-10:
                # both are the minimum-norm solution when no projection ran
                assert np.allclose(np.concatenate([result.p, result.q]),
                                   x_oracle, atol=1e-9)

    def test_rank_is_length_plus_one(self):
        rng = _rng(13)
        for m in (5, 9, 17):
            l = rng.dirichlet(np.ones(m))
            a_mat, _ = _decomposition_system(l, 0.3)
            assert np.linalg.matrix_rank(a_mat) == m + 1

    def test_degenerate_u1_rejected(self):
        l = np.array([0.5, 0.5])
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                decompose_localization(l, bad, 0, 1)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            decompose_localization(np.array([0.5, 0.5]), 0.5, 1, 1)

    def test_certificate(self):
        cert = certify_decomposition(trials=120, sizes=(5, 9), seed=0)
        assert cert["max_residual"] <= 1e-10
        assert cert["rank_ok"]

    @pytest.mark.parametrize("m", [5, 9, 17])
    def test_stack_matches_row_by_row_bit_for_bit(self, m):
        rng = _rng(14)
        l = rng.dirichlet(np.ones(m), size=40)
        u1 = rng.uniform(0.05, 0.95, size=40)
        x, residual, rank = _decompose_stack(l, u1)
        assert np.all(rank == m + 1)
        for k in range(40):
            row = decompose_localization(l[k], u1[k], 0, 1)
            assert np.array_equal(row.p, x[k, :m])
            assert np.array_equal(row.q, x[k, m:])
            assert row.residual == residual[k]

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                            min_size=2, max_size=17).filter(lambda w: sum(w) > 0.0),
           u1=st.floats(0.01, 0.99))
    def test_pair_on_simplex_and_solves_system(self, weights, u1):
        l = np.array(weights) / np.sum(weights)
        result = decompose_localization(l, u1, 0, 1)
        pair = np.concatenate([result.p, result.q])
        assert pair.min() >= -1e-12
        assert result.simplex_feasible
        assert abs(result.p.sum() - 1) <= 1e-10
        assert abs(result.q.sum() - 1) <= 1e-10
        assert np.abs(u1 * result.p + (1 - u1) * result.q - l).max() <= 1e-10

    @pytest.mark.parametrize("l", [[0.6, 0.6, -0.2], [0.3, 0.3, 0.3], [0.5, np.nan, 0.5]])
    def test_non_probability_vector_rejected(self, l):
        with pytest.raises(ValueError, match="localization vector"):
            decompose_localization(np.array(l), 0.5, 0, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_certificate_pairs_on_simplex(self, seed):
        cert = certify_decomposition(1000, (5, 9, 17), seed)
        assert cert["min_entry"] >= -1e-10

    def test_certificate_solves_each_size_as_one_stack(self, monkeypatch):
        calls = {"pinv": 0, "matrix_rank": 0}
        for name in calls:
            real = getattr(theory.np.linalg, name)

            def counting(a, *args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(theory.np.linalg, name, counting)
        certify_decomposition(1000, (5, 9, 17, 9), seed=0)
        assert calls == {"pinv": 3, "matrix_rank": 3}


class TestGradientRescaling:
    def test_distillation_off_gives_supervised_weight(self):
        rng = _rng(21)
        p = rng.dirichlet(np.ones(9))
        target = TwoHotTarget(i=3, u1=0.8, u2=0.2)
        c = rng.normal(0, 0.01, 9)
        report = gradient_rescaling_ratio(p, c, 0.0, gamma=0.7, lam=0.0,
                                          tau=10.0, target=target)
        assert report.measured_ratio == pytest.approx(0.7, abs=1e-12)
        assert report.abs_error <= 1e-12

    def test_exact_identity_without_noise(self):
        rng = _rng(22)
        for _ in range(100):
            p = rng.dirichlet(np.ones(9))
            i = int(rng.integers(0, 8))
            u1 = rng.uniform(0.05, 0.95)
            if abs(u1 - p[i]) < 0.05:
                continue
            target = TwoHotTarget(i=i, u1=u1, u2=1 - u1)
            c = rng.normal(0, 0.01, 9)
            report = gradient_rescaling_ratio(
                p, c, 0.0, gamma=rng.uniform(0.3, 2), lam=rng.uniform(0.3, 2),
                tau=rng.uniform(1, 20), target=target)
            assert report.abs_error <= 1e-10

    def test_monte_carlo_within_three_standard_errors(self):
        rng = _rng(23)
        p = rng.dirichlet(np.ones(9))
        target = TwoHotTarget(i=2, u1=0.9, u2=0.1)
        c = rng.normal(0, 0.01, 9)
        report = gradient_rescaling_ratio(
            p, c, 0.01, gamma=1.0, lam=1.0, tau=10.0, target=target,
            trials=30_000, rng=_rng(99))
        assert report.std_error is not None
        assert report.abs_error <= 3.0 * report.std_error

    def test_singular_probe_rejected(self):
        p = np.full(4, 0.25)
        target = TwoHotTarget(i=1, u1=0.25, u2=0.75)  # u_i == p_i
        with pytest.raises(ValueError, match="singular"):
            gradient_rescaling_ratio(p, np.zeros(4), 0.0, 1.0, 1.0, 5.0, target)

    def test_certificate(self):
        cert = certify_rescaling(trials=100, seed=0, mc_instances=2, mc_trials=20_000)
        assert cert["max_abs_error"] <= 1e-10
        assert cert["mc_ok"]

    def test_certificate_redraws_instances_near_the_simplex_boundary(self, monkeypatch):
        """At these seeds an instance's teacher mean sits within two noise
        scales of the simplex boundary, where rejecting off-simplex draws
        truncates the noise and the average misses the closed form by 6-16
        standard errors. Such instances are redrawn, and every scored one
        keeps its teacher mean 6 noise scales inside the simplex."""
        from locdistill import theory

        scored = []
        real = theory.gradient_rescaling_ratio

        def recording(p, c, eta_scale, *args, **kwargs):
            if eta_scale > 0.0:
                scored.append((p, c, kwargs.get("tau", args[2])))
            return real(p, c, eta_scale, *args, **kwargs)

        monkeypatch.setattr(theory, "gradient_rescaling_ratio", recording)
        for seed in (12, 14, 15, 26):
            cert = certify_rescaling(seed=seed, eta_scale=0.01)
            assert cert["mc_ok"], f"seed {seed}: {cert['mc_max_err_over_se']:.1f} SE"
        assert len(scored) == 4 * 5
        for p, c, tau in scored:
            teacher_mean = generalized_softmax(np.log(p), tau) + c - c.mean()
            assert teacher_mean.min() >= theory._MC_SIMPLEX_MARGIN * 0.01

    def test_noise_scale_without_room_for_the_margin_rejected(self):
        with pytest.raises(ValueError, match="too large for 9 bins"):
            certify_rescaling(trials=1, mc_instances=1, eta_scale=0.02)
        with pytest.raises(ValueError, match="simplex boundary"):
            certify_rescaling(trials=1, mc_instances=1, eta_scale=0.0185)
        with pytest.raises(ValueError, match="eta_scale must be nonnegative and finite"):
            certify_rescaling(trials=1, mc_instances=1, eta_scale=float("nan"))
        with pytest.raises(ValueError, match="eta_scale must be nonnegative and finite"):
            gradient_rescaling_ratio(np.full(4, 0.25), np.zeros(4), float("nan"), 1.0, 1.0,
                                     5.0, TwoHotTarget(i=1, u1=0.5, u2=0.5), trials=10)


class TestIncorrectPositionGradientSum:
    def test_identity_on_random_configurations(self):
        rng = _rng(31)
        for _ in range(100):
            m = int(rng.integers(3, 12))
            zs, zt = rng.normal(0, 2, m), rng.normal(0, 2, m)
            i = int(rng.integers(0, m - 1))
            u1 = rng.uniform(0, 1)
            target = TwoHotTarget(i=i, u1=u1, u2=1 - u1)
            lhs, rhs = incorrect_position_gradient_sum(
                zs, zt, target, gamma=rng.uniform(0, 2), lam=rng.uniform(0, 2),
                tau=rng.uniform(1, 20))
            assert abs(lhs - rhs) <= 1e-12

    def test_supervised_only_zero_sum(self):
        rng = _rng(32)
        z = rng.normal(0, 1, 9)
        target = TwoHotTarget(i=4, u1=0.6, u2=0.4)
        lhs, rhs = incorrect_position_gradient_sum(z, z, target, gamma=1.0,
                                                   lam=0.0, tau=1.0)
        assert abs(lhs - rhs) <= 1e-12
        assert abs(dfl_loss(z, target).grad.sum()) <= 1e-12

    def test_pure_distillation_zero_sum(self):
        rng = _rng(33)
        zs, zt = rng.normal(0, 1, 9), rng.normal(0, 1, 9)
        target = TwoHotTarget(i=0, u1=0.5, u2=0.5)
        lhs, rhs = incorrect_position_gradient_sum(zs, zt, target, gamma=0.0,
                                                   lam=1.0, tau=10.0)
        assert abs(lhs - rhs) <= 1e-12
        assert abs(kd_loss(zs, zt, 10.0).grad.sum()) <= 1e-12

import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locdistill import losses, theory
from locdistill.boxdist import TwoHotTarget, generalized_softmax
from locdistill.losses import dfl_loss, kd_loss
from locdistill.theory import (
    RescalingReport,
    certify_decomposition,
    certify_proposition1,
    certify_rescaling,
    decompose_localization,
    gradient_rescaling_ratio,
    verify_proposition1,
    _decompose_stack,
    _decomposition_system,
    _exact_rescaling,
    _min_norm_solve,
    _proposition1_gaps,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


class _CountingRng:
    """A generator proxy that records ``(method, args, kwargs)`` per call."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append((name, args, kwargs))
            return method(*args, **kwargs)

        return counted


def _count_draws(monkeypatch) -> list:
    calls = []
    real = theory._spawn_rng
    monkeypatch.setattr(theory, "_spawn_rng",
                        lambda seed, tag: _CountingRng(real(seed, tag), calls))
    return calls


def _dirichlet_draws(calls) -> list:
    """``(length, size)`` of every recorded ``dirichlet`` call."""
    return [(len(args[0]), kwargs["size"]) for name, args, kwargs in calls
            if name == "dirichlet"]


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

    @pytest.mark.parametrize("tau", [0.0, float("nan"), float("inf")])
    def test_bad_temperature_rejected(self, tau):
        ok = np.array([0.3, 0.7])
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            verify_proposition1(ok, ok, ok, 0.5, tau)
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            gradient_rescaling_ratio(np.full(4, 0.25), np.zeros(4), 0.0, 1.0, 1.0, tau,
                                     TwoHotTarget(i=1, u1=0.5, u2=0.5))

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

    def test_perturbation_fails_the_stacked_certificate(self):
        cert = certify_proposition1(trials=150, sizes=(5, 9, 17), seed=0, perturbation=1e-6)
        assert cert["max_discrepancy"] > 1e-12

    @pytest.mark.parametrize("u1", [1.5, -0.5, float("nan")])
    def test_u1_outside_unit_interval_rejected(self, u1):
        rng = _rng(5)
        s, p, q = (rng.dirichlet(np.ones(5)) for _ in range(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="u1 must lie in"):
                verify_proposition1(s, p, q, u1, 2.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [5, 9, 17])
    def test_stack_matches_scalar_kd_path_bit_for_bit(self, m, seed):
        rng = _rng(40 + seed)
        n = 30
        s, p, q = (rng.dirichlet(np.ones(m), size=n) for _ in range(3))
        u1 = rng.uniform(0.05, 0.95, size=n)
        tau = rng.uniform(1.0, 20.0, size=n)
        gaps = _proposition1_gaps(s, p, q, u1[:, None], tau[:, None])
        for k in range(n):
            # three scalar kd_loss calls on reconstructed logits
            u2 = 1.0 - u1[k]
            z_s = tau[k] * np.log(s[k])
            g_c, g_p, g_q = (kd_loss(z_s, tau[k] * np.log(t), tau[k]).grad
                             for t in (u1[k] * p[k] + u2 * q[k], p[k], q[k]))
            assert gaps[k] == np.abs(g_c - (u1[k] * g_p + u2 * g_q)).max()

    def test_certificate_solves_each_size_as_one_stack(self, monkeypatch):
        calls = []
        real = losses._tempered_kl

        def counting(z_s, *args, **kwargs):
            calls.append(z_s.shape[0])  # the kernels take the bins on axis 0
            return real(z_s, *args, **kwargs)

        monkeypatch.setattr(theory, "_tempered_kl", counting)
        monkeypatch.setattr(losses, "_tempered_kl", counting)  # reached through kd_loss
        certify_proposition1(1000, (5, 9, 17, 9), seed=0)
        assert sorted(calls) == [5, 9, 17]

    def test_certificate_draws_each_size_with_one_call(self, monkeypatch):
        calls = _count_draws(monkeypatch)
        certify_proposition1(1000, (5, 9, 17, 9), seed=0)
        assert _dirichlet_draws(calls) == [(5, (3, 250)), (9, (3, 500)), (17, (3, 250))]
        assert [name for name, _, _ in calls] == ["dirichlet", "uniform", "uniform"] * 3


class TestDecomposition:
    def test_exact_two_hot_case(self):
        m, i, j, u1 = 6, 2, 3, 0.4
        gi, gj = np.zeros(m), np.zeros(m)
        gi[i] = 1.0
        gj[j] = 1.0
        l = u1 * gi + (1 - u1) * gj
        result = decompose_localization(l, u1)
        assert result.residual <= 1e-12
        assert min(result.p.min(), result.q.min()) >= -1e-10
        # the canonical pair (g_i, g_j) itself satisfies the affine system
        assert np.abs(u1 * gi + (1 - u1) * gj - l).max() == 0.0

    def test_affine_constraint_always_met(self):
        rng = _rng(11)
        for _ in range(100):
            m = int(rng.integers(3, 18))
            l = rng.dirichlet(np.ones(m))
            u1 = rng.uniform(0.05, 0.95)
            result = decompose_localization(l, u1)
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
            result = decompose_localization(l, u1)
            a_mat, b = _decomposition_system(l, u1)
            x_oracle = np.linalg.lstsq(a_mat, b, rcond=None)[0]
            if min(result.p.min(), result.q.min()) >= -1e-10 and x_oracle.min() >= -1e-10:
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
                decompose_localization(l, bad)

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
            row = decompose_localization(l[k], u1[k])
            assert np.array_equal(row.p, x[k, :m])
            assert np.array_equal(row.q, x[k, m:])
            assert row.residual == residual[k]

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                            min_size=2, max_size=17).filter(lambda w: sum(w) > 0.0),
           u1=st.floats(0.01, 0.99))
    def test_pair_on_simplex_and_solves_system(self, weights, u1):
        l = np.array(weights) / np.sum(weights)
        result = decompose_localization(l, u1)
        pair = np.concatenate([result.p, result.q])
        assert pair.min() >= -1e-12
        assert abs(result.p.sum() - 1) <= 1e-10
        assert abs(result.q.sum() - 1) <= 1e-10
        assert np.abs(u1 * result.p + (1 - u1) * result.q - l).max() <= 1e-10

    @pytest.mark.parametrize("l", [[0.6, 0.6, -0.2], [0.3, 0.3, 0.3], [0.5, np.nan, 0.5]])
    def test_non_probability_vector_rejected(self, l):
        with pytest.raises(ValueError, match="localization vector"):
            decompose_localization(np.array(l), 0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_certificate_pairs_on_simplex(self, seed):
        cert = certify_decomposition(1000, (5, 9, 17), seed)
        assert cert["min_entry"] >= -1e-10

    def test_certificate_solves_each_size_as_one_stack(self, monkeypatch):
        calls = {"svd": 0, "pinv": 0, "matrix_rank": 0}
        for name in calls:
            real = getattr(theory.np.linalg, name)

            def counting(a, *args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(theory.np.linalg, name, counting)
        certify_decomposition(1000, (5, 9, 17, 9), seed=0)
        assert calls == {"svd": 3, "pinv": 0, "matrix_rank": 0}

    @pytest.mark.parametrize("m", [5, 9, 17])
    def test_one_svd_gives_pinv_solution_and_matrix_rank(self, m):
        rng = _rng(15)
        l = rng.dirichlet(np.ones(m), size=60)
        u1 = rng.uniform(0.05, 0.95, size=60)
        a_mat, b = _decomposition_system(l, u1)
        x, rank = _min_norm_solve(a_mat, b)
        assert np.array_equal(x, (np.linalg.pinv(a_mat) @ b[..., None])[..., 0])
        assert np.array_equal(rank, np.linalg.matrix_rank(a_mat))
        # a nonnegative minimum-norm solution is what the stack returns
        on_simplex = x.min(axis=-1) >= 0.0
        assert 0 < on_simplex.sum() < 60
        assert np.array_equal(_decompose_stack(l, u1)[0][on_simplex], x[on_simplex])

    def test_certificate_draws_each_size_with_one_call(self, monkeypatch):
        calls = _count_draws(monkeypatch)
        certify_decomposition(1000, (5, 9, 17, 9), seed=0)
        assert _dirichlet_draws(calls) == [(5, 250), (9, 500), (17, 250)]
        assert [name for name, _, _ in calls] == ["dirichlet", "uniform"] * 3


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
        """The antithetic mean matches the closed form to rounding, far
        inside the standard error of independent draws."""
        rng = _rng(23)
        p = rng.dirichlet(np.ones(9))
        target = TwoHotTarget(i=2, u1=0.9, u2=0.1)
        c = rng.normal(0, 0.01, 9)
        report = gradient_rescaling_ratio(
            p, c, 0.01, gamma=1.0, lam=1.0, tau=10.0, target=target,
            trials=30_000, rng=_rng(99))
        assert report.trials == 30_000
        assert report.abs_error <= 1e-10
        assert report.abs_error <= 1e-6 * report.std_error

    def test_monte_carlo_exact_at_wide_noise(self):
        """``eta_scale`` 0.05 was once rejected as too wide for 9 bins: here
        about a sixth of the full noise vectors would put ``q_tau`` off the
        simplex. The kernel draws only the probed bin of the centred noise,
        and the ratio needs only ``q_tau`` summing to 1, so the mean stays
        exact."""
        rng = _rng(24)
        p = rng.dirichlet(np.ones(9))
        target = TwoHotTarget(i=4, u1=0.7, u2=0.3)
        report = gradient_rescaling_ratio(
            p, rng.normal(0, 0.01, 9), 0.05, gamma=0.5, lam=1.5, tau=4.0, target=target,
            trials=20_000, rng=_rng(98))
        assert report.abs_error <= 1e-10

    @pytest.mark.parametrize("m", [4, 9])
    def test_monte_carlo_spread_is_the_centred_marginal(self, m):
        """The exactness gate holds at any noise scale, since the antithetic
        mean is exact; the spread pins the scale. The ratio is affine in the
        probed bin's centred noise, whose marginal for ``m`` iid N(0, eta^2)
        entries is N(0, eta^2 (1 - 1/m)), so the draws' standard deviation
        is ``(lam / tau) * eta * sqrt(1 - 1/m) / |dfl_i|``."""
        rng = _rng(60 + m)
        p = rng.dirichlet(np.ones(m))
        target = TwoHotTarget(i=1, u1=0.6, u2=0.4)
        eta, lam, tau, trials = 0.01, 1.3, 4.0, 100_000
        report = gradient_rescaling_ratio(p, rng.normal(0, 0.01, m), eta, gamma=0.8, lam=lam,
                                          tau=tau, target=target, trials=trials, rng=_rng(61))
        dfl_i = dfl_loss(np.log(p), target).grad[target.i]
        expected = (lam / tau) * eta * np.sqrt(1.0 - 1.0 / m) / abs(dfl_i)
        assert report.std_error * np.sqrt(trials) == pytest.approx(expected, rel=0.02)

    def test_each_instance_draws_half_its_trials(self, monkeypatch):
        """Each Monte-Carlo instance draws ``trials / 2`` normals from its
        own generator and nothing more, on both the one-row and the
        certificate path."""
        rng, ref = _rng(70), _rng(70)
        gradient_rescaling_ratio(np.full(5, 0.2), np.zeros(5), 0.01, 1.0, 1.0, 5.0,
                                 TwoHotTarget(i=1, u1=0.5, u2=0.5), trials=3_000, rng=rng)
        ref.normal(size=1_500)
        assert rng.bit_generator.state == ref.bit_generator.state

        made = {}
        real = theory._spawn_rng

        def spawn(seed, tag):
            made[tag] = real(seed, tag)
            return made[tag]

        monkeypatch.setattr(theory, "_spawn_rng", spawn)
        certify_rescaling(trials=10, seed=7, mc_instances=3, mc_trials=2_000)
        assert sorted(made) == [3, 4, 5, 6]
        for tag in (4, 5, 6):
            ref = real(7, tag)
            ref.normal(size=1_000)
            assert made[tag].bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("trials", [0, 1, 3, 10_001])
    def test_monte_carlo_needs_pairs_of_draws(self, trials):
        with pytest.raises(ValueError, match="^trials must be an even number of at least 2"):
            gradient_rescaling_ratio(np.full(4, 0.25), np.zeros(4), 0.01, 1.0, 1.0, 5.0,
                                     TwoHotTarget(i=1, u1=0.5, u2=0.5), trials=trials)

    def test_singular_probe_rejected(self):
        p = np.full(4, 0.25)
        target = TwoHotTarget(i=1, u1=0.25, u2=0.75)  # u_i == p_i
        with pytest.raises(ValueError, match="singular"):
            gradient_rescaling_ratio(p, np.zeros(4), 0.0, 1.0, 1.0, 5.0, target)

    @staticmethod
    def _scalar_ratio(p, c, gamma, lam, tau, target):
        """The noise-free ratio composed from the scalar softmax, dfl_loss and
        kd_loss, with the one-vector confidence shrink."""
        i = target.i
        z_s = np.log(p)
        p_tau = generalized_softmax(z_s, tau)
        c = c - c.mean()
        if (p_tau + c).min() < 1e-6:
            worst = (p_tau - 1e-6) / np.maximum(-c, 1e-300)
            c = min(1.0, float(worst[c < 0.0].min())) * c
        predicted = gamma + (lam / tau) * c[i] / (target.u1 - p[i])
        dfl_i = dfl_loss(z_s, target).grad[i]
        kd_i = kd_loss(z_s, tau * np.log(p_tau + c), tau).grad[i]
        return float((gamma * dfl_i + lam * kd_i) / dfl_i), float(predicted)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [5, 9, 17])
    def test_exact_stack_matches_scalar_path_bit_for_bit(self, m, seed):
        rng = _rng(50 + seed)
        n = 40
        p = rng.dirichlet(np.ones(m), size=n)
        c = rng.normal(0.0, 0.03, size=(n, m))  # wide enough that some rows are shrunk
        i = rng.integers(0, m - 1, size=n)
        u1 = rng.uniform(0.05, 0.95, size=n)
        gamma, lam, tau = (rng.uniform(lo, hi, size=n)
                           for lo, hi in ((0.25, 2.0), (0.25, 2.0), (1.0, 20.0)))
        measured, predicted = _exact_rescaling(p, c, i, u1, 1.0 - u1, gamma, lam, tau)
        for k in range(n):
            target = TwoHotTarget(i=i[k], u1=u1[k], u2=1.0 - u1[k])
            assert (measured[k], predicted[k]) == self._scalar_ratio(
                p[k], c[k], gamma[k], lam[k], tau[k], target)

    def test_confidence_shrink_logs_one_line_per_call(self, caplog):
        p = np.full((3, 4), 0.25)
        c = np.array([[0.0, 0.0, 0.0, 0.0],
                      [-0.5, 0.5, 0.0, 0.0],
                      [-1.0, 1.0, 0.0, 0.0]])
        ones = np.ones(3)
        with caplog.at_level(logging.WARNING, logger="locdistill.theory"):
            _exact_rescaling(p, c, np.zeros(3, dtype=int), 0.9 * ones, 0.1 * ones,
                             ones, ones, 5.0 * ones)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert message.startswith("2 of 3 confidence vectors scaled")
        assert "0.249999" in message  # the smallest scale, (0.25 - 1e-6) / 1
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="locdistill.theory"):
            gradient_rescaling_ratio(p[0], c[2], 0.0, 1.0, 1.0, 5.0,
                                     TwoHotTarget(i=0, u1=0.9, u2=0.1))
        assert [r.getMessage()[:34] for r in caplog.records] == [
            "1 of 1 confidence vectors scaled, "]

    def test_certificate(self):
        cert = certify_rescaling(trials=100, seed=0, mc_instances=2, mc_trials=20_000)
        assert cert["max_abs_error"] <= 1e-10
        assert cert["mc_max_abs_error"] <= 1e-10

    @pytest.mark.parametrize("seed", [0, 2, 4, 21, 19, 25])
    def test_certificate_exact_at_former_failing_seeds(self, seed):
        """Seeds 0, 2, 4 and 21 put a Monte-Carlo teacher mean within two
        noise scales of the simplex boundary, where rejecting off-simplex
        draws used to bias the average; 19 and 25 failed a 3-standard-error
        gate by chance. The antithetic average is exact at all of them."""
        cert = certify_rescaling(seed=seed, eta_scale=0.01)
        assert cert["mc_max_abs_error"] <= 1e-10
        assert cert["max_abs_error"] <= 1e-10

    def test_certificate_exact_on_every_seed(self):
        """Both parts of the default certificate hold at 1e-10 on seeds 0-39,
        the range the ``verify`` scans cover."""
        errors = {seed: certify_rescaling(seed=seed) for seed in range(40)}
        assert max(cert["max_abs_error"] for cert in errors.values()) <= 1e-10
        assert max(cert["mc_max_abs_error"] for cert in errors.values()) <= 1e-10

    def test_nan_coefficients_rejected(self):
        p, c = np.full(4, 0.25), np.zeros(4)
        target = TwoHotTarget(i=1, u1=0.5, u2=0.5)
        for field, gamma, lam in (("gamma", float("nan"), 1.0), ("lam", 1.0, float("nan")),
                                  ("gamma", float("inf"), 1.0)):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                gradient_rescaling_ratio(p, c, 0.0, gamma, lam, 5.0, target)
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                gradient_rescaling_ratio(p, c, 0.01, gamma, lam, 5.0, target, trials=10)

    @pytest.mark.parametrize("measured, predicted, abs_error", [
        (float("nan"), 1.0, float("nan")),
        (1.0, 1.0, float("nan")),
        (float("nan"), float("nan"), 0.0),
        (1.0, 2.0, 0.5),
    ])
    def test_report_rejects_inconsistent_or_nan_error(self, measured, predicted, abs_error):
        with pytest.raises(ValueError, match="abs_error must equal"):
            RescalingReport(measured_ratio=measured, predicted_ratio=predicted,
                            abs_error=abs_error)

    def test_noise_scale_without_room_for_the_margin_rejected(self):
        """Only a NaN or negative noise scale is rejected; every finite
        nonnegative one runs (see ``test_monte_carlo_exact_at_wide_noise``)."""
        for bad in (float("nan"), -0.01):
            with pytest.raises(ValueError, match="eta_scale must be nonnegative and finite"):
                certify_rescaling(trials=1, mc_instances=1, eta_scale=bad)
            with pytest.raises(ValueError, match="eta_scale must be nonnegative and finite"):
                gradient_rescaling_ratio(np.full(4, 0.25), np.zeros(4), bad, 1.0, 1.0,
                                         5.0, TwoHotTarget(i=1, u1=0.5, u2=0.5), trials=10)


class TestCertificateInputs:
    @pytest.mark.parametrize("call, field", [
        (lambda: certify_proposition1(trials=0), "trials"),
        (lambda: certify_proposition1(sizes=()), "sizes"),
        (lambda: certify_proposition1(sizes=(5, 1)), "sizes"),
        (lambda: certify_decomposition(trials=0), "trials"),
        (lambda: certify_decomposition(sizes=()), "sizes"),
        (lambda: certify_rescaling(trials=0), "trials"),
        (lambda: certify_rescaling(trials=1, mc_instances=0), "mc_instances"),
        (lambda: certify_rescaling(trials=1, mc_trials=1), "mc_trials"),
    ])
    def test_empty_certificate_rejected(self, call, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            call()

    def test_odd_mc_trials_rejected(self):
        with pytest.raises(ValueError, match="^mc_trials must be an even number"):
            certify_rescaling(trials=1, mc_trials=4001)

    def test_stack_checked_row_by_row(self):
        stack = np.array([[0.5, 0.5], [0.3, 0.8]])
        with pytest.raises(ValueError, match="must sum to 1, got 1.1"):
            theory._check_simplex(stack, "stack")
        assert theory._check_simplex(stack[:1], "stack") is not None

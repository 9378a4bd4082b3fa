import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locdistill.boxdist import BinGrid, TwoHotTarget, encode_target
from locdistill.geometry import BoundingBox
from locdistill.losses import (
    DistillConfig,
    LossResult,
    SceneObjective,
    SceneOutputs,
    SceneTruth,
    ce_loss,
    dfl_loss,
    feature_imitation_loss,
    giou_regression_loss,
    kd_loss,
    ld_box_loss,
    ld_edge_loss,
    scene_tbr_loss,
    tbr_loss,
    total_loss,
    _imitation,
)
from locdistill.regions import RegionMasks

from oracles import central_difference, composite_objective_oracle, relative_gradient_error

GRID = BinGrid(0, 8, 8)

logit_vectors = st.lists(st.floats(-8.0, 8.0, allow_nan=False), min_size=2, max_size=12)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_simplex(rng, m):
    return rng.dirichlet(np.ones(m))


# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------

class TestCrossEntropy:
    def test_zero_gradient_at_match(self):
        g = np.array([0.2, 0.3, 0.5])
        res = ce_loss(np.log(g), g)
        assert np.abs(res.grad).max() < 1e-15

    def test_uniform_against_one_hot(self):
        m = 7
        g = np.zeros(m)
        g[3] = 1.0
        res = ce_loss(np.zeros(m), g)
        assert res.value == pytest.approx(math.log(m), abs=1e-12)

    def test_non_normalized_target_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ce_loss(np.zeros(3), np.array([0.5, 0.5, 0.5]))

    def test_finite_difference(self):
        rng = _rng(11)
        for _ in range(25):
            m = rng.integers(3, 10)
            z = rng.normal(0, 2, m)
            g = _random_simplex(rng, m)
            res = ce_loss(z, g)
            fd = central_difference(lambda v: ce_loss(v, g).value, z)
            assert relative_gradient_error(res.grad, fd) < 1e-6

    def test_value_at_least_target_entropy(self):
        rng = _rng(12)
        for _ in range(20):
            g = _random_simplex(rng, 6)
            z = rng.normal(0, 2, 6)
            entropy = -np.sum(g * np.log(g))
            assert ce_loss(z, g).value >= entropy - 1e-12


# ---------------------------------------------------------------------------
# distillation losses
# ---------------------------------------------------------------------------

class TestKDLoss:
    def test_matched_logits(self):
        z = np.array([0.5, -1.0, 2.0])
        res = kd_loss(z, z, tau=4.0)
        assert np.abs(res.grad).max() == 0.0
        assert res.kl == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            kd_loss(np.zeros(3), np.zeros(4), tau=1.0)

    def test_finite_difference(self):
        rng = _rng(21)
        for _ in range(25):
            m = rng.integers(3, 10)
            zs = rng.normal(0, 2, m)
            zt = rng.normal(0, 2, m)
            tau = rng.uniform(0.5, 15.0)
            res = kd_loss(zs, zt, tau)
            fd = central_difference(lambda v: kd_loss(v, zt, tau).value, zs)
            assert relative_gradient_error(res.grad, fd) < 1e-6

    def test_kl_is_ce_minus_teacher_entropy(self):
        rng = _rng(22)
        zs, zt = rng.normal(0, 1, 6), rng.normal(0, 1, 6)
        res = kd_loss(zs, zt, tau=3.0)
        from locdistill.boxdist import generalized_softmax

        q = generalized_softmax(zt, 3.0)
        teacher_entropy = -np.sum(q * np.log(q))
        assert res.kl == pytest.approx(res.value - teacher_entropy, abs=1e-12)

    def test_kl_nonnegative(self):
        rng = _rng(23)
        for _ in range(50):
            res = kd_loss(rng.normal(0, 2, 5), rng.normal(0, 2, 5), rng.uniform(0.5, 12))
            assert res.kl >= -1e-15
            assert res.value >= 0.0

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_temperature_rejected(self, tau):
        z = np.array([0.5, -1.0, 2.0])
        for loss, zs in ((kd_loss, z), (ld_edge_loss, z), (ld_box_loss, np.stack([z, z]))):
            with pytest.raises(ValueError, match="temperature must be positive and finite"):
                loss(zs, zs, tau)

    @given(logit_vectors, st.floats(0.5, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_gradient_sums_to_zero(self, z, tau):
        zs = np.asarray(z)
        zt = zs[::-1].copy()
        res = kd_loss(zs, zt, tau)
        assert abs(res.grad.sum()) < 1e-12


class TestLDEdgeLoss:
    def test_shares_kd_code_path(self):
        zs = np.array([0.3, -0.7, 1.1, 0.0])
        zt = np.array([1.0, 0.5, -0.2, 0.4])
        for tau in (1.0, 10.0):
            a = ld_edge_loss(zs, zt, tau)
            b = kd_loss(zs, zt, tau)
            assert a.value == b.value and a.kl == b.kl
            assert np.array_equal(a.grad, b.grad)

    def test_identical_edge_zero_gradient(self):
        z = np.linspace(-1, 1, 9)
        assert np.abs(ld_edge_loss(z, z, 10.0).grad).max() == 0.0

    def test_sharp_teacher_pulls_student_argmax(self):
        rng = _rng(31)
        zs = rng.normal(0, 0.5, 9)
        zt = np.zeros(9)
        zt[6] = 6.0  # sharp teacher peaked at bin 6
        tau = 2.0
        step = 2.0
        before = kd_loss(zs, zt, tau)
        zs_after = zs - step * before.grad
        from locdistill.boxdist import generalized_softmax

        p_before = generalized_softmax(zs, tau)
        p_after = generalized_softmax(zs_after, tau)
        assert p_after[6] > p_before[6]
        assert kd_loss(zs_after, zt, tau).kl < before.kl

    def test_gradient_formula(self):
        rng = _rng(32)
        zs, zt = rng.normal(0, 1, 9), rng.normal(0, 1, 9)
        tau = 7.0
        from locdistill.boxdist import generalized_softmax

        expected = (generalized_softmax(zs, tau) - generalized_softmax(zt, tau)) / tau
        assert np.allclose(ld_edge_loss(zs, zt, tau).grad, expected, atol=1e-15)


class TestLDBoxLoss:
    def test_identical_boxes_zero_kl(self):
        z = _rng(41).normal(0, 1, (4, GRID.size))
        res = ld_box_loss(z, z, tau=10.0)
        assert res.kl == 0.0
        assert np.abs(res.grad).max() == 0.0

    @pytest.mark.parametrize("n_edges", [4, 5])
    def test_additivity_over_edges(self, n_edges):
        rng = _rng(42)
        zs = rng.normal(0, 1, (n_edges, GRID.size))
        zt = rng.normal(0, 1, (n_edges, GRID.size))
        total = ld_box_loss(zs, zt, tau=5.0)
        parts = [ld_edge_loss(es, et, 5.0) for es, et in zip(zs, zt)]
        assert total.value == pytest.approx(sum(p.value for p in parts), abs=1e-12)
        assert total.kl == pytest.approx(sum(p.kl for p in parts), abs=1e-12)
        assert total.grad.shape == (n_edges, GRID.size)
        assert np.array_equal(total.grad, np.stack([p.grad for p in parts]))

    def test_edge_count_mismatch_rejected(self):
        rng = _rng(43)
        with pytest.raises(ValueError, match="equal-shape"):
            ld_box_loss(rng.normal(0, 1, (4, 9)), rng.normal(0, 1, (5, 9)), tau=1.0)


class TestDFLLoss:
    def test_zero_gradient_at_exact_match(self):
        # with two bins the two-hot target is a full simplex point
        grid = BinGrid(0, 1, 1)
        t = encode_target(0.3, grid)
        z = np.log(np.array([t.u1, t.u2]))
        res = dfl_loss(z, t)
        assert np.abs(res.grad).max() < 1e-15

    def test_degenerates_to_ce_at_endpoint(self):
        z = np.linspace(-1, 1, 9)
        t = TwoHotTarget(i=4, u1=1.0, u2=0.0)
        onehot = np.zeros(9)
        onehot[4] = 1.0
        a, b = dfl_loss(z, t), ce_loss(z, onehot)
        assert a.value == b.value
        assert np.array_equal(a.grad, b.grad)

    def test_gradient_at_left_index(self):
        rng = _rng(51)
        z = rng.normal(0, 1, 9)
        t = encode_target(2.3, GRID)
        res = dfl_loss(z, t)
        from locdistill.boxdist import generalized_softmax

        p = generalized_softmax(z, 1.0)
        assert res.grad[t.i] == pytest.approx(p[t.i] - t.u1, abs=1e-12)
        assert res.grad[t.i + 1] == pytest.approx(p[t.i + 1] - t.u2, abs=1e-12)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            dfl_loss(np.zeros(4), TwoHotTarget(i=3, u1=0.5, u2=0.5))

    def test_finite_difference(self):
        rng = _rng(52)
        for _ in range(25):
            z = rng.normal(0, 2, 9)
            t = encode_target(rng.uniform(0, 8), GRID)
            res = dfl_loss(z, t)
            fd = central_difference(lambda v: dfl_loss(v, t).value, z)
            assert relative_gradient_error(res.grad, fd) < 1e-6


class TestGradientSumsToZero:
    """Every loss gradient on a softmax is tangent to the simplex: the
    gradients at the incorrect positions sum to minus the gradient at the
    target position."""

    def test_dfl(self):
        z = _rng(32).normal(0, 1, 9)
        g = dfl_loss(z, TwoHotTarget(i=4, u1=0.6, u2=0.4)).grad
        assert abs(np.delete(g, 4).sum() + g[4]) <= 1e-12

    def test_kd(self):
        rng = _rng(33)
        zs, zt = rng.normal(0, 1, 9), rng.normal(0, 1, 9)
        g = kd_loss(zs, zt, 10.0).grad
        assert abs(np.delete(g, 0).sum() + g[0]) <= 1e-12

    def test_dfl_plus_kd_on_random_configurations(self):
        """``gamma * DFL + lam * KD``, the combined objective of one edge."""
        rng = _rng(31)
        for _ in range(100):
            m = int(rng.integers(3, 12))
            zs, zt = rng.normal(0, 2, m), rng.normal(0, 2, m)
            i = int(rng.integers(0, m - 1))
            u1 = rng.uniform(0, 1)
            gamma, lam, tau = rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(1, 20)
            g = (gamma * dfl_loss(zs, TwoHotTarget(i=i, u1=u1, u2=1 - u1)).grad
                 + lam * kd_loss(zs, zt, tau).grad)
            assert abs(np.delete(g, i).sum() + g[i]) <= 1e-12


# ---------------------------------------------------------------------------
# box-space losses
# ---------------------------------------------------------------------------

def _random_box_pair(rng, min_gap=2e-3):
    """Box pairs away from corner-alignment and zero-overlap kinks."""
    while True:
        s = np.sort(rng.uniform(0, 6, 2))
        sy = np.sort(rng.uniform(0, 6, 2))
        g = np.sort(rng.uniform(0, 6, 2))
        gy = np.sort(rng.uniform(0, 6, 2))
        student = BoundingBox(s[0], sy[0], s[1] + 0.5, sy[1] + 0.5)
        gt = BoundingBox(g[0], gy[0], g[1] + 0.5, gy[1] + 0.5)
        coords_s = np.array(student.to_list())
        coords_g = np.array(gt.to_list())
        if np.abs(coords_s - coords_g).min() < min_gap:
            continue
        iw = min(student.x2, gt.x2) - max(student.x1, gt.x1)
        ih = min(student.y2, gt.y2) - max(student.y1, gt.y1)
        if abs(iw) < 1e-2 or abs(ih) < 1e-2:
            continue
        return student, gt


class TestGIoURegressionLoss:
    def test_perfect_box_scores_zero(self):
        b = BoundingBox(0, 0, 2, 3)
        res = giou_regression_loss(b, b)
        assert res.value == 0.0

    def test_far_boxes_approach_two(self):
        res = giou_regression_loss(BoundingBox(0, 0, 1, 1), BoundingBox(500, 0, 501, 1))
        assert 1.9 < res.value < 2.0

    def test_finite_difference(self):
        rng = _rng(61)
        for _ in range(40):
            student, gt = _random_box_pair(rng)
            res = giou_regression_loss(student, gt)

            def f(c):
                return giou_regression_loss(BoundingBox(*c), gt).value

            fd = central_difference(f, np.array(student.to_list()))
            assert relative_gradient_error(res.grad, fd) < 1e-5

    def test_degenerate_enclosing_rejected(self):
        with pytest.raises(ValueError):
            giou_regression_loss(BoundingBox(0, 0, 1, 0), BoundingBox(0, 0, 2, 0))


class TestTBRLoss:
    def test_gate_off_when_student_clearly_better(self):
        gt = BoundingBox(0, 0, 2, 2)
        student = BoundingBox(0.01, 0.01, 2.01, 2.01)
        teacher = BoundingBox(1, 1, 3, 3)
        res = tbr_loss(student, teacher, gt, margin=0.1)
        assert res.value == 0.0
        assert np.abs(res.grad).max() == 0.0

    def test_perfect_student_with_gate_on(self):
        gt = BoundingBox(0, 0, 2, 2)
        teacher = BoundingBox(0, 0, 2, 2)
        # equal distances (both zero): margin > 0 turns the gate on, GIoU = 1
        res = tbr_loss(gt, teacher, gt, margin=0.1)
        assert res.value == 0.0

    def test_gate_boundary_at_equal_distance(self):
        gt = BoundingBox(0, 0, 2, 2)
        student = BoundingBox(0.5, 0, 2.5, 2)  # corner l2 = sqrt(0.5)
        teacher = BoundingBox(-0.5, 0, 1.5, 2)  # same corner l2
        res = tbr_loss(student, teacher, gt, margin=0.1)
        assert res.value > 0.0  # strict inequality with a positive margin

    def test_gated_matches_giou_loss(self):
        rng = _rng(71)
        for _ in range(20):
            student, gt = _random_box_pair(rng)
            teacher = BoundingBox(gt.x1 - 9, gt.y1 - 9, gt.x2 - 9, gt.y2 - 9)
            res = tbr_loss(student, teacher, gt, margin=0.0)
            # teacher is far worse, so the gate cannot trigger
            assert res.value == 0.0
            res_on = tbr_loss(teacher, student, gt, margin=0.0)
            ref = giou_regression_loss(teacher, gt)
            assert res_on.value == ref.value
            assert np.array_equal(res_on.grad, ref.grad)

    def test_negative_margin_rejected(self):
        b = BoundingBox(0, 0, 1, 1)
        with pytest.raises(ValueError):
            tbr_loss(b, b, b, margin=-0.1)
        for bad in (float("nan"), float("inf")):  # NaN never gated, inf always did
            with pytest.raises(ValueError, match="margin must be nonnegative and finite"):
                tbr_loss(b, BoundingBox(0, 0, 2, 2), b, margin=bad)

    def test_finite_difference_when_gated(self):
        rng = _rng(72)
        checked = 0
        while checked < 20:
            student, gt = _random_box_pair(rng)
            teacher = gt  # perfect teacher keeps the gate on
            res = tbr_loss(student, teacher, gt, margin=0.1)
            if res.value == 0.0:
                continue

            def f(c):
                return tbr_loss(BoundingBox(*c), teacher, gt, margin=0.1).value

            fd = central_difference(f, np.array(student.to_list()))
            assert relative_gradient_error(res.grad, fd) < 1e-5
            checked += 1


class TestFeatureImitation:
    def test_identical_features_zero(self):
        m = _rng(81).normal(0, 1, (6, 5))
        res = feature_imitation_loss(m, m, np.ones(6, dtype=bool))
        assert res.value == 0.0
        assert np.abs(res.grad).max() == 0.0

    def test_single_location_is_vector_norm(self):
        rng = _rng(82)
        ms = rng.normal(0, 1, (4, 7))
        mt = rng.normal(0, 1, (4, 7))
        region = np.zeros(4, dtype=bool)
        region[2] = True
        res = feature_imitation_loss(ms, mt, region)
        assert res.value == pytest.approx(np.linalg.norm(ms[2] - mt[2]), abs=1e-12)
        assert np.abs(res.grad[[0, 1, 3]]).max() == 0.0

    def test_empty_region_rejected(self):
        m = np.zeros((3, 2))
        with pytest.raises(ValueError, match="empty"):
            feature_imitation_loss(m, m, np.zeros(3, dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            feature_imitation_loss(np.zeros((3, 2)), np.zeros((3, 3)), np.ones(3, bool))

    def test_finite_difference(self):
        rng = _rng(83)
        for _ in range(20):
            ms = rng.normal(0, 1, (5, 4))
            mt = rng.normal(0, 1, (5, 4))
            region = rng.random(5) < 0.7
            if not region.any():
                region[0] = True
            res = feature_imitation_loss(ms, mt, region)
            fd = central_difference(
                lambda v: feature_imitation_loss(v.reshape(5, 4), mt, region).value,
                ms,
            )
            assert relative_gradient_error(res.grad, fd) < 1e-6

    def test_training_kernel_is_the_validated_loss_bit_for_bit(self):
        """The unchecked kernel the harness trains with, on bins-first
        ``(D, K)`` blocks, gives the validated loss's value and region rows
        to the last bit."""
        rng = _rng(84)
        ms = rng.normal(0, 1, (6, 5))
        mt = rng.normal(0, 1, (6, 5))
        mt[3] = ms[3]  # a matched row takes the zero subgradient
        for region in (np.ones(6, dtype=bool), np.array([1, 0, 1, 1, 0, 1], dtype=bool)):
            res = feature_imitation_loss(ms, mt, region)
            value, grad = _imitation(ms[region].T, mt[region].T)
            assert res.value == value
            assert res.grad[region].tobytes() == grad.T.tobytes()
            assert not res.grad[~region].any()
        assert not _imitation(ms.T, mt.T)[1][:, 3].any()


# ---------------------------------------------------------------------------
# scene-level composition
# ---------------------------------------------------------------------------

def _random_scene(rng, n_anchors=3, grid=GRID):
    m = grid.size
    student = SceneOutputs(
        cls_logits=rng.normal(0, 1, (n_anchors, 2)),
        edge_logits=rng.normal(0, 1, (n_anchors, 4, m)),
    )
    teacher = SceneOutputs(
        cls_logits=rng.normal(0, 1, (n_anchors, 2)),
        edge_logits=rng.normal(0, 1, (n_anchors, 4, m)),
    )
    truth = SceneTruth(
        labels=rng.integers(0, 2, n_anchors),
        edge_targets=rng.uniform(1.0, 7.0, (n_anchors, 4)),
    )
    main = np.zeros(n_anchors, dtype=bool)
    vlr = np.zeros(n_anchors, dtype=bool)
    main[0] = True
    if n_anchors > 1:
        vlr[1] = True
    masks = RegionMasks(main=main, vlr=vlr)
    return student, teacher, truth, masks


def _flat(outputs: SceneOutputs) -> np.ndarray:
    return np.concatenate([outputs.cls_logits.ravel(), outputs.edge_logits.ravel()])


def _unflatten(flat, a, c, e, m) -> SceneOutputs:
    n_cls = a * c
    return SceneOutputs(
        cls_logits=flat[:n_cls].reshape(a, c),
        edge_logits=flat[n_cls:].reshape(a, e, m),
    )


class TestTotalLoss:
    def test_zero_distill_weights_equal_baseline(self):
        rng = _rng(91)
        student, teacher, truth, masks = _random_scene(rng)
        cfg = DistillConfig(grid=GRID, w_ld_main=0, w_ld_vlr=0, w_kd_main=0, w_kd_vlr=0)
        with_teacher = total_loss(student, teacher, truth, masks, cfg)
        without = total_loss(student, None, truth, masks, cfg)
        assert with_teacher.value == without.value
        assert np.array_equal(with_teacher.grad, without.grad)
        expected = (cfg.w_cls * with_teacher.components["cls"]
                    + cfg.w_reg * with_teacher.components["reg"]
                    + cfg.w_dfl * with_teacher.components["dfl"])
        assert with_teacher.value == pytest.approx(expected, abs=1e-12)

    def test_teacher_required_when_distilling(self):
        rng = _rng(92)
        student, _, truth, masks = _random_scene(rng)
        with pytest.raises(ValueError, match="teacher"):
            total_loss(student, None, truth, masks, DistillConfig(grid=GRID))

    def test_empty_vlr_zeroes_vlr_terms(self):
        rng = _rng(93)
        student, teacher, truth, _ = _random_scene(rng)
        masks = RegionMasks(main=np.array([True, False, False]),
                            vlr=np.zeros(3, dtype=bool))
        res = total_loss(student, teacher, truth, masks, DistillConfig(grid=GRID))
        assert res.components["ld_vlr"] == 0.0
        assert res.components["kd_vlr"] == 0.0

    def test_three_anchor_scene_matches_componentwise_oracle(self):
        """The vectorized composite must equal per-anchor scalar loss calls."""
        rng = _rng(94)
        student, teacher, truth, masks = _random_scene(rng, n_anchors=3)
        cfg = DistillConfig(grid=GRID, tau=10.0)
        res = total_loss(student, teacher, truth, masks, cfg)

        main_idx = np.flatnonzero(masks.main)
        vlr_idx = np.flatnonzero(masks.vlr)

        # classification: mean CE over all anchors
        cls_vals = []
        for i in range(3):
            onehot = np.zeros(2)
            onehot[truth.labels[i]] = 1.0
            cls_vals.append(ce_loss(student.cls_logits[i], onehot).value)
        assert res.components["cls"] == pytest.approx(np.mean(cls_vals), abs=1e-12)

        # DFL and regression over main anchors
        dfl_vals, reg_vals = [], []
        for i in main_idx:
            dfl_vals.append(sum(
                dfl_loss(student.edge_logits[i, e],
                         encode_target(truth.edge_targets[i, e], GRID)).value
                for e in range(4)
            ))
            decoded = [
                float(np.dot(np.exp(student.edge_logits[i, e]
                                    - student.edge_logits[i, e].max())
                             / np.exp(student.edge_logits[i, e]
                                      - student.edge_logits[i, e].max()).sum(),
                             GRID.endpoints))
                for e in range(4)
            ]
            t, b, l, r = decoded
            student_box = BoundingBox(-l, -t, r, b)
            tt, tb, tl, tr = truth.edge_targets[i]
            gt_box = BoundingBox(-tl, -tt, tr, tb)
            reg_vals.append(giou_regression_loss(student_box, gt_box).value)
        assert res.components["dfl"] == pytest.approx(np.mean(dfl_vals), abs=1e-12)
        assert res.components["reg"] == pytest.approx(np.mean(reg_vals), abs=1e-12)

        # distillation terms: mean per-box KL over each mask
        for key, idx, head in (("ld_main", main_idx, "edge"), ("ld_vlr", vlr_idx, "edge"),
                               ("kd_main", main_idx, "cls"), ("kd_vlr", vlr_idx, "cls")):
            vals = []
            for i in idx:
                if head == "edge":
                    vals.append(sum(
                        kd_loss(student.edge_logits[i, e], teacher.edge_logits[i, e],
                                cfg.tau).kl for e in range(4)))
                else:
                    vals.append(kd_loss(student.cls_logits[i], teacher.cls_logits[i],
                                        cfg.tau).kl)
            assert res.components[key] == pytest.approx(np.mean(vals), abs=1e-12)

        total = sum(getattr(cfg, w) * res.components[k] for w, k in (
            ("w_cls", "cls"), ("w_reg", "reg"), ("w_dfl", "dfl"),
            ("w_ld_main", "ld_main"), ("w_ld_vlr", "ld_vlr"),
            ("w_kd_main", "kd_main"), ("w_kd_vlr", "kd_vlr")))
        assert res.value == pytest.approx(total, abs=1e-12)

    def test_linear_in_each_weight(self):
        rng = _rng(95)
        student, teacher, truth, masks = _random_scene(rng)
        base = DistillConfig(grid=GRID, w_ld_main=1.5)
        doubled = DistillConfig(grid=GRID, w_ld_main=3.0)
        r1 = total_loss(student, teacher, truth, masks, base)
        r2 = total_loss(student, teacher, truth, masks, doubled)
        assert r1.components["ld_main"] == r2.components["ld_main"]
        attributed1 = base.w_ld_main * r1.components["ld_main"]
        attributed2 = doubled.w_ld_main * r2.components["ld_main"]
        assert attributed2 == 2.0 * attributed1
        assert r2.value - r1.value == pytest.approx(attributed1, abs=1e-12)

    def test_matched_teacher_contributes_zero(self):
        rng = _rng(96)
        student, _, truth, masks = _random_scene(rng)
        res = total_loss(student, student, truth, masks, DistillConfig(grid=GRID))
        assert res.components["ld_main"] == 0.0
        assert res.components["kd_main"] == 0.0

    def test_finite_difference_full_scene(self):
        rng = _rng(97)
        for _ in range(6):
            student, teacher, truth, masks = _random_scene(rng)
            cfg = DistillConfig(grid=GRID, tau=7.0)
            res = total_loss(student, teacher, truth, masks, cfg)

            def f(flat):
                return total_loss(_unflatten(flat, 3, 2, 4, 9), teacher, truth,
                                  masks, cfg).value

            fd = central_difference(f, _flat(student))
            assert relative_gradient_error(res.grad, fd) < 1e-5

    def test_negative_grid_rejected_for_regression(self):
        rng = _rng(98)
        grid = BinGrid(-5, 5, 10)
        student = SceneOutputs(cls_logits=rng.normal(0, 1, (2, 2)),
                               edge_logits=rng.normal(0, 1, (2, 4, 11)))
        truth = SceneTruth(labels=np.array([0, 1]),
                           edge_targets=np.full((2, 4), 1.0))
        masks = RegionMasks(main=np.array([True, False]), vlr=np.array([False, False]))
        cfg = DistillConfig(grid=grid, w_ld_main=0, w_ld_vlr=0, w_kd_main=0, w_kd_vlr=0)
        with pytest.raises(ValueError, match="nonnegative"):
            total_loss(student, None, truth, masks, cfg)


class TestSceneTBR:
    def test_matches_scalar_tbr_on_hand_scene(self):
        rng = _rng(101)
        student, teacher, truth, masks = _random_scene(rng, n_anchors=4)
        masks = RegionMasks(main=np.array([True, True, False, False]),
                            vlr=np.array([False, False, True, False]))
        cfg = DistillConfig(grid=GRID)
        res = scene_tbr_loss(student, teacher, truth, masks.main, cfg)

        def decode(outputs, i):
            vals = []
            for e in range(4):
                z = outputs.edge_logits[i, e]
                p = np.exp(z - z.max())
                p /= p.sum()
                vals.append(float(np.dot(p, GRID.endpoints)))
            t, b, l, r = vals
            return BoundingBox(-l, -t, r, b)

        expected = 0.0
        for i in np.flatnonzero(masks.main):
            tt, tb, tl, tr = truth.edge_targets[i]
            gt_box = BoundingBox(-tl, -tt, tr, tb)
            expected += tbr_loss(decode(student, i), decode(teacher, i), gt_box,
                                 cfg.tbr_margin).value
        expected /= masks.main.sum()
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_finite_difference(self):
        rng = _rng(102)
        student, teacher, truth, masks = _random_scene(rng, n_anchors=3)
        cfg = DistillConfig(grid=GRID)
        res = scene_tbr_loss(student, teacher, truth, masks.main, cfg)
        if res.value > 0:
            def f(flat):
                return scene_tbr_loss(_unflatten(flat, 3, 2, 4, 9), teacher, truth,
                                      masks.main, cfg).value

            fd = central_difference(f, _flat(student))
            assert relative_gradient_error(res.grad, fd) < 1e-5


def _scheme_configs():
    from locdistill.harness import HarnessConfig
    from locdistill.harness.experiments import SCHEMES, scheme_config

    h = HarnessConfig()
    base = DistillConfig(grid=GRID, tau=7.0)
    return {name: scheme_config(spec, base, h.ld_dfl_scale)
            for name, spec in SCHEMES.items()}


def _masks(main, vlr):
    return RegionMasks(main=np.array(main, dtype=bool), vlr=np.array(vlr, dtype=bool))


class TestSceneObjective:
    """A compiled objective stepped repeatedly must equal fresh one-shot calls."""

    MASKS = {
        "mixed": _masks([1, 0, 1, 0, 0], [0, 1, 0, 0, 1]),
        "empty_vlr": _masks([1, 1, 0, 0, 0], [0, 0, 0, 0, 0]),
        "no_positives": _masks([0, 0, 0, 0, 0], [0, 1, 1, 0, 0]),
    }

    @pytest.mark.parametrize("masks_name", sorted(MASKS))
    @pytest.mark.parametrize("scheme", sorted(_scheme_configs()) + ["no_teacher"])
    def test_step_equals_total_loss_bitwise(self, scheme, masks_name):
        rng = _rng(111)
        _, teacher, truth, _ = _random_scene(rng, n_anchors=5)
        masks = self.MASKS[masks_name]
        if scheme == "no_teacher":
            cfg = DistillConfig(grid=GRID, w_ld_main=0, w_ld_vlr=0, w_kd_main=0, w_kd_vlr=0)
            teacher = None
        else:
            cfg = _scheme_configs()[scheme]
            # scene_tbr_loss is the one-shot form of an objective whose only term is TBR.
            tbr_only = replace(cfg, w_cls=0.0, w_reg=0.0, w_dfl=0.0, w_ld_main=0.0,
                               w_ld_vlr=0.0, w_kd_main=0.0, w_kd_vlr=0.0)
            tbr_objective = SceneObjective(truth, masks, tbr_only, teacher, n_classes=2,
                                           tbr_weight=1.0)
        objective = SceneObjective(truth, masks, cfg, teacher, n_classes=2)
        for _ in range(3):  # fresh students against one compiled objective
            student, _, _, _ = _random_scene(rng, n_anchors=5)
            value, g_cls, g_edges, components = objective.step(student)
            ref = total_loss(student, teacher, truth, masks, cfg)
            ref_cls = ref.grad[:g_cls.size].reshape(g_cls.shape)
            ref_edges = ref.grad[g_cls.size:].reshape(g_edges.shape)
            assert value == ref.value
            assert components == ref.components
            assert np.array_equal(g_cls, ref_cls)
            assert np.array_equal(g_edges, ref_edges)
            if teacher is not None:
                tbr_value, _, tbr_edges, _ = tbr_objective.step(student)
                tbr = scene_tbr_loss(student, teacher, truth, masks.main, cfg)
                assert tbr_value == tbr.value
                assert np.array_equal(tbr_edges, tbr.grad[g_cls.size:].reshape(g_edges.shape))

    def test_student_shape_mismatch_rejected(self):
        # ``step`` is the unchecked inner step; the one-shot forms check.
        rng = _rng(112)
        _, teacher, truth, masks = _random_scene(rng, n_anchors=3)
        cfg = DistillConfig(grid=GRID)
        wrong, _, _, _ = _random_scene(rng, n_anchors=4)
        with pytest.raises(ValueError, match="do not match"):
            total_loss(wrong, teacher, truth, masks, cfg)
        wrong_bins = SceneOutputs(cls_logits=teacher.cls_logits,
                                  edge_logits=teacher.edge_logits[:, :, :-1])
        with pytest.raises(ValueError, match="do not match"):
            scene_tbr_loss(wrong_bins, teacher, truth, masks.main, cfg)

    def test_tbr_needs_teacher(self):
        rng = _rng(113)
        student, _, truth, masks = _random_scene(rng, n_anchors=3)
        cfg = DistillConfig(grid=GRID, w_ld_main=0, w_ld_vlr=0, w_kd_main=0, w_kd_vlr=0)
        with pytest.raises(ValueError, match="teacher"):
            SceneObjective(truth, masks, cfg, None, n_classes=2, tbr_weight=1.0)
        with pytest.raises(ValueError, match="teacher"):
            scene_tbr_loss(student, None, truth, masks.main, cfg)


    def test_zero_area_ground_truth_rejected_at_build(self):
        """A main ground-truth box of zero area fails at build when a box
        term is active, since a GIoU against it may be undefined; with no
        box term active, or outside the main rows, it is accepted."""
        rng = _rng(114)
        _, teacher, truth, masks = _random_scene(rng, n_anchors=3)
        flat = truth.edge_targets.copy()
        flat[0, :2] = 0.0  # main anchor 0: t = b = 0, a box of zero height
        flat_truth = SceneTruth(labels=truth.labels, edge_targets=flat)
        no_ld = dict(w_ld_main=0, w_ld_vlr=0, w_kd_main=0, w_kd_vlr=0)
        with pytest.raises(ValueError, match="ground-truth box has zero area"):
            SceneObjective(flat_truth, masks, DistillConfig(grid=GRID, **no_ld), None, 2)
        tbr_only = DistillConfig(grid=GRID, w_cls=0, w_reg=0, w_dfl=0, **no_ld)
        with pytest.raises(ValueError, match="ground-truth box has zero area"):
            SceneObjective(flat_truth, masks, tbr_only, teacher, 2, tbr_weight=1.0)
        SceneObjective(flat_truth, masks, replace(tbr_only, w_dfl=1.0), None, 2)
        off_main = _masks([0, 1, 0], [0, 0, 1])
        SceneObjective(flat_truth, off_main, DistillConfig(grid=GRID, **no_ld), None, 2)

    @pytest.mark.parametrize("head", ["ld", "kd"])
    def test_fused_ld_blocks_are_ld_box_loss(self, head):
        """With LD (edge head) or KD (class head) active on both the main
        and the VLR rows, the one tempered KL over both blocks gives each
        block its own gradient, the block weight times ``ld_box_loss``'s
        (``kd_loss``'s) over the block size, bit for bit, and its own value.
        Block sizes and weights are powers of two, so the scalings are
        exact."""
        rng = _rng(115)
        sizes = {"main": 2, "vlr": 4}
        loss, logits = (ld_box_loss, "edge_logits") if head == "ld" else (kd_loss, "cls_logits")
        for _ in range(10):
            student, teacher, truth, _ = _random_scene(rng, n_anchors=7)
            masks = _masks([1, 0, 1, 0, 0, 0, 0], [0, 1, 0, 1, 1, 0, 1])
            weights = dict.fromkeys(("w_ld_main", "w_ld_vlr", "w_kd_main", "w_kd_vlr"), 0.0)
            weights.update({f"w_{head}_main": 2.0, f"w_{head}_vlr": 0.5})
            cfg = DistillConfig(grid=GRID, tau=rng.uniform(0.5, 20.0), w_cls=0.0, w_reg=0.0,
                                w_dfl=0.0, **weights)
            _, g_cls, g_edges, comps = SceneObjective(truth, masks, cfg, teacher, 2).step(student)
            grad, other = (g_edges, g_cls) if head == "ld" else (g_cls, g_edges)
            for region, rows in (("main", masks.main), ("vlr", masks.vlr)):
                name = f"{head}_{region}"
                weight = getattr(cfg, "w_" + name)
                parts = [loss(getattr(student, logits)[i], getattr(teacher, logits)[i], cfg.tau)
                         for i in np.flatnonzero(rows)]
                want = np.stack([weight * (r.grad / sizes[region]) for r in parts])
                assert np.array_equal(grad[rows], want), name
                assert comps[name] == pytest.approx(math.fsum(r.kl for r in parts)
                                                    / sizes[region], rel=1e-12, abs=1e-15)
            assert not grad[5].any()
            assert not other.any()


def _oracle_cases(a, seed):
    """The objectives the harness trains, on one scene of ``a`` anchors:
    every scheme's student objective (TBR at the harness's weight) and the
    teacher's, whose main-row targets are general distributions. A = 192
    is the harness's training split; smaller scenes are random, with the
    first anchor main-positive and the second in the VLR. Yields the
    objective's arguments and a student."""
    from locdistill.harness import HarnessConfig
    from locdistill.harness.data import binned_mixture, gen_dataset
    from locdistill.harness.experiments import SCHEMES, _new_model, scheme_config

    h = HarnessConfig()
    base = DistillConfig(grid=GRID)
    rng = _rng(seed)
    if a == h.n_train:
        dataset = gen_dataset(h, base, seed)
        stack = dataset.train
        student = _new_model(h, GRID, seed).forward(stack.features)[0]
        teacher = _new_model(h, GRID, seed + 1).forward(stack.features)[0]
        truth, masks = stack.truth, stack.masks
        true_truth = SceneTruth(labels=truth.labels, edge_targets=stack.true_edges)
        main = np.flatnonzero(masks.main)
        bayes = binned_mixture(stack.centers[main], stack.weights[main], GRID)
    else:
        student, teacher = (SceneOutputs(cls_logits=rng.normal(0, 2, (a, 2)),
                                         edge_logits=rng.normal(0, 2, (a, 4, GRID.size)))
                            for _ in range(2))
        truth = SceneTruth(labels=rng.integers(0, 2, a),
                           edge_targets=rng.uniform(1.0, 7.0, (a, 4)))
        true_truth = truth
        masks = _masks(np.arange(a) == 0, np.arange(a) == 1)
        bayes = rng.dirichlet(np.ones(GRID.size), size=(1, 4))
    for name, spec in SCHEMES.items():
        cfg = scheme_config(spec, base, h.ld_dfl_scale)
        yield (name, truth, masks, cfg, teacher if spec.needs_teacher else None,
               None, h.tbr_weight if spec.tbr else 0.0, student)
    edge_dists = (1.0 - h.label_smoothing) * bayes + h.label_smoothing / GRID.size
    teacher_cfg = DistillConfig(grid=GRID, w_ld_main=0.0, w_ld_vlr=0.0, w_kd_main=0.0,
                                w_kd_vlr=0.0)
    yield "teacher", true_truth, masks, teacher_cfg, None, edge_dists, 0.0, student


class TestObjectiveMatchesOracle:
    """``SceneObjective.step`` against an independent last-axis reference:
    the value, both gradient blocks and every component within 1e-12
    relative. The reference builds corner boxes around random sample
    points, which the objective never reads: its box terms act on the
    edges alone."""

    WEIGHTS = ("w_cls", "w_reg", "w_dfl", "w_ld_main", "w_ld_vlr", "w_kd_main", "w_kd_vlr")

    @staticmethod
    def _close(got, ref):
        got, ref = np.asarray(got), np.asarray(ref)
        return np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("a, seed", [(2, 131), (2, 132), (5, 133), (192, 0), (192, 1)])
    def test_step_matches_oracle(self, a, seed):
        points = _rng(seed).uniform(-50.0, 50.0, (a, 2))
        for (name, truth, masks, cfg, teacher, edge_dists, tbr_weight,
             student) in _oracle_cases(a, seed):
            objective = SceneObjective(truth, masks, cfg, teacher, n_classes=2,
                                       edge_dists=edge_dists, tbr_weight=tbr_weight)
            value, g_cls, g_edges, comps = objective.step(student)
            pair = None if teacher is None else (teacher.cls_logits, teacher.edge_logits)
            ref_value, ref_cls, ref_edges, ref_comps = composite_objective_oracle(
                (student.cls_logits, student.edge_logits), pair, truth.labels,
                truth.edge_targets, points, masks.main, masks.vlr, GRID.endpoints,
                {w: getattr(cfg, w) for w in self.WEIGHTS}, cfg.tau, cfg.tbr_margin,
                tbr_weight=tbr_weight, edge_dists=edge_dists)
            assert self._close(value, ref_value), name
            assert self._close(g_cls, ref_cls), name
            assert self._close(g_edges, ref_edges), name
            assert comps.keys() == ref_comps.keys()
            for key, ref in ref_comps.items():
                assert abs(comps[key] - ref) <= 1e-12 * abs(ref), (name, key)


class TestScalarViewsAreSceneTerms:
    """Each scalar loss is a one-row call of the kernel the composite
    objective trains with: on a one-anchor main-positive scene where the
    term's weight is 1 and every other weight 0, the objective's gradient
    is the scalar view's, bit for bit."""

    WEIGHTS = ("w_cls", "w_reg", "w_dfl", "w_ld_main", "w_ld_vlr", "w_kd_main", "w_kd_vlr")

    def _scenes(self, weight, n=20):
        rng = _rng(121)
        for _ in range(n):
            student, teacher, truth, _ = _random_scene(rng, n_anchors=1)
            cfg = DistillConfig(grid=GRID, tau=rng.uniform(0.5, 20.0),
                                **{w: float(w == weight) for w in self.WEIGHTS})
            objective = SceneObjective(truth, _masks([1], [0]), cfg, teacher, n_classes=2)
            _, g_cls, g_edges, components = objective.step(student)
            yield student, teacher, truth, cfg, g_cls[0], g_edges[0], components

    def test_ce_loss_is_cls(self):
        for student, _, truth, _, g_cls, _, comps in self._scenes("w_cls"):
            onehot = np.eye(2)[truth.labels[0]]
            res = ce_loss(student.cls_logits[0], onehot)
            assert np.array_equal(res.grad, g_cls)
            assert res.value == comps["cls"]

    def test_dfl_loss_is_the_dfl_block(self):
        for student, _, truth, _, _, g_edges, comps in self._scenes("w_dfl"):
            parts = [dfl_loss(student.edge_logits[0, e], encode_target(y, GRID))
                     for e, y in enumerate(truth.edge_targets[0])]
            assert np.array_equal(np.stack([r.grad for r in parts]), g_edges)
            assert sum(r.value for r in parts) == pytest.approx(comps["dfl"], abs=1e-12)

    def test_kd_loss_is_kd_main(self):
        for student, teacher, _, cfg, g_cls, _, comps in self._scenes("w_kd_main"):
            res = kd_loss(student.cls_logits[0], teacher.cls_logits[0], cfg.tau)
            assert np.array_equal(res.grad, g_cls)
            assert res.kl == comps["kd_main"]

    def test_ld_box_loss_is_ld_main(self):
        for student, teacher, _, cfg, _, g_edges, comps in self._scenes("w_ld_main"):
            res = ld_box_loss(student.edge_logits[0], teacher.edge_logits[0], cfg.tau)
            assert np.array_equal(res.grad, g_edges)
            assert res.kl == comps["ld_main"]


class TestLossResult:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LossResult(value=float("nan"), grad=np.zeros(2))
        with pytest.raises(ValueError):
            LossResult(value=1.0, grad=np.array([np.inf]))


class TestDistillConfig:
    def test_tied_defaults(self):
        cfg = DistillConfig(grid=GRID, w_cls=0.5, w_reg=2.0)
        assert cfg.w_ld_main == 2.0 and cfg.w_ld_vlr == 2.0
        assert cfg.w_kd_main == 0.5 and cfg.w_kd_vlr == 0.5

    def test_explicit_overrides_stick(self):
        cfg = DistillConfig(grid=GRID, w_ld_main=0.0, w_kd_vlr=3.0)
        assert cfg.w_ld_main == 0.0 and cfg.w_kd_vlr == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DistillConfig(grid=GRID, tau=0.0)
        with pytest.raises(ValueError):
            DistillConfig(grid=GRID, gamma_vlr=1.5)
        with pytest.raises(ValueError):
            DistillConfig(grid=GRID, alpha_pos=0.0)
        with pytest.raises(ValueError):
            DistillConfig(grid=GRID, tbr_margin=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                DistillConfig(grid=GRID, tau=bad)
            with pytest.raises(ValueError, match="finite"):
                DistillConfig(grid=GRID, tbr_margin=bad)
        with pytest.raises(ValueError):
            DistillConfig(grid=GRID, w_reg=-0.5)

"""Acceptance suite: every release criterion, at its stated tolerance.

Each test prints one ``[PASS]/[FAIL]`` line (visible with ``pytest -s``)
and enforces its runtime budget where one is declared.
"""

import time
from contextlib import contextmanager

import numpy as np

from locdistill.boxdist import encode_target, make_grid
from locdistill.geometry import BoundingBox, diou, giou, iou
from locdistill.losses import (
    DistillConfig,
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
    tbr_loss,
    total_loss,
)
from locdistill.regions import RegionMasks, assign_main, assign_vlr
from locdistill.theory import (
    certify_decomposition,
    certify_proposition1,
    certify_rescaling,
)
from locdistill.harness import HarnessConfig, run_seed
from locdistill.cli import main as cli_main

from oracles import (
    brute_force_regions,
    central_difference,
    grid_overlap_oracle,
    relative_gradient_error,
)

GRID = make_grid(0, 8, 8)


@contextmanager
def criterion(name):
    start = time.monotonic()
    outcome = {"detail": ""}
    try:
        yield outcome
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.monotonic() - start
    print(f"[PASS] {name}: {outcome['detail']} ({elapsed:.1f}s)")


def test_proposition1_certificate():
    with criterion("proposition-1 gradient identity") as out:
        start = time.monotonic()
        cert = certify_proposition1(trials=1000, sizes=(5, 9, 17), seed=0)
        elapsed = time.monotonic() - start
        assert cert["max_discrepancy"] <= 1e-12
        assert elapsed < 5.0
        out["detail"] = f"max discrepancy {cert['max_discrepancy']:.2e} over 1000 trials"


def test_lemma2_decomposition_certificate():
    with criterion("decomposition residual and rank") as out:
        start = time.monotonic()
        cert = certify_decomposition(trials=1000, sizes=(5, 9, 17), seed=0)
        elapsed = time.monotonic() - start
        assert cert["max_residual"] <= 1e-10
        assert cert["rank_ok"]  # coefficient-matrix rank = vector length + 1
        assert elapsed < 10.0
        out["detail"] = f"max residual {cert['max_residual']:.2e}, ranks ok"


def test_gradient_rescaling_certificate():
    with criterion("gradient-rescaling ratio") as out:
        cert = certify_rescaling(trials=1000, seed=0, mc_instances=5,
                                 mc_trials=100_000, eta_scale=0.01)
        assert cert["max_abs_error"] <= 1e-10
        assert cert["mc_max_abs_error"] <= 1e-10  # antithetic draws: exact to rounding
        out["detail"] = (f"exact err {cert['max_abs_error']:.2e}, "
                         f"MC err {cert['mc_max_abs_error']:.2e}")


# ---------------------------------------------------------------------------
# gradient suite
# ---------------------------------------------------------------------------

def _smooth_box_pair(rng, min_gap=2e-3):
    while True:
        sx = np.sort(rng.uniform(0, 6, 2))
        sy = np.sort(rng.uniform(0, 6, 2))
        gx = np.sort(rng.uniform(0, 6, 2))
        gy = np.sort(rng.uniform(0, 6, 2))
        student = BoundingBox(sx[0], sy[0], sx[1] + 0.5, sy[1] + 0.5)
        gt = BoundingBox(gx[0], gy[0], gx[1] + 0.5, gy[1] + 0.5)
        cs, cg = np.array(student.to_list()), np.array(gt.to_list())
        if np.abs(cs - cg).min() < min_gap:
            continue
        iw = min(student.x2, gt.x2) - max(student.x1, gt.x1)
        ih = min(student.y2, gt.y2) - max(student.y1, gt.y1)
        if abs(iw) < 1e-2 or abs(ih) < 1e-2:
            continue
        return student, gt


def _check_grad(analytic, f, x, tol=1e-5):
    fd = central_difference(f, np.asarray(x, dtype=np.float64))
    err = relative_gradient_error(analytic, fd)
    assert err < tol, f"gradient mismatch: {err:.2e}"
    return err


def _scene(rng, n_anchors=2):
    student = SceneOutputs(cls_logits=rng.normal(0, 1, (n_anchors, 2)),
                           edge_logits=rng.normal(0, 1, (n_anchors, 4, 9)))
    teacher = SceneOutputs(cls_logits=rng.normal(0, 1, (n_anchors, 2)),
                           edge_logits=rng.normal(0, 1, (n_anchors, 4, 9)))
    truth = SceneTruth(labels=rng.integers(0, 2, n_anchors),
                       edge_targets=rng.uniform(1, 7, (n_anchors, 4)))
    main = np.zeros(n_anchors, dtype=bool)
    vlr = np.zeros(n_anchors, dtype=bool)
    main[0] = True
    vlr[1] = True
    return student, teacher, truth, RegionMasks(main=main, vlr=vlr)


def test_gradient_suite():
    with criterion("analytic gradients vs central finite differences") as out:
        start = time.monotonic()
        rng = np.random.default_rng(0)
        n = 200
        worst = 0.0

        for _ in range(n):  # cross-entropy
            m = int(rng.integers(3, 12))
            z, g = rng.normal(0, 2, m), rng.dirichlet(np.ones(m))
            worst = max(worst, _check_grad(
                ce_loss(z, g).grad, lambda v: ce_loss(v, g).value, z))

        for _ in range(n):  # classification distillation
            m = int(rng.integers(3, 12))
            zs, zt = rng.normal(0, 2, m), rng.normal(0, 2, m)
            tau = rng.uniform(0.5, 15)
            worst = max(worst, _check_grad(
                kd_loss(zs, zt, tau).grad, lambda v: kd_loss(v, zt, tau).value, zs))

        for _ in range(n):  # localization distillation, single edge
            zs, zt = rng.normal(0, 2, 9), rng.normal(0, 2, 9)
            tau = rng.uniform(1, 20)
            worst = max(worst, _check_grad(
                ld_edge_loss(zs, zt, tau).grad,
                lambda v: ld_edge_loss(v, zt, tau).value, zs))

        for _ in range(n):  # localization distillation, whole box
            zs = rng.normal(0, 2, (4, 9))
            zt = rng.normal(0, 2, (4, 9))
            tau = rng.uniform(1, 20)
            worst = max(worst, _check_grad(
                ld_box_loss(zs, zt, tau).grad,
                lambda v: ld_box_loss(v, zt, tau).value, zs))

        for _ in range(n):  # distribution focal loss
            z = rng.normal(0, 2, 9)
            t = encode_target(rng.uniform(0, 8), GRID)
            worst = max(worst, _check_grad(
                dfl_loss(z, t).grad, lambda v: dfl_loss(v, t).value, z))

        for _ in range(n):  # box regression loss
            student, gt = _smooth_box_pair(rng)
            worst = max(worst, _check_grad(
                giou_regression_loss(student, gt).grad,
                lambda c: giou_regression_loss(BoundingBox(*c), gt).value,
                student.to_list()))

        gated = 0
        while gated < n:  # teacher-bounded regression with the gate on
            student, gt = _smooth_box_pair(rng)
            res = tbr_loss(student, gt, gt, margin=0.1)  # perfect teacher
            if res.value == 0.0:
                continue
            worst = max(worst, _check_grad(
                res.grad,
                lambda c: tbr_loss(BoundingBox(*c), gt, gt, margin=0.1).value,
                student.to_list()))
            gated += 1

        for _ in range(n):  # feature imitation
            ms, mt = rng.normal(0, 1, (5, 4)), rng.normal(0, 1, (5, 4))
            region = rng.random(5) < 0.7
            if not region.any():
                region[0] = True
            worst = max(worst, _check_grad(
                feature_imitation_loss(ms, mt, region).grad,
                lambda v: feature_imitation_loss(v.reshape(5, 4), mt, region).value,
                ms))

        cfg = DistillConfig(grid=GRID, tau=7.0)
        for _ in range(n):  # full composite objective
            student, teacher, truth, masks = _scene(rng)
            # One compiled objective per instance, stepped at every perturbed
            # input; at the base point it must agree with the one-shot form.
            objective = SceneObjective(truth, masks, cfg, teacher, n_classes=2)

            def f(flat):
                outputs = SceneOutputs(cls_logits=flat[:4].reshape(2, 2),
                                       edge_logits=flat[4:].reshape(2, 4, 9))
                return objective.step(outputs)[0]

            flat = np.concatenate([student.cls_logits.ravel(),
                                   student.edge_logits.ravel()])
            reference = total_loss(student, teacher, truth, masks, cfg)
            assert f(flat) == reference.value
            worst = max(worst, _check_grad(reference.grad, f, flat))

        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        out["detail"] = f"worst relative error {worst:.2e} across 9 losses x {n}"


def test_geometry_oracle():
    with criterion("overlap metrics vs pixel-grid oracle") as out:
        assert abs(iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3)) - 1 / 7) <= 1e-12
        assert abs(giou(BoundingBox(0, 0, 1, 1), BoundingBox(2, 0, 3, 1)) + 1 / 3) <= 1e-12
        assert abs(diou(BoundingBox(0, 0, 1, 1), BoundingBox(2, 0, 3, 1)) + 0.4) <= 1e-12

        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            def rand_box():
                x1, y1 = rng.uniform(-2, 2, 2)
                return (x1, y1, x1 + rng.uniform(0.5, 3), y1 + rng.uniform(0.5, 3))

            a, b = rand_box(), rand_box()
            expected = grid_overlap_oracle(a, b)
            box_a, box_b = BoundingBox(*a), BoundingBox(*b)
            for name, fn in (("iou", iou), ("giou", giou), ("diou", diou)):
                err = abs(fn(box_a, box_b) - expected[name])
                worst = max(worst, err)
                assert err < 2e-3, f"{name} off by {err:.2e}"
        out["detail"] = f"hand values exact, worst oracle gap {worst:.2e}"


def test_vlr_behavior():
    with criterion("valuable localization region behavior") as out:
        rng = np.random.default_rng(0)
        gammas = (0.0, 0.25, 0.5, 0.75, 1.0)
        for _ in range(100):
            n_anchors = int(rng.integers(3, 11))
            n_gts = int(rng.integers(1, 4))

            def rand_boxes(k):
                out_boxes = []
                for _ in range(k):
                    x1, y1 = rng.uniform(-4, 4, 2)
                    out_boxes.append(BoundingBox(x1, y1, x1 + rng.uniform(0.5, 4),
                                                 y1 + rng.uniform(0.5, 4)))
                return out_boxes

            anchors, gts = rand_boxes(n_anchors), rand_boxes(n_gts)
            previous = None
            for gamma in gammas:
                vlr = assign_vlr(anchors, gts, 0.5, gamma)
                main = assign_main(anchors, gts, 0.5)
                bf_main, bf_vlr = brute_force_regions(
                    [a.to_list() for a in anchors], [g.to_list() for g in gts],
                    0.5, gamma)
                assert np.array_equal(vlr, bf_vlr)
                assert np.array_equal(main, bf_main)
                if previous is not None:
                    assert not (vlr & ~previous).any()  # shrinks as gamma grows
                previous = vlr
            assert not assign_vlr(anchors, gts, 0.5, 1.0).any()
            full = assign_vlr(anchors, gts, 0.5, 0.0)
            for i, a in enumerate(anchors):
                in_band = any(0.0 <= diou(a, g) <= 0.5 for g in gts)
                assert full[i] == (in_band and not assign_main(anchors, gts, 0.5)[i])
        out["detail"] = "monotone in gamma, empty at 1, full band at 0, matches brute force"


def test_harness_qualitative_reproduction():
    with criterion("synthetic distillation study") as out:
        start = time.monotonic()
        cfg = HarnessConfig()  # default config: high-ambiguity dataset
        dcfg = DistillConfig(grid=GRID)
        seeds = [0, 1, 2, 3, 4]
        schemes = ["baseline", "ld_main_vlr", "tbr", "selective", "feature_imitation"]
        by = {}
        for seed in seeds:
            for report in run_seed(cfg, dcfg, schemes, seed)[1]:
                by[(report.scheme, report.seed)] = report

        for report in by.values():  # training stable: finite traces throughout
            for row in report.trace:
                assert all(np.isfinite(v) for v in row.values())

        kl_ratios = []
        mae_wins = 0
        for seed in seeds:
            baseline = by[("baseline", seed)]
            ld = by[("ld_main_vlr", seed)]
            tbr = by[("tbr", seed)]
            mimic = by[("selective", seed)]
            fi = by[("feature_imitation", seed)]

            # (a) the LD scheme cuts teacher-student box-logit KL >= 10x
            ratio = baseline.kl_box / ld.kl_box
            kl_ratios.append(ratio)
            assert ratio >= 10.0, f"seed {seed}: KL ratio {ratio:.1f}"
            assert ld.kl_box < baseline.kl_box  # strict improvement

            # (b) LD beats teacher-bounded regression on decoded-edge MAE
            if ld.mae_edges < tbr.mae_edges:
                mae_wins += 1

            # (c) logit mimicking leaves features uncorrelated; feature
            # imitation aligns them
            assert abs(mimic.pearson_features) < 0.2, \
                f"seed {seed}: mimic feature r {mimic.pearson_features:.3f}"
            assert fi.pearson_features > 0.6, \
                f"seed {seed}: imitation feature r {fi.pearson_features:.3f}"

        assert mae_wins >= 4, f"LD beat TBR on MAE in only {mae_wins}/5 seeds"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        out["detail"] = (f"KL ratio min {min(kl_ratios):.0f}x, MAE wins {mae_wins}/5, "
                         f"{elapsed:.0f}s for 5 seeds x 5 schemes")


def test_cli_determinism():
    with criterion("bitwise-identical CLI reruns") as out:
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            fast_verify = ["--set", "verify.trials=100", "--set", "verify.mc_trials=5000",
                           "--set", "verify.mc_instances=1"]
            fast_exp = ["--set", "experiment.schemes=[baseline, ld_main_vlr]",
                        "--set", "experiment.seeds=[0]",
                        "--set", "harness.epochs=40",
                        "--set", "harness.teacher_epochs=40",
                        "--set", "harness.n_train=48",
                        "--set", "harness.n_heldout=32"]
            fast_sweep = ["--set", "sweep.values=[0.0, 0.8]",
                          "--set", "sweep.schemes=[baseline]",
                          "--set", "sweep.seeds=[0]",
                          "--set", "harness.epochs=20",
                          "--set", "harness.teacher_epochs=20",
                          "--set", "harness.n_train=32",
                          "--set", "harness.n_heldout=24"]
            pairs = []
            for name, args in (("verify", fast_verify), ("experiment", fast_exp),
                               ("sweep", fast_sweep), ("dump-assignment", [])):
                dirs = []
                for run in ("a", "b"):
                    out_dir = tmp / f"{name}_{run}"
                    assert cli_main(["-o", str(out_dir), *args, name]) == 0
                    dirs.append(out_dir)
                files_a = sorted(p.relative_to(dirs[0])
                                 for p in dirs[0].rglob("*") if p.is_file())
                files_b = sorted(p.relative_to(dirs[1])
                                 for p in dirs[1].rglob("*") if p.is_file())
                assert files_a == files_b and files_a
                for rel in files_a:
                    assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), \
                        f"{name}: {rel} differs between runs"
                pairs.append((name, len(files_a)))
        out["detail"] = ", ".join(f"{n} ({k} files)" for n, k in pairs)

import copy
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from locdistill.boxdist import BinGrid, decode_expectation, flatness
from locdistill.cli import RunConfig, SweepConfig, build_run_config, cmd_sweep
from locdistill.losses import DistillConfig, SceneObjective, feature_imitation_loss, total_loss
from locdistill.harness import (
    SCHEMES,
    HarnessConfig,
    SceneStack,
    binned_mixture,
    evaluate,
    gen_dataset,
    init_localizer,
    load_dataset,
    run_cell,
    run_seed,
    save_dataset,
    train,
    train_teacher,
)
from locdistill.harness import experiments
from locdistill.harness.data import _cdf, _draw
from locdistill.harness.experiments import DivergenceError, _new_model, scheme_weights
from locdistill.losses import _TERMS
from locdistill.harness.models import LinearLocalizer
from locdistill.regions import RegionMasks

from oracles import relative_gradient_error

GRID = BinGrid(0, 8, 8)
DCFG = DistillConfig(grid=GRID)

# small-but-real settings so the whole file stays fast
FAST = HarnessConfig(n_train=48, n_heldout=32, epochs=40, teacher_epochs=40)


def _dataset_fingerprint(ds):
    return [
        (split.features.tobytes(), split.true_edges.tobytes(),
         split.observed_edges.tobytes(), split.truth.labels.tobytes(),
         split.main.tobytes(), split.vlr.tobytes())
        for split in (ds.train, ds.heldout)
    ]


class TestDataGeneration:
    def test_same_seed_is_bitwise_identical(self):
        a = gen_dataset(FAST, DCFG, seed=7)
        b = gen_dataset(FAST, DCFG, seed=7)
        assert _dataset_fingerprint(a) == _dataset_fingerprint(b)

    def test_different_seeds_differ(self):
        a = gen_dataset(FAST, DCFG, seed=7)
        b = gen_dataset(FAST, DCFG, seed=8)
        assert _dataset_fingerprint(a) != _dataset_fingerprint(b)

    def test_zero_ambiguity_is_noise_free(self):
        cfg = replace(FAST, ambiguity=0.0)
        split = gen_dataset(cfg, DCFG, seed=0).train
        assert np.all(split.n_components == 1)
        assert np.array_equal(split.observed_edges, split.true_edges)
        for mix in binned_mixture(split.centers, split.weights, GRID).reshape(-1, GRID.size):
            # single component: the binned mixture is exactly a two-hot
            assert flatness(mix) <= np.log(2) + 1e-12

    def test_targets_of_positives_are_in_range(self):
        ds = gen_dataset(FAST, DCFG, seed=3)
        for split in (ds.train, ds.heldout):
            positives = split.observed_edges[split.main]
            assert np.all(positives >= GRID.e_min)
            assert np.all(positives <= GRID.e_max)

    def test_masks_match_region_module(self):
        from locdistill.geometry import BoundingBox
        from locdistill.regions import compute_region_masks

        split = gen_dataset(FAST, DCFG, seed=4).train
        for i in range(16):
            masks = compute_region_masks([BoundingBox(*split.anchor_boxes[i])],
                                         [BoundingBox(*split.gt_boxes[i])],
                                         DCFG.alpha_pos, DCFG.gamma_vlr)
            assert split.main[i] == bool(masks.main[0])
            assert split.vlr[i] == bool(masks.vlr[0])
            assert split.truth.labels[i] == int(split.main[i])

    def test_out_of_range_mixture_rejected(self):
        cfg = replace(FAST, max_offset=10.0, ambiguity=1.0)
        with pytest.raises(ValueError, match="range"):
            gen_dataset(cfg, DCFG, seed=0)

    def test_strata_present(self):
        ds = gen_dataset(replace(FAST, n_train=150), DCFG, seed=5)
        mains = ds.train.main.sum()
        vlrs = ds.train.vlr.sum()
        assert mains > 20 and vlrs > 5


class TestMixtureSampling:
    def test_bimodal_histogram(self):
        """An ambiguous edge's observation is a draw of one of its centers."""
        centers, cdf = (2.0, 5.0), _cdf((0.5, 0.5))
        rng = np.random.default_rng(0)
        n = 10_000
        draws = np.array([centers[_draw(cdf, rng)] for _ in range(n)])
        assert set(np.unique(draws)) == {2.0, 5.0}
        share = (draws == 2.0).mean()
        sigma = np.sqrt(0.25 / n)
        assert abs(share - 0.5) <= 3 * sigma

    def test_mixture_mean(self):
        mix = binned_mixture((1.0, 3.0), (0.25, 0.75), GRID)
        assert decode_expectation(mix, GRID) == pytest.approx(2.5, abs=1e-12)

    def test_binned_mixture_is_distribution(self):
        mix = binned_mixture((2.3, 4.9), (0.5, 0.5), GRID)
        assert mix.sum() == pytest.approx(1.0, abs=1e-12)
        assert mix[2] == pytest.approx(0.35)  # 0.5 * 0.7

    def test_batched_binned_mixture_matches_single_mixtures(self):
        rng = np.random.default_rng(3)
        mixtures = [((c,), (1.0,)) for c in rng.uniform(0.0, 8.0, 6)]
        mixtures += [(tuple(rng.uniform(0.0, 8.0, 2)), (w, 1.0 - w))
                     for w in rng.uniform(0.0, 1.0, 6)]
        # One-component mixtures ride in the batch padded to two components.
        centers = np.array([c + c[:1] * (2 - len(c)) for c, _ in mixtures])
        weights = np.array([w + (0.0,) * (2 - len(w)) for _, w in mixtures])
        batched = binned_mixture(centers.reshape(3, 4, 2), weights.reshape(3, 4, 2), GRID)
        assert batched.shape == (3, 4, GRID.size)
        single = np.array([binned_mixture(c, w, GRID) for c, w in mixtures])
        assert batched.reshape(-1, GRID.size).tobytes() == single.tobytes()

    @pytest.mark.parametrize("p", [
        (1.0 - FAST.frac_vlr - FAST.frac_background, FAST.frac_vlr, FAST.frac_background),
        (0.75, 0.0, 0.25),
        (0.5, 0.5),
        (1.0,),
    ], ids=["stratum", "stratum_without_vlr", "two_centers", "one_center"])
    def test_cdf_draw_is_generator_choice(self, p):
        """Drawing against the precomputed cdf picks what ``choice`` picks
        and consumes the same single uniform, so the stream is unchanged."""
        cdf = _cdf(p)
        by_choice, by_cdf = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(2000):
            assert _draw(cdf, by_cdf) == by_choice.choice(len(p), p=np.asarray(p))
        assert by_cdf.random() == by_choice.random()

    @pytest.mark.parametrize("ambiguity", [0.0, 0.8])
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 1.0])
    def test_dataset_masks_equal_per_sample_assignment(self, ambiguity, gamma):
        from locdistill.geometry import BoundingBox
        from locdistill.regions import compute_region_masks

        dcfg = DistillConfig(grid=GRID, gamma_vlr=gamma)
        ds = gen_dataset(replace(FAST, ambiguity=ambiguity), dcfg, seed=6)
        for split in (ds.train, ds.heldout):
            for anchor, gt, main, vlr in zip(split.anchor_boxes, split.gt_boxes,
                                             split.main, split.vlr):
                masks = compute_region_masks([BoundingBox(*anchor)], [BoundingBox(*gt)],
                                             dcfg.alpha_pos, gamma)
                assert (main, vlr) == (masks.main[0], masks.vlr[0])

    def test_invalid_mixture_rejected(self):
        # Weight checks happen where mixtures enter, in load_dataset.
        with pytest.raises(ValueError, match="matching"):
            binned_mixture((1.0, 2.0), (1.0,), GRID)
        with pytest.raises(ValueError, match="non-empty"):
            binned_mixture((), (), GRID)


def _first_mixture(centers, weights):
    """A row corruption that replaces the first edge's mixture."""
    return lambda d: {**d, "ambiguity": [{"centers": centers, "weights": weights}]
                      + d["ambiguity"][1:]}


class TestDatasetIO:
    def test_jsonl_round_trip(self, tmp_path):
        ds = gen_dataset(FAST, DCFG, seed=11)
        train_path = tmp_path / "train.jsonl"
        heldout_path = tmp_path / "heldout.jsonl"
        save_dataset(ds, train_path, heldout_path)
        with open(train_path) as fh:
            first = json.loads(fh.readline())
        assert set(first) >= {"features", "true_edges", "observed_edges",
                              "ambiguity", "class_label", "anchor_box",
                              "gt_box", "main", "vlr"}
        back = load_dataset(train_path, heldout_path, GRID)
        assert _dataset_fingerprint(back) == _dataset_fingerprint(ds)
        again = tmp_path / "again"
        again.mkdir()
        save_dataset(back, again / "train.jsonl", again / "heldout.jsonl")
        for name in ("train.jsonl", "heldout.jsonl"):
            assert (again / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_writer_is_json_dumps_byte_for_byte(self, tmp_path, seed):
        """Each line ``save_dataset`` writes is ``json.dumps`` of the
        sample's dict, keys in the format's order and flags as ints, and
        reads back to every column of the default dataset's two splits."""
        ds = gen_dataset(HarnessConfig(), DCFG, seed)
        paths = tmp_path / "train.jsonl", tmp_path / "heldout.jsonl"
        save_dataset(ds, *paths)
        for path in paths:
            for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
                d = json.loads(line)
                assert json.dumps(d) + "\n" == line
                assert list(d) == ["features", "true_edges", "observed_edges", "ambiguity",
                                   "class_label", "anchor_box", "gt_box", "main", "vlr"]
                assert all(list(mix) == ["centers", "weights"] for mix in d["ambiguity"])
                assert all(type(d[key]) is int for key in ("class_label", "main", "vlr"))
        back = load_dataset(*paths, GRID)
        for split, read in ((ds.train, back.train), (ds.heldout, back.heldout)):
            for f in fields(split):
                want, got = getattr(split, f.name), getattr(read, f.name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_writer_rejects_non_finite_values(self, tmp_path, bad):
        ds = gen_dataset(FAST, DCFG, seed=0)
        gt_boxes = ds.heldout.gt_boxes.copy()
        gt_boxes[3, 1] = bad
        broken = replace(ds, heldout=replace(ds.heldout, gt_boxes=gt_boxes))
        with pytest.raises(ValueError, match="non-finite"):
            save_dataset(broken, tmp_path / "train.jsonl", tmp_path / "heldout.jsonl")

    @pytest.mark.parametrize("corrupt, match", [
        (lambda d: {**d, "class_label": 1 - d["main"]}, "class_label"),
        (lambda d: {**d, "ambiguity": d["ambiguity"][:-1]}, "4 edge mixtures"),
        (_first_mixture([2.0, 3.0, 4.0], [0.2, 0.3, 0.5]), "at most 2"),
        (lambda d: {k: v for k, v in d.items() if k != "main"}, "missing key 'main'"),
        (lambda d: list(d.values()), "must be a JSON object, got list"),
        (_first_mixture([2.0, 3.0], [0.5, 0.6]), "sum to 1"),
        (_first_mixture([2.0, 3.0], [1.5, -0.5]), "nonnegative"),
        (_first_mixture([2.0, 3.0], [1.0]), "matching"),
        (_first_mixture([], []), "non-empty"),
        (lambda d: {**d, "features": d["features"][:-1]}, "63 features where the first"),
        (lambda d: {**d, "true_edges": d["true_edges"][:3]}, "4 true and 4 observed edges"),
        (lambda d: {**d, "class_label": 1, "main": 1, "vlr": 1}, "both main-positive and VLR"),
        ("", "at least one sample"),
        ("\n  \n", "at least one sample"),
    ])
    def test_malformed_sample_rejected(self, tmp_path, corrupt, match):
        """A malformed line is named by its file and 1-based line number, and
        a split file with no sample (``corrupt`` is then the whole file) by
        its file."""
        ds = gen_dataset(FAST, DCFG, seed=11)
        train_path, heldout_path = tmp_path / "train.jsonl", tmp_path / "heldout.jsonl"
        save_dataset(ds, train_path, heldout_path)
        where = ""
        if isinstance(corrupt, str):
            train_path.write_text(corrupt)
        else:
            lines = train_path.read_text().splitlines()
            lines[2] = json.dumps(corrupt(json.loads(lines[2])))
            train_path.write_text("\n".join(lines) + "\n")
            where = ", line 3"
        with pytest.raises(ValueError, match=match) as info:
            load_dataset(train_path, heldout_path, GRID)
        assert str(info.value).startswith(f"{train_path}{where}: ")


class TestTraining:
    def test_unknown_scheme_lists_valid_names(self):
        ds = gen_dataset(FAST, DCFG, seed=0)
        student = _new_model(FAST, GRID, 0)
        with pytest.raises(ValueError, match="baseline"):
            train(student[None], ds, ["nope"], None, FAST, DCFG)

    def test_teacher_required_for_distilling_schemes(self):
        ds = gen_dataset(FAST, DCFG, seed=0)
        student = _new_model(FAST, GRID, 0)
        with pytest.raises(ValueError, match="teacher"):
            train(student[None], ds, ["ld_main"], None, FAST, DCFG)

    def test_schemes_must_be_a_list_not_a_string(self):
        ds = gen_dataset(FAST, DCFG, seed=0)
        student = _new_model(FAST, GRID, 0)
        with pytest.raises(TypeError, match="schemes"):
            train(student[None], ds, "ld_main", None, FAST, DCFG)
        with pytest.raises(TypeError, match="schemes"):
            run_cell(FAST, DCFG, "ld_main", 0, ds, None)

    def test_stack_must_match_schemes(self):
        ds = gen_dataset(FAST, DCFG, seed=0)
        student = _new_model(FAST, GRID, 0)
        for students in (student, LinearLocalizer.stack([student] * 2)):
            with pytest.raises(ValueError, match="stack of 1 students"):
                train(students, ds, ["baseline"], None, FAST, DCFG)

    def test_baseline_trace_matches_direct_total_loss(self):
        ds = gen_dataset(FAST, DCFG, seed=1)
        student = _new_model(FAST, GRID, 1)
        init = copy.deepcopy(student)
        _, (trace,) = train(student[None], ds, ["baseline"], None, FAST, DCFG)

        stack = ds.train
        out, _ = init.forward(stack.features)
        cfg0 = replace(DCFG, w_ld_main=0.0, w_ld_vlr=0.0, w_kd_main=0.0, w_kd_vlr=0.0)
        res = total_loss(out, None, stack.truth, stack.masks, cfg0)
        assert trace[0]["total"] == res.value
        assert trace[0]["L_cls"] == res.components["cls"]
        assert trace[0]["LD_main"] == 0.0

    def test_ld_term_starts_at_zero_for_matched_teacher(self):
        ds = gen_dataset(FAST, DCFG, seed=2)
        student = _new_model(FAST, GRID, 2)
        teacher = copy.deepcopy(student)
        _, (trace,) = train(student[None], ds, ["ld_main"], teacher, FAST, DCFG)
        assert trace[0]["LD_main"] == 0.0

    def test_divergence_is_a_named_error(self):
        ds = gen_dataset(FAST, DCFG, seed=0)
        student = _new_model(FAST, GRID, 0)
        with pytest.raises(DivergenceError) as info:
            train(student[None], ds, ["baseline"], None, replace(FAST, lr=1e6), DCFG, seed=3)
        assert info.value.args[:3] == ("baseline", 3, 10.0)
        assert str(info.value).startswith("baseline training diverged: non-finite loss at step ")
        with pytest.raises(DivergenceError, match=r"^teacher .*\(seed 5, tau 10\)$"):
            train_teacher(ds, replace(FAST, lr=1e6), DCFG, seed=5)

    def test_ld_weight_is_tau_squared(self):
        for tau in (1.0, 3.0, 10.0):
            base = DistillConfig(grid=GRID, tau=tau, w_reg=2.0)  # LD weights tie to w_reg
            w = dict(zip(_TERMS, scheme_weights("selective", base, FAST)))
            assert w["ld_main"] == w["ld_vlr"] == 2.0 * tau * tau
            assert w["kd_main"] == DCFG.w_cls  # KD stays unscaled
        assert dict(zip(_TERMS, scheme_weights("ld_main", DCFG, FAST)))["ld_main"] == 100.0

    def test_scheme_weight_table(self):
        """Each scheme's weight row at the default config, in ``_TERMS``
        order: LD at tau**2 = 100, DFL at ld_dfl_scale under LD, TBR at
        tbr_weight."""
        rows = {name: scheme_weights(name, DCFG, HarnessConfig()) for name in SCHEMES}
        assert rows == {
            "baseline": [1, 1, 1, 0, 0, 0, 0, 0],
            "tbr": [1, 1, 1, 0, 0, 0, 0, 1],
            "kd_main": [1, 1, 1, 0, 0, 1, 0, 0],
            "ld_main": [1, 1, 0.25, 100, 0, 0, 0, 0],
            "ld_main_vlr": [1, 1, 0.25, 100, 100, 0, 0, 0],
            "selective": [1, 1, 0.25, 100, 100, 1, 0, 0],
            "feature_imitation": [1, 1, 1, 0, 0, 0, 0, 0],
        }

    def test_feature_imitation_needs_trained_features(self):
        """Frozen features would drop the imitation gradient and train the
        baseline under another name."""
        cfg = replace(FAST, train_features=False)
        ds = gen_dataset(cfg, DCFG, seed=0)
        with pytest.raises(ValueError, match="train_features"):
            train(_new_model(cfg, GRID, 0)[None], ds, ["feature_imitation"], None, cfg, DCFG)

    def test_ld_main_trains_at_unit_temperature(self):
        """At tau = 1 the LD step is as large as at tau = 10; the fixed
        boost of 100 this weighting replaced made this run diverge."""
        cfg = HarnessConfig(epochs=150, teacher_epochs=225)
        _, (report,) = run_seed(cfg, replace(DCFG, tau=1.0), ["ld_main"], seed=0)
        assert len(report.trace) == 150
        assert np.isfinite(report.trace[-1]["total"])

    def test_convex_instance_has_monotone_trace(self):
        # frozen features + no box-regression term: CE/DFL of a linear map is convex
        cfg = replace(FAST, train_features=False, lr=0.02, epochs=60)
        dcfg = replace(DCFG, w_reg=0.0, w_ld_main=0.0, w_ld_vlr=0.0,
                       w_kd_main=0.0, w_kd_vlr=0.0)
        ds = gen_dataset(cfg, dcfg, seed=3)
        student = _new_model(cfg, GRID, 3)
        _, (trace,) = train(student[None], ds, ["baseline"], None, cfg, dcfg)
        totals = [row["total"] for row in trace]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_training_is_deterministic(self):
        ds = gen_dataset(FAST, DCFG, seed=4)
        teacher = train_teacher(ds, FAST, DCFG, seed=4)
        runs = []
        for _ in range(2):
            student = _new_model(FAST, GRID, 4)
            _, (trace,) = train(student[None], ds, ["selective"], teacher, FAST, DCFG)
            runs.append((student.cls_weights.tobytes(), student.edge_weights.tobytes(),
                         student.feature_weights.tobytes(),
                         tuple(row["total"] for row in trace)))
        assert runs[0] == runs[1]

    def test_traces_stay_finite(self):
        ds = gen_dataset(FAST, DCFG, seed=5)
        teacher = train_teacher(ds, FAST, DCFG, seed=5)
        for scheme in ("baseline", "tbr", "ld_main_vlr", "selective",
                       "kd_main", "feature_imitation"):
            student = _new_model(FAST, GRID, 5)
            _, (trace,) = train(student[None], ds, [scheme], teacher, FAST, DCFG)
            for row in trace:
                assert all(np.isfinite(v) for v in row.values())


class TestSceneStackCache:
    def test_cached_stacks_are_read_only(self):
        ds = gen_dataset(FAST, DCFG, seed=13)
        for split in (ds.train, ds.heldout):
            arrays = [getattr(split, f.name) for f in fields(SceneStack)]
            for arr in arrays + [split.truth.labels, split.truth.edge_targets,
                                 split.masks.main, split.masks.vlr]:
                with pytest.raises(ValueError):
                    arr[0] = 0


class TestEvaluate:
    def test_teacher_against_itself(self):
        ds = gen_dataset(FAST, DCFG, seed=7)
        teacher = train_teacher(ds, FAST, DCFG, seed=7)
        (report,) = evaluate(copy.deepcopy(teacher)[None], teacher, ds, ["self"], 7, [()])
        assert report.kl_box == 0.0
        assert report.kl_cls == 0.0
        assert report.pearson_box_logits == 1.0
        assert report.pearson_features == 1.0

    def test_untrained_student_has_null_correlations(self):
        cfg = replace(FAST, input_dim=64)
        ds = gen_dataset(cfg, DCFG, seed=8)
        teacher = train_teacher(ds, cfg, DCFG, seed=8)
        student = _new_model(cfg, GRID, 8)
        (report,) = evaluate(student[None], teacher, ds, ["untrained"], 8, [()])
        assert abs(report.pearson_box_logits) < 0.2
        assert abs(report.pearson_features) < 0.2

    def test_empty_heldout_rejected(self):
        ds = gen_dataset(FAST, DCFG, seed=9)
        no_rows = {f.name: getattr(ds.heldout, f.name)[:0] for f in fields(SceneStack)}
        empty = replace(ds, heldout=SceneStack(**no_rows))
        teacher = train_teacher(ds, FAST, DCFG, seed=9)
        with pytest.raises(ValueError, match="held-out"):
            evaluate(copy.deepcopy(teacher)[None], teacher, empty, [""], 0, [()])

    def test_report_rows_long_format(self):
        ds = gen_dataset(FAST, DCFG, seed=10)
        teacher = train_teacher(ds, FAST, DCFG, seed=10)
        (report,) = evaluate(copy.deepcopy(teacher)[None], teacher, ds, ["x"], 10, [()])
        rows = report.rows()
        assert ("x", 10, "kl_box", 0.0) in rows
        assert len(rows) == len(report.METRICS)


def _report_bits(report):
    """A report's name, metrics and trace, every float as its exact hex."""
    return (report.scheme, report.seed,
            [float(getattr(report, m)).hex() for m in report.METRICS],
            [[float(v).hex() for v in row.values()] for row in report.trace])


class TestStackedTraining:
    # The benchmark's length; in the interleaved order the students of LD,
    # of LD on the VLR and of KD are not consecutive in the stack.
    CFG = replace(HarnessConfig(), epochs=60, teacher_epochs=90)
    ORDERS = {"given": list(SCHEMES),
              "interleaved": ["ld_main", "baseline", "selective", "tbr",
                              "feature_imitation", "kd_main", "ld_main_vlr"]}

    @pytest.mark.parametrize("order", sorted(ORDERS))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_stack_matches_each_scheme_alone(self, seed, order):
        """Every scheme of a stacked run_seed reports the metrics and trace
        of that scheme trained alone on the seed's dataset and teacher, bit
        for bit."""
        schemes = self.ORDERS[order]
        dataset, reports = run_seed(self.CFG, DCFG, schemes, seed)
        teacher = train_teacher(dataset, self.CFG, DCFG, seed)
        alone = [run_cell(self.CFG, DCFG, [scheme], seed, dataset, teacher)[0]
                 for scheme in schemes]
        assert [_report_bits(r) for r in reports] == [_report_bits(r) for r in alone]

    def test_divergent_stack_names_first_scheme_at_earliest_step(self):
        """A stack at lr = 1e6 raises DivergenceError naming the first
        scheme, in the given order, of those that are non-finite at the
        earliest step any is: at seed 0 that is step 20, where ld_main_vlr
        and selective both diverge alone and the rest later."""
        seed = 0
        dataset = gen_dataset(FAST, DCFG, seed)
        teacher = train_teacher(dataset, FAST, DCFG, seed)
        hot = replace(FAST, lr=1e6)
        steps = {}
        for scheme in SCHEMES:
            with pytest.raises(DivergenceError) as info:
                run_cell(hot, DCFG, [scheme], seed, dataset, teacher)
            steps[scheme] = info.value.args[3]
        assert sorted(steps.values())[:3] == [20, 20, 21]
        for schemes in (list(SCHEMES), list(SCHEMES)[::-1]):
            earliest = min(steps.values())
            first = next(scheme for scheme in schemes if steps[scheme] == earliest)
            with pytest.raises(DivergenceError) as info:
                run_cell(hot, DCFG, schemes, seed, dataset, teacher)
            assert info.value.args == (first, seed, DCFG.tau, earliest)


def _ambiguity_sweep(out_dir, cfg, levels, schemes, seeds):
    """Rows of the CLI's ambiguity sweep at harness config ``cfg``, with the
    level and value columns parsed back to floats."""
    sweep = SweepConfig(values=levels, schemes=schemes, seeds=seeds)
    assert cmd_sweep(RunConfig(output_dir=str(out_dir), harness=cfg, sweep=sweep)) == 0
    with open(out_dir / "sweep_ambiguity.csv") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        r["ambiguity"], r["value"] = float(r["ambiguity"]), float(r["value"])
    return rows


class TestExperimentRunner:
    def test_run_seed_shares_seed_artifacts(self):
        _, reports = run_seed(FAST, DCFG, ["baseline", "ld_main_vlr"], 0)
        assert [r.scheme for r in reports] == ["baseline", "ld_main_vlr"]
        assert all(r.seed == 0 for r in reports)

    def test_run_seed_reaches_each_traced_stage_once(self, monkeypatch):
        """One run_seed call reaches train, evaluate and run_cell once each,
        through every ``locdistill`` module global bound to them: the names
        a tracer rebinds to time a seed's training and evaluation."""
        counts = {}
        for name in ("train", "evaluate", "run_cell"):
            real = getattr(experiments, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args, **kwargs)

            for mod_name, module in list(sys.modules.items()):
                if mod_name == "locdistill" or mod_name.startswith("locdistill."):
                    for attr, value in list(vars(module).items()):
                        if value is real:
                            monkeypatch.setattr(module, attr, counting)
        run_seed(FAST, DCFG, ["baseline", "ld_main"], 0)
        assert counts == {"train": 1, "evaluate": 1, "run_cell": 1}

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            build_run_config({"experiment": {"schemes": []}})
        with pytest.raises(ValueError):
            build_run_config({"sweep": {"values": []}})

    def test_only_the_baseline_trains_without_a_teacher(self):
        assert [name for name, terms in SCHEMES.items() if not terms] == [
            "baseline"]

    def test_ambiguity_sweep_reproducible(self, tmp_path):
        kwargs = dict(levels=[0.0, 0.8], schemes=["baseline"], seeds=[0])
        rows_a = _ambiguity_sweep(tmp_path / "a", FAST, **kwargs)
        rows_b = _ambiguity_sweep(tmp_path / "b", FAST, **kwargs)
        assert rows_a == rows_b
        assert {r["ambiguity"] for r in rows_a} == {0.0, 0.8}


def _sweep_metric(rows, level, scheme, metric):
    vals = [r["value"] for r in rows
            if r["ambiguity"] == level and r["scheme"] == scheme
            and r["metric"] == metric]
    assert vals
    return float(np.mean(vals))


class TestAmbiguitySweepBehavior:
    def test_zero_ambiguity_collapses_scheme_gaps(self, tmp_path):
        """With degenerate (single-component) mixtures the teacher has no
        distribution knowledge beyond the labels, so the distillation and
        pseudo-box schemes land near the clean-label baseline."""
        cfg = HarnessConfig()  # default scale; amb level comes from the sweep
        rows = _ambiguity_sweep(tmp_path, cfg, levels=[0.0],
                                schemes=["baseline", "ld_main_vlr", "tbr"],
                                seeds=[0, 1])
        base = _sweep_metric(rows, 0.0, "baseline", "mae_edges")
        ld = _sweep_metric(rows, 0.0, "ld_main_vlr", "mae_edges")
        tbr = _sweep_metric(rows, 0.0, "tbr", "mae_edges")
        assert abs(ld - base) <= 0.1
        assert abs(tbr - base) <= 0.05

    def test_flatness_rises_with_ambiguity(self, tmp_path):
        """Wider target mixtures raise the entropy of the distilled student's
        edge distributions, monotonically over the sweep (seed-averaged)."""
        cfg = replace(FAST, n_train=96, n_heldout=64, epochs=300, teacher_epochs=400)
        levels = [0.0, 0.5, 1.0]
        rows = _ambiguity_sweep(tmp_path, cfg, levels=levels,
                                schemes=["ld_main_vlr"], seeds=[0, 1])
        flats = [_sweep_metric(rows, lv, "ld_main_vlr", "flatness") for lv in levels]
        assert flats[0] < flats[1] < flats[2]


class TestLocalizerModel:
    def test_forward_shapes(self):
        rng = np.random.default_rng(0)
        model = init_localizer(16, 8, 2, 4, 9, rng)
        x = rng.normal(0, 1, (5, 16))
        out, hidden = model.forward(x)
        assert out.cls_logits.shape == (5, 2)
        assert out.edge_logits.shape == (5, 4, 9)
        assert hidden.shape == (5, 8)

    def test_block_features_are_the_public_product(self):
        """The bins-first hidden block, at the default dimensions and at
        odd ones, is ``x @ feature_weights.T`` within 1e-13 relative, and
        ``features`` is its transposed view."""
        rng = np.random.default_rng(5)
        for anchors, inputs, hidden in ((192, 64, 48), (128, 64, 48), (7, 5, 3)):
            model = init_localizer(inputs, hidden, 2, 4, 9, rng)
            x = rng.normal(0, 1, (anchors, inputs))
            want = x @ model.feature_weights.T
            block = model.block_features(np.ascontiguousarray(x.T))
            assert block.shape == (hidden, anchors) and block.flags.c_contiguous
            assert np.abs(block.T - want).max() <= 1e-13 * np.abs(want).max()
            assert model.features(x).tobytes() == block.T.tobytes()

    def test_block_gradients_honour_each_blocks_models(self):
        """A row block read by some models of a stack, given alone, adds
        their gradients and none to the edge rows of the others: each
        model's are its own gradients at those rows, within 1e-12."""
        rng = np.random.default_rng(3)
        models = [init_localizer(6, 5, 2, 4, 9, rng) for _ in range(3)]
        stack = LinearLocalizer.stack(models)
        x, rows, readers = rng.normal(0, 1, (7, 6)), np.array([1, 4, 5]), np.array([0, 2])
        g_cls = rng.normal(0, 1, (3, 2, 7))
        g_rows = rng.normal(0, 1, (2, 9, 4, 3))
        d_head, d_features = stack.block_gradients(x, g_cls, (x[rows], g_rows, readers))
        assert not d_head[1, 2:].any()
        for i, model in enumerate(models):
            g_edges = np.zeros((7, 4, 9))
            if i in readers:
                g_edges[rows] = g_rows[list(readers).index(i)].T
            want = model.gradients(x, g_cls[i].T, g_edges)
            got = (*model._heads(d_head[i]), d_features[i])
            for w, g in zip(want, got):
                assert np.allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


# Runs every scheme of one seed at a tenth of the default epochs in a fresh
# interpreter and prints its wall time and the CPU time of every thread but
# the calling one, both over run_seed alone. The sleep lets the BLAS pool's
# start-up spin end before the clock starts.
_ONE_CORE_PROBE = """
import json, resource, time
from dataclasses import replace
from locdistill.boxdist import BinGrid
from locdistill.harness import SCHEMES, HarnessConfig, run_seed
from locdistill.losses import DistillConfig
cfg = replace(HarnessConfig(), epochs=60, teacher_epochs=90)
dcfg = DistillConfig(grid=BinGrid(0, 8, 8))
def off_thread_cpu():
    whole = resource.getrusage(resource.RUSAGE_SELF)
    this = resource.getrusage(resource.RUSAGE_THREAD)
    return whole.ru_utime + whole.ru_stime - this.ru_utime - this.ru_stime
time.sleep(0.3)
cpu, start = off_thread_cpu(), time.perf_counter()
run_seed(cfg, dcfg, list(SCHEMES), 2)
wall = time.perf_counter() - start
print(json.dumps({"wall": wall, "off_thread_cpu": off_thread_cpu() - cpu}))
"""


def test_harness_keeps_one_core():
    """A serial run_seed over every scheme, with no BLAS thread variable
    set, does its work on the calling thread: other threads (a BLAS pool
    spinning between products) use at most a tenth of its wall time."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RUSAGE_THREAD"):
        pytest.skip("per-thread CPU time (RUSAGE_THREAD) is not available")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _ONE_CORE_PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    run = json.loads(result.stdout.splitlines()[-1])
    assert run["off_thread_cpu"] <= 0.1 * run["wall"], run


@pytest.fixture(scope="module")
def trained_teacher():
    ds = gen_dataset(FAST, DCFG, seed=12)
    return ds, train_teacher(ds, FAST, DCFG, seed=12)


def _training_problem(monkeypatch, scheme, ds, teacher):
    """The model, inputs, objective and imitated features (or None) that
    ``train`` (or ``train_teacher``, for ``"teacher"``) hands to its descent
    loop, for its stack of one model."""
    calls = []
    monkeypatch.setattr(experiments, "_descend",
                        lambda model, x, objective, cfg, epochs, run, imitate=None, trace=None:
                        calls.append((model, x, objective, imitate)))
    if scheme == "teacher":
        train_teacher(ds, FAST, DCFG, seed=12)
    else:
        train(_new_model(FAST, GRID, 12)[None], ds, [scheme], teacher, FAST, DCFG)
    ((model, x, objective, imitate),) = calls
    return model[0], x, objective, None if imitate is None else imitate[1]


# Degenerate scenes for the block-path test, named by the rows read.
DEGENERATE_SCENES = ("no_rows_read", "vlr_rows_only", "empty_vlr", "every_anchor_main")


def _degenerate_problem(name, ds, teacher):
    """A selective objective with TBR on the training split, with its
    (main, VLR) masks replaced as ``name`` says, and a fresh student."""
    stack = ds.train
    x = stack.features
    none = np.zeros(len(x), dtype=bool)
    main, vlr = {"no_rows_read": (none, none),  # K' = 0
                 "vlr_rows_only": (none, stack.main | stack.vlr),
                 "empty_vlr": (stack.main, none),
                 "every_anchor_main": (~none, none)}[name]
    objective = SceneObjective(stack.truth, RegionMasks(main=main, vlr=vlr),
                               DCFG, teacher.forward(x)[0], 2,
                               weights=[[*scheme_weights("selective", DCFG, FAST)[:-1],
                                         FAST.tbr_weight]])
    return _new_model(FAST, GRID, 12), x, objective, None


_descend = experiments._descend  # the loop itself: ``_training_problem`` patches it out


class TestLocalizerGradients:
    @pytest.mark.parametrize("problem", [*SCHEMES, "teacher", *DEGENERATE_SCENES])
    def test_block_descent_matches_public_loop(self, monkeypatch, trained_teacher, problem):
        """Five descent steps through the bins-first blocks over the rows the
        objective reads match a loop through the public ``logits``, ``step``
        and ``gradients``: finite values and every weight within 1e-12
        relative, for every scheme, the teacher and degenerate scenes."""
        if problem in DEGENERATE_SCENES:
            model, x, objective, imitate = _degenerate_problem(problem, *trained_teacher)
        else:
            model, x, objective, imitate = _training_problem(monkeypatch, problem,
                                                             *trained_teacher)
        steps = 5
        block, ref = copy.deepcopy(model), copy.deepcopy(model)
        trace = []
        _descend(block[None], x, objective, FAST, steps, ((problem,), 12, DCFG.tau),
                 None if imitate is None else ([0], imitate), [trace])

        everywhere = np.ones(len(x), dtype=bool)
        for step in range(steps):
            value, g_cls, g_edges, _ = objective.step(ref.logits(x))
            g_hidden = None
            if imitate is not None:
                fi = feature_imitation_loss(ref.features(x), imitate, everywhere)
                value += FAST.fi_weight * fi.value
                g_hidden = FAST.fi_weight * fi.grad
            assert math.isfinite(value)
            assert abs(trace[step]["total"] - value) <= 1e-12 * abs(value)
            d_cls, d_edges, d_features = ref.gradients(x, g_cls, g_edges, g_hidden)
            ref.cls_weights[...] -= FAST.lr * d_cls  # views of ref.head_weights
            ref.edge_weights[...] -= FAST.lr * d_edges
            ref.feature_weights -= FAST.lr * d_features
        for name in ("feature_weights", "cls_weights", "edge_weights"):
            got, want = getattr(block, name), getattr(ref, name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    @pytest.mark.parametrize("scheme", [*SCHEMES, "teacher"])
    def test_weight_gradients(self, monkeypatch, trained_teacher, scheme):
        """The chain rule of every scheme's step, feature imitation included,
        matches central differences of the step's value along random
        directions in weight space, and the factored chain rule."""
        model, x, objective, imitate = _training_problem(monkeypatch, scheme, *trained_teacher)
        everywhere = np.ones(len(x), dtype=bool)

        def value(wf, wc, we):
            at = LinearLocalizer(wf, wc, we)
            v = objective.step(at.logits(x))[0]
            if imitate is not None:
                v += FAST.fi_weight * feature_imitation_loss(at.features(x), imitate,
                                                             everywhere).value
            return v

        _, g_cls, g_edges, _ = objective.step(model.logits(x))
        g_hidden = None
        if imitate is not None:
            g_hidden = FAST.fi_weight * feature_imitation_loss(model.features(x), imitate,
                                                               everywhere).grad
        grads = model.gradients(x, g_cls, g_edges, g_hidden)
        weights = (model.feature_weights, model.cls_weights, model.edge_weights)
        d_weights = (grads[2], grads[0], grads[1])

        rng = np.random.default_rng(0)
        step = 1e-5
        analytic, numeric = [], []
        for _ in range(8):
            v = [rng.standard_normal(w.shape) for w in weights]
            norm = np.sqrt(sum((u * u).sum() for u in v))
            v = [u / norm for u in v]
            plus = value(*(w + step * u for w, u in zip(weights, v)))
            minus = value(*(w - step * u for w, u in zip(weights, v)))
            numeric.append((plus - minus) / (2.0 * step))
            analytic.append(sum((d * u).sum() for d, u in zip(d_weights, v)))
        assert relative_gradient_error(analytic, numeric) < 1e-5

        # The factored chain rule through the hidden features.
        a, hidden = len(x), model.hidden_dim
        g = np.concatenate([g_cls, g_edges.reshape(a, -1)], axis=1)
        w_heads = np.concatenate([model.cls_weights, model.edge_weights.reshape(-1, hidden)])
        g_h = g @ w_heads + (0.0 if g_hidden is None else g_hidden)
        d_heads = g.T @ model.features(x)
        c = g_cls.shape[1]
        factored = (g_h.T @ x, d_heads[:c], d_heads[c:])
        for got, want in zip(d_weights, factored):
            assert np.abs(got - want.reshape(got.shape)).max() <= 1e-12 * np.abs(want).max()

        frozen = model.gradients(x, g_cls, g_edges, g_hidden, train_features=False)
        assert frozen[2] is None
        assert frozen[0].tobytes() == grads[0].tobytes()
        assert frozen[1].tobytes() == grads[1].tobytes()

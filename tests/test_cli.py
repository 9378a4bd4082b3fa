import csv
import json
import subprocess
import sys

import pytest
import yaml

from locdistill.cli import ConfigError, build_run_config, load_run_config, main


FAST_VERIFY = ["--set", "verify.trials=60", "--set", "verify.mc_trials=4000",
               "--set", "verify.mc_instances=1"]
FAST_EXPERIMENT = [
    "--set", "experiment.schemes=[baseline, ld_main_vlr]",
    "--set", "experiment.seeds=[0]",
    "--set", "harness.epochs=30",
    "--set", "harness.teacher_epochs=30",
    "--set", "harness.n_train=40",
    "--set", "harness.n_heldout=24",
]

FAST_SWEEP = [
    "--set", "sweep.schemes=[baseline]",
    "--set", "sweep.seeds=[0]",
    "--set", "harness.epochs=20",
    "--set", "harness.teacher_epochs=20",
    "--set", "harness.n_train=32",
    "--set", "harness.n_heldout=24",
]


def _read_bytes(path):
    return path.read_bytes()


class TestConfigValidation:
    def test_defaults_build(self):
        cfg = build_run_config({})
        assert cfg.seed == 0
        assert cfg.distill.tau == 10.0
        assert cfg.grid.n == 8

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="nonsense"):
            build_run_config({"nonsense": 1})

    def test_unknown_section_key_named(self):
        with pytest.raises(ConfigError, match="harness.bogus"):
            build_run_config({"harness": {"bogus": 3}})

    def test_field_error_names_section(self):
        nan, inf = float("nan"), float("inf")
        for section, key, value in [
                ("distill", "tau", -1.0), ("distill", "tau", nan), ("distill", "tau", inf),
                ("distill", "tbr_margin", nan), ("harness", "lr", nan),
                ("harness", "max_offset", inf), ("harness", "frac_vlr", nan),
                ("harness", "frac_background", nan), ("verify", "inject_error", nan),
                ("scene", "extent", nan)]:
            with pytest.raises(ConfigError, match=section):
                build_run_config({section: {key: value}})

    def test_unknown_scheme_lists_valid(self):
        with pytest.raises(ConfigError, match="valid schemes"):
            build_run_config({"experiment": {"schemes": ["wat"]}})
        with pytest.raises(ConfigError, match="valid schemes"):
            build_run_config({"sweep": {"schemes": ["wat"]}})

    def test_sweep_param_restricted(self):
        with pytest.raises(ConfigError, match="sweep"):
            build_run_config({"sweep": {"param": "lr"}})

    def test_grid_flows_into_distill(self):
        cfg = build_run_config({"grid": {"e_min": 0, "e_max": 16, "n": 16}})
        assert cfg.distill.grid.e_max == 16.0
        assert cfg.distill.grid.size == 17

    def test_threads_validated(self):
        with pytest.raises(ConfigError):
            build_run_config({"threads": 0})


class TestOverrides:
    def test_dotted_set_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"seed": 3, "harness": {"epochs": 7}}))

        class Args:
            seed = None
            output_dir = None
            threads = None

        cfg = load_run_config(str(path), ["harness.epochs=9"], Args())
        assert cfg.seed == 3
        assert cfg.harness.epochs == 9

    def test_flags_win_over_set(self, tmp_path):
        class Args:
            seed = 42
            output_dir = str(tmp_path / "flagged")
            threads = None

        cfg = load_run_config(None, ["seed=5"], Args())
        assert cfg.seed == 42
        assert cfg.output_dir.endswith("flagged")

    def test_env_var_overrides_output_dir_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOCDISTILL_OUTPUT_DIR", str(tmp_path / "env_out"))

        class Args:
            seed = None
            output_dir = None
            threads = None

        cfg = load_run_config(None, [], Args())
        assert cfg.output_dir.endswith("env_out")

    def test_exponent_floats_parse(self):
        class Args:
            seed = None
            output_dir = None
            threads = None

        cfg = load_run_config(None, ["verify.inject_error=1e-6"], Args())
        assert cfg.verify.inject_error == 1e-6

    def test_malformed_set_rejected(self):
        class Args:
            seed = None
            output_dir = None
            threads = None

        with pytest.raises(ConfigError):
            load_run_config(None, ["no_equals_sign"], Args())


class TestVerifyCommand:
    def test_passes_and_writes_certificate(self, tmp_path):
        out = tmp_path / "v"
        code = main(["-o", str(out), *FAST_VERIFY, "verify"])
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["all_passed"] is True
        assert cert["proposition1_max_err"] <= 1e-12
        assert cert["decomposition_max_residual"] <= 1e-10
        assert cert["decomposition_min_entry"] >= -1e-10
        assert cert["checks"]["decomposition_simplex"] is True
        assert cert["rescaling_abs_err"] <= 1e-10
        assert {"trials", "seed", "checks", "tolerances"} <= set(cert)

    def test_injected_error_fails(self, tmp_path):
        out = tmp_path / "vbad"
        code = main(["-o", str(out), *FAST_VERIFY,
                     "--set", "verify.inject_error=1e-6", "verify"])
        assert code == 1
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["all_passed"] is False
        assert cert["checks"]["proposition1"] is False

    def test_deterministic_output(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["-o", str(out_a), *FAST_VERIFY, "verify"]) == 0
        assert main(["-o", str(out_b), *FAST_VERIFY, "verify"]) == 0
        assert _read_bytes(out_a / "certificate.json") == _read_bytes(out_b / "certificate.json")

    @pytest.mark.parametrize("eta_scale", ["0.02", "0.0185", "-0.01", ".nan"])
    def test_eta_scale_without_room_for_the_margin_is_config_error(self, tmp_path, eta_scale):
        """0.02 leaves no 9-bin teacher mean 6 noise scales inside the simplex;
        0.0185 leaves almost none, so the redraws run out; a negative or NaN
        value is no noise scale (NaN noise would make every draw a rejection).
        Each ends promptly with exit 2 and no certificate."""
        out = tmp_path / "v"
        result = subprocess.run(
            [sys.executable, "-m", "locdistill", "-o", str(out), *FAST_VERIFY,
             "--set", f"verify.eta_scale={eta_scale}", "verify"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert "eta_scale" in result.stderr
        assert not (out / "certificate.json").exists()


class TestExperimentCommand:
    def test_writes_reports_and_datasets(self, tmp_path):
        out = tmp_path / "exp"
        code = main(["-o", str(out), *FAST_EXPERIMENT, "experiment"])
        assert code == 0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        schemes = {r["scheme"] for r in rows}
        assert schemes == {"baseline", "ld_main_vlr"}
        summary = json.loads((out / "summary.json").read_text())
        assert "mae_edges" in summary["baseline"]
        trace = out / "trace_baseline_seed0.csv"
        with open(trace) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["step", "L_cls", "L_reg", "L_DFL", "LD_main",
                          "LD_vlr", "KD_main", "KD_vlr", "total"]
        assert (out / "datasets" / "seed0_train.jsonl").exists()
        assert (out / "datasets" / "seed0_heldout.jsonl").exists()

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert main(["-o", str(out), *FAST_EXPERIMENT, "experiment"]) == 0
            outs.append(out)
        for rel in ("metrics.csv", "summary.json", "trace_baseline_seed0.csv",
                    "datasets/seed0_train.jsonl"):
            assert _read_bytes(outs[0] / rel) == _read_bytes(outs[1] / rel)

    def test_bad_scheme_is_config_error(self, tmp_path):
        code = main(["-o", str(tmp_path / "z"),
                     "--set", "experiment.schemes=[bogus]", "experiment"])
        assert code == 2

    def test_generates_each_seed_dataset_once(self, tmp_path, monkeypatch):
        from locdistill.harness import experiments

        calls = []
        real = experiments.gen_dataset

        def counting(cfg, dcfg, seed):
            calls.append(seed)
            return real(cfg, dcfg, seed)

        monkeypatch.setattr(experiments, "gen_dataset", counting)
        out = tmp_path / "once"
        assert main(["-o", str(out), *FAST_EXPERIMENT,
                     "--set", "experiment.seeds=[0, 1]", "experiment"]) == 0
        assert calls == [0, 1]
        assert (out / "datasets" / "seed1_heldout.jsonl").exists()

    def test_worker_count_leaves_outputs_bitwise_equal(self, tmp_path):
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert main(["-o", str(out), "--threads", threads, *FAST_EXPERIMENT,
                         "--set", "experiment.seeds=[0, 1]", "experiment"]) == 0
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 2 + 2 * 2 + 2 * 2  # reports, traces, datasets
        assert trees[0] == trees[1]


class TestDumpAssignment:
    def test_row_count_matches_anchor_count(self, tmp_path):
        out = tmp_path / "dump"
        assert main(["-o", str(out), "dump-assignment"]) == 0
        with open(out / "assignment.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 * 2  # locations x anchors per location
        assert set(rows[0]) == {"anchor_id", "level", "best_diou", "main", "vlr"}

    def test_gamma_one_has_no_vlr_rows(self, tmp_path):
        out = tmp_path / "dump_g1"
        assert main(["-o", str(out), "--set", "distill.gamma_vlr=1.0",
                     "dump-assignment"]) == 0
        with open(out / "assignment.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["vlr"] == "0" for r in rows)

    def test_one_diou_per_pair(self, tmp_path, monkeypatch):
        from locdistill import geometry
        from locdistill.cli import SceneConfig

        calls = []
        real = geometry.diou

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(geometry, "diou", counting)
        assert main(["-o", str(tmp_path / "dcount"), "dump-assignment"]) == 0
        scene = SceneConfig()
        assert len(calls) == scene.n_locations * scene.anchors_per_location * scene.n_gts

    def test_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "da", tmp_path / "db"
        assert main(["-o", str(out_a), "dump-assignment"]) == 0
        assert main(["-o", str(out_b), "dump-assignment"]) == 0
        assert _read_bytes(out_a / "assignment.csv") == _read_bytes(out_b / "assignment.csv")

    def test_flags_match_region_module(self, tmp_path):
        from locdistill.cli import SceneConfig, _random_scene
        from locdistill.regions import assign_main, assign_vlr, unfold_anchors

        out = tmp_path / "oracle"
        assert main(["-o", str(out), "--seed", "5", "dump-assignment"]) == 0
        per_location, gts = _random_scene(SceneConfig(), seed=5)
        unfolded = unfold_anchors(per_location)
        anchors = list(unfolded.anchors)
        main_mask = assign_main(anchors, gts, 0.5)
        vlr_mask = assign_vlr(anchors, gts, 0.5, 0.25)
        with open(out / "assignment.csv") as fh:
            rows = list(csv.DictReader(fh))
        for i, row in enumerate(rows):
            assert int(row["main"]) == int(main_mask[i])
            assert int(row["vlr"]) == int(vlr_mask[i])


class TestSweepCommand:
    def test_ambiguity_sweep_csv(self, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "-o", str(out),
            "--set", "sweep.values=[0.0, 0.5]",
            "--set", "sweep.schemes=[baseline]",
            "--set", "sweep.seeds=[0]",
            "--set", "harness.epochs=20",
            "--set", "harness.teacher_epochs=20",
            "--set", "harness.n_train=32",
            "--set", "harness.n_heldout=24",
            "sweep",
        ])
        assert code == 0
        with open(out / "sweep_ambiguity.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["ambiguity"] for r in rows} == {"0.0", "0.5"}

    def test_tau_sweep_mirrors_table_grid(self, tmp_path):
        out = tmp_path / "swt"
        code = main([
            "-o", str(out),
            "--set", "sweep.param=tau",
            "--set", "sweep.values=[1, 5, 10, 15, 20]",
            "--set", "sweep.schemes=[ld_main]",
            "--set", "sweep.seeds=[0]",
            "--set", "harness.epochs=10",
            "--set", "harness.teacher_epochs=10",
            "--set", "harness.n_train=32",
            "--set", "harness.n_heldout=24",
            "sweep",
        ])
        assert code == 0
        with open(out / "sweep_tau.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["tau"] for r in rows} == {"1.0", "5.0", "10.0", "15.0", "20.0"}

    def test_worker_count_leaves_sweeps_bitwise_equal(self, tmp_path):
        for param, values in (("ambiguity", "[0.0, 0.5]"), ("tau", "[1, 10]")):
            csvs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{param}{threads}"
                assert main(["-o", str(out), "--threads", threads, *FAST_SWEEP,
                             "--set", f"sweep.param={param}",
                             "--set", f"sweep.values={values}",
                             "--set", "sweep.seeds=[0, 1]", "sweep"]) == 0
                assert [p.name for p in out.iterdir()] == [f"sweep_{param}.csv"]
                csvs.append((out / f"sweep_{param}.csv").read_bytes())
            assert csvs[0] == csvs[1]


class TestSweepValidation:
    """Every bad sweep is a config error (exit 2) before any training."""

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        from locdistill.harness import experiments

        def refuse(*args):
            raise AssertionError("a rejected sweep must not start training")

        monkeypatch.setattr(experiments, "gen_dataset", refuse)

    @pytest.mark.parametrize("overrides", [
        ["sweep.schemes=[]"],
        ["sweep.seeds=[]"],
        ["sweep.param=tau"],  # the default values start at 0.0
        ["sweep.param=gamma_vlr", "sweep.values=[0.25, 1.5]"],
        ["sweep.schemes=[baseline, wat]"],
        ["sweep.param=tau", "sweep.values=[.nan]"],
        ["distill.tbr_margin=.nan"],
        ["harness.lr=.nan"],
    ])
    def test_rejected_before_training(self, tmp_path, overrides):
        out = tmp_path / "sw"
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main(["-o", str(out), *sets, "sweep"]) == 2
        assert not out.exists()

    def test_swept_value_names_the_field(self):
        with pytest.raises(ConfigError, match="sweep.values: tau must be positive"):
            build_run_config({"sweep": {"param": "tau"}})
        with pytest.raises(ConfigError, match="gamma_vlr must lie in"):
            build_run_config({"sweep": {"param": "gamma_vlr", "values": [0.25, 1.5]}})


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "locdistill", "-o", str(tmp_path / "m"),
             "--set", "verify.trials=20", "--set", "verify.mc_trials=2000",
             "--set", "verify.mc_instances=1", "verify"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "[PASS] proposition1" in result.stdout

    def test_missing_config_file_is_config_error(self, tmp_path):
        code = main(["--config", str(tmp_path / "absent.yaml"), "verify"])
        assert code == 2

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from locdistill import theory
from locdistill.boxdist import BinGrid
from locdistill.cli import (ConfigError, RunConfig, _check_training_grid, build_run_config,
                            load_run_config, main)
from locdistill.losses import DistillConfig


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


DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                   reason="PyYAML was built without libyaml")


def _cli_env(**extra: str) -> dict[str, str]:
    """The environment for ``python -m locdistill`` in a subprocess: this
    one plus ``extra``, with ``src`` first on ``PYTHONPATH``, since the
    test runner's ``pythonpath`` setting reaches only its own process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class _NoFlags:
    seed = None
    output_dir = None
    threads = None


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
        assert cfg.grid is cfg.distill.grid

    def test_training_grid_is_the_checked_grid(self):
        """The load-time grid check reads the grid that training reads."""
        cfg = RunConfig(distill=DistillConfig(grid=BinGrid(-1.0, 8.0, 9)))
        assert cfg.grid is cfg.distill.grid
        with pytest.raises(ConfigError, match="grid.e_min >= 0"):
            _check_training_grid(cfg, "experiment")

    def test_threads_validated(self):
        with pytest.raises(ConfigError):
            build_run_config({"threads": 0})

    @pytest.mark.parametrize("section, key, value", [
        ("experiment", "seeds", [0, 0]),
        ("experiment", "schemes", ["baseline", "baseline"]),
        ("sweep", "seeds", [1, 1]),
        ("sweep", "schemes", ["tbr", "tbr"]),
        ("sweep", "values", [0.5, 0.5]),
    ])
    def test_repeated_entries_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"^{section}: {key} must be distinct"):
            build_run_config({section: {key: value}})

    @pytest.mark.parametrize("argv", [
        ["--set", "verify.trials=100.5", "verify"],
        ["--set", "verify.mc_instances=1.5", "verify"],
        ["--set", "scene.n_locations=2.5", "dump-assignment"],
        ["--seed", "-1", "verify"],
        ["--set", "experiment.seeds=[-1]", "experiment"],
        ["--set", "harness.epochs=2.7", "experiment"],
        ["--set", "seed=1.9", "verify"],
        ["--set", "verify.sizes=[5.5]", "verify"],
        ["--set", "threads=true", "experiment"],
        ["--set", "harness.train_features=maybe", "experiment"],
        ["--set", "harness.lr=true", "experiment"],
        ["--set", "distill.tau=true", "experiment"],
        ["--set", "distill.gamma_vlr=false", "experiment"],
        ["--set", "verify.eta_scale=true", "verify"],
        ["--set", "distill.w_reg=true", "experiment"],
        ["--set", "harness.frac_vlr=false", "experiment"],
        ["--set", "grid.e_min=false", "dump-assignment"],
        ["--set", "verify.inject_error=true", "verify"],
    ])
    def test_bad_integer_or_boolean_is_config_error(self, tmp_path, capsys, argv):
        fast = {"verify": FAST_VERIFY, "experiment": FAST_EXPERIMENT}.get(argv[-1], [])
        out = tmp_path / "out"
        assert main(["-o", str(out), *fast, *argv]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, term", [
        (["experiment"], "the box regression term"),
        (["--set", "distill.w_reg=0", "--set", "experiment.schemes=[tbr]", "experiment"],
         "teacher-bounded regression"),
        (["sweep"], "the box regression term"),
        (["--set", "distill.w_reg=0", "sweep"], "teacher-bounded regression"),
    ])
    def test_negative_grid_for_box_terms_is_config_error(self, tmp_path, capsys, argv, term):
        out = tmp_path / "out"
        assert main(["-o", str(out), "--set", "grid.e_min=-1", *argv]) == 2
        assert capsys.readouterr().err == (
            f"config error: {term} needs nonnegative edge distances (grid.e_min >= 0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        ("harness.max_offset=3",
         "max_offset 3 pushes mixture centers outside the regression range [0, 8]"),
        ("harness.train_features=false", "scheme 'feature_imitation' imitates features"),
    ])
    def test_untrainable_harness_is_config_error(self, tmp_path, capsys, override, message):
        """Training would reject these after generating data; the sweep
        forms are in ``TestSweepValidation``."""
        out = tmp_path / "out"
        assert main(["-o", str(out), "--set", override, "experiment"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    def test_mixture_spread_is_config_error(self, tmp_path, capsys):
        """The spread is ambiguity * max_offset around edges from 1.7 to 2.7,
        so a center falls at -0.3 although the mid-range edge's do not."""
        out = tmp_path / "out"
        assert main(["-o", str(out), "--set", "harness.max_offset=2",
                     "--set", "harness.ambiguity=1", "experiment"]) == 2
        assert capsys.readouterr().err == (
            "config error: max_offset 2 pushes mixture centers outside the regression range "
            "[0, 8] at ambiguity 1 (centers span [-0.3, 4.7])\n")
        assert not out.exists()

    def test_mixture_within_the_grid_accepted(self, tmp_path):
        """A spread of 2.5 * 0.5 = 1.25 keeps every center of an edge in
        [1.7, 2.7] inside [0, 8], though ``max_offset`` alone would not."""
        out = tmp_path / "out"
        assert main(["-o", str(out), *FAST_EXPERIMENT, "--set", "harness.max_offset=2.5",
                     "--set", "harness.ambiguity=0.5", "experiment"]) == 0
        assert (out / "metrics.csv").exists()

    @pytest.mark.parametrize("argv", [
        [*FAST_VERIFY, "verify"],
        ["dump-assignment"],
        [*FAST_EXPERIMENT, "--set", "distill.w_reg=0", "experiment"],
        [*FAST_SWEEP, "--set", "distill.w_reg=0", "--set", "harness.tbr_weight=0",
         "--set", "sweep.schemes=[baseline, tbr]", "sweep"],
    ])
    def test_negative_grid_accepted_without_box_terms(self, tmp_path, argv):
        assert main(["-o", str(tmp_path), "--set", "grid.e_min=-1", *argv]) == 0

    def test_integral_floats_are_counts(self):
        cfg = load_run_config(None, ["seed=2.0", "verify.trials=1e3", "harness.epochs=60.0",
                                     "experiment.seeds=[0.0, 1]"], _NoFlags())
        for value, expected in ((cfg.seed, 2), (cfg.verify.trials, 1000),
                                (cfg.harness.epochs, 60), (cfg.experiment.seeds[0], 0)):
            assert value == expected and type(value) is int


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

    @needs_libyaml
    @pytest.mark.parametrize("text", ["1e-6", "[1, 2.5, x]", "0x10", "~", "yes",
                                      "2001-12-14"])
    def test_both_yaml_loaders_parse_overrides_alike(self, text, monkeypatch):
        from locdistill import cli

        parsed = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(cli, "_YAML_LOADER", loader)
            parsed.append(cli._parse_override_value(text))
        assert parsed[0] == parsed[1]
        assert type(parsed[0]) is type(parsed[1])

    @needs_libyaml
    def test_both_yaml_loaders_load_the_default_config_alike(self, monkeypatch):
        from locdistill import cli

        assert cli._YAML_LOADER is yaml.CSafeLoader
        configs = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(cli, "_YAML_LOADER", loader)
            configs.append(load_run_config(str(DEFAULT_CONFIG), [], _NoFlags()))
        assert configs[0] == configs[1]

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
        assert cert["rescaling_mc_abs_err"] <= 1e-10
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

    def test_closed_form_defect_fails_both_rescaling_checks(self, tmp_path, monkeypatch,
                                                            capsys):
        real = theory._rescaling_setup

        def biased(*args):
            z_s, p_tau, c_eff, predicted, dfl_i = real(*args)
            return z_s, p_tau, c_eff, predicted * (1.0 + 1e-9), dfl_i

        monkeypatch.setattr(theory, "_rescaling_setup", biased)
        out = tmp_path / "vdefect"
        assert main(["-o", str(out), *FAST_VERIFY, "verify"]) == 1
        checks = json.loads((out / "certificate.json").read_text())["checks"]
        assert [name for name, ok in checks.items() if not ok] == [
            "rescaling_exact", "rescaling_monte_carlo"]
        assert "rescaling_exact, rescaling_monte_carlo" in capsys.readouterr().err

    @pytest.mark.parametrize("eta_scale", ["0.02", "0.0185"])
    def test_wide_eta_scale_runs(self, tmp_path, eta_scale):
        out = tmp_path / "v"
        assert main(["-o", str(out), *FAST_VERIFY,
                     "--set", f"verify.eta_scale={eta_scale}", "verify"]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["eta_scale"] == float(eta_scale)
        assert cert["rescaling_mc_abs_err"] <= 1e-10

    def test_odd_mc_trials_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["-o", str(out), *FAST_VERIFY, "--set", "verify.mc_trials=4001",
                     "verify"]) == 2
        assert "mc_trials" in capsys.readouterr().err
        assert not (out / "certificate.json").exists()

    @pytest.mark.parametrize("eta_scale", ["-0.01", ".nan"])
    def test_eta_scale_without_room_for_the_margin_is_config_error(self, tmp_path, eta_scale):
        """A negative or NaN value is no noise scale: it ends promptly with
        exit 2 and no certificate. Every finite nonnegative scale runs."""
        out = tmp_path / "v"
        result = subprocess.run(
            [sys.executable, "-m", "locdistill", "-o", str(out), *FAST_VERIFY,
             "--set", f"verify.eta_scale={eta_scale}", "verify"],
            capture_output=True, text=True, timeout=60, env=_cli_env(),
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

    def test_tree_identical_across_blas_thread_counts(self, tmp_path):
        """The default experiment (all schemes, seed 0, a tenth of the epochs)
        writes the same bytes with one and with two BLAS threads."""
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "locdistill", "-o", str(out), "--seed", "0",
                 "--set", "experiment.seeds=[0]", "--set", "harness.epochs=60",
                 "--set", "harness.teacher_epochs=90", "experiment"],
                capture_output=True, text=True, timeout=120,
                env=_cli_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert result.returncode == 0, result.stderr
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert "datasets/seed0_train.jsonl" in {str(rel) for rel in trees[0]}
        assert trees[0].keys() == trees[1].keys()
        for rel in trees[0]:
            assert trees[0][rel] == trees[1][rel], f"{rel} differs between BLAS thread counts"

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

    def test_divergence_exits_1_with_one_line(self, tmp_path, capsys):
        code = main(["-o", str(tmp_path / "div"), "--set", "harness.lr=1e6",
                     "--set", "harness.epochs=30", "--set", "harness.teacher_epochs=30",
                     "--set", "experiment.seeds=[0]", "experiment"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: teacher training diverged: non-finite loss at step ")
        assert err.endswith("(seed 0, tau 10)\n")

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
        real = geometry._pair_overlap

        def counting(*corners):
            calls.append(1)
            return real(*corners)

        monkeypatch.setattr(geometry, "_pair_overlap", counting)
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
        ["sweep.values=[0.5, 0.5]"],
        ["sweep.seeds=[0, 0]"],
        ["sweep.schemes=[baseline, baseline]"],
        ["harness.max_offset=3"],
        ["harness.train_features=false", "sweep.schemes=[feature_imitation]"],
        # Fits at harness.ambiguity 0.5, not at the swept ambiguity 1.0.
        ["harness.max_offset=2", "harness.ambiguity=0.5"],
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
            capture_output=True, text=True, env=_cli_env(),
        )
        assert result.returncode == 0, result.stderr
        assert "[PASS] proposition1" in result.stdout

    def test_missing_config_file_is_config_error(self, tmp_path):
        code = main(["--config", str(tmp_path / "absent.yaml"), "verify"])
        assert code == 2

"""Command-line entry point: verification certificates, experiments, sweeps,
and region-assignment dumps.

Configuration comes from a YAML file (see ``configs/default.yaml``), with
``--set section.key=value`` dotted overrides and explicit flags winning over
the file. The ``LOCDISTILL_OUTPUT_DIR`` environment variable overrides the
output directory only. All randomness derives from the single ``seed``
entry, and every output file is bit-reproducible at any ``--threads``
worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .boxdist import BinGrid
from .geometry import BoundingBox
from .harness.data import HarnessConfig, save_dataset
from .harness.experiments import TRACE_COLUMNS, ExperimentReport, _resolve_scheme, run_seed
from .losses import DistillConfig
from .regions import _masks_and_diou, unfold_anchors
from .theory import (_check_rescaling_noise, certify_decomposition, certify_proposition1,
                     certify_rescaling)

__all__ = ["RunConfig", "load_run_config", "main"]

ENV_OUTPUT_DIR = "LOCDISTILL_OUTPUT_DIR"

# Certification tolerances (double precision); the verify command gates on
# these and CI gates on its exit status.
PROPOSITION1_TOL = 1e-12
DECOMPOSITION_TOL = 1e-10
RESCALING_TOL = 1e-10

_SEED_TAG_SCENE = 0x5CE9E


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass(frozen=True)
class VerifyConfig:
    trials: int = 1000
    sizes: tuple[int, ...] = (5, 9, 17)
    mc_instances: int = 5
    mc_trials: int = 100_000
    eta_scale: float = 0.01
    inject_error: float = 0.0  # negative-control hook: biases the checked gradient

    def __post_init__(self) -> None:
        if self.trials < 1 or self.mc_trials < 2 or self.mc_instances < 1:
            raise ValueError("trial counts must be positive")
        if not self.sizes or any(int(s) < 2 for s in self.sizes):
            raise ValueError("sizes must be a non-empty list of lengths >= 2")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        _check_rescaling_noise(self.eta_scale)
        if not np.isfinite(self.inject_error):
            raise ValueError(f"inject_error must be finite, got {self.inject_error}")


def _set_schemes_and_seeds(section) -> None:
    """Validate and normalise the ``schemes`` and ``seeds`` of a frozen
    experiment or sweep section."""
    schemes = tuple(str(s) for s in section.schemes)
    for s in schemes:
        _resolve_scheme(s)
    if not schemes or not section.seeds:
        raise ValueError("schemes and seeds must be non-empty")
    object.__setattr__(section, "schemes", schemes)
    object.__setattr__(section, "seeds", tuple(int(s) for s in section.seeds))


@dataclass(frozen=True)
class ExperimentConfig:
    schemes: tuple[str, ...] = ("baseline", "tbr", "kd_main", "ld_main",
                                "ld_main_vlr", "selective", "feature_imitation")
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self) -> None:
        _set_schemes_and_seeds(self)


@dataclass(frozen=True)
class SweepConfig:
    param: str = "ambiguity"  # ambiguity | tau | gamma_vlr
    values: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    schemes: tuple[str, ...] = ("baseline", "ld_main_vlr", "tbr")
    seeds: tuple[int, ...] = (0, 1)

    def __post_init__(self) -> None:
        if self.param not in ("ambiguity", "tau", "gamma_vlr"):
            raise ValueError(
                f"sweep param must be one of ambiguity, tau, gamma_vlr; got {self.param!r}"
            )
        if not self.values:
            raise ValueError("sweep values must be non-empty")
        _set_schemes_and_seeds(self)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


@dataclass(frozen=True)
class SceneConfig:
    """Random scene used by the assignment dump."""

    n_locations: int = 8
    anchors_per_location: int = 2
    n_gts: int = 3
    extent: float = 12.0

    def __post_init__(self) -> None:
        if self.n_locations < 1 or self.anchors_per_location < 1 or self.n_gts < 1:
            raise ValueError("scene counts must be positive")
        if not (0 < self.extent < np.inf):
            raise ValueError("scene extent must be positive and finite")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    output_dir: str = "out"
    threads: int = 1
    grid: BinGrid = BinGrid(0.0, 8.0, 8)
    distill: DistillConfig | None = None
    harness: HarnessConfig = HarnessConfig()
    verify: VerifyConfig = VerifyConfig()
    experiment: ExperimentConfig = ExperimentConfig()
    sweep: SweepConfig = SweepConfig()
    scene: SceneConfig = SceneConfig()

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.distill is None:
            object.__setattr__(self, "distill", DistillConfig(grid=self.grid))
        for value in self.sweep.values:
            try:
                _sweep_point(self, value)
            except ValueError as exc:
                raise ValueError(f"sweep.values: {exc}") from exc


def _sweep_point(cfg: RunConfig, value: float) -> tuple[HarnessConfig, DistillConfig]:
    """The harness and distill sections of one sweep point: the section that
    owns ``sweep.param`` gets ``value``, the other is kept as configured."""
    if cfg.sweep.param == "ambiguity":
        return replace(cfg.harness, ambiguity=value), cfg.distill
    return cfg.harness, replace(cfg.distill, **{cfg.sweep.param: value})


_SECTIONS = {
    "grid": BinGrid,
    "distill": DistillConfig,
    "harness": HarnessConfig,
    "verify": VerifyConfig,
    "experiment": ExperimentConfig,
    "sweep": SweepConfig,
    "scene": SceneConfig,
}


def _build_section(cls, data: dict, path: str, **preset):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known or key in preset:
            raise ConfigError(f"{path}.{key}: unknown key")
    kwargs = dict(preset)
    for f in fields(cls):
        if f.name in data:
            v = data[f.name]
            kwargs[f.name] = tuple(v) if isinstance(v, list) else v
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_run_config(raw: dict) -> RunConfig:
    """Validate a nested config mapping into a :class:`RunConfig`."""
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a mapping")
    known = {"seed", "output_dir", "threads", *_SECTIONS}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown key")
    grid_data = {"e_min": 0.0, "e_max": 8.0, "n": 8}
    grid_section = raw.get("grid", {})
    if not isinstance(grid_section, dict):
        raise ConfigError("grid: expected a mapping")
    grid_data.update(grid_section)
    grid = _build_section(BinGrid, grid_data, "grid")
    sections = {}
    for name, cls in _SECTIONS.items():
        if name == "grid":
            continue
        preset = {"grid": grid} if name == "distill" else {}
        sections[name] = _build_section(cls, raw.get(name, {}), name, **preset)
    try:
        seed = int(raw.get("seed", 0))
        threads = int(raw.get("threads", 1))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed/threads: {exc}") from exc
    output_dir = str(raw.get("output_dir", "out"))
    try:
        return RunConfig(seed=seed, output_dir=output_dir, threads=threads,
                         grid=grid, **sections)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


_EXPONENT_FLOAT = re.compile(r"^[-+]?(\d+(\.\d*)?|\.\d+)[eE][-+]?\d+$")


def _parse_override_value(value: str):
    parsed = yaml.safe_load(value)
    # pyyaml leaves exponent floats without a decimal point ("1e-6") as strings.
    if isinstance(parsed, str) and _EXPONENT_FLOAT.match(parsed.strip()):
        return float(parsed)
    return parsed


def _apply_dotted(raw: dict, dotted: str) -> None:
    if "=" not in dotted:
        raise ConfigError(f"--set expects key.path=value, got {dotted!r}")
    path, _, value = dotted.partition("=")
    keys = path.strip().split(".")
    if not all(keys):
        raise ConfigError(f"--set has an empty key segment in {dotted!r}")
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {path}: {key} is not a mapping")
    node[keys[-1]] = _parse_override_value(value)


def load_run_config(config_path: str | None, overrides: list[str],
                    args: argparse.Namespace) -> RunConfig:
    """File -> env -> ``--set`` -> explicit flags, later sources winning."""
    raw: dict = {}
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
        if not isinstance(raw, dict):
            raise ConfigError(f"{config_path}: top level must be a mapping")
    env_out = os.environ.get(ENV_OUTPUT_DIR)
    if env_out:
        raw["output_dir"] = env_out
    for item in overrides:
        _apply_dotted(raw, item)
    for flag, path in (("seed", "seed"), ("output_dir", "output_dir"),
                       ("threads", "threads")):
        value = getattr(args, flag, None)
        if value is not None:
            raw[path] = value
    return build_run_config(raw)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig) -> int:
    """Run all certification checks; exit 0 iff every tolerance holds."""
    v = cfg.verify
    prop = certify_proposition1(v.trials, v.sizes, cfg.seed,
                                perturbation=v.inject_error)
    dec = certify_decomposition(v.trials, v.sizes, cfg.seed)
    try:
        res = certify_rescaling(v.trials, cfg.seed, mc_instances=v.mc_instances,
                                mc_trials=v.mc_trials, eta_scale=v.eta_scale)
    except ValueError as exc:  # an eta_scale that leaves too few instances to score
        print(f"config error: verify: {exc}", file=sys.stderr)
        return 2
    checks = {
        "proposition1": bool(prop["max_discrepancy"] <= PROPOSITION1_TOL),
        "decomposition_residual": bool(dec["max_residual"] <= DECOMPOSITION_TOL),
        "decomposition_rank": bool(dec["rank_ok"]),
        "decomposition_simplex": bool(dec["min_entry"] >= -DECOMPOSITION_TOL),
        "rescaling_exact": bool(res["max_abs_error"] <= RESCALING_TOL),
        "rescaling_monte_carlo": bool(res["mc_ok"]),
    }
    certificate = {
        "proposition1_max_err": float(prop["max_discrepancy"]),
        "decomposition_max_residual": float(dec["max_residual"]),
        "decomposition_rank_ok": bool(dec["rank_ok"]),
        "decomposition_min_entry": float(dec["min_entry"]),
        "rescaling_abs_err": float(res["max_abs_error"]),
        "rescaling_mc_within_3se": bool(res["mc_ok"]),
        "rescaling_mc_err_over_se": float(res["mc_max_err_over_se"]),
        "trials": v.trials,
        "mc_trials": v.mc_trials,
        "eta_scale": v.eta_scale,
        "seed": cfg.seed,
        "sizes": list(v.sizes),
        "tolerances": {
            "proposition1": PROPOSITION1_TOL,
            "decomposition": DECOMPOSITION_TOL,
            "rescaling": RESCALING_TOL,
            "monte_carlo_std_errors": 3.0,
        },
        "checks": checks,
        "all_passed": all(checks.values()),
    }
    _write_json(_out_dir(cfg) / "certificate.json", certificate)
    for name, ok in checks.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    if not certificate["all_passed"]:
        failing = [name for name, ok in checks.items() if not ok]
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _run_unit(schemes, dataset_dir: Path | None, unit) -> list[ExperimentReport]:
    """One unit of work: every scheme of one ``(harness, distill, seed)``
    unit. With a ``dataset_dir`` the unit saves its dataset as soon as its
    cells are done, so no run holds more than the datasets it trains on."""
    harness_cfg, dcfg, seed = unit
    dataset, reports = run_seed(harness_cfg, dcfg, list(schemes), seed)
    if dataset_dir is not None:
        save_dataset(dataset, dataset_dir / f"seed{seed}_train.jsonl",
                     dataset_dir / f"seed{seed}_heldout.jsonl")
    return reports


def _collect_reports(threads: int, schemes, units,
                     dataset_dir: Path | None = None) -> list[list[ExperimentReport]]:
    """Each unit's reports, in unit order. Units are independent, so
    ``--threads N`` runs up to N of them at once in worker processes and
    the results do not depend on the worker count."""
    unit_run = partial(_run_unit, schemes, dataset_dir)
    if threads == 1:
        return [unit_run(unit) for unit in units]
    with ProcessPoolExecutor(max_workers=min(threads, len(units))) as pool:
        return list(pool.map(unit_run, units))


def _summarize(reports: list[ExperimentReport]) -> dict:
    summary: dict = {}
    for r in reports:
        scheme = summary.setdefault(r.scheme, {})
        for _, seed, metric, value in r.rows():
            scheme.setdefault(metric, {"per_seed": {}})["per_seed"][str(seed)] = value
    for scheme in summary.values():
        for metric in scheme.values():
            vals = list(metric["per_seed"].values())
            metric["mean"] = sum(vals) / len(vals)
    return summary


def _print_summary(summary: dict) -> None:
    metrics = ExperimentReport.METRICS
    width = max(len(s) for s in summary) + 2
    print("scheme".ljust(width) + "  ".join(f"{m:>19s}" for m in metrics))
    for scheme in summary:
        row = [f"{summary[scheme][m]['mean']:19.6f}" for m in metrics]
        print(scheme.ljust(width) + "  ".join(row))


def cmd_experiment(cfg: RunConfig) -> int:
    """Train and evaluate the configured schemes; write CSV/JSON reports."""
    out = _out_dir(cfg)
    dataset_dir = out / "datasets"
    dataset_dir.mkdir(exist_ok=True)
    units = [(cfg.harness, cfg.distill, seed) for seed in cfg.experiment.seeds]
    per_unit = _collect_reports(cfg.threads, cfg.experiment.schemes, units, dataset_dir)
    reports = [report for unit_reports in per_unit for report in unit_reports]

    rows = [row for r in reports for row in r.rows()]
    _write_csv(out / "metrics.csv", ("scheme", "seed", "metric", "value"), rows)
    _write_json(out / "summary.json", _summarize(reports))
    for r in reports:
        trace_rows = [[row[c] for c in TRACE_COLUMNS] for row in r.trace]
        _write_csv(out / f"trace_{r.scheme}_seed{r.seed}.csv", TRACE_COLUMNS, trace_rows)
    _print_summary(_summarize(reports))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(cfg: RunConfig) -> int:
    """Sweep ambiguity, tau, or gamma_vlr over a grid of values; one
    (value, seed) pair is a unit of work."""
    out = _out_dir(cfg)
    sw = cfg.sweep
    points = [(value, seed) for value in sw.values for seed in sw.seeds]
    units = [(*_sweep_point(cfg, value), seed) for value, seed in points]
    per_unit = _collect_reports(cfg.threads, sw.schemes, units)
    csv_rows = [(value, *row) for (value, _), reports in zip(points, per_unit)
                for report in reports for row in report.rows()]
    _write_csv(out / f"sweep_{sw.param}.csv",
               (sw.param, "scheme", "seed", "metric", "value"), csv_rows)
    print(f"wrote {len(csv_rows)} rows to sweep_{sw.param}.csv")
    return 0


# ---------------------------------------------------------------------------
# dump-assignment
# ---------------------------------------------------------------------------

def _random_scene(scene: SceneConfig, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _SEED_TAG_SCENE)))
    half = scene.extent / 2.0
    gts = []
    for _ in range(scene.n_gts):
        cx, cy = rng.uniform(-half, half, size=2)
        w, h = rng.uniform(1.0, 2.5, size=2)
        gts.append(BoundingBox(cx - w, cy - h, cx + w, cy + h))
    per_location = []
    for _ in range(scene.n_locations):
        px, py = rng.uniform(-half, half, size=2)
        anchors = []
        for j in range(scene.anchors_per_location):
            s = 1.0 * (1.5 ** j)
            anchors.append(BoundingBox(px - s, py - s, px + s, py + s))
        per_location.append(anchors)
    return per_location, gts


def cmd_dump_assignment(cfg: RunConfig) -> int:
    """Emit one CSV row per anchor: id, level, best DIoU, main/VLR flags."""
    out = _out_dir(cfg)
    per_location, gts = _random_scene(cfg.scene, cfg.seed)
    unfolded = unfold_anchors(per_location)
    anchors = list(unfolded.anchors)
    masks, diou = _masks_and_diou(anchors, gts, cfg.distill.alpha_pos, cfg.distill.gamma_vlr)
    best_diou = diou.max(axis=1)
    main, vlr = masks.main, masks.vlr
    rows = [
        (i, int(unfolded.location_index[i]), float(best_diou[i]),
         int(main[i]), int(vlr[i]))
        for i in range(len(anchors))
    ]
    _write_csv(out / "assignment.csv", ("anchor_id", "level", "best_diou", "main", "vlr"),
               rows)
    print(f"{len(anchors)} anchors: {int(main.sum())} main, {int(vlr.sum())} vlr")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locdistill",
        description="Localization distillation: certificates, experiments, sweeps.",
    )
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY.PATH=VALUE",
                        help="override a config entry (repeatable)")
    parser.add_argument("--seed", type=int, help="root seed override")
    parser.add_argument("--output-dir", "-o", dest="output_dir",
                        help="output directory override")
    parser.add_argument("--threads", type=int, help="worker processes (default 1)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", help="run the numerical certification checks")
    sub.add_parser("experiment", help="train and evaluate the configured schemes")
    sub.add_parser("sweep", help="sweep ambiguity, tau, or gamma_vlr")
    sub.add_parser("dump-assignment", help="dump per-anchor region attribution")
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "experiment": cmd_experiment,
    "sweep": cmd_sweep,
    "dump-assignment": cmd_dump_assignment,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.overrides, args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](cfg)


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from ._checks import check_count, check_finite, check_nonnegative, check_positive
from .boxdist import BinGrid
from .geometry import BoundingBox
from .harness.data import HarnessConfig, _check_max_offset, save_dataset
from .harness.experiments import (TRACE_COLUMNS, DivergenceError, ExperimentReport,
                                  _check_imitation, _resolve_scheme, run_seed, scheme_weights)
from .losses import DistillConfig, _require_distances
from .regions import _masks_and_diou, unfold_anchors
from .theory import (_check_pairs, _check_sizes, certify_decomposition, certify_proposition1,
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
        object.__setattr__(self, "trials", check_count("trials", self.trials))
        object.__setattr__(self, "mc_trials", _check_pairs("mc_trials", self.mc_trials))
        object.__setattr__(self, "mc_instances", check_count("mc_instances", self.mc_instances))
        object.__setattr__(self, "sizes", _check_sizes(self.sizes))
        check_nonnegative("eta_scale", self.eta_scale)
        check_finite("inject_error", self.inject_error)


def _check_distinct(name: str, values: tuple) -> None:
    if len(set(values)) != len(values):
        raise ValueError(f"{name} must be distinct, got {list(values)}")


def _set_schemes_and_seeds(section) -> None:
    """Validate and normalise the ``schemes`` and ``seeds`` of a frozen
    experiment or sweep section."""
    schemes = tuple(str(s) for s in section.schemes)
    for s in schemes:
        _resolve_scheme(s)
    if not schemes or not section.seeds:
        raise ValueError("schemes and seeds must be non-empty")
    seeds = tuple(check_count("seeds", s, 0) for s in section.seeds)
    _check_distinct("schemes", schemes)
    _check_distinct("seeds", seeds)
    object.__setattr__(section, "schemes", schemes)
    object.__setattr__(section, "seeds", seeds)


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
        _check_distinct("values", self.values)


@dataclass(frozen=True)
class SceneConfig:
    """Random scene used by the assignment dump."""

    n_locations: int = 8
    anchors_per_location: int = 2
    n_gts: int = 3
    extent: float = 12.0

    def __post_init__(self) -> None:
        for name in ("n_locations", "anchors_per_location", "n_gts"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        check_positive("extent", self.extent)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    output_dir: str = "out"
    threads: int = 1
    distill: DistillConfig = DistillConfig(grid=BinGrid(0.0, 8.0, 8))
    harness: HarnessConfig = HarnessConfig()
    verify: VerifyConfig = VerifyConfig()
    experiment: ExperimentConfig = ExperimentConfig()
    sweep: SweepConfig = SweepConfig()
    scene: SceneConfig = SceneConfig()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", check_count("seed", self.seed, 0))
        object.__setattr__(self, "threads", check_count("threads", self.threads))
        for value in self.sweep.values:
            try:
                _sweep_point(self, value)
            except ValueError as exc:
                raise ValueError(f"sweep.values: {exc}") from exc

    @property
    def grid(self) -> BinGrid:
        """The config's ``grid`` section, held once as ``distill.grid``."""
        return self.distill.grid


def _sweep_point(cfg: RunConfig, value: float) -> tuple[HarnessConfig, DistillConfig]:
    """The harness and distill sections of one sweep point: the section that
    owns ``sweep.param`` gets ``value``, the other is kept as configured."""
    if cfg.sweep.param == "ambiguity":
        return replace(cfg.harness, ambiguity=value), cfg.distill
    return cfg.harness, replace(cfg.distill, **{cfg.sweep.param: value})


_SECTIONS = {
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
    known = {"seed", "output_dir", "threads", "grid", *_SECTIONS}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{key}: unknown key")
    grid_section = raw.get("grid", {})
    if not isinstance(grid_section, dict):
        raise ConfigError("grid: expected a mapping")
    grid = _build_section(BinGrid, {**asdict(RunConfig.distill.grid), **grid_section}, "grid")
    sections = {}
    for name, cls in _SECTIONS.items():
        preset = {"grid": grid} if name == "distill" else {}
        sections[name] = _build_section(cls, raw.get(name, {}), name, **preset)
    output_dir = str(raw.get("output_dir", "out"))
    try:
        return RunConfig(seed=raw.get("seed", 0), output_dir=output_dir,
                         threads=raw.get("threads", 1), **sections)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


_EXPONENT_FLOAT = re.compile(r"^[-+]?(\d+(\.\d*)?|\.\d+)[eE][-+]?\d+$")

# libyaml's safe loader when PyYAML was built with it: the same YAML 1.1
# resolution as SafeLoader, about eight times faster on the default config.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse_override_value(value: str):
    parsed = yaml.load(value, Loader=_YAML_LOADER)
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
            raw = yaml.load(fh, Loader=_YAML_LOADER) or {}
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


def _check_training_grid(cfg: RunConfig, command: str) -> None:
    """Reject at load what ``command`` (``experiment`` or ``sweep``) would
    reject after generating data, at each point it trains: the mixture
    offset must fit the grid, box regression and TBR decode boxes from edge
    distances, so weight rows that weight either need a grid of nonnegative
    ones, and feature imitation needs trained features."""
    schemes = getattr(cfg, command).schemes
    points = ([_sweep_point(cfg, value) for value in cfg.sweep.values] if command == "sweep"
              else [(cfg.harness, cfg.distill)])
    try:
        for harness, distill in points:
            _require_distances(cfg.grid, [scheme_weights(s, distill, harness)
                                          for s in schemes])
            _check_max_offset(harness, cfg.grid)
            _check_imitation(schemes, harness)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    res = certify_rescaling(v.trials, cfg.seed, mc_instances=v.mc_instances,
                            mc_trials=v.mc_trials, eta_scale=v.eta_scale)
    checks = {
        "proposition1": bool(prop["max_discrepancy"] <= PROPOSITION1_TOL),
        "decomposition_residual": bool(dec["max_residual"] <= DECOMPOSITION_TOL),
        "decomposition_rank": bool(dec["rank_ok"]),
        "decomposition_simplex": bool(dec["min_entry"] >= -DECOMPOSITION_TOL),
        "rescaling_exact": bool(res["max_abs_error"] <= RESCALING_TOL),
        "rescaling_monte_carlo": bool(res["mc_max_abs_error"] <= RESCALING_TOL),
    }
    certificate = {
        "proposition1_max_err": float(prop["max_discrepancy"]),
        "decomposition_max_residual": float(dec["max_residual"]),
        "decomposition_rank_ok": bool(dec["rank_ok"]),
        "decomposition_min_entry": float(dec["min_entry"]),
        "rescaling_abs_err": float(res["max_abs_error"]),
        "rescaling_mc_abs_err": float(res["mc_max_abs_error"]),
        "trials": v.trials,
        "mc_trials": v.mc_trials,
        "eta_scale": v.eta_scale,
        "seed": cfg.seed,
        "sizes": list(v.sizes),
        "tolerances": {
            "proposition1": PROPOSITION1_TOL,
            "decomposition": DECOMPOSITION_TOL,
            "rescaling": RESCALING_TOL,
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
    summary = _summarize(reports)
    _write_json(out / "summary.json", summary)
    for r in reports:
        trace_rows = [[row[c] for c in TRACE_COLUMNS] for row in r.trace]
        _write_csv(out / f"trace_{r.scheme}_seed{r.seed}.csv", TRACE_COLUMNS, trace_rows)
    _print_summary(summary)
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
        if args.command in ("experiment", "sweep"):
            _check_training_grid(cfg, args.command)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Output checkers for the benchmark workloads.

Every checker returns a list of problems; an empty list means the outputs
passed. The overlap oracle here is written from the closed forms of
``tests/oracles.py`` and never imports ``locdistill``, so agreement with
the program is evidence rather than tautology. No checker compares against
a stored copy of earlier output: each one checks the method's properties or
recomputes the answer independently.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
from pathlib import Path

import numpy as np

# Certification tolerances stated by the paper's identities (double precision).
PROPOSITION1_TOL = 1e-12
DECOMPOSITION_TOL = 1e-10
RESCALING_TOL = 1e-10

# Threshold comparisons closer than this to a band edge are not scored: the
# program and the oracle may round the last bit differently there.
TIE_EPS = 1e-9

TRACE_COLUMNS = ("step", "L_cls", "L_reg", "L_DFL", "LD_main", "LD_vlr",
                 "KD_main", "KD_vlr", "total")
DISTILL_COLUMNS = ("LD_main", "LD_vlr", "KD_main", "KD_vlr")


# ---------------------------------------------------------------------------
# independent overlap oracle
# ---------------------------------------------------------------------------

def pairwise_iou_diou(anchors: np.ndarray, gts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and DIoU for every (anchor, gt) pair of flat ``(x1, y1, x2, y2)`` rows."""
    a = anchors[:, None, :]
    g = gts[None, :, :]
    iw = np.minimum(a[..., 2], g[..., 2]) - np.maximum(a[..., 0], g[..., 0])
    ih = np.minimum(a[..., 3], g[..., 3]) - np.maximum(a[..., 1], g[..., 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_g = (g[..., 2] - g[..., 0]) * (g[..., 3] - g[..., 1])
    iou = inter / (area_a + area_g - inter)
    cw = np.maximum(a[..., 2], g[..., 2]) - np.minimum(a[..., 0], g[..., 0])
    ch = np.maximum(a[..., 3], g[..., 3]) - np.minimum(a[..., 1], g[..., 1])
    rho_sq = ((0.5 * (a[..., 0] + a[..., 2]) - 0.5 * (g[..., 0] + g[..., 2])) ** 2
              + (0.5 * (a[..., 1] + a[..., 3]) - 0.5 * (g[..., 1] + g[..., 3])) ** 2)
    return iou, iou - rho_sq / (cw * cw + ch * ch)


def oracle_regions(anchors, gts, alpha_pos: float, gamma: float):
    """Main/VLR masks plus per-anchor flags marking near-threshold ties.

    Returns ``(main, vlr, main_tie, vlr_tie, best_diou)``.
    """
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 4)
    gts = np.asarray(gts, dtype=np.float64).reshape(-1, 4)
    iou, diou = pairwise_iou_diou(anchors, gts)
    lo = gamma * alpha_pos
    main = (iou >= alpha_pos).any(axis=1)
    vlr = ((diou >= lo) & (diou <= alpha_pos)).any(axis=1) & ~main
    main_tie = (np.abs(iou - alpha_pos) < TIE_EPS).any(axis=1)
    vlr_tie = main_tie | ((np.abs(diou - lo) < TIE_EPS)
                          | (np.abs(diou - alpha_pos) < TIE_EPS)).any(axis=1)
    return main, vlr, main_tie, vlr_tie, diou.max(axis=1)


def _mask_problems(label: str, got, want, tie) -> list[str]:
    bad = np.flatnonzero((np.asarray(got, dtype=bool) != want) & ~tie)
    if bad.size:
        return [f"{label}: {bad.size} anchors disagree with the oracle (first {bad[:5].tolist()})"]
    return []


# ---------------------------------------------------------------------------
# assign
# ---------------------------------------------------------------------------

def check_assign_scene(scene: dict, alpha_pos: float, gamma: float) -> list[str]:
    """One scene: masks, best DIoU, fold and unfold against the oracle."""
    anchors, gts = scene["anchors"], scene["gts"]
    n_loc, per_loc = int(scene["n_locations"]), int(scene["anchors_per_location"])
    problems = []
    if anchors.shape != (n_loc * per_loc, 4):
        return [f"anchors have shape {anchors.shape}, expected ({n_loc * per_loc}, 4)"]
    if not np.array_equal(scene["unfolded"], anchors):
        problems.append("unfold_anchors changed the anchors or their order")
    if not np.array_equal(scene["location_index"], np.repeat(np.arange(n_loc), per_loc)):
        problems.append("unfold_anchors location index is not location-major")
    main, vlr, main_tie, vlr_tie, best = oracle_regions(anchors, gts, alpha_pos, gamma)
    problems += _mask_problems("main", scene["main"], main, main_tie)
    problems += _mask_problems("vlr", scene["vlr"], vlr, vlr_tie)
    if not main.any() or not vlr.any():
        problems.append(f"scene is vacuous: {int(main.sum())} main, {int(vlr.sum())} vlr anchors")
    if np.any(np.asarray(scene["main"], bool) & np.asarray(scene["vlr"], bool)):
        problems.append("an anchor is both main and vlr")
    err = np.abs(np.asarray(scene["best_diou"]) - best)
    if not np.all(err <= 1e-12):
        problems.append(f"best DIoU off the oracle by up to {float(np.nanmax(err)):.3g}")
    loc = np.repeat(np.arange(n_loc), per_loc)
    for name, flags in (("main", scene["main"]), ("vlr", scene["vlr"])):
        want = np.zeros(n_loc, dtype=bool)
        np.logical_or.at(want, loc, np.asarray(flags, dtype=bool))
        if not np.array_equal(scene[f"folded_{name}"], want):
            problems.append(f"fold_membership({name}) does not OR the anchors of each location")
    return problems


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# Checks scored as operations, with the recorded error that gates each one.
# ``rescaling_monte_carlo`` is left out: its 3-standard-error gate fails on
# some seeds of the current program (see the README), so it would make the
# failed share depend on the seed.
CERT_CHECKS = {
    "proposition1": ("proposition1_max_err", PROPOSITION1_TOL),
    "decomposition_residual": ("decomposition_max_residual", DECOMPOSITION_TOL),
    "decomposition_rank": ("decomposition_rank_ok", None),
    "rescaling_exact": ("rescaling_abs_err", RESCALING_TOL),
}


def certify_failures(cert: dict) -> int:
    """Scored checks the certificate reports as failed."""
    checks = cert.get("checks", {})
    return sum(1 for name in CERT_CHECKS if not checks.get(name, False))


def check_certificate(cert: dict, exit_code: int) -> list[str]:
    """Recorded errors against the tolerances, and the exit status against the flags."""
    problems = []
    checks = cert.get("checks")
    if not isinstance(checks, dict) or not checks:
        return ["certificate has no checks"]
    for name, (field, tol) in CERT_CHECKS.items():
        if name not in checks:
            problems.append(f"certificate lacks check {name}")
            continue
        value = cert.get(field)
        if tol is None:
            holds = value is True
        else:
            holds = isinstance(value, (int, float)) and math.isfinite(value) and 0 <= value <= tol
        if checks[name] and not holds:
            problems.append(f"{name} passed with {field}={value!r} outside tolerance {tol}")
    if cert.get("all_passed") != all(checks.values()):
        problems.append("all_passed disagrees with the individual checks")
    if exit_code != (0 if all(checks.values()) else 1):
        problems.append(f"verify exited {exit_code} with checks {checks}")
    return problems


def check_negative_control(cert: dict, exit_code: int, message: str) -> list[str]:
    """An injected gradient error must fail proposition1 and exit 1 naming it."""
    problems = []
    if exit_code != 1:
        problems.append(f"negative control exited {exit_code}, expected 1")
    if "proposition1" not in message:
        problems.append("negative control failure message does not name proposition1")
    if cert.get("checks", {}).get("proposition1", True):
        problems.append("negative control certificate still passes proposition1")
    return problems


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _read_trace(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def _check_trace(path: Path, scheme: str, epochs: int) -> list[str]:
    header, values = _read_trace(path)
    if tuple(header) != TRACE_COLUMNS:
        return [f"{path.name}: header {header}"]
    if values.shape != (epochs, len(TRACE_COLUMNS)):
        return [f"{path.name}: {values.shape[0]} rows, expected {epochs}"]
    if not np.all(np.isfinite(values)):
        return [f"{path.name}: non-finite trace values"]
    col = {name: values[:, k] for k, name in enumerate(TRACE_COLUMNS)}
    problems = []
    if not col["total"][-1] < col["total"][0]:
        problems.append(f"{path.name}: total did not decrease ({col['total'][0]} -> {col['total'][-1]})")
    if scheme == "baseline":
        parts = col["L_cls"] + col["L_reg"] + col["L_DFL"]
        if not np.allclose(col["total"], parts, rtol=1e-12, atol=1e-15):
            problems.append(f"{path.name}: total != L_cls + L_reg + L_DFL")
        if np.any(np.stack([col[c] for c in DISTILL_COLUMNS]) != 0.0):
            problems.append(f"{path.name}: baseline carries distillation terms")
    return problems


def _read_metrics(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["scheme", "seed", "metric", "value"]:
        raise ValueError(f"metrics.csv header {rows[0]}")
    out: dict = {}
    for scheme, seed, metric, value in rows[1:]:
        out.setdefault(scheme, {}).setdefault(metric, {})[seed] = float(value)
    return out


def _check_metrics(tree: Path, schemes, seeds) -> list[str]:
    metrics = _read_metrics(tree / "metrics.csv")
    problems = []
    missing = [(s, k) for s in schemes for k in seeds
               if str(k) not in metrics.get(s, {}).get("kl_box", {})]
    if missing:
        return [f"metrics.csv lacks cells {missing}"]
    for k in map(str, seeds):
        kl_base = metrics["baseline"]["kl_box"][k]
        kl_ld = metrics["ld_main_vlr"]["kl_box"][k]
        if not kl_ld < kl_base:
            problems.append(f"seed {k}: kl_box(ld_main_vlr) {kl_ld} >= kl_box(baseline) {kl_base}")
        r_fi = metrics["feature_imitation"]["pearson_features"][k]
        r_sel = metrics["selective"]["pearson_features"][k]
        if not r_fi > r_sel:
            problems.append(f"seed {k}: pearson_features(feature_imitation) {r_fi} <= selective {r_sel}")
    with open(tree / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    for scheme, by_metric in metrics.items():
        for metric, per_seed in by_metric.items():
            entry = summary.get(scheme, {}).get(metric)
            if entry is None or entry.get("per_seed") != per_seed:
                problems.append(f"summary.json {scheme}.{metric} per-seed values differ from metrics.csv")
                continue
            mean = sum(per_seed.values()) / len(per_seed)
            if not math.isclose(entry.get("mean", math.nan), mean, rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"summary.json {scheme}.{metric} mean {entry.get('mean')} != {mean}")
    return problems


def _check_dataset(path: Path, n_samples: int, alpha_pos: float, gamma: float) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        samples = [json.loads(line) for line in fh if line.strip()]
    if len(samples) != n_samples:
        return [f"{path.name}: {len(samples)} samples, expected {n_samples}"]
    problems = []
    got_main = np.array([s["main"] for s in samples], dtype=bool)
    got_vlr = np.array([s["vlr"] for s in samples], dtype=bool)
    want_main = np.empty(n_samples, dtype=bool)
    want_vlr = np.empty(n_samples, dtype=bool)
    tie_main = np.empty(n_samples, dtype=bool)
    tie_vlr = np.empty(n_samples, dtype=bool)
    for i, s in enumerate(samples):
        m, v, tm, tv, _ = oracle_regions([s["anchor_box"]], [s["gt_box"]], alpha_pos, gamma)
        want_main[i], want_vlr[i], tie_main[i], tie_vlr[i] = m[0], v[0], tm[0], tv[0]
    problems += _mask_problems(f"{path.name} main", got_main, want_main, tie_main)
    problems += _mask_problems(f"{path.name} vlr", got_vlr, want_vlr, tie_vlr)
    if not want_main.any() or not want_vlr.any():
        problems.append(f"{path.name}: no main or no vlr samples to check")
    return problems


def check_experiment_tree(tree, config: dict) -> list[str]:
    """Per-seed properties of an ``experiment`` output directory.

    ``config`` holds the resolved run settings: ``schemes``, ``seeds``,
    ``epochs``, ``n_train``, ``n_heldout``, ``alpha_pos`` and ``gamma_vlr``.
    """
    tree = Path(tree)
    schemes, seeds = config["schemes"], config["seeds"]
    for needed in ("baseline", "ld_main_vlr", "selective", "feature_imitation"):
        if needed not in schemes:
            return [f"scheme {needed} is required by the property checks"]
    expected = ["metrics.csv", "summary.json"]
    expected += [f"trace_{s}_seed{k}.csv" for s in schemes for k in seeds]
    expected += [f"datasets/seed{k}_{split}.jsonl" for k in seeds for split in ("train", "heldout")]
    missing = [name for name in expected if not (tree / name).is_file()]
    if missing:
        return [f"missing outputs: {missing}"]
    problems = []
    for s in schemes:
        for k in seeds:
            problems += _check_trace(tree / f"trace_{s}_seed{k}.csv", s, config["epochs"])
    problems += _check_metrics(tree, schemes, seeds)
    for k in seeds:
        for split, n in (("train", config["n_train"]), ("heldout", config["n_heldout"])):
            problems += _check_dataset(tree / f"datasets/seed{k}_{split}.jsonl", n,
                                       config["alpha_pos"], config["gamma_vlr"])
    return problems


def check_same_tree(a, b) -> list[str]:
    """Byte-for-byte equality of two output directories."""
    a, b = Path(a), Path(b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"output trees list different files: {sorted(set(files_a) ^ set(files_b))}"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, [str(p) for p in files_a], shallow=False)
    if mismatch or errors:
        return [f"files differ between worker counts: {mismatch + errors}"]
    return []

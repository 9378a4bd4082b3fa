"""Self-tests for the benchmark's output checkers.

    python3 perfbench/selftest.py      (from the repository root)

Each checker must accept a valid output and reject the same output with one
deliberate corruption, so no check can pass vacuously. Valid ``assign`` and
``certify`` outputs come from small real runs of locdistill; the
``experiment`` tree is written here by hand, with region bits worked out on
paper, because the properties checked need the full training run.
Exits 0 when every case behaves.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
from child import scene_arrays  # noqa: E402

ALPHA, GAMMA = 0.5, 0.25
FAILURES: list[str] = []


def expect(name: str, problems: list[str], should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {problems[0]}" if problems else ""))
    if not ok:
        FAILURES.append(name)


# ---------------------------------------------------------------------------
# assign: one real scene, then single corruptions of its outputs
# ---------------------------------------------------------------------------

def real_scene() -> dict:
    from locdistill import (BoundingBox, compute_region_masks, diou_matrix,
                            fold_membership, unfold_anchors)

    anchors, gts = scene_arrays(seed=7, round_index=0)
    anchors, k = anchors[:300], 3  # the first 100 locations keep it quick
    per_location = [[BoundingBox(*row) for row in anchors[i:i + k]]
                    for i in range(0, len(anchors), k)]
    gts = np.concatenate([gts, anchors[[4, 150]] + 0.2])  # GTs near these anchors
    gt_boxes = [BoundingBox(*row) for row in gts]
    unfolded = unfold_anchors(per_location)
    flat = list(unfolded.anchors)
    masks = compute_region_masks(flat, gt_boxes, ALPHA, GAMMA)
    return {
        "anchors": anchors, "gts": gts,
        "unfolded": np.array([b.to_list() for b in flat]),
        "location_index": unfolded.location_index,
        "main": masks.main.copy(), "vlr": masks.vlr.copy(),
        "best_diou": diou_matrix(flat, gt_boxes).max(axis=1),
        "folded_main": fold_membership(unfolded, masks.main),
        "folded_vlr": fold_membership(unfolded, masks.vlr),
        "n_locations": len(per_location), "anchors_per_location": k,
    }


def test_assign() -> None:
    valid = real_scene()
    expect("assign: real scene accepted", checks.check_assign_scene(valid, ALPHA, GAMMA), False)

    def corrupt(name, **changes):
        scene = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in valid.items()}
        for key, fn in changes.items():
            scene[key] = fn(scene[key])
        expect(f"assign: {name} rejected", checks.check_assign_scene(scene, ALPHA, GAMMA), True)

    def flip_first(flags, where):
        flags = flags.copy()
        i = int(np.flatnonzero(where)[0])
        flags[i] = not flags[i]
        return flags

    corrupt("one flipped VLR bit", vlr=lambda v: flip_first(v, v))
    corrupt("one flipped main bit", main=lambda m: flip_first(m, m))
    corrupt("best DIoU off by 1e-6", best_diou=lambda b: b + np.where(np.arange(b.size) == 3, 1e-6, 0))
    corrupt("one flipped folded bit", folded_vlr=lambda f: flip_first(f, np.ones_like(f)))
    corrupt("location index out of order", location_index=lambda x: x[::-1].copy())
    corrupt("unfolded anchors reordered", unfolded=lambda u: u[::-1].copy())
    far = valid["gts"] + 1e3
    empty = np.zeros_like(valid["main"])
    corrupt("scene with no main or VLR anchors", gts=lambda _: far, main=lambda _: empty,
            vlr=lambda _: empty, folded_main=lambda f: np.zeros_like(f),
            folded_vlr=lambda f: np.zeros_like(f),
            best_diou=lambda _: checks.oracle_regions(valid["anchors"], far, ALPHA, GAMMA)[4])


# ---------------------------------------------------------------------------
# certify: a real fast certificate and a real negative control
# ---------------------------------------------------------------------------

FAST_VERIFY = ["--set", "verify.trials=60", "--set", "verify.mc_trials=4000",
               "--set", "verify.mc_instances=1"]


def verify(tmp: Path, *extra: str) -> tuple[dict, int, str]:
    import contextlib
    import io

    from locdistill.cli import main as cli_main

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["-o", str(tmp), *FAST_VERIFY, *extra, "verify"])
    return json.loads((tmp / "certificate.json").read_text()), code, err.getvalue()


def test_certify(tmp: Path) -> None:
    cert, code, _ = verify(tmp / "good")
    expect("certify: real certificate accepted", checks.check_certificate(cert, code), False)
    expect("certify: no scored failures counted", [] if checks.certify_failures(cert) == 0
           else ["counted a failure"], False)

    def corrupt(name, code=code, **fields):
        bad = json.loads(json.dumps(cert))
        for key, value in fields.items():
            if key in bad["checks"]:
                bad["checks"][key] = value
            else:
                bad[key] = value
        expect(f"certify: {name} rejected", checks.check_certificate(bad, code), True)

    corrupt("proposition1 error above tolerance", proposition1_max_err=1e-9)
    corrupt("decomposition residual above tolerance", decomposition_max_residual=1e-6)
    corrupt("rescaling error above tolerance", rescaling_abs_err=float("nan"))
    corrupt("rank flag passing a failed rank", decomposition_rank_ok=False)
    corrupt("nonzero exit with every check passing", code=1)
    corrupt("all_passed disagreeing with the checks", all_passed=False)
    failing = json.loads(json.dumps(cert))
    failing["checks"]["decomposition_rank"] = False
    expect("certify: failed check counted", [] if checks.certify_failures(failing) == 1
           else ["miscounted"], False)

    neg, neg_code, message = verify(tmp / "negative", "--set", "verify.inject_error=1e-6")
    expect("certify: real negative control accepted",
           checks.check_negative_control(neg, neg_code, message), False)
    expect("certify: negative control exiting 0 rejected",
           checks.check_negative_control(neg, 0, message), True)
    expect("certify: negative control not naming proposition1 rejected",
           checks.check_negative_control(neg, neg_code, "verification failed"), True)
    expect("certify: negative control with a passing certificate rejected",
           checks.check_negative_control(cert, neg_code, message), True)


# ---------------------------------------------------------------------------
# experiment: a hand-written tree that has every checked property
# ---------------------------------------------------------------------------

CONFIG = {"schemes": ["baseline", "ld_main_vlr", "selective", "feature_imitation"],
          "seeds": [0, 1], "epochs": 3, "n_train": 3, "n_heldout": 3,
          "alpha_pos": ALPHA, "gamma_vlr": GAMMA}
ANCHOR = [-2.0, -2.0, 2.0, 2.0]
# (gt box, main, vlr) against ANCHOR: identical box IoU 1; shifted by 2,
# IoU 1/3 and DIoU 1/3 - 4/52 inside [0.125, 0.5]; shifted by 10, IoU 0.
SAMPLES = [([-2.0, -2.0, 2.0, 2.0], 1, 0), ([0.0, -2.0, 4.0, 2.0], 0, 1),
           ([8.0, -2.0, 12.0, 2.0], 0, 0)]
KL_BOX = {"baseline": 1.0, "ld_main_vlr": 0.02, "selective": 0.03, "feature_imitation": 0.9}
PEARSON = {"baseline": 0.1, "ld_main_vlr": 0.1, "selective": 0.0, "feature_imitation": 0.99}


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def fake_tree(root: Path) -> Path:
    root.mkdir(parents=True)
    (root / "datasets").mkdir()
    metrics, summary = [], {}
    for scheme in CONFIG["schemes"]:
        for seed in CONFIG["seeds"]:
            rows = []
            for step in range(CONFIG["epochs"]):
                cls, reg, dfl = 0.7 - 0.1 * step, 0.5 - 0.1 * step, 2.0 - 0.2 * step
                ld = 0.0 if scheme == "baseline" else 0.05 - 0.01 * step
                rows.append([step, cls, reg, dfl, ld, ld, 0.0, 0.0, cls + reg + dfl + 2 * ld])
            write_csv(root / f"trace_{scheme}_seed{seed}.csv", checks.TRACE_COLUMNS, rows)
            values = {"mae_edges": 0.2, "kl_box": KL_BOX[scheme], "kl_cls": 0.01,
                      "pearson_features": PEARSON[scheme], "pearson_box_logits": 0.9,
                      "flatness": 1.1 + seed}
            for metric, value in values.items():
                metrics.append((scheme, seed, metric, value))
                entry = summary.setdefault(scheme, {}).setdefault(metric, {"per_seed": {}})
                entry["per_seed"][str(seed)] = value
    for scheme in summary.values():
        for entry in scheme.values():
            entry["mean"] = sum(entry["per_seed"].values()) / len(entry["per_seed"])
    write_csv(root / "metrics.csv", ("scheme", "seed", "metric", "value"), metrics)
    (root / "summary.json").write_text(json.dumps(summary))
    for seed in CONFIG["seeds"]:
        for split in ("train", "heldout"):
            lines = [json.dumps({"anchor_box": ANCHOR, "gt_box": gt, "main": m, "vlr": v})
                     for gt, m, v in SAMPLES]
            (root / f"datasets/seed{seed}_{split}.jsonl").write_text("\n".join(lines) + "\n")
    return root


def edit_csv(path: Path, row: int, col: str, value) -> None:
    rows = read_csv(path)
    rows[row][rows[0].index(col)] = str(value)
    write_csv(path, rows[0], rows[1:])


def edit_metric(tree: Path, scheme: str, metric: str, value: float) -> None:
    rows = read_csv(tree / "metrics.csv")
    for row in rows[1:]:
        if row[0] == scheme and row[1] == "0" and row[2] == metric:
            row[3] = str(value)
    write_csv(tree / "metrics.csv", rows[0], rows[1:])
    summary = json.loads((tree / "summary.json").read_text())
    entry = summary[scheme][metric]
    entry["per_seed"]["0"] = value
    entry["mean"] = sum(entry["per_seed"].values()) / len(entry["per_seed"])
    (tree / "summary.json").write_text(json.dumps(summary))


def flip_vlr(tree: Path) -> None:
    path = tree / "datasets/seed1_train.jsonl"
    lines = path.read_text().splitlines()
    sample = json.loads(lines[1])
    sample["vlr"] = 1 - sample["vlr"]
    lines[1] = json.dumps(sample)
    path.write_text("\n".join(lines) + "\n")


def edit_summary_mean(tree: Path) -> None:
    summary = json.loads((tree / "summary.json").read_text())
    summary["baseline"]["mae_edges"]["mean"] += 1e-9
    (tree / "summary.json").write_text(json.dumps(summary))


def flip_byte(tree: Path) -> None:
    path = tree / "metrics.csv"
    data = bytearray(path.read_bytes())
    data[-3] ^= 1
    path.write_bytes(bytes(data))


EXPERIMENT_CORRUPTIONS = {
    "NaN in a trace": lambda t: edit_csv(t / "trace_ld_main_vlr_seed1.csv", 2, "L_reg", "nan"),
    "one flipped VLR bit in a dataset": flip_vlr,
    "total rising over training": lambda t: edit_csv(t / "trace_selective_seed0.csv", 3, "total", 99.0),
    "baseline carrying an LD term": lambda t: edit_csv(t / "trace_baseline_seed1.csv", 2, "LD_main", 0.01),
    "baseline total not the sum of its parts": lambda t: edit_csv(
        t / "trace_baseline_seed0.csv", 3, "total", 2.2),
    "LD KL above baseline": lambda t: edit_metric(t, "ld_main_vlr", "kl_box", 2.0),
    "feature imitation correlating less than selective": lambda t: edit_metric(
        t, "feature_imitation", "pearson_features", -0.5),
    "summary mean off metrics.csv": edit_summary_mean,
    "missing trace file": lambda t: (t / "trace_baseline_seed1.csv").unlink(),
    "missing dataset sample": lambda t: (t / "datasets/seed0_heldout.jsonl").write_text(
        (t / "datasets/seed0_heldout.jsonl").read_text().split("\n", 1)[1]),
}


def test_experiment(tmp: Path) -> None:
    good = fake_tree(tmp / "good")
    expect("experiment: valid tree accepted", checks.check_experiment_tree(good, CONFIG), False)
    for k, (name, corrupt) in enumerate(EXPERIMENT_CORRUPTIONS.items()):
        tree = tmp / f"bad{k}"
        shutil.copytree(good, tree)
        corrupt(tree)
        expect(f"experiment: {name} rejected", checks.check_experiment_tree(tree, CONFIG), True)
    twin = tmp / "twin"
    shutil.copytree(good, twin)
    expect("experiment: identical trees accepted", checks.check_same_tree(good, twin), False)
    flip_byte(twin)
    expect("experiment: trees differing in one byte rejected", checks.check_same_tree(good, twin), True)
    (twin / "extra.csv").write_text("")
    expect("experiment: tree with an extra file rejected", checks.check_same_tree(good, twin), True)


def main() -> int:
    scratch = Path.cwd() / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp = Path(tmp)
        test_assign()
        test_certify(tmp / "certify")
        test_experiment(tmp / "experiment")
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

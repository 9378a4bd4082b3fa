"""One workload process: set-up, timed rounds, and a result file.

``run.py`` starts this script in a fresh interpreter for every measured run.
Set-up is interpreter start, ``import locdistill`` and building the run
config from ``configs/default.yaml``; it ends at the ``ready`` timestamp
(``time.monotonic``, which every process on the host shares). The script
then repeats whole rounds of the workload until the timed work adds up to
``--seconds``, and writes per-round wall and CPU times plus what the checks
need to ``--result``. Nothing is checked here: ``run.py`` checks the
outputs this process leaves behind.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

CONFIG = "configs/default.yaml"
SCENE_TAG = 0xA551

# Dense assignment scene: a jittered grid of locations, several square
# anchors per location, and tens of ground-truth boxes (sizes fixed, so every
# seed does the same amount of work).
GRID_SIDE = 32
LOCATION_PITCH = 1.6
ANCHOR_HALF_SIZES = (1.5, 2.25, 3.375)
N_GTS = 24
GT_HALF_RANGE = (1.2, 3.5)


# Training length of the experiment workloads: a tenth of the default 600
# student and 900 teacher epochs. A default-length round takes 17 s, so a run
# could time it once, and one reading on the shared host drifts by a quarter;
# at a tenth, a run times several rounds. Each step is the default step
# (A=192 anchors, every scheme, the same model sizes).
EXPERIMENT_EPOCHS = ("harness.epochs=60", "harness.teacher_epochs=90")


def experiment_seeds(seed: int, workload: str) -> list[int]:
    """Experiment seeds of a benchmark seed: two for ``experiment`` and the
    first of them for ``experiment-2w``, whose two-worker pool takes about four
    times as long per cell."""
    seeds = [2 * seed, 2 * seed + 1]
    return seeds[:1] if workload == "experiment-2w" else seeds


def scene_arrays(seed: int, round_index: int):
    """Anchors ``(L*K, 4)`` in location-major order and gts ``(G, 4)``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, SCENE_TAG, round_index)))
    side = GRID_SIDE * LOCATION_PITCH
    ticks = (np.arange(GRID_SIDE) + 0.5) * LOCATION_PITCH - side / 2
    px, py = (g.ravel() for g in np.meshgrid(ticks, ticks, indexing="ij"))
    px = px + rng.uniform(-0.3, 0.3, px.size)
    py = py + rng.uniform(-0.3, 0.3, py.size)
    half = np.asarray(ANCHOR_HALF_SIZES)
    anchors = np.stack([px[:, None] - half, py[:, None] - half,
                        px[:, None] + half, py[:, None] + half], axis=-1).reshape(-1, 4)
    c = rng.uniform(-side / 2, side / 2, (N_GTS, 2))
    h = rng.uniform(*GT_HALF_RANGE, (N_GTS, 2))
    gts = np.concatenate([c - h, c + h], axis=1)
    return anchors, gts


def _train_probe() -> None:
    """Training steps in numpy at A=192, BLAS matmuls included, then
    sample-by-sample Python as in data generation and saving, in about the
    shares of a serial experiment round."""
    rng = np.random.default_rng(0)
    x, w1, w2 = (rng.standard_normal(shape) for shape in ((192, 64), (48, 64), (36, 48)))
    for _ in range(900):
        z = ((x @ w1.T) @ w2.T).reshape(192, 4, 9)
        p = np.exp(z - z.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        w1 - 1e-3 * (((p - 0.1).reshape(192, 36) @ w2).T @ x)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((192, 64))
    for _ in range(4):
        samples = [{"features": [float(v) for v in row], "box": [rng.uniform(), 1.0, 2.0, 3.0]}
                   for row in x]
        json.dumps(samples)


def _cert_probe() -> None:
    rng = np.random.default_rng(0)
    for _ in range(6_000):
        s = rng.dirichlet(np.ones(9))
        z = 10.0 * np.log(s)
        q = np.exp(z / 7.0 - (z / 7.0).max())
        np.abs(q / q.sum() - s).max()
    for _ in range(600):
        np.linalg.pinv(rng.standard_normal((11, 18)))


def _pairs_probe() -> None:
    corners = np.sort(np.random.default_rng(0).uniform(0, 10, (300, 2, 2)), axis=1)
    boxes = [(x1, y1, x2, y2) for (x1, y1), (x2, y2) in corners.tolist()]
    for a in boxes + boxes:
        for b in boxes:
            iw = min(a[2], b[2]) - max(a[0], b[0])
            ih = min(a[3], b[3]) - max(a[1], b[1])
            inter = iw * ih if iw > 0 and ih > 0 else 0.0
            inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


PROBES = {"train": _train_probe, "cert": _cert_probe, "pairs": _pairs_probe}
# The probe of each workload's kind of work. Set-up (imports, mostly Python)
# is scaled by the pairs probe.
WORKLOAD_PROBE = {"experiment": "train", "experiment-2w": "train",
                  "certify": "cert", "assign": "pairs"}
SETUP_PROBE = "pairs"


def probe(kind: str) -> float:
    """Seconds a fixed kernel of one kind of work takes now.

    Timed right after set-up, before the first round and after every round,
    it reads the host's current speed, which other tenants move by a quarter
    within a minute.
    """
    t0 = time.perf_counter()
    PROBES[kind]()
    return time.perf_counter() - t0


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _cli_round(cli, argv: list[str]) -> dict:
    return {"exit_code": cli.main(argv)}


class Experiment:
    def __init__(self, cli, args, threads: int) -> None:
        self.cli, self.args, self.threads = cli, args, threads
        self.seeds = experiment_seeds(args.seed, args.workload)
        self.overrides = [*EXPERIMENT_EPOCHS,
                          f"experiment.seeds=[{', '.join(map(str, self.seeds))}]"]
        cfg = cli.load_run_config(CONFIG, self.overrides, _flags(threads=threads))
        h = cfg.harness
        cells = len(cfg.experiment.schemes) * len(self.seeds)
        self.ops_per_round = cells
        self.items_per_round = len(self.seeds) * h.teacher_epochs + cells * h.epochs
        self.config = {
            "schemes": list(cfg.experiment.schemes), "seeds": self.seeds,
            "epochs": h.epochs, "n_train": h.n_train, "n_heldout": h.n_heldout,
            "alpha_pos": cfg.distill.alpha_pos, "gamma_vlr": cfg.distill.gamma_vlr,
            "threads": threads, "overrides": self.overrides,
        }

    def prepare(self, r: int):
        return None

    def run(self, r: int, _inputs) -> dict:
        argv = ["--config", CONFIG, "-o", str(self.args.out / f"round{r}"),
                "--threads", str(self.threads)]
        for item in self.overrides:
            argv += ["--set", item]
        return _cli_round(self.cli, argv + ["experiment"]), None

    def record(self, r: int, _outputs) -> None:
        pass


class Certify:
    def __init__(self, cli, args) -> None:
        self.cli, self.args = cli, args
        v = cli.load_run_config(CONFIG, [], _flags(seed=args.seed)).verify
        self.ops_per_round = 4  # scored checks, see checks.CERT_CHECKS
        self.items_per_round = 3 * v.trials + v.mc_instances
        self.config = {}

    def prepare(self, r: int):
        return None

    def run(self, r: int, _inputs) -> dict:
        argv = ["--config", CONFIG, "-o", str(self.args.out / f"round{r}"),
                "--seed", str(self.args.seed), "verify"]
        return _cli_round(self.cli, argv), None

    def record(self, r: int, _outputs) -> None:
        pass


class Assign:
    def __init__(self, cli, args) -> None:
        from locdistill import (BoundingBox, compute_region_masks, diou_matrix,
                                fold_membership, unfold_anchors)

        self.args = args
        self.box = BoundingBox
        self.fns = (unfold_anchors, compute_region_masks, diou_matrix, fold_membership)
        cfg = cli.load_run_config(CONFIG, [], _flags())
        self.alpha_pos, self.gamma = cfg.distill.alpha_pos, cfg.distill.gamma_vlr
        self.n_locations = GRID_SIDE * GRID_SIDE
        self.per_location = len(ANCHOR_HALF_SIZES)
        self.ops_per_round = 1
        self.items_per_round = self.n_locations * self.per_location * N_GTS
        self.config = {"alpha_pos": self.alpha_pos, "gamma_vlr": self.gamma}
        self.args.out.mkdir(parents=True, exist_ok=True)

    def prepare(self, r: int):
        anchors, gts = scene_arrays(self.args.seed, r)
        k = self.per_location
        per_location = [[self.box(*row) for row in anchors[i:i + k]]
                        for i in range(0, len(anchors), k)]
        return anchors, gts, per_location, [self.box(*row) for row in gts]

    def run(self, r: int, inputs) -> dict:
        unfold_anchors, compute_region_masks, diou_matrix, fold_membership = self.fns
        anchors, gts, per_location, gt_boxes = inputs
        unfolded = unfold_anchors(per_location)
        flat = list(unfolded.anchors)
        masks = compute_region_masks(flat, gt_boxes, self.alpha_pos, self.gamma)
        best = diou_matrix(flat, gt_boxes).max(axis=1)
        folded_main = fold_membership(unfolded, masks.main)
        folded_vlr = fold_membership(unfolded, masks.vlr)
        return {"exit_code": 0}, (anchors, gts, unfolded, masks, best, folded_main, folded_vlr)

    def record(self, r: int, outputs) -> None:
        anchors, gts, unfolded, masks, best, folded_main, folded_vlr = outputs
        np.savez(
            self.args.out / f"scene{r}.npz", anchors=anchors, gts=gts,
            unfolded=np.array([b.to_list() for b in unfolded.anchors]),
            location_index=unfolded.location_index, main=masks.main, vlr=masks.vlr,
            best_diou=best, folded_main=folded_main, folded_vlr=folded_vlr,
            n_locations=self.n_locations, anchors_per_location=self.per_location)


def _flags(seed=None, threads=None):
    return argparse.Namespace(seed=seed, output_dir=None, threads=threads)


def _build(cli, args):
    if args.workload == "experiment":
        return Experiment(cli, args, threads=1)
    if args.workload == "experiment-2w":
        return Experiment(cli, args, threads=2)
    if args.workload == "certify":
        return Certify(cli, args)
    return Assign(cli, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("experiment", "experiment-2w", "certify", "assign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import locdistill.cli as cli

    workload = _build(cli, args)
    ready = time.monotonic()
    result = {"ready": ready, "setup_probe": probe(SETUP_PROBE)}
    if not args.setup_only:
        kind = WORKLOAD_PROBE[args.workload]
        rounds = []
        timed = 0.0
        before = probe(kind)
        while timed < args.seconds:
            r = len(rounds)
            inputs = workload.prepare(r)
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                outcome, outputs = workload.run(r, inputs)
            except Exception:  # the round failed; run.py counts its operations as failed
                traceback.print_exc()
                outcome, outputs = {"exit_code": None}, None
            wall = time.perf_counter() - t0
            outcome.update(wall=wall, cpu=_cpu_seconds() - cpu0)
            after = probe(kind)
            outcome["probe"] = 0.5 * (before + after)
            before = after
            rounds.append(outcome)
            if outputs is None and outcome["exit_code"] is None:
                break
            workload.record(r, outputs)
            timed += wall
        result.update(rounds=rounds, ops_per_round=workload.ops_per_round,
                      items_per_round=workload.items_per_round,
                      config=workload.config)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""locdistill benchmark: four workloads, end-to-end metrics and per-layer traces.

Run from the repository root::

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each measured run starts ``perfbench/child.py`` in a fresh interpreter with
``src`` on ``PYTHONPATH`` and times it from outside; ``--trace 1`` adds a run
under the tracer in ``perfbench/tracehook`` and reports per-layer metrics
instead of end-to-end ones. The outputs of every run are checked (see
``checks.py``). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark sets no
BLAS or OpenMP thread variable: the program runs as users run it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE / "tracehook"))

import checks  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import pbtrace  # noqa: E402
from child import SETUP_PROBE, WORKLOAD_PROBE  # noqa: E402

WORKLOADS = ("experiment", "experiment-2w", "certify", "assign")
CONFIG = "configs/default.yaml"
SETUP_LAUNCHES = 7  # extra set-up-only interpreters per run, for a steady setup_s
RUN_DEADLINE_S = 170.0
# Probe seconds that define the reference speed, close to each probe's time
# on the host of the README's reference figures.
PROBE_REF_S = {"train": 0.31, "cert": 0.17, "pairs": 0.3}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# What one item of work is, per workload, for the ``items_per_s`` metric.
ITEM_NAMES = {
    "experiment": ("train_steps_per_s", "steps/s"),
    "experiment-2w": ("train_steps_per_s", "steps/s"),
    "certify": ("cert_instances_per_s", "instances/s"),
    "assign": ("pairs_per_s", "pairs/s"),
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("items_per_s", "items/s"))

PER_LAYER_UNITS = {
    ".calls": "count", ".s": "s", ".us_per_call": "us", ".step_ms": "ms",
    ".bytes": "bytes", "_per_seed": "per-seed", "_per_pair": "per-pair", "_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a failed check)."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


def child_env(trace_dir: Path | None) -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if trace_dir is not None:
        paths.insert(0, str(HERE / "tracehook"))
        env[pbtrace.ENV_TRACE_DIR] = str(trace_dir)
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def launch(cmd: list[str], env: dict, log: Path, deadline: Deadline):
    """Run one process group to completion; returns (launch time, exit code, rusage).

    The rusage of ``wait4`` covers the process and every descendant it waited
    for, such as pool workers.
    """
    limit = deadline.left()
    with open(log, "ab") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(limit, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return start, proc.returncode, usage


def run_child(workload: str, args, work: Path, tag: str, deadline: Deadline,
              trace_dir: Path | None = None, setup_only: bool = False) -> dict:
    result_path = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(work / tag), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    start, code, usage = launch(cmd, child_env(trace_dir), work / "log.txt", deadline)
    if code != 0 or not result_path.is_file():
        raise BenchError(f"{workload} process exited {code}; see {work / 'log.txt'}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - start
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def serial_reference(config: dict, work: Path, deadline: Deadline) -> Path:
    """The ``experiment`` command with one worker on the same seeds, untimed."""
    out = work / "serial-reference"
    cmd = [sys.executable, "-m", "locdistill", "--config", CONFIG, "-o", str(out), "--threads", "1"]
    for item in config["overrides"]:
        cmd += ["--set", item]
    cmd.append("experiment")
    _, code, _ = launch(cmd, child_env(None), work / "log.txt", deadline)
    if code != 0:
        raise BenchError(f"serial reference run exited {code}")
    return out


def negative_control(seed: int, work: Path, deadline: Deadline) -> list[str]:
    """``verify`` with a biased gradient, untimed: it must fail and name proposition1."""
    out = work / "negative-control"
    log = work / "negative-control.txt"
    cmd = [sys.executable, "-m", "locdistill", "--config", CONFIG, "-o", str(out),
           "--seed", str(seed), "--set", "verify.inject_error=1e-6", "verify"]
    _, code, _ = launch(cmd, child_env(None), log, deadline)
    cert_path = out / "certificate.json"
    cert = json.loads(cert_path.read_text()) if cert_path.is_file() else {}
    return checks.check_negative_control(cert, code, log.read_text())


def check_run(workload: str, result: dict, out: Path, reference: Path | None) -> tuple[int, int, list[str]]:
    """Operations attempted and failed in one measured process, and check problems."""
    rounds = result["rounds"]
    per_round = result["ops_per_round"]
    attempted = per_round * len(rounds)
    failed = 0
    problems: list[str] = []
    for r, outcome in enumerate(rounds):
        if outcome["exit_code"] is None:
            failed += per_round
            continue
        if workload == "certify":
            cert = json.loads((out / f"round{r}" / "certificate.json").read_text())
            failed += checks.certify_failures(cert)
            problems += checks.check_certificate(cert, outcome["exit_code"])
        elif workload == "assign":
            with np.load(out / f"scene{r}.npz") as scene:
                problems += [f"scene {r}: {p}" for p in checks.check_assign_scene(
                    dict(scene), result["config"]["alpha_pos"], result["config"]["gamma_vlr"])]
        elif outcome["exit_code"] != 0:
            failed += per_round
        else:
            tree = out / f"round{r}"
            problems += checks.check_experiment_tree(tree, result["config"])
            if reference is not None:
                problems += checks.check_same_tree(tree, reference)
    return attempted, failed, problems


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and highest quarter."""
    values = sorted(values)
    k = len(values) // 4
    return statistics.fmean(values[k:len(values) - k])


def at_reference_speed(seconds: float, probe_s: float, kind: str) -> float:
    return seconds * PROBE_REF_S[kind] / probe_s


def end_to_end(workload: str, result: dict, setups: list[dict]) -> dict:
    """Times at reference speed: the median set-up and the interquartile
    mean of the rounds.

    Other tenants of the host slow it by up to a third, for seconds to
    minutes at a time. Each time is scaled by the probe timed next to it
    (``child.probe``) to the speed at which that probe takes ``PROBE_REF_S``.
    """
    kind = WORKLOAD_PROBE[workload]
    rounds = result["rounds"]
    wall = interquartile_mean([at_reference_speed(r["wall"], r["probe"], kind) for r in rounds])
    return {
        "setup_s": statistics.median(at_reference_speed(s["setup_s"], s["setup_probe"], SETUP_PROBE)
                                     for s in setups),
        "wall_s": wall,
        "cpu_s": interquartile_mean([at_reference_speed(r["cpu"], r["probe"], kind) for r in rounds]),
        "peak_rss_mb": result["peak_rss_mb"],
        "items_per_s": result["items_per_round"] / wall,
    }


def per_layer(traced: dict, untraced: dict, trace_dir: Path) -> dict:
    """Per-round layer totals from the trace files of every traced process."""
    spans, counts = pbtrace.read_trace(str(trace_dir))
    rounds = len(traced["rounds"])
    secs: dict[str, float] = {}
    calls: dict[str, int] = dict(counts)
    for name, start, end, *_ in spans:
        secs[name] = secs.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    def s(name):
        return secs.get(name, 0.0) / rounds

    def n(name):
        return calls.get(name, 0) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    cfg = traced["config"]
    seeds = len(cfg.get("seeds", ()))
    workers = cfg.get("threads", 0)

    def speed_free_wall(result):
        return interquartile_mean([r["wall"] / r["probe"] for r in result["rounds"]])

    return {
        "losses.total_loss.calls": n("losses.total_loss"),
        "losses.total_loss.s": s("losses.total_loss"),
        "losses.total_loss.us_per_call": 1e6 * ratio(s("losses.total_loss"), n("losses.total_loss")),
        "losses.scene_tbr_loss.s": s("losses.scene_tbr_loss"),
        "losses.feature_imitation_loss.s": s("losses.feature_imitation_loss"),
        "losses.kd_loss.calls": n("losses.kd_loss"),
        "losses.dfl_loss.s": s("losses.dfl_loss"),
        "harness.models.forward.calls": n("harness.models.forward"),
        "harness.models.forward.s": s("harness.models.forward"),
        "harness.experiments.train_teacher.calls": n("harness.experiments.train_teacher"),
        "harness.experiments.train_teacher.s": s("harness.experiments.train_teacher"),
        "harness.experiments.train.s": s("harness.experiments.train"),
        "harness.experiments.train.step_ms": 1e3 * ratio(
            s("harness.experiments.train"),
            n("harness.experiments.train") * cfg.get("epochs", 0)),
        "harness.experiments.evaluate.s": s("harness.experiments.evaluate"),
        "harness.experiments.teacher_fits_per_seed": ratio(
            n("harness.experiments.train_teacher"), seeds),
        "harness.data.gen_dataset.calls": n("harness.data.gen_dataset"),
        "harness.data.gen_dataset.s": s("harness.data.gen_dataset"),
        "harness.data.save_dataset.s": s("harness.data.save_dataset"),
        "harness.data.save_dataset.bytes": n("harness.data.save_dataset.bytes"),
        "harness.data.datasets_per_seed": ratio(n("harness.data.gen_dataset"), seeds),
        "cli.runner.s": s("cli.runner"),
        "cli.worker_busy_ratio": ratio(s("harness.experiments.run_cell"),
                                       s("cli.runner") * workers),
        "theory.certify_proposition1.s": s("theory.certify_proposition1"),
        "theory.certify_decomposition.s": s("theory.certify_decomposition"),
        "theory.certify_rescaling.s": s("theory.certify_rescaling"),
        "regions.compute_region_masks.calls": n("regions.compute_region_masks"),
        "regions.compute_region_masks.s": s("regions.compute_region_masks"),
        "regions.assign_main.calls": n("regions.assign_main"),
        "regions.assign_vlr.calls": n("regions.assign_vlr"),
        "geometry.diou_matrix.s": s("geometry.diou_matrix"),
        "geometry.iou.calls": n("geometry.iou"),
        "geometry.diou.calls": n("geometry.diou"),
        "geometry.overlap_evals_per_pair": ratio(
            n("geometry.iou"), n("regions.compute_region_masks.pairs")),
        "trace.overhead_ratio": speed_free_wall(traced) / speed_free_wall(untraced),
    }


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in PER_LAYER_UNITS.items() if name.endswith(suffix))


def run_workload(workload: str, args) -> dict:
    """One workload: measured process(es), checks, and its metrics."""
    deadline = Deadline(RUN_DEADLINE_S)
    work = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        measured = run_child(workload, args, work, "run", deadline)
        reference = None
        if workload == "experiment-2w":
            reference = serial_reference(measured["config"], work, deadline)
        attempted, failed, problems = check_run(workload, measured, work / "run", reference)
        if workload == "certify":
            problems += negative_control(args.seed, work, deadline)
        if args.trace:
            trace_dir = work / "trace-files"
            trace_dir.mkdir()
            traced = run_child(workload, args, work, "traced", deadline, trace_dir=trace_dir)
            more = check_run(workload, traced, work / "traced", reference)
            attempted, failed, problems = (attempted + more[0], failed + more[1],
                                           problems + more[2])
            metrics = per_layer(traced, measured, trace_dir)
            units = {name: layer_unit(name) for name in metrics}
        else:
            setups = [measured]
            for k in range(SETUP_LAUNCHES):
                setups.append(run_child(workload, args, work, f"setup{k}", deadline,
                                        setup_only=True))
            metrics = end_to_end(workload, measured, setups)
            units = dict(END_TO_END)
    except BaseException:
        print(f"[{workload}] outputs kept in {work}", file=sys.stderr)
        raise
    # Outputs stay for diagnosis when a process (above) or a check failed.
    if not problems:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "problems": problems, "kept": str(work) if problems else None,
            "rounds": len(measured["rounds"]), "metrics": metrics, "units": units,
            "median_wall_s": statistics.median(r["wall"] for r in measured["rounds"]),
            "median_probe_s": statistics.median(r["probe"] for r in measured["rounds"])}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_sha": git_sha(),
        "seed": seed,
    }


def report(res: dict) -> None:
    w = res["workload"]
    status = "ok" if not res["problems"] else "CHECK FAILED"
    print(f"[{w}] rounds={res['rounds']} attempted={res['attempted']} "
          f"failed={res['failed']} checks={status}")
    for problem in res["problems"]:
        print(f"[{w}]   problem: {problem}")
    if res["kept"]:
        print(f"[{w}]   outputs kept in {res['kept']}")
    for name, value in res["metrics"].items():
        unit = res["units"][name]
        alias = ""
        if name == "items_per_s":
            alias_name, alias_unit = ITEM_NAMES[w]
            alias = f"  ({alias_name}, {alias_unit})"
        print(f"[{w}]   {name:<44s} {value:>16.6f} {unit}{alias}")
    print(f"[{w}]   clock: median round wall {res['median_wall_s']:.4f} s, "
          f"median probe {res['median_probe_s']:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        help="timed work per measured process (whole rounds, at least one); "
                             "default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "locdistill").is_dir() or not (ROOT / CONFIG).is_file():
        print("run from the repository root: src/locdistill and configs/ are missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    print("env " + json.dumps(environment(args.seed)))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args) for w in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res)
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": results[0]["units"][k]}
                   for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": r["units"][k]}
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

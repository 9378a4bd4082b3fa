"""Span and count recording around locdistill's public functions.

:func:`install` wraps each target function and rebinds every module-level
name in ``locdistill`` that refers to it, so a wrapper sits where each
calling module looks the name up (``regions.iou``, ``experiments.total_loss``,
...). Spanned targets record ``(name, start, end, id, parent)`` in memory;
per-pair functions are only counted. A process writes its records to
``<trace dir>/trace-<pid>.jsonl`` whenever its outermost span closes and at
interpreter exit: pool workers leave through ``os._exit``, which skips
``atexit``, so waiting for the exit would lose their spans. A forked child
starts with empty buffers; a spawned child installs the tracer itself
through ``sitecustomize``.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import time

ENV_TRACE_DIR = "PERFBENCH_TRACE_DIR"

# (module, attribute, layer name, kind). ``span`` targets are timed and
# counted; ``count`` targets are per-pair or cheap dispatchers, counted only.
TARGETS = (
    ("locdistill.losses", "total_loss", "losses.total_loss", "span"),
    ("locdistill.losses", "scene_tbr_loss", "losses.scene_tbr_loss", "span"),
    ("locdistill.losses", "feature_imitation_loss", "losses.feature_imitation_loss", "span"),
    ("locdistill.losses", "kd_loss", "losses.kd_loss", "span"),
    ("locdistill.losses", "dfl_loss", "losses.dfl_loss", "span"),
    ("locdistill.harness.models", "LinearLocalizer.forward", "harness.models.forward", "span"),
    ("locdistill.harness.experiments", "train_teacher", "harness.experiments.train_teacher", "span"),
    ("locdistill.harness.experiments", "train", "harness.experiments.train", "span"),
    ("locdistill.harness.experiments", "evaluate", "harness.experiments.evaluate", "span"),
    ("locdistill.harness.experiments", "run_cell", "harness.experiments.run_cell", "span"),
    ("locdistill.harness.data", "gen_dataset", "harness.data.gen_dataset", "span"),
    ("locdistill.harness.data", "save_dataset", "harness.data.save_dataset", "span"),
    ("locdistill.cli", "_collect_reports", "cli.runner", "span"),
    ("locdistill.theory", "certify_proposition1", "theory.certify_proposition1", "span"),
    ("locdistill.theory", "certify_decomposition", "theory.certify_decomposition", "span"),
    ("locdistill.theory", "certify_rescaling", "theory.certify_rescaling", "span"),
    ("locdistill.regions", "compute_region_masks", "regions.compute_region_masks", "span"),
    ("locdistill.regions", "assign_main", "regions.assign_main", "count"),
    ("locdistill.regions", "assign_vlr", "regions.assign_vlr", "count"),
    ("locdistill.geometry", "diou_matrix", "geometry.diou_matrix", "span"),
    ("locdistill.geometry", "iou", "geometry.iou", "count"),
    ("locdistill.geometry", "diou", "geometry.diou", "count"),
)


def _pairs(args, kwargs) -> int:
    anchors = kwargs.get("anchors", args[0] if args else ())
    gts = kwargs.get("gts", args[1] if len(args) > 1 else ())
    return len(anchors) * len(gts)


def _saved_bytes(args, kwargs) -> int:
    paths = [kwargs[k] for k in ("train_path", "heldout_path") if k in kwargs] or args[1:3]
    return sum(os.path.getsize(p) for p in paths)


# Extra counts taken from a call's arguments after it returns.
EXTRA = {
    "regions.compute_region_masks": ("regions.compute_region_masks.pairs", _pairs),
    "harness.data.save_dataset": ("harness.data.save_dataset.bytes", _saved_bytes),
}


class Recorder:
    """Per-process span buffer, open-span stack and counters."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Start empty; a forked child must not re-write its parent's records."""
        self.pid = os.getpid()
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.next_id = 0

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"trace-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": span}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")
        self.spans.clear()
        self.counts.clear()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def spanned(self, fn, name: str):
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((name, start, end, span_id, parent))
                if extra is not None:
                    self.count(extra[0], extra[1](args, kwargs))
                if not self.stack:
                    self.flush()

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts  # cleared in place, never replaced

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(old, new) -> None:
    """Point every ``locdistill`` module global bound to ``old`` at ``new``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "locdistill" or mod_name.startswith("locdistill."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def install(out_dir: str) -> Recorder:
    """Wrap every target; returns the process's recorder."""
    importlib.import_module("locdistill.cli")  # loads every module that calls a target
    rec = Recorder(out_dir)
    missing = []
    for mod_name, attr, name, kind in TARGETS:
        module = importlib.import_module(mod_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        fn = getattr(owner, fn_name, None)
        if fn is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = rec.spanned(fn, name) if kind == "span" else rec.counted(fn, name)
        if owner_name:
            setattr(owner, fn_name, wrapped)
        else:
            _rebind(fn, wrapped)
    if missing:
        print(f"perfbench trace: targets not found: {', '.join(missing)}", file=sys.stderr)
    os.register_at_fork(after_in_child=rec.reset)
    atexit.register(rec.flush)
    return rec


def install_from_env() -> Recorder | None:
    out_dir = os.environ.get(ENV_TRACE_DIR)
    return install(out_dir) if out_dir else None


def read_trace(trace_dir: str) -> tuple[list[tuple], dict[str, int]]:
    """All spans (with their pid) and summed counts written under ``trace_dir``."""
    spans: list[tuple] = []
    counts: dict[str, int] = {}
    for entry in sorted(os.listdir(trace_dir)):
        if not entry.startswith("trace-"):
            continue
        pid = int(entry[len("trace-"):-len(".jsonl")])
        with open(os.path.join(trace_dir, entry), encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if "span" in record:
                    spans.append((*record["span"], pid))
                else:
                    for name, n in record["counts"].items():
                        counts[name] = counts.get(name, 0) + n
    return spans, counts

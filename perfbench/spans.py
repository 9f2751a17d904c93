"""Span tracing for the benchmark's traced run.

The program has no spans of its own, so the tracer replaces the public
names that each consumer module calls (``mimosense.pipeline.extract_features``,
``mimosense.features.cp_als``, ``mimosense.nn.grad``, ...) with wrappers
that record a span per call: name, start, end and parent.  Spans stay in
memory, in flat arrays, and are written out once the run ends.  Self
time (a span's duration minus the part its children cover) is
accumulated as each span closes; the pipeline is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import itertools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

STAGES = ("featurize", "train_eval", "sweep", "control")
# Slot families of the 31 feature tensors, as in mimosense.features.
FAMILIES = (
    "window_amp",
    "time_corr_per_antenna",
    "freq_corr_per_antenna",
    "time_corr_per_subcarrier",
    "space_corr_per_subcarrier",
    "freq_corr_per_snapshot",
    "space_corr_per_snapshot",
)

# name -> (unit, better); the per-layer metrics of one traced round.
PER_LAYER = {
    "channel.simulate_s": ("s", "lower"),
    "tensor_io.load_s": ("s", "lower"),
    "tensor_io.read_mb": ("MB", "lower"),
    "preprocess.s": ("s", "lower"),
    "features.extract_calls": ("count", "lower"),
    "features.tensors_s": ("s", "lower"),
    "features.save_s": ("s", "lower"),
    "features.written_mb": ("MB", "lower"),
    "features.load_s": ("s", "lower"),
    "cp.calls": ("count", "lower"),
    "cp.sweeps": ("count", "lower"),
    "cp.converged": ("count", "higher"),
    "cp.s": ("s", "lower"),
    "cp.us_per_sweep": ("us", "lower"),
    **{f"cp.{family}.s": ("s", "lower") for family in FAMILIES},
    "cp.gflop": ("GFLOP", "lower"),
    "cp.gflop_per_s": ("GFLOP/s", "higher"),
    "tensor_ops.khatri_rao_s": ("s", "lower"),
    "nn.train_calls": ("count", "lower"),
    "nn.steps": ("count", "lower"),
    "nn.train_s": ("s", "lower"),
    "nn.us_per_step": ("us", "lower"),
    "nn.grad_s": ("s", "lower"),
    "nn.adam_s": ("s", "lower"),
    "nn.evaluate_s": ("s", "lower"),
    **{f"pipeline.{s}.self_s": ("s", "lower") for s in STAGES},
    "pipeline.files_written": ("count", "lower"),
    "pipeline.written_mb": ("MB", "lower"),
    "trace.pipeline_s": ("s", "lower"),
}

_MB = 1e6


class Tracer:
    """In-memory span recorder plus the call counters its hooks add."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple] = []

    def enter(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self._stack.append([len(self.start), 0.0])
        self.start.append(time.perf_counter())

    def exit(self) -> None:
        now = time.perf_counter()
        idx, covered = self._stack.pop()
        self.end[idx] = now
        duration = now - self.start[idx]
        self.self_s[idx] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, module, attr: str, name, after=None) -> None:
        """Record a span around every call of ``module.attr``.  ``name``
        is a string or a function returning one per call; ``after(args,
        result)`` runs once the span has closed."""
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name if isinstance(name, str) else name())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def totals(self, since: int = 0) -> dict[str, tuple[int, float, float]]:
        """(calls, total seconds, self seconds) per span name, over the
        spans opened at or after index ``since``."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)[since:]
        start = np.frombuffer(self.start)[since:]
        end = np.frombuffer(self.end)[since:]
        own = np.frombuffer(self.self_s)[since:]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=end - start, minlength=n)
        self_total = np.bincount(ids, weights=own, minlength=n)
        return {
            name: (int(calls[i]), float(total[i]), float(self_total[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            self_s=np.frombuffer(self.self_s),
        )


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the mimosense pipeline."""
    import mimosense.channel as channel
    import mimosense.cp as cp
    import mimosense.features as features
    import mimosense.nn as nn
    import mimosense.pipeline as pipeline

    add = tracer.counters
    # extract_features fits its 31 tensors in slot order, and nothing
    # else calls features.cp_als, so the call index gives the slot.
    families = [name.split(".")[0] for name in features.feature_names()]
    cp_calls = itertools.count()

    def cp_name() -> str:
        return "cp." + families[next(cp_calls) % len(families)]

    def cp_done(args, model) -> None:
        tensor, cfg = args
        n, r, sweeps = np.size(tensor), cfg.rank, model.diagnostics.n_sweeps
        add["cp.sweeps"] += sweeps
        add["cp.converged"] += model.diagnostics.converged
        if model.diagnostics.converged:
            add["cp.converged_sweeps"] += sweeps
        # Computed, not counted: per sweep three MTTKRPs (2NR flops each)
        # and the residual (2NR for the product, 3N to subtract and norm).
        add["cp.flop"] += sweeps * (8 * n * r + 3 * n)

    def loaded(args, tensor) -> None:
        add["tensor_io.read_bytes"] += tensor.nbytes

    def saved(args, _) -> None:
        path = Path(args[0])
        add["features.written_bytes"] += path.stat().st_size
        schema = path.with_suffix(".schema.json")
        if path.suffix == ".bin" and schema.exists():
            add["features.written_bytes"] += schema.stat().st_size

    tracer.wrap(pipeline, "simulate_record", "channel.simulate")
    tracer.wrap(channel, "load_tensor", "tensor_io.load", after=loaded)
    tracer.wrap(pipeline, "interpolate_lost_frames", "preprocess")
    tracer.wrap(pipeline, "segment", "preprocess")
    tracer.wrap(pipeline, "extract_features", "features.extract")
    tracer.wrap(features, "real_feature_tensors", "features.tensors")
    tracer.wrap(features, "cp_als", cp_name, after=cp_done)
    tracer.wrap(cp, "khatri_rao", "tensor_ops.khatri_rao")
    tracer.wrap(pipeline, "save_features_csv", "features.save", after=saved)
    tracer.wrap(pipeline, "save_features_bin", "features.save", after=saved)
    tracer.wrap(pipeline, "load_features_bin", "features.load")
    # The control trains and evaluates through nn's own globals.
    for module in (pipeline, nn):
        tracer.wrap(module, "train", "nn.train")
        tracer.wrap(module, "evaluate", "nn.evaluate")
    tracer.wrap(pipeline, "early_late_control", "nn.early_late_control")
    tracer.wrap(nn, "grad", "nn.grad")
    tracer.wrap(nn, "adam_step", "nn.adam")


def layer_metrics(totals, counters, simulate_s: float, written) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``totals`` and ``counters`` cover the round's four stages,
    ``simulate_s`` is the traced dataset generation and ``written`` the
    (files, bytes) the stages wrote.
    """

    def total(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    cp_s = sum(total(f"cp.{family}") for family in FAMILIES)
    sweeps = counters["cp.sweeps"]
    steps = calls("nn.adam")
    m = {
        "channel.simulate_s": simulate_s,
        "tensor_io.load_s": total("tensor_io.load"),
        "tensor_io.read_mb": counters["tensor_io.read_bytes"] / _MB,
        "preprocess.s": total("preprocess"),
        "features.extract_calls": calls("features.extract"),
        "features.tensors_s": total("features.tensors"),
        "features.save_s": total("features.save"),
        "features.written_mb": counters["features.written_bytes"] / _MB,
        "features.load_s": total("features.load"),
        "cp.calls": sum(calls(f"cp.{family}") for family in FAMILIES),
        "cp.sweeps": sweeps,
        "cp.converged": counters["cp.converged"],
        "cp.s": cp_s,
        "cp.us_per_sweep": 1e6 * cp_s / sweeps,
        "cp.gflop": counters["cp.flop"] / 1e9,
        "cp.gflop_per_s": counters["cp.flop"] / 1e9 / cp_s,
        "tensor_ops.khatri_rao_s": total("tensor_ops.khatri_rao"),
        "nn.train_calls": calls("nn.train"),
        "nn.steps": steps,
        "nn.train_s": total("nn.train"),
        "nn.us_per_step": 1e6 * total("nn.train") / steps,
        "nn.grad_s": total("nn.grad"),
        "nn.adam_s": total("nn.adam"),
        "nn.evaluate_s": total("nn.evaluate"),
        "pipeline.files_written": written[0],
        "pipeline.written_mb": written[1] / _MB,
        "trace.pipeline_s": sum(total(f"pipeline.{s}") for s in STAGES),
    }
    for family in FAMILIES:
        m[f"cp.{family}.s"] = total(f"cp.{family}")
    for stage in STAGES:
        m[f"pipeline.{stage}.self_s"] = totals[f"pipeline.{stage}"][2]
    return m

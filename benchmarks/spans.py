"""Traced run: timing wrappers around the package's public functions.

The wrappers replace each function under the name its callers look it up
by (``nltraffic.nonlocal_fv.average`` is what the solver calls, not
``nltraffic.kernel.average``), record one span per call in memory, and
are removed again after the traced pass.  Nothing under ``src/`` changes.

Self time is a span's duration minus the time covered by its direct
children; spans nest strictly because the benchmark runs on one thread.
Counts (steps, sweeps, Newton iterations, cells) come from the objects
the wrapped calls return.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

# array passes of length N made by one exact-recursion average: lfilter
# read+write (2), arange (1), scale (2), exp (2), tail scale (2), sum (3)
# and the AveragedField copy (2); bytes are computed from this, not measured
AVERAGE_ARRAY_PASSES = 14


def _files_bytes(result) -> int:
    out = Path(result["out_dir"])
    return sum((out / name).stat().st_size for name in result["files"])


# (span name, module, attribute, count(result, args) -> dict or None)
TARGETS = (
    ("kernel.average", "nltraffic.nonlocal_fv", "average",
     lambda r, a: {"cells": r.values.size}),
    ("nonlocal_fv.solve", "nltraffic.nonlocal_fv", "solve_nonlocal",
     lambda r, a: {"steps": r.step_count}),
    ("nonlocal_fv.solve", "nltraffic.experiments", "solve_nonlocal",
     lambda r, a: {"steps": r.step_count}),
    ("nonlocal_fv.picard", "nltraffic.nonlocal_fv", "picard_oracle",
     lambda r, a: {"sweeps": r.iterations,
                   "contraction_max": max(r.contraction_ratios, default=0.0)}),
    ("local_lwr.solve", "nltraffic.experiments", "solve_local",
     lambda r, a: {"steps": r.step_count}),
    ("local_lwr.psi", "nltraffic.local_lwr.FluxEntropyModel", "psi",
     lambda r, a: {"cells": int(np.size(a[1]))}),
    ("relaxation.solve", "nltraffic.experiments", "solve_relaxation",
     lambda r, a: {"steps": r.step_count,
                   "newton_iter_max": r.newton_iterations_max}),
    ("relaxation.physical_slice", "nltraffic.experiments", "physical_slice",
     None),
    ("relaxation.transformed_tv", "nltraffic.relaxation", "transformed_tv",
     None),
    ("diagnostics.entropy_residual", "nltraffic.experiments",
     "entropy_residual",
     lambda r, a: {"snapshot_phi": len(a[0].snapshots) * len(a[2])}),
    ("diagnostics.kernel_deviation", "nltraffic.experiments",
     "kernel_deviation", None),
    ("experiments.parse_config", "nltraffic.experiments", "parse_config",
     None),
    ("experiments.parse_config", "nltraffic.cli", "parse_config", None),
    ("experiments.run_sweep", "nltraffic.experiments", "run_sweep", None),
    ("experiments.relaxation_roundtrip", "nltraffic.experiments",
     "relaxation_roundtrip", None),
    ("experiments.run_experiment", "nltraffic.cli", "run_experiment",
     lambda r, a: {"bytes_written": _files_bytes(r)}),
    ("experiments.cli_main", "nltraffic.cli", "main", None),
)

# called once per interface on the scalar Godunov path; counted, not
# spanned, so its time stays in local_lwr.solve's self time
COUNTERS = (
    ("local_lwr.godunov_flux", "nltraffic.local_lwr", "godunov_flux"),
)


def _resolve(dotted: str):
    """Module or module-level class named by a dotted path."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Spans kept in memory as [name, parent, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None,
                    time.perf_counter(), None, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(result, args)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        self.counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner_path: str, attr: str, wrap):
        """Replace owner.attr by wrap(owner.attr).

        A name the package no longer has is skipped with a warning, so a
        refactor leaves its layer reading 0 instead of failing the run.
        """
        try:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            print(f"trace: {owner_path}.{attr} not found, not traced",
                  file=sys.stderr)
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrap(fn))

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner_path, attr, count in TARGETS:
            self._patch(owner_path, attr, lambda fn, name=name, count=count:
                        self._span_wrapper(name, fn, count))
        for name, owner_path, attr in COUNTERS:
            self._patch(owner_path, attr, lambda fn, name=name:
                        self._count_wrapper(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def reset(self):
        self.spans = []
        self.counters = {name: 0 for name in self.counters}


def dump(path, label: str, spans) -> None:
    """Append one pass's spans to a JSON-lines file."""
    with open(path, "a", encoding="utf-8") as fh:
        for i, (name, parent, start, end, counts) in enumerate(spans):
            fh.write(json.dumps({"pass": label, "id": i, "name": name,
                                 "parent": parent, "start": start,
                                 "end": end, "counts": counts}) + "\n")


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, self seconds, and summed or maxed counts."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, _, start, end, counts) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[i]
        for key, value in (counts or {}).items():
            if key.endswith("_max"):
                t[key] = max(t.get(key, value), value)
            else:
                t[key] = t.get(key, 0) + value
    return totals


def _per(numerator: float, denominator: float, scale: float) -> float:
    return numerator / denominator * scale if denominator else 0.0


# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "kernel.average.calls": "count",
    "kernel.average.self_s": "s",
    "kernel.average.us_per_call": "us",
    "kernel.average.mb_computed": "MB",
    "nonlocal_fv.solve.steps": "count",
    "nonlocal_fv.solve.self_s": "s",
    "nonlocal_fv.step_us": "us",
    "nonlocal_fv.picard.self_s": "s",
    "nonlocal_fv.picard.sweeps": "count",
    "nonlocal_fv.picard.sweep_ms": "ms",
    "nonlocal_fv.picard.contraction_max": "ratio",
    "local_lwr.solve.steps": "count",
    "local_lwr.solve.self_s": "s",
    "local_lwr.step_us": "us",
    "local_lwr.godunov_flux.calls": "count",
    "local_lwr.psi.self_s": "s",
    "local_lwr.psi.cells": "count",
    "relaxation.solve.steps": "count",
    "relaxation.solve.self_s": "s",
    "relaxation.step_us": "us",
    "relaxation.newton_iter_max": "count",
    "relaxation.physical_slice.self_s": "s",
    "relaxation.transformed_tv.self_s": "s",
    "diagnostics.entropy_residual.self_s": "s",
    "diagnostics.entropy_residual.us_per_snapshot_phi": "us",
    "diagnostics.kernel_deviation.self_s": "s",
    "experiments.self_s": "s",
    "experiments.bytes_written": "B",
    "experiments.parse_config.self_s": "s",
    "trace.overhead_s": "s",
}

EXPERIMENT_SPANS = ("experiments.run_sweep",
                    "experiments.relaxation_roundtrip",
                    "experiments.run_experiment", "experiments.cli_main")


def layer_metrics(spans, counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded).

    A layer that does not run in the pass reports 0 for each metric.
    """
    t = layer_totals(spans)

    def get(name, key="self_s"):
        return t.get(name, {}).get(key, 0)

    avg_cells = get("kernel.average", "cells")
    m = {
        "kernel.average.calls": get("kernel.average", "calls"),
        "kernel.average.self_s": get("kernel.average"),
        "kernel.average.us_per_call": _per(get("kernel.average"),
                                           get("kernel.average", "calls"),
                                           1e6),
        "kernel.average.mb_computed":
            avg_cells * 8 * AVERAGE_ARRAY_PASSES / 1e6,
        "nonlocal_fv.solve.steps": get("nonlocal_fv.solve", "steps"),
        "nonlocal_fv.solve.self_s": get("nonlocal_fv.solve"),
        "nonlocal_fv.step_us": _per(get("nonlocal_fv.solve"),
                                    get("nonlocal_fv.solve", "steps"), 1e6),
        "nonlocal_fv.picard.self_s": get("nonlocal_fv.picard"),
        "nonlocal_fv.picard.sweeps": get("nonlocal_fv.picard", "sweeps"),
        "nonlocal_fv.picard.sweep_ms": _per(
            get("nonlocal_fv.picard"), get("nonlocal_fv.picard", "sweeps"),
            1e3),
        "nonlocal_fv.picard.contraction_max":
            get("nonlocal_fv.picard", "contraction_max"),
        "local_lwr.solve.steps": get("local_lwr.solve", "steps"),
        "local_lwr.solve.self_s": get("local_lwr.solve"),
        "local_lwr.step_us": _per(get("local_lwr.solve"),
                                  get("local_lwr.solve", "steps"), 1e6),
        "local_lwr.godunov_flux.calls":
            counters.get("local_lwr.godunov_flux", 0),
        "local_lwr.psi.self_s": get("local_lwr.psi"),
        "local_lwr.psi.cells": get("local_lwr.psi", "cells"),
        "relaxation.solve.steps": get("relaxation.solve", "steps"),
        "relaxation.solve.self_s": get("relaxation.solve"),
        "relaxation.step_us": _per(get("relaxation.solve"),
                                   get("relaxation.solve", "steps"), 1e6),
        "relaxation.newton_iter_max":
            get("relaxation.solve", "newton_iter_max"),
        "relaxation.physical_slice.self_s":
            get("relaxation.physical_slice"),
        "relaxation.transformed_tv.self_s":
            get("relaxation.transformed_tv"),
        "diagnostics.entropy_residual.self_s":
            get("diagnostics.entropy_residual"),
        "diagnostics.entropy_residual.us_per_snapshot_phi": _per(
            get("diagnostics.entropy_residual"),
            get("diagnostics.entropy_residual", "snapshot_phi"), 1e6),
        "diagnostics.kernel_deviation.self_s":
            get("diagnostics.kernel_deviation"),
        "experiments.self_s": sum(get(n) for n in EXPERIMENT_SPANS),
        "experiments.bytes_written":
            get("experiments.run_experiment", "bytes_written"),
        "experiments.parse_config.self_s": get("experiments.parse_config"),
    }
    return {k: float(v) for k, v in m.items()}

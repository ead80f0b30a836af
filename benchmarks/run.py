#!/usr/bin/env python3
"""Benchmark of the nltraffic package: four workloads, end-to-end metrics
from untraced passes, per-layer metrics from a separate traced run.

Run from the root of a checkout (the package is imported from ./src):

    python3 benchmarks/run.py --workload eps_sweep --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --self-check
    python3 benchmarks/run.py --write-reference

Workloads (see workloads.py and BENCHMARK.json for why each exists):
eps_sweep, custom_law, oracles, large_grid.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median time of one pass of the workload, after set-up;
* ``setup_s``: median, over fresh interpreters launched before each pass,
  of the time from process start until the workload's first operation can
  run (interpreter start, ``import nltraffic``, config parsing, initial
  data);
* ``peak_rss_mb``: the measuring process's memory high-water mark.

The failure ratio (failed / attempted operations; an operation is one
solve, one oracle call or one output check) is printed with them and
carried by the ``attempted`` and ``failed`` fields of the result.  It is
not a metric of its own because it is 0 on a correct program.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of spans.py (medians over the traced passes) and
``trace.overhead_s``, the median difference between each traced pass and
the untraced pass before it.
The spans are written to ``.bench_run/`` at the end of the run.

Every pass runs in this one process on one thread: the thread variables
of OpenMP, OpenBLAS and MKL are set to 1 before numpy loads, and sweeps
run with ``jobs = 1``.  ``jobs = 2`` is not a workload.  On a 2-core Xeon
VM (Python 3.11, numpy 2.4, scipy 1.17) it took 4.53 s against 4.96 s for
``jobs = 1`` on the eps_sweep shape (median of three interleaved passes),
a gain smaller than the 10-20 % drift between runs on that machine, and
with two threads on two cores it measures the scheduler and whatever
else shares the host more than the package.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in THREAD_VARIABLES:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (numpy must see the variables above)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0
SETUP_PROBES = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="show that corrupted outputs trip the gate")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed outputs as reference")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    import numpy
    import scipy
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit, "jobs": 1,
            "threads": {v: os.environ[v] for v in THREAD_VARIABLES}}


class Tally:
    """Attempted and failed operations, with the names of the failures."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, state, results) -> dict:
        """Count one pass's operations and checks; returns its summary."""
        from workloads import reference_mismatches
        checks, summary = self.workload.verify(state, results)
        if self.reference is not None:
            bad = reference_mismatches(summary, self.reference)
            checks.append(("matches_reference" + (f"({', '.join(bad[:5])})"
                                                  if bad else ""), not bad))
        self.attempted += sum(n for _, n, _ in results) + len(checks)
        for name, n, result in results:
            if isinstance(result, Exception):
                self.failed += n
                self.failures.append(f"{name}: {type(result).__name__}: "
                                     f"{result}")
        for name, ok in checks:
            if not ok:
                self.failed += 1
                self.failures.append(name)
        return summary


def _load_reference(workload_name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())[workload_name]


def _set_up_and_report(workload, seed: int) -> int:
    """Child side of the setup_s measurement: set up, say so, exit."""
    scratch = Path(tempfile.mkdtemp(dir=RUN_DIR))
    try:
        workload.setup(seed, scratch)
        print("ready", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def probe_setup(name: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return elapsed


def _timed_pass(workload, state, tracer=None):
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = time.perf_counter()
        results = workload.run(state)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, results


def measure(workload, state, seconds: float, traced: bool, tally: Tally,
            probe, spans_path: Path | None):
    """Run passes while a median pass, with its probe, fits in ``seconds``.

    There is no warm-up pass: each CLI invocation pays the first pass's
    lazy costs, and the median keeps one slow pass from dominating.  When
    traced, untraced and traced passes alternate, starting untraced, and
    at least one of each runs.  When ``probe`` is given, one set-up probe
    precedes each pass, so that the probes sample the whole run rather
    than one stretch of it, and at least SETUP_PROBES are taken.
    """
    import spans
    tracer = spans.Tracer() if traced else None
    walls = {False: [], True: []}
    setup_times, slots, layers, kept_spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while (not slots
           or time.perf_counter() + statistics.median(slots) <= deadline
           or (traced and not walls[True])):
        start = time.perf_counter()
        if probe is not None:
            setup_times.append(probe())
        with_trace = traced and len(walls[True]) < len(walls[False])
        wall, results = _timed_pass(workload, state,
                                    tracer if with_trace else None)
        walls[with_trace].append(wall)
        tally.add(state, results)
        if with_trace:
            layers.append(spans.layer_metrics(tracer.spans, tracer.counters))
            kept_spans.append(tracer.spans)
        slots.append(time.perf_counter() - start)
    while probe is not None and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe())

    if spans_path is not None:
        spans_path.unlink(missing_ok=True)
        for i, kept in enumerate(kept_spans):
            spans.dump(spans_path, f"traced-{i}", kept)
    return walls, setup_times, layers


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_benchmark(args) -> int:
    import spans
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    reference = _load_reference(args.workload, args.seed)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True), flush=True)

    probe = (None if args.trace else
             lambda: probe_setup(args.workload, args.seed))
    scratch = Path(tempfile.mkdtemp(dir=RUN_DIR))
    try:
        state = workload.setup(args.seed, scratch)
        tally = Tally(workload, reference)
        spans_path = (RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
                      if args.trace else None)
        walls, setup_times, layers = measure(
            workload, state, args.seconds, bool(args.trace), tally, probe,
            spans_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = statistics.median(walls[False])
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    if args.trace:
        per_pass = {k: [layer[k] for layer in layers] for k in layers[0]}
        metrics = {k: _metric(statistics.median(v), spans.LAYER_METRICS[k])
                   for k, v in per_pass.items()}
        # each traced pass follows an untraced one: pairing them keeps the
        # host's speed drift between passes out of the difference
        overhead = statistics.median(
            t - u for u, t in zip(walls[False], walls[True]))
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        for name, m in metrics.items():
            lines.append(f"  {name:<50} {m['value']:>14.6g} {m['unit']}")
        lines.append(f"  ({len(walls[True])} traced and {len(walls[False])} "
                     f"untraced passes; spans in {spans_path})")
    else:
        metrics = {
            "wall_s": _metric(untraced, "s"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
        lines += [
            f"  wall_s       {untraced:10.4f} s   median of "
            f"{len(walls[False])} passes: "
            + " ".join(f"{w:.3f}" for w in walls[False]),
            f"  setup_s      {metrics['setup_s']['value']:10.4f} s   median "
            f"of {len(setup_times)} fresh interpreters",
            f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:10.1f} MB",
        ]
    lines.append(f"  fail_ratio   {tally.failed / tally.attempted:10.4f}     "
                 f"{tally.failed} failed of {tally.attempted} operations")
    lines += [f"  FAILED {name}" for name in tally.failures[:20]]
    print("\n".join(lines))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# reference values and the self-check of the gate
# ---------------------------------------------------------------------------

def write_reference() -> int:
    from workloads import WORKLOADS
    recorded = {}
    for name, workload in WORKLOADS.items():
        scratch = Path(tempfile.mkdtemp(dir=RUN_DIR))
        try:
            state = workload.setup(DEFAULT_SEED, scratch)
            results = workload.run(state)
            tally = Tally(workload, None)
            recorded[name] = tally.add(state, results)
            if tally.failed:
                print(f"{name}: not recorded, checks fail: {tally.failures}",
                      file=sys.stderr)
                return 1
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def self_check() -> int:
    from corruptions import CORRUPTIONS
    from workloads import WORKLOADS
    all_ok = True
    for name, workload in WORKLOADS.items():
        reference = _load_reference(name, DEFAULT_SEED)
        scratch = Path(tempfile.mkdtemp(dir=RUN_DIR))
        try:
            state = workload.setup(DEFAULT_SEED, scratch)
            results = workload.run(state)
            clean = Tally(workload, reference)
            clean.add(state, results)
            ok = clean.failed == 0
            all_ok &= ok
            print(f"{name}: clean outputs {'pass' if ok else 'FAIL'} "
                  f"({clean.attempted} operations) {clean.failures[:5]}")
            for label, corrupt in CORRUPTIONS[name]:
                bad_results, undo = corrupt(state, results)
                tally = Tally(workload, reference)
                tally.add(state, bad_results)
                if undo is not None:
                    undo()
                tripped = tally.failed > 0
                all_ok &= tripped
                print(f"  {label:<40} {'tripped' if tripped else 'MISSED'}"
                      f"  {tally.failures[:3]}")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    print("self-check " + ("passed" if all_ok else "FAILED"))
    return 0 if all_ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "nltraffic" / "__init__.py").is_file():
        print(f"benchmark: no package source under {SRC}; run it from the "
              f"root of an nltraffic checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUN_DIR.mkdir(exist_ok=True)
    if args.self_check:
        return self_check()
    if args.write_reference:
        return write_reference()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"benchmark: --workload must be one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        return _set_up_and_report(WORKLOADS[args.workload], args.seed)
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())

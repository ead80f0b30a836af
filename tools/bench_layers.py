#!/usr/bin/env python3
"""Per-layer timings of the solvers' steps, each layer in a fresh process.

Run from the root of a checkout (the package is imported from ./src):

    python3 tools/bench_layers.py                  # writes BENCH_layers.json
    python3 tools/bench_layers.py --out other.json

Layers, timed at N = 1024, 4096 and 65536 on a periodic grid of [0, 1]
with rho = 0.5 + 0.3 sin(2 pi x):

* ``kernel_scan``: one call of the kernel scan ``kernel._recursion`` as
  the nonlocal march makes it (eps = 0.05, one scan row);
* ``nonlocal_step``: one step of ``march_nonlocal``, its stable_dt() and
  advance(dt), the scan included (affine law v = 1 - rho);
* ``godunov_affine`` and ``godunov_quadratic``: one step of
  ``solve_local`` for v = 1 - rho and v = 1 - rho^2;
* ``imex_step``: one step of ``solve_relaxation`` (K = 2, eps = 0.05,
  v = 1 - rho), its Newton source solve included;
* ``entropy_projection``: one ``EntropyProjector.add`` of a live snapshot
  of ``MEMBERS`` copies of rho against three bumps (v = 1 - rho);
* ``picard_sweep``: one sweep ``nonlocal_fv._sweep`` of the Picard
  oracle over ``PICARD_LEVELS`` levels at every N, 0.35 dx apart in time
  at speed v(0) as ``picard_oracle`` spaces them (eps = 0.05, v = 1 - rho).

Each (layer, N) runs in ``PROCESSES`` fresh interpreters.  In each, the
layer's first call and the ``WARM_CALLS`` calls after it are timed with
``time.perf_counter``, and the process's minor page faults
(``getrusage(RUSAGE_SELF).ru_minflt``) are read before and after each
call: a call whose cost depends on the allocator's history shows it in
the faults, and in a first call that differs from the warm ones.  The
layers are reached by wrapping the ``march`` (and, for the scan, the
projection and the sweep, ``_recursion``, ``EntropyProjector.add`` and
``_sweep``) that the package looks up; nothing in the package changes.
Every process sets the OpenMP and BLAS thread variables to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (1024, 4096, 65536)
LAYERS = ("kernel_scan", "nonlocal_step", "godunov_affine",
          "godunov_quadratic", "imex_step", "entropy_projection",
          "picard_sweep")
#: calls timed after the first one
WARM_CALLS = 40
#: ensemble members of a projected snapshot
MEMBERS = 5
#: time levels of a Picard sweep, the same at every N
PICARD_LEVELS = 8
#: fresh interpreters per (layer, N)
PROCESSES = 3
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


class _Enough(Exception):
    """Raised from a wrapped step once every call has been timed."""


class Calls:
    """(microseconds, minor faults) of each call of the wrapped functions.

    A step is stable_dt() followed by advance(dt); ``step`` times the pair
    as one call, ``call`` times a single function.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.records: list[tuple[float, int]] = []
        self._start: tuple[float, int] | None = None

    @staticmethod
    def _now() -> tuple[float, int]:
        return (time.perf_counter(),
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    def _close(self):
        t0, f0 = self._start
        t1, f1 = self._now()
        self.records.append(((t1 - t0) * 1e6, f1 - f0))
        self._start = None
        if len(self.records) >= self.limit:
            raise _Enough

    def call(self, fn):
        def timed(*args):
            self._start = self._now()
            out = fn(*args)
            self._close()
            return out
        return timed

    def step(self, real_march):
        def march(emit, state, stable_dt, advance, observe):
            def timed_dt():
                self._start = self._now()
                return stable_dt()

            def timed_advance(dt):
                advance(dt)
                self._close()

            return real_march(emit, state, timed_dt, timed_advance, observe)
        return march


def _measure(layer: str, n: int) -> list[tuple[float, int]]:
    """The first and the warm calls of one layer at N = n."""
    import numpy as np

    from nltraffic import (BumpTestFunction, DensityField, FluxEntropyModel,
                           Grid, KernelScale, SolverConfig, VelocityModel,
                           local_lwr, march_nonlocal, nonlocal_fv,
                           relaxation, solve_local)
    from nltraffic.diagnostics import EntropyProjector
    from nltraffic.kernel import average

    grid = Grid(0.0, 1.0, n, "periodic")
    rho = DensityField(
        grid, 0.5 + 0.3 * np.sin(2.0 * np.pi * grid.cell_centers()))
    affine = VelocityModel.affine(1.0, 1.0)
    eps = KernelScale(0.05)
    # long enough for every timed call; the wrapper stops the solve
    config = SolverConfig(t_final=1.0)
    calls = Calls(1 + WARM_CALLS)

    if layer in ("kernel_scan", "nonlocal_step"):
        module, name = ((nonlocal_fv, "_recursion") if layer == "kernel_scan"
                        else (nonlocal_fv, "march"))
        wrap = calls.call if layer == "kernel_scan" else calls.step
        run = lambda: march_nonlocal((rho,), affine, (eps,), config,
                                     lambda t, r, q: None)
    elif layer.startswith("godunov"):
        model = affine if layer == "godunov_affine" else VelocityModel.custom(
            v=lambda r: 1.0 - np.asarray(r, dtype=float) ** 2,
            dv=lambda r: -2.0 * np.asarray(r, dtype=float),
            d2v=lambda r: np.full_like(np.asarray(r, dtype=float), -2.0),
            v_inverse=lambda s: np.sqrt(np.maximum(
                1.0 - np.asarray(s, dtype=float), 0.0)),
            rho_jam=1.0)
        module, name, wrap = local_lwr, "march", calls.step
        run = lambda: solve_local(rho, FluxEntropyModel(model), config)
    elif layer == "imex_step":
        frame = relaxation.RelaxationFrame(2.0, eps, affine)
        uz = relaxation.to_uz(rho, average(rho, eps), frame)
        module, name, wrap = relaxation, "march", calls.step
        run = lambda: relaxation.solve_relaxation(uz, frame, config)
    elif layer == "entropy_projection":
        # every snapshot lies inside the bumps' time support, so is live
        phis = [BumpTestFunction(center_x=x, center_t=0.5, radius_x=0.12,
                                 radius_t=0.5) for x in (0.44, 0.5, 0.56)]
        projector = EntropyProjector(grid, np.linspace(0.0, 1.0,
                                                       1 + WARM_CALLS),
                                     FluxEntropyModel(affine), phis)
        snapshot = np.tile(rho.values, (MEMBERS, 1))
        module, name, wrap = EntropyProjector, "add", calls.call

        def run():
            while True:
                projector.add(snapshot)
    else:
        history = np.tile(rho.values, (PICARD_LEVELS + 1, 1))
        new = history.copy()
        pos, expo = (np.empty((PICARD_LEVELS, n)) for _ in range(2))
        dt = 0.35 * grid.dx / affine.v_max
        module, name, wrap = nonlocal_fv, "_sweep", calls.call

        def run():
            old, cur = history, new
            while True:
                nonlocal_fv._sweep(old, cur, pos, expo, affine,
                                   eps.epsilon, dt, grid)
                old, cur = cur, old

    setattr(module, name, wrap(getattr(module, name)))
    try:
        run()
    except _Enough:
        pass
    return calls.records


def _summary(records: list[tuple[float, int]]) -> dict:
    import numpy as np

    (first_us, first_faults), warm = records[0], records[1:]
    us = np.array([r[0] for r in warm])
    faults = np.array([r[1] for r in warm])
    q1, median, q3 = np.percentile(us, [25, 50, 75])
    return {"first_us": round(first_us, 1), "first_faults": first_faults,
            "warm_calls": len(warm), "warm_us_median": round(median, 1),
            "warm_us_q1": round(q1, 1), "warm_us_q3": round(q3, 1),
            "warm_faults_mean": round(float(faults.mean()), 2),
            "warm_faults_max": int(faults.max())}


def _child(layer: str, n: int):
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(_summary(_measure(layer, n))))


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cores": len(os.sched_getaffinity(0)),
            "system": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    parser.add_argument("--child", nargs=2, metavar=("LAYER", "N"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child[0], int(args.child[1]))
        return 0

    env = dict(os.environ, **{v: "1" for v in THREAD_VARIABLES})
    layers = {}
    for layer in LAYERS:
        layers[layer] = {}
        for n in SIZES:
            runs = []
            for _ in range(PROCESSES):
                done = subprocess.run(
                    [sys.executable, __file__, "--child", layer, str(n)],
                    env=env, capture_output=True, text=True, check=True,
                    timeout=600)
                runs.append(json.loads(done.stdout.splitlines()[-1]))
            layers[layer][str(n)] = runs
            print(f"{layer:18s} N={n:6d} warm median "
                  f"{[r['warm_us_median'] for r in runs]} us, faults/call "
                  f"{[r['warm_faults_mean'] for r in runs]}", flush=True)
    doc = {"machine": _machine(),
           "command": "python3 tools/bench_layers.py",
           "warm_calls": WARM_CALLS, "processes": PROCESSES,
           "units": {"us": "microseconds per call (perf_counter)",
                     "faults": "minor page faults of the process per call"},
           "layers": layers}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

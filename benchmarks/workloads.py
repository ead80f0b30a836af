"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload draws its inputs from narrow seeded ranges.  The solvers'
time steps are set by ``cfl * dx / v(0)`` and by ``max |f'|`` over
``[0, rho_jam]``, never by the data, so the amount of work in a pass does
not change with the seed; only the values do.

A workload is three functions:

* ``setup(seed, scratch)`` builds the inputs (config documents, parsed
  configs, initial data) and returns them as a dict;
* ``run(state)`` is the timed pass.  It returns a list of operations, each
  ``(name, attempted, result_or_exception)``, where ``attempted`` counts
  the solves and oracle calls inside the operation;
* ``verify(state, results)`` returns the checks, as ``(name, passed)``
  pairs of invariants that hold for every seed, and a summary: the scalar
  outputs compared against the values recorded from the seed code.

Package functions are looked up through their module objects at call
time (``experiments.run_sweep``, ``nonlocal_fv.picard_oracle``), so the
traced run can replace them with timing wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

from nltraffic import cli, core, diagnostics, experiments, nonlocal_fv
from nltraffic import relaxation

MODEL = core.VelocityModel.affine(1.0, 1.0)


def quadratic_model() -> core.VelocityModel:
    """v(rho) = 1 - rho^2 on [0, 1]; the concave non-affine test law."""
    return core.VelocityModel.custom(
        v=lambda r: 1.0 - np.asarray(r, dtype=float) ** 2,
        dv=lambda r: -2.0 * np.asarray(r, dtype=float),
        d2v=lambda r: np.full_like(np.asarray(r, dtype=float), -2.0),
        v_inverse=lambda s: np.sqrt(np.maximum(
            1.0 - np.asarray(s, dtype=float), 0.0)),
        rho_jam=1.0)


def _attempt(name: str, attempted: int, fn):
    """Run one operation; a raised exception is its result, not an abort."""
    try:
        return (name, attempted, fn())
    except Exception as exc:  # every failure counts against fail_ratio
        return (name, attempted, exc)


def _raised(results) -> list[tuple[str, bool]]:
    return [(f"{name}.raised", False) for name, _, result in results
            if isinstance(result, Exception)]


# ---------------------------------------------------------------------------
# sweeps: eps_sweep and custom_law share the pipeline and its checks
# ---------------------------------------------------------------------------

def _sweep_config(n_cells: int, epsilons, rho_left: float,
                  rho_right: float) -> str:
    return "\n".join([
        "experiment.kind = sweep",
        "model.kind = affine",
        "grid.x_min = -2.0",
        "grid.x_max = 2.0",
        f"grid.n_cells = {n_cells}",
        "grid.boundary = constant_extension",
        "initial.preset = riemann",
        f"initial.rho_left = {rho_left!r}",
        f"initial.rho_right = {rho_right!r}",
        "initial.x0 = 0.0",
        "sweep.epsilons = " + ", ".join(repr(e) for e in epsilons),
        "solver.t_final = 0.5",
        "solver.cfl = 0.5",
    ]) + "\n"


def sweep_run(state) -> list:
    # one local reference solve plus one nonlocal solve per width
    return [_attempt(label, 1 + len(config.epsilons),
                     lambda c=config: experiments.run_sweep(c))
            for label, config in state["configs"].items()]


def sweep_verify(state, results):
    checks, summary = _raised(results), {}
    for label, _, report in results:
        if isinstance(report, Exception):
            continue
        summary[f"{label}.slope_l1"] = report.slope_l1
        summary[f"{label}.slope_entropy"] = report.slope_entropy
        for row in report.rows:
            tag = f"{label}.eps={row.epsilon:g}"
            checks += [
                (f"{tag}.error_is_none", row.error is None),
                (f"{tag}.kdev_margin>=0", row.kdev_margin >= 0.0),
                (f"{tag}.maxp_margin>=-1e-12", row.maxp_margin >= -1e-12),
                (f"{tag}.tv_final<=tv_bound", row.tv_final <= row.tv_bound),
            ]
            for field in ("l1_to_reference", "tv_final", "tv_bound",
                          "maxp_margin", "kdev_margin", "entropy_pos_part"):
                summary[f"{tag}.{field}"] = getattr(row, field)
            for j, value in enumerate(row.entropy_pos_per_phi):
                summary[f"{tag}.entropy_pos_phi{j}"] = value
        # the rule of criterion 06: above a 5 dx floor the L1 distance to
        # the Godunov reference shrinks by at least 0.9 per halving of eps
        floor = 5.0 * state["configs"][label].grid.dx
        for coarse, fine in zip(report.rows, report.rows[1:]):
            d_c, d_f = coarse.l1_to_reference, fine.l1_to_reference
            ok = d_f <= floor or (d_f < d_c and d_f / d_c <= 0.9)
            checks.append(
                (f"{label}.eps={fine.epsilon:g}.l1_decreasing", bool(ok)))
    return checks, summary


EPS_SWEEP_WIDTHS = (0.2, 0.1, 0.05, 0.025, 0.0125)


def eps_sweep_setup(seed: int, scratch: Path) -> dict:
    rng = np.random.default_rng(seed)
    high = [float(v) for v in rng.uniform(0.7, 0.9, 2)]
    low = [float(v) for v in rng.uniform(0.1, 0.3, 2)]
    # rarefying: the denser state on the left; compressive: on the right
    texts = {
        "rarefaction": _sweep_config(4096, EPS_SWEEP_WIDTHS, high[0], low[0]),
        "shock": _sweep_config(4096, EPS_SWEEP_WIDTHS, low[1], high[1]),
    }
    configs = {k: experiments.parse_config(t) for k, t in texts.items()}
    # run_sweep builds the initial data again; it is built here too so that
    # setup_s covers it, as it does for a CLI call
    return {"configs": configs,
            "initial": {k: c.initial_field() for k, c in configs.items()}}


CUSTOM_LAW_WIDTHS = (0.2, 0.1, 0.05)


def custom_law_setup(seed: int, scratch: Path) -> dict:
    rng = np.random.default_rng(seed)
    # narrower than eps_sweep: on this law the scalar Godunov path runs
    # only inside the fan, whose width follows the two states
    high = float(rng.uniform(0.78, 0.82))
    low = float(rng.uniform(0.18, 0.22))
    parsed = experiments.parse_config(
        _sweep_config(128, CUSTOM_LAW_WIDTHS, high, low))
    # config documents describe affine laws only; custom laws enter
    # through the library API
    config = dataclasses.replace(parsed, model=quadratic_model())
    # initial data built for setup_s, as in eps_sweep_setup
    return {"configs": {"quadratic.rarefaction": config},
            "initial": config.initial_field()}


# ---------------------------------------------------------------------------
# oracles: relaxation roundtrip, characteristics oracle, tilted TV monitor
# ---------------------------------------------------------------------------

PICARD_T0 = 0.05
PICARD_EPS = core.KernelScale(0.2)
# "of order dx": the measured L1/dx is 0.09 to 0.12 at N = 4096; a zero
# distance, or one that stops shrinking with dx, leaves this band
ROUNDTRIP_L1_PER_DX = (0.02, 0.5)


def oracles_setup(seed: int, scratch: Path) -> dict:
    rng = np.random.default_rng(seed)
    # waves move right no faster than v(0) = 1, so a bump ending left of
    # x = -1.3 stays clear of x = 3 over the roundtrip's horizon t <= 3.3
    bump = core.Bump(float(rng.uniform(0.25, 0.35)),
                     float(rng.uniform(0.25, 0.35)),
                     float(rng.uniform(-2.0, -1.8)),
                     float(rng.uniform(0.35, 0.45)))
    picard_bump = core.Bump(float(rng.uniform(0.35, 0.45)),
                            float(rng.uniform(0.15, 0.25)),
                            float(rng.uniform(-0.3, -0.1)),
                            float(rng.uniform(0.25, 0.35)))
    ramp = core.MonotoneRamp(float(rng.uniform(0.75, 0.85)),
                             float(rng.uniform(0.15, 0.25)), -0.4, 0.0)
    snaps = tuple(np.linspace(0.0, 0.5, 81)[1:-1])
    return {
        "roundtrip_initial": core.make_initial(
            core.Grid(-3.0, 3.0, 4096, "constant_extension"), bump),
        "picard_initial": core.make_initial(
            core.Grid(-1.0, 1.0, 1024, "periodic"), picard_bump),
        "ramp_initial": core.make_initial(
            core.Grid(-1.0, 1.0, 2048, "constant_extension"), ramp),
        "ramp_config": core.SolverConfig(t_final=0.5, snapshot_times=snaps),
        "ramp_frame": relaxation.RelaxationFrame(
            4.0, core.KernelScale(0.05), MODEL),
    }


def _picard(state):
    initial = state["picard_initial"]
    oracle = nonlocal_fv.picard_oracle(initial, MODEL, PICARD_EPS,
                                       PICARD_T0, 1e-10)
    traj = nonlocal_fv.solve_nonlocal(initial, MODEL, PICARD_EPS,
                                      core.SolverConfig(t_final=PICARD_T0))
    return oracle, traj.final.rho


def _tilted_tv(state):
    traj = nonlocal_fv.solve_nonlocal(state["ramp_initial"], MODEL,
                                      state["ramp_frame"].eps,
                                      state["ramp_config"])
    _, series = relaxation.transformed_tv(traj, state["ramp_frame"])
    return series


def oracles_run(state) -> list:
    return [
        _attempt("roundtrip", 1, lambda: experiments.relaxation_roundtrip(
            state["roundtrip_initial"], MODEL, core.KernelScale(0.1),
            K=2.0, delta_tau=0.3)),
        _attempt("picard", 2, lambda: _picard(state)),
        _attempt("tilted_tv", 2, lambda: _tilted_tv(state)),
    ]


def oracles_verify(state, results):
    checks, summary = _raised(results), {}
    outputs = {name: r for name, _, r in results
               if not isinstance(r, Exception)}
    if "roundtrip" in outputs:
        rt = outputs["roundtrip"]
        dx = state["roundtrip_initial"].grid.dx
        lo, hi = ROUNDTRIP_L1_PER_DX
        checks.append(("roundtrip.l1_of_order_dx",
                       lo * dx <= rt.l1_distance <= hi * dx))
        summary["roundtrip.l1"] = rt.l1_distance
        summary["roundtrip.rho_relaxation_sum"] = float(
            np.sum(rt.rho_relaxation))
    if "picard" in outputs:
        oracle, solved = outputs["picard"]
        l1 = diagnostics.l1_distance(oracle.field, solved)
        checks.append(("picard.l1<=0.1dx", l1 <= 0.1 * solved.grid.dx))
        checks.append(("picard.converged", oracle.iterations <= 30
                       and oracle.final_delta < 1e-10))
        summary["picard.l1"] = l1
        summary["picard.iterations"] = float(oracle.iterations)
        summary["picard.field_sum"] = float(np.sum(oracle.field.values))
    if "tilted_tv" in outputs:
        series = outputs["tilted_tv"]
        rise = float(np.max(np.diff(series)))
        checks.append(("tilted_tv.rise<=2%", max(rise, 0.0) / series[0]
                       <= 0.02))
        summary["tilted_tv.first"] = float(series[0])
        summary["tilted_tv.last"] = float(series[-1])
        summary["tilted_tv.max_rise"] = rise
    return checks, summary


# ---------------------------------------------------------------------------
# large_grid: CLI run and compare at N = 65536
# ---------------------------------------------------------------------------

LARGE_N = 65536
LARGE_T = 0.03


def _large_config(kind: str, eps: float, rho_left: float,
                  rho_right: float) -> str:
    lines = [
        f"experiment.kind = {kind}",
        "model.kind = affine",
        "grid.x_min = -2.0",
        "grid.x_max = 2.0",
        f"grid.n_cells = {LARGE_N}",
        "grid.boundary = constant_extension",
        "initial.preset = riemann",
        f"initial.rho_left = {rho_left!r}",
        f"initial.rho_right = {rho_right!r}",
        "initial.x0 = 0.0",
        f"kernel.epsilon = {eps!r}",
        f"solver.t_final = {LARGE_T!r}",
    ]
    if kind == "run":
        lines.append(f"solver.snapshots = {LARGE_T / 2!r}")
    return "\n".join(lines) + "\n"


def large_grid_setup(seed: int, scratch: Path) -> dict:
    rng = np.random.default_rng(seed)
    low = [float(v) for v in rng.uniform(0.15, 0.35, 2)]
    high = [float(v) for v in rng.uniform(0.65, 0.85, 2)]
    # run: compressive jump; compare: rarefying jump
    states = {"run": (low[0], high[0]), "compare": (high[1], low[1])}
    paths = {}
    for kind, eps in (("run", 0.05), ("compare", 0.1)):
        text = _large_config(kind, eps, *states[kind])
        paths[kind] = scratch / f"{kind}.cfg"
        paths[kind].write_text(text)
        # parsed and built only so that setup_s covers what each CLI call
        # does before its first solve
        experiments.parse_config(text).initial_field()
    return {"config_paths": paths, "scratch": scratch, "states": states}


def _cli(state, kind: str) -> int:
    argv = [kind, "--config", str(state["config_paths"][kind]),
            "--out", str(state["scratch"] / kind)]
    # main() prints a one-line summary; keep the benchmark's stdout clean
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def large_grid_run(state) -> list:
    # run: one nonlocal solve; compare: a nonlocal and a local solve
    return [_attempt("run", 1, lambda: _cli(state, "run")),
            _attempt("compare", 2, lambda: _cli(state, "compare"))]


def _tail_rows(path: Path, n: int) -> tuple[np.ndarray, int]:
    """Last n rows of a numeric CSV, parsed, and the file's line count."""
    lines = path.read_bytes().rstrip(b"\n").split(b"\n")
    rows = np.array([[float(v) for v in line.split(b",")]
                     for line in lines[-n:]])
    return rows, len(lines)


def _jump_bounds(low: float, high: float) -> tuple[float, float]:
    """TV bound of a jump between low and high, and the L1 drift bound.

    The variation bound is the paper's (max/min) TV(rho0).  Over [0, T]
    each scheme moves at most T sup TV(flux) of L1 mass: T |f'|max TV(rho0)
    = T jump for Godunov, and T (v(0) + rho_max) TV(rho) for the nonlocal
    flux rho v(q) (|v'| = 1 and TV(q) <= TV(rho)).
    """
    jump = high - low
    tv_bound = (high / low) * jump
    return tv_bound, LARGE_T * (jump + (1.0 + high) * tv_bound)


def large_grid_verify(state, results):
    checks = [(f"{name}.exit_code==0", code == 0)
              for name, _, code in results]
    if not all(ok for _, ok in checks):
        return checks, {}
    scratch = state["scratch"]
    run = json.loads((scratch / "run" / "run.json").read_text())
    final, n_lines = _tail_rows(scratch / "run" / "trajectory.csv", LARGE_N)
    distances = json.loads(
        (scratch / "compare" / "compare.json").read_text())["distances"]
    fields = np.loadtxt(scratch / "compare" / "fields.csv", delimiter=",",
                        skiprows=1)
    metrics = run["diagnostics"]["metrics"]
    run_tv_bound, _ = _jump_bounds(*sorted(state["states"]["run"]))
    _, cmp_drift = _jump_bounds(*sorted(state["states"]["compare"]))
    l1 = distances["l1_nonlocal_local"]
    checks += [
        # initial, mid-run and final snapshots, one row per cell, a header
        ("run.trajectory_rows", n_lines == 3 * LARGE_N + 1),
        ("run.final_time", bool(np.all(final[:, 0] == LARGE_T))),
        ("run.maxp_margin>=-1e-12", metrics["maxp_margin"] >= -1e-12),
        ("run.tv_final<=tv_bound", metrics["tv_final"] <= run_tv_bound),
        ("run.step_count>0", run["step_count"] > 0),
        ("compare.fields_rows", fields.shape == (LARGE_N, 3)),
        ("compare.l1_within_drift_bound", 0.0 < l1 <= cmp_drift),
    ]
    dx = 4.0 / LARGE_N
    summary = {f"run.{k}": v for k, v in metrics.items()}
    summary.update({
        "run.step_count": float(run["step_count"]),
        "run.final_mass": float(np.sum(final[:, 2])) * dx,
        "run.final_q_sum": float(np.sum(final[:, 3])),
        "compare.l1_nonlocal_local": l1,
        "compare.rho_nonlocal_sum": float(np.sum(fields[:, 1])),
        "compare.rho_local_sum": float(np.sum(fields[:, 2])),
    })
    return checks, summary


# ---------------------------------------------------------------------------
# registry and the reference comparison
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    verify: Callable


WORKLOADS = {w.name: w for w in (
    Workload("eps_sweep", eps_sweep_setup, sweep_run, sweep_verify),
    Workload("custom_law", custom_law_setup, sweep_run, sweep_verify),
    Workload("oracles", oracles_setup, oracles_run, oracles_verify),
    Workload("large_grid", large_grid_setup, large_grid_run,
             large_grid_verify),
)}


def reference_mismatches(summary: dict[str, float],
                         reference: dict[str, float],
                         rel: float = 1e-9, floor: float = 1e-15
                         ) -> list[str]:
    """Keys missing on either side or differing by more than rel.

    ``floor`` is an absolute allowance for values that are rounding-level
    zeros (range margins), where a relative test is undefined.
    """
    bad = set(summary) ^ set(reference)
    bad.update(k for k in set(summary) & set(reference)
               if not math.isclose(summary[k], reference[k], rel_tol=rel,
                                   abs_tol=floor))
    return sorted(bad)

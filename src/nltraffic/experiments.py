"""Experiment orchestration: config documents, runs, sweeps, comparisons,
condition checks, and CSV/JSON reporting.

Config documents are flat ``key = value`` text with dotted sections,
``#`` comments and blank lines; lists are comma separated.  The full key
table lives in the README.  Documents are canonicalized and hashed so a
report can always be traced back to its exact configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .core import (Bump, DensityField, DomainError, Grid, KernelScale,
                   MonotoneRamp, NumericsError, Riemann, Sine, SolverConfig,
                   VelocityModel, make_initial, validate_model)
from .diagnostics import (BumpTestFunction, EntropyProjector,
                          kernel_deviation_values, l1_distance,
                          total_variation)
from .kernel import TRUNCATION_WIDTHS
from .local_lwr import FluxEntropyModel, solve_local
from .nonlocal_fv import march_nonlocal, solve_nonlocal
from .relaxation import (RelaxationFrame, SliceGatherer, UZFields,
                         check_bv_conditions, check_subcharacteristic,
                         solve_relaxation)

SWEEP_CSV_COLUMNS = ("epsilon", "l1_to_reference", "tv_final", "tv_bound",
                     "maxp_margin", "kdev_margin", "entropy_pos_part",
                     "runtime_seconds")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

#: initial.preset name -> preset class; each field of the class, in
#: order, is read from the key initial.<field name>
_PRESETS = {"riemann": Riemann, "bump": Bump, "sine": Sine,
            "monotone_ramp": MonotoneRamp}

_KNOWN_KEYS = {
    "experiment.kind", "model.kind", "model.a", "model.b",
    "grid.x_min", "grid.x_max", "grid.n_cells", "grid.boundary",
    "initial.preset", "kernel.epsilon", "sweep.epsilons", "solver.cfl",
    "solver.t_final", "solver.snapshots", "relaxation.K",
    "compare.with_relaxation", "output.dir",
} | {f"initial.{f.name}" for preset in _PRESETS.values()
     for f in fields(preset)}

_REQUIRED_KEYS = ("experiment.kind", "model.kind", "grid.x_min",
                  "grid.x_max", "grid.n_cells", "initial.preset",
                  "solver.t_final")


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not finite")
    return value


def _numbers(token: str) -> tuple[float, ...]:
    return tuple(_number(tok) for tok in token.split(",") if tok.strip())


def _boolean(token: str) -> bool:
    token = token.lower()
    if token not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"{token!r} is not a boolean")
    return token in ("true", "yes", "1")


_PARSE_ERRORS = {_number: "not a number", int: "not an integer",
                 _numbers: "not a number list", _boolean: "not a boolean"}
_REQUIRED = object()


def _value(pairs, key, parse, default=_REQUIRED):
    """``parse(pairs[key])``, or ``default`` when the key is absent.

    A missing key without a default, and a value that ``parse`` rejects
    with ``ValueError`` (a number that is not finite among them), raise
    ``ConfigError`` naming the key.
    """
    if key not in pairs:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return parse(pairs[key])
    except ValueError as exc:
        raise ConfigError(
            f"key {key!r}: {_PARSE_ERRORS[parse]}: {pairs[key]!r}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model: VelocityModel
    grid: Grid
    preset: object
    solver: SolverConfig
    epsilon: float | None
    epsilons: tuple[float, ...]
    relaxation_K: float
    with_relaxation: bool
    out_dir: str
    config_hash: str

    def initial_field(self) -> DensityField:
        return make_initial(self.grid, self.preset, rho_jam=self.model.rho_jam)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config document.

    Unknown keys, missing keys, non-finite numbers, out-of-domain values
    and inconsistent combinations (non-decreasing sweep epsilons, a sweep
    with t_final = 0, K <= v(0) with relaxation diagnostics requested) are
    all rejected here, before any computation.
    """
    pairs = _parse_pairs(text)
    for key in _REQUIRED_KEYS:
        if key not in pairs:
            raise ConfigError(f"missing required key {key!r}")

    kind = pairs["experiment.kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment.kind must be one of "
                          f"{tuple(EXPERIMENT_KINDS)}, got {kind!r}")
    needs = EXPERIMENT_KINDS[kind].needs

    if pairs["model.kind"] != "affine":
        raise ConfigError(
            "config documents support model.kind = affine only; custom "
            "models are available through the library API")
    model = VelocityModel.affine(_value(pairs, "model.a", _number, 1.0),
                                 _value(pairs, "model.b", _number, 1.0))

    try:
        grid = Grid(_value(pairs, "grid.x_min", _number),
                    _value(pairs, "grid.x_max", _number),
                    _value(pairs, "grid.n_cells", int),
                    pairs.get("grid.boundary", "periodic"))
        preset_class = _PRESETS.get(pairs["initial.preset"])
        if preset_class is None:
            raise ConfigError(
                f"initial.preset must be one of {tuple(_PRESETS)}, "
                f"got {pairs['initial.preset']!r}")
        preset = preset_class(*(_value(pairs, f"initial.{f.name}", _number)
                                for f in fields(preset_class)))
        solver = SolverConfig(
            t_final=_value(pairs, "solver.t_final", _number),
            cfl=_value(pairs, "solver.cfl", _number, 0.5),
            snapshot_times=_value(pairs, "solver.snapshots", _numbers, ()))
        make_initial(grid, preset, rho_jam=model.rho_jam)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    epsilon = _value(pairs, "kernel.epsilon", _number, None)
    epsilons: tuple[float, ...] = ()
    if "sweep.epsilons" in needs:
        epsilons = _value(pairs, "sweep.epsilons", _numbers)
        if not epsilons:
            raise ConfigError("sweep.epsilons must not be empty")
        if any(e <= 0 for e in epsilons):
            raise ConfigError("sweep.epsilons must be strictly positive")
        if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
            raise ConfigError("sweep.epsilons must be strictly decreasing")
        if solver.t_final == 0.0:
            raise ConfigError("a sweep needs solver.t_final > 0, got 0")
    elif "kernel.epsilon" in needs and epsilon is None:
        raise ConfigError(f"kind {kind!r} needs kernel.epsilon")
    if epsilon is not None and epsilon <= 0:
        raise ConfigError("kernel.epsilon must be positive")

    relaxation_k = _value(pairs, "relaxation.K", _number, 2.0 * model.v_max)
    with_relaxation = _value(pairs, "compare.with_relaxation", _boolean,
                             False)
    if (("relaxation.K" in needs or with_relaxation)
            and relaxation_k <= model.v_max):
        raise ConfigError(
            f"relaxation.K = {relaxation_k} must strictly exceed "
            f"v(0) = {model.v_max}")

    canonical = "\n".join(f"{k} = {pairs[k]}" for k in sorted(pairs)) + "\n"
    digest = hashlib.sha256(canonical.encode()).hexdigest()

    return ExperimentConfig(
        kind=kind, model=model, grid=grid, preset=preset, solver=solver,
        epsilon=epsilon, epsilons=epsilons, relaxation_K=relaxation_k,
        with_relaxation=with_relaxation,
        out_dir=pairs.get("output.dir", "out"),
        config_hash=digest)


# ---------------------------------------------------------------------------
# sweep rows and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    l1_to_reference: float
    tv_final: float
    tv_bound: float
    maxp_margin: float
    kdev_margin: float
    entropy_pos_part: float          # max over the test-function set
    runtime_seconds: float
    entropy_pos_per_phi: tuple[float, ...] = ()
    error: str | None = None


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    slope_l1: float
    slope_entropy: float

    @staticmethod
    def from_rows(rows) -> "SweepReport":
        rows = tuple(sorted(rows, key=lambda r: -r.epsilon))
        good = [r for r in rows if r.error is None]
        slope_l1 = _log_slope([r.epsilon for r in good],
                              [r.l1_to_reference for r in good])
        slope_entropy = _log_slope([r.epsilon for r in good],
                                   [r.entropy_pos_part for r in good])
        return SweepReport(rows, slope_l1, slope_entropy)


def _log_slope(eps_values, values) -> float:
    if len(eps_values) < 2:
        return float("nan")
    x = np.log(np.asarray(eps_values, dtype=float))
    # a zero value enters the fit as 1e-16, not -inf
    y = np.log(np.maximum(np.asarray(values, dtype=float), 1e-16))
    return float(np.polyfit(x, y, 1)[0])


def default_test_functions(grid: Grid, t_final: float
                           ) -> list[BumpTestFunction]:
    """Three bumps spread over the late half of the run, inside the domain."""
    mid = 0.5 * (grid.x_min + grid.x_max)
    rx = 0.12 * grid.length
    rt = 0.12 * t_final
    return [
        BumpTestFunction(center_x=mid, center_t=0.55 * t_final,
                         radius_x=rx, radius_t=rt),
        BumpTestFunction(center_x=mid + 0.5 * rx, center_t=0.70 * t_final,
                         radius_x=rx, radius_t=rt),
        BumpTestFunction(center_x=mid - 0.5 * rx, center_t=0.85 * t_final,
                         radius_x=rx, radius_t=rt),
    ]


def _sweep_snapshot_times(config: ExperimentConfig,
                          phis) -> tuple[float, ...]:
    """User snapshots plus a uniform grid fine enough for the phi quadrature."""
    t_final = config.solver.t_final
    min_radius = min(p.radius_t for p in phis)
    n = max(64, int(np.ceil(20.0 * t_final / min_radius)))
    auto = np.linspace(0.0, t_final, n + 1)
    merged = np.unique(np.concatenate(
        [auto, np.asarray(config.solver.snapshot_times, dtype=float)]))
    return tuple(float(t) for t in merged if 0.0 < t < t_final)


def _sweep_rows(config: ExperimentConfig, eps_values, initial: DensityField,
                reference_final: DensityField, phis,
                solver: SolverConfig) -> list[SweepRow]:
    """Rows for eps_values from one ensemble march over all of them.

    Observers reduce each snapshot as it arrives, all members at once: one
    kernel-deviation call for every member's margin, one
    ``EntropyProjector`` call for every member's projections (none on a
    snapshot that no test function weighs), and a copy of the final
    densities; no history is held.  Each row's runtime is the march's wall
    time, observers and row summaries included, split evenly over its
    members.
    """
    grid = config.grid
    rho_min0 = float(np.min(initial.values))
    rho_max0 = float(np.max(initial.values))
    tv0 = total_variation(initial)
    fe = FluxEntropyModel(config.model)
    start = time.perf_counter()
    times = solver.emission_times()
    projector = EntropyProjector(grid, times, fe, phis)
    widths = np.array(eps_values)
    margins = []
    final = np.empty((len(eps_values), grid.n_cells))

    def observe(t: float, rho: np.ndarray, q: np.ndarray):
        dev, bound = kernel_deviation_values(rho, q, grid, widths)
        margins.append(bound - dev)
        projector.add(rho)
        if t == times[-1]:
            final[:] = rho

    stats = march_nonlocal([initial] * len(eps_values), config.model,
                           [KernelScale(e) for e in eps_values], solver,
                           observe)
    tv_bound = (rho_max0 / rho_min0) * tv0
    kdev_margins = np.min(margins, axis=0)
    residuals = projector.finish()
    rows = []
    for m, eps_value in enumerate(eps_values):
        final_rho = DensityField(grid, final[m])
        maxp = min(float(stats.low[m]) - rho_min0,
                   rho_max0 - float(stats.high[m]))
        per_phi = tuple(max(r, 0.0) for r in residuals[m])
        rows.append(SweepRow(
            eps_value, l1_distance(final_rho, reference_final),
            total_variation(final_rho), tv_bound, maxp,
            float(kdev_margins[m]), max(per_phi), 0.0,
            entropy_pos_per_phi=per_phi))
    runtime = (time.perf_counter() - start) / len(eps_values)
    return [replace(row, runtime_seconds=runtime) for row in rows]


def run_sweep(config: ExperimentConfig) -> SweepReport:
    """One row per epsilon, decreasing; failures fill their row, never abort.

    Rows are computed against a single local reference solve.  All widths
    step together as one ensemble (``march_nonlocal``): for an admissible
    law they share one step sequence, and every row is bit for bit that of
    a lone run.  If the ensemble raises a numerical or domain error, the
    widths are rerun one at a time, so each failing width fills its own
    row.
    """
    initial = config.initial_field()
    if float(np.min(initial.values)) <= 0.0:
        raise ConfigError(
            "sweep requires uniformly positive initial data (the variation "
            "bound column is undefined otherwise)")
    fe = FluxEntropyModel(config.model)
    phis = default_test_functions(config.grid, config.solver.t_final)
    snapshot_times = _sweep_snapshot_times(config, phis)
    solver = SolverConfig(t_final=config.solver.t_final,
                          cfl=config.solver.cfl,
                          snapshot_times=snapshot_times)
    reference = solve_local(initial, fe, solver).final.rho

    try:
        rows = _sweep_rows(config, config.epsilons, initial, reference, phis,
                           solver)
    except (NumericsError, DomainError):
        rows = []
        for eps_value in config.epsilons:
            start = time.perf_counter()
            try:
                rows += _sweep_rows(config, (eps_value,), initial, reference,
                                    phis, solver)
            except (NumericsError, DomainError) as exc:
                nan = float("nan")
                rows.append(SweepRow(
                    eps_value, nan, nan, nan, nan, nan, nan,
                    time.perf_counter() - start,
                    error=f"{type(exc).__name__}: {exc}"))
    return SweepReport.from_rows(rows)


# ---------------------------------------------------------------------------
# relaxation cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundtripResult:
    """Relaxation system integrated between two slanted slices of one run."""

    l1_distance: float
    rho_relaxation: np.ndarray
    rho_physical: np.ndarray
    #: the relaxation solve's most source-solve passes in one step, and its
    #: midpoints that replaced a Newton step, summed over cells and steps
    newton_iterations_max: int
    midpoint_steps: int


def relaxation_roundtrip(initial: DensityField, model: VelocityModel,
                         eps: KernelScale, K: float, delta_tau: float,
                         cfl: float = 0.5) -> RoundtripResult:
    """Cross-validate the tilted-system integrator against the physical one.

    A constant-tau slice of the tilted coordinates is the line t = tau + x/K.
    The physical solver is run once with dense snapshots, each fed to the
    two slices' gatherers as it arrives, so no history is held; its state
    along the starting slice seeds the tilted integrator, which marches
    delta_tau and is compared against the physical state along the final
    slice.  Both discretizations are first order, so the distance shrinks
    like dx.

    The initial data should be constant near the right boundary over the
    whole needed horizon (waves move right no faster than v(0), and the
    averaging kernel sees about 40 eps ahead), otherwise the two boundary
    closures differ by more than discretization error.
    """
    grid = initial.grid
    tau0 = max(0.0, -grid.x_min / K)
    t_need = tau0 + delta_tau + max(0.0, grid.x_max / K)
    spacing = 2.0 * grid.dx / max(model.v_max, 1e-30)
    n_snap = max(64, int(np.ceil(t_need / spacing)))
    snaps = tuple(np.linspace(0.0, t_need, n_snap + 1)[1:-1])
    physical = SolverConfig(t_final=t_need, cfl=cfl, snapshot_times=snaps)
    times = physical.emission_times()
    first = SliceGatherer(grid, eps, times, K, tau0)
    last = SliceGatherer(grid, eps, times, K, tau0 + delta_tau)

    def observe(t: float, rho: np.ndarray, q: np.ndarray):
        first.add(rho[0], q[0])
        last.add(rho[0], q[0])

    march_nonlocal((initial,), model, (eps,), physical, observe)

    frame = RelaxationFrame(K, eps, model)
    rho0, q0 = first.result()
    uz0 = UZFields(grid, np.log(rho0), frame.z_of(q0))
    relax = solve_relaxation(uz0, frame,
                             SolverConfig(t_final=delta_tau, cfl=cfl))
    rho_relax = np.exp(relax.final.fields.u)
    rho_phys, _ = last.result()
    l1 = float(np.sum(np.abs(rho_relax - rho_phys))) * grid.dx
    return RoundtripResult(l1, rho_relax, rho_phys,
                           relax.newton_iterations_max, relax.midpoint_steps)


# ---------------------------------------------------------------------------
# domain coverage check
# ---------------------------------------------------------------------------

def domain_coverage(initial: DensityField, eps_value: float,
                    t_final: float, v_max: float) -> dict:
    """Check that rightward influence stays clear of the right boundary.

    With constant extension the boundary closure is exact only while the
    solution is constant within the kernel's reach of the boundary.  Waves
    move right at most at v(0) and the kernel sees about 40 eps ahead;
    the margin reported is how much room remains at t_final.  Periodic
    grids pass trivially.
    """
    grid = initial.grid
    if grid.periodic:
        return {"applicable": False, "ok": True, "margin": None}
    values = initial.values
    tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    nonconst = np.nonzero(np.abs(values - values[-1]) > tol)[0]
    if nonconst.size == 0:
        return {"applicable": True, "ok": True, "margin": grid.length}
    reach = (grid.x_min + (nonconst[-1] + 1) * grid.dx
             + v_max * t_final + TRUNCATION_WIDTHS * eps_value)
    margin = grid.x_max - reach
    return {"applicable": True, "ok": bool(margin >= 0.0),
            "margin": float(margin)}


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

#: rows per string handed to a CSV file: a file is never held whole
CSV_BLOCK_ROWS = 4096


def _float_reprs(column: np.ndarray) -> list[str]:
    """``repr`` of every value of a float64 column, in order.

    ``repr`` runs once per distinct 64-bit pattern: the column's ``int64``
    view is reduced by ``np.unique`` and the strings are gathered back
    through the inverse index.  Keying on bits rather than values keeps
    ``-0.0`` apart from ``0.0`` and every NaN payload apart, so the result
    equals ``list(map(repr, column.tolist()))``.  Anything but a 1-d
    float64 array is rejected rather than coerced (an int ``3`` would
    come out as ``'3.0'``).
    """
    if (not isinstance(column, np.ndarray) or column.dtype != np.float64
            or column.ndim != 1):
        raise TypeError("_float_reprs takes a 1-d float64 array, got "
                        f"{getattr(column, 'dtype', type(column).__name__)}"
                        f" of shape {np.shape(column)}")
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    reprs = np.array(list(map(repr, bits.view(np.float64).tolist())),
                     dtype=object)
    return reprs[inverse].tolist()


def _csv_body(columns: list) -> Iterator[str]:
    """The rows of equally long columns, ``CSV_BLOCK_ROWS`` lines per string.

    A column is a float64 array, written as the ``_float_reprs`` of each
    block of it, or a list of strings, written as they are.  Each line
    joins its row's values by commas and ends with a newline.
    """
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        yield "\n".join(map(",".join, zip(*(
            col[block] if isinstance(col, list) else _float_reprs(col[block])
            for col in columns)))) + "\n"


def _columns_csv(columns: dict) -> Iterator[str]:
    """A header of the column names, then a line of float reprs per row."""
    yield ",".join(columns) + "\n"
    yield from _csv_body(list(columns.values()))


def _write_trajectory_csv(traj, path: Path):
    """``t,x,rho,q`` long format, written one block of rows at a time.

    The x column's reprs are built once per file.
    """
    x = _float_reprs(traj.snapshots[0].rho.grid.cell_centers())
    with open(path, "w") as fh:
        fh.write("t,x,rho,q\n")
        for snap in traj.snapshots:
            q = snap.q.values if snap.q is not None else np.full(len(x),
                                                                 np.nan)
            fh.writelines(_csv_body([[repr(float(snap.t))] * len(x), x,
                                     snap.rho.values, q]))


def sweep_csv(report: SweepReport) -> str:
    return "".join(_columns_csv({
        name: np.array([getattr(row, name) for row in report.rows],
                       dtype=float)
        for name in SWEEP_CSV_COLUMNS}))


def _json_document(config: ExperimentConfig, payload: dict) -> str:
    """The text of ``<kind>.json``: the payload next to the config hash,
    grid and package versions, keys sorted."""
    import scipy   # only for its version: importing the CLI loads numpy alone

    return json.dumps({
        "config_hash": config.config_hash,
        "grid": {"x_min": config.grid.x_min, "x_max": config.grid.x_max,
                 "n_cells": config.grid.n_cells,
                 "boundary_mode": config.grid.boundary_mode,
                 "dx": config.grid.dx},
        "versions": {"nltraffic": __version__,
                     "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": platform.python_version()},
        **payload}, indent=2, sort_keys=True) + "\n"


def sweep_json(report: SweepReport, config: ExperimentConfig) -> str:
    return _json_document(config, {
        "rows": [asdict(row) for row in report.rows],
        "slopes": {"l1_vs_epsilon": report.slope_l1,
                   "entropy_pos_vs_epsilon": report.slope_entropy}})


# ---------------------------------------------------------------------------
# top-level experiment driver
# ---------------------------------------------------------------------------
#
# Each kind writes its other files under ``out`` and returns the text of
# its ``<kind>.json`` with a summary dict; ``run_experiment`` writes the
# JSON document last.

def _run_kind(config: ExperimentConfig, out: Path) -> tuple[str, dict]:
    initial = config.initial_field()
    eps = KernelScale(config.epsilon)
    traj = solve_nonlocal(initial, config.model, eps, config.solver)
    _write_trajectory_csv(traj, out / "trajectory.csv")
    metrics = {
        "mass_drift": traj.final.rho.total_mass() - initial.total_mass(),
        "maxp_margin": min(
            float(traj.stats.low[0]) - float(np.min(initial.values)),
            float(np.max(initial.values)) - float(traj.stats.high[0])),
        "tv_final": total_variation(traj.final.rho)}
    provenance = {
        "mass_drift": "conservation of the cell-average integral",
        "maxp_margin": "solution stays inside the initial range",
        "tv_final": "total variation at t_final"}
    return _json_document(config, {
        "diagnostics": {"metrics": {k: float(v) for k, v in metrics.items()},
                        "provenance": provenance},
        "domain_coverage": domain_coverage(
            initial, config.epsilon, config.solver.t_final,
            config.model.v_max),
        "step_count": traj.stats.steps}), {"files": ["trajectory.csv"]}


def _sweep_kind(config: ExperimentConfig, out: Path) -> tuple[str, dict]:
    report = run_sweep(config)
    (out / "sweep.csv").write_text(sweep_csv(report))
    return sweep_json(report, config), {
        "files": ["sweep.csv"], "rows": len(report.rows),
        "failed_rows": sum(r.error is not None for r in report.rows)}


def _compare_kind(config: ExperimentConfig, out: Path) -> tuple[str, dict]:
    initial = config.initial_field()
    eps = KernelScale(config.epsilon)
    fe = FluxEntropyModel(config.model)
    traj_nl = solve_nonlocal(initial, config.model, eps, config.solver)
    traj_loc = solve_local(initial, fe, config.solver)
    x = config.grid.cell_centers()
    columns = {"x": x,
               "rho_nonlocal": traj_nl.final.rho.values,
               "rho_local": traj_loc.final.rho.values}
    distances = {"l1_nonlocal_local":
                 l1_distance(traj_nl.final.rho, traj_loc.final.rho)}
    payload = {"distances": distances}
    if config.with_relaxation:
        rt = relaxation_roundtrip(initial, config.model, eps,
                                  config.relaxation_K,
                                  config.solver.t_final,
                                  cfl=config.solver.cfl)
        # sampled along the slanted slice t = tau + x/K, not at t_final
        columns["rho_relaxation"] = rt.rho_relaxation
        columns["rho_nonlocal_slice"] = rt.rho_physical
        distances["l1_relaxation_roundtrip"] = rt.l1_distance
        payload["relaxation"] = {
            "newton_iterations_max": rt.newton_iterations_max,
            "midpoint_steps": rt.midpoint_steps}
    with open(out / "fields.csv", "w") as fh:
        fh.writelines(_columns_csv(columns))
    return _json_document(config, payload), {
        "files": ["fields.csv"], "distances": distances}


def _check_kind(config: ExperimentConfig, out: Path) -> tuple[str, dict]:
    frame = RelaxationFrame(config.relaxation_K, KernelScale(1.0),
                            config.model)
    reports = {
        "model": validate_model(config.model),
        "subcharacteristic": check_subcharacteristic(frame),
        "bv_conditions": check_bv_conditions(frame,
                                             (0.0, config.model.rho_jam))}
    passed = all(report.passed for report in reports.values())
    return _json_document(config, {
        **{name: {**asdict(report), "passed": report.passed}
           for name, report in reports.items()},
        "passed": passed}), {"files": [], "passed": passed}


class ExperimentKind(NamedTuple):
    """What the config parser, the CLI and run_experiment know of a kind."""

    help: str
    #: kind-specific keys that parse_config validates: kernel.epsilon and
    #: sweep.epsilons must be present, relaxation.K must exceed v(0)
    needs: tuple[str, ...]
    write: Callable[[ExperimentConfig, Path], tuple[str, dict]]


#: every experiment kind, in CLI order: the value of experiment.kind, the
#: CLI subcommand and the stem of the JSON report
EXPERIMENT_KINDS = {
    "run": ExperimentKind("single solve, trajectory to CSV",
                          ("kernel.epsilon",), _run_kind),
    "sweep": ExperimentKind("epsilon sweep against the local reference",
                            ("sweep.epsilons",), _sweep_kind),
    "compare": ExperimentKind(
        "side-by-side nonlocal / local / relaxation fields",
        ("kernel.epsilon",), _compare_kind),
    "check": ExperimentKind("model and relaxation condition checks",
                            ("relaxation.K",), _check_kind),
}


def run_experiment(config: ExperimentConfig,
                   out_dir: str | Path | None = None) -> dict:
    """Execute one experiment, writing its reports under out_dir.

    Returns a summary dict listing the files written.  Exceptions
    propagate: ConfigError for bad inputs, NumericsError subclasses for
    solver failures, OSError for unwritable destinations.
    """
    out = Path(out_dir) if out_dir is not None else Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    document, result = EXPERIMENT_KINDS[config.kind].write(config, out)
    name = f"{config.kind}.json"
    (out / name).write_text(document)
    result["files"].append(name)
    result["out_dir"] = str(out)
    result["config_hash"] = config.config_hash
    return result

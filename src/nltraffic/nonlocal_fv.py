"""Finite-volume solver for the conservation law with averaged-lookahead
flux, rho_t + (rho v(q))_x = 0, plus an independent short-time oracle
built on characteristics and fixed-point iteration.

Scheme: conservative upwind update

    rho_i^{n+1} = rho_i - (dt/dx) (F_{i+1/2} - F_{i-1/2}),
    F_{i+1/2} = rho_i * v(q_{i+1}),

where q is the left-edge averaged field, so q_{i+1} is exactly the average
seen from interface i+1/2.  Drivers react to the density ahead; v >= 0
makes pure upwinding in rho appropriate.  With cfl <= 0.5 the update is a
range-preserving combination for any admissible affine model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (BlowupError, DensityField, DomainError, KernelScale,
                   NumericsError, PositivityError, ShapeError, SolverConfig,
                   VelocityModel, check_band)
from .kernel import (AveragedField, _q_past_end, _recursion, _scan_spare,
                     _scan_work)
from .trajectory import RunStats, Snapshot, Trajectory, march


class ContractionFailure(NumericsError):
    """Fixed-point iterates moved apart instead of converging."""


def march_nonlocal(initial: Sequence[DensityField], model: VelocityModel,
                   eps: Sequence[KernelScale], config: SolverConfig,
                   observe: Callable[[float, np.ndarray, np.ndarray], None]
                   ) -> RunStats:
    """March an ensemble of members to t_final on raw (M, N) arrays.

    Member m starts from initial[m] and averages with width eps[m]; all
    members live on one grid and take one step sequence.  dt is
    cfl * dx / max(v(0), max v(q)), the max running over every member, and
    is clipped to land exactly on every emission time of ``config``.  At
    each emission time t (t = 0 included) the march calls
    ``observe(t, rho, q)`` with the (M, N) density and left-edge average.
    The march's record has one row per member.

    Every step writes into arrays made once per solve: one interface
    array that holds q, then v(q), then the flux; the density itself; and
    the kernel scan's two buffers: its work array, of which q is a view,
    and its spare buffer, which holds the update between scans.  Only a
    custom law's evaluator, whose result is copied into the interface
    array, and the scan's per-row numbers allocate on each step.
    An observer copies what it keeps, since later steps overwrite both
    arrays it is given.

    For an admissible law v(q) <= v(0), so dt = cfl * dx / v(0) on every
    step for every member, and each member's fields, step count and
    extrema are bit for bit those of its run alone.  A law with v(q) > v(0)
    somewhere gives every member the ensemble's smallest dt, so its
    members can differ from lone runs.  The custom-law evaluator sees one
    1-D array per step.  Periodic runs conserve each member's mass to
    rounding.  A step averages the stepped density before ``march`` checks
    it, so a step that blows up pays one kernel call on a non-finite row
    before BlowupError.
    """
    if len(initial) != len(eps) or not initial:
        raise ShapeError(
            f"need one kernel scale per initial field, got {len(initial)} "
            f"fields and {len(eps)} scales")
    grid = initial[0].grid
    if any(f.grid != grid for f in initial):
        raise ShapeError("ensemble members live on different grids")
    rho = np.stack([f.values for f in initial])
    check_band(rho, model.rho_jam, "initial density")

    m, n = rho.shape
    hs = tuple(grid.dx / e.epsilon for e in eps)
    periodic = grid.periodic
    # q at the n + 1 interfaces, turned into v(q) in place and then into
    # the flux; the last one sees q_0 again on periodic grids and the
    # frozen edge value under constant extension
    iface = np.empty((m, n + 1))
    work, spare = _scan_work(n, hs), _scan_spare(n, hs)
    # the scan overwrites the update, which is no longer needed once the
    # density is stepped
    update = spare[:m * n].reshape(m, n)
    q = _recursion(rho, hs, periodic, work, spare)
    v0 = model.v_max

    def stable_dt() -> float:
        iface[:, :n] = q
        iface[:, n] = _q_past_end(rho, q, periodic)
        model.v_into(iface.reshape(-1), iface.reshape(-1))
        return config.cfl * grid.dx / max(v0, float(np.max(iface)))

    def advance(dt: float):
        nonlocal q
        flux = iface
        np.multiply(rho, flux[:, 1:], out=flux[:, 1:])
        np.multiply(grid.ghosts(rho)[0], flux[:, 0], out=flux[:, 0])
        np.subtract(flux[:, 1:], flux[:, :-1], out=update)
        np.multiply(update, dt / grid.dx, out=update)
        np.subtract(rho, update, out=rho)
        q = _recursion(rho, hs, periodic, work, spare)

    return march(config.emission_times(), rho, stable_dt, advance,
                 lambda t: observe(t, rho, q))


def solve_nonlocal(initial: DensityField, model: VelocityModel,
                   eps: KernelScale, config: SolverConfig) -> Trajectory:
    """March the upwind scheme to t_final, recording snapshots with q.

    The one-member case of ``march_nonlocal``, whose observer records a
    snapshot at every emission time.
    """
    grid = initial.grid
    snapshots = []

    def record(t: float, rho: np.ndarray, q: np.ndarray):
        snapshots.append(Snapshot(t=t, rho=DensityField(grid, rho[0]),
                                  q=AveragedField(grid, q[0], eps)))

    stats = march_nonlocal((initial,), model, (eps,), config, record)
    return Trajectory(snapshots=tuple(snapshots), stats=stats)


# ---------------------------------------------------------------------------
# characteristics / fixed-point oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PicardResult:
    field: DensityField
    iterations: int
    final_delta: float
    deltas: tuple[float, ...]

    @property
    def contraction_ratios(self) -> list[float]:
        return [b / a for a, b in zip(self.deltas, self.deltas[1:]) if a > 0]


#: sweeps after which ``picard_oracle`` gives up with ContractionFailure
MAX_SWEEPS = 60


def _slopes(values: np.ndarray, grid) -> np.ndarray:
    """Forward differences of node values along the last axis.

    The difference out of the last node reaches the node past it,
    ``grid.ghosts``' right value: the first node on periodic grids, and
    the last node itself under constant extension, where the difference
    is zero and holds the end value past the table as ``np.interp`` does.
    """
    return np.diff(values, axis=-1,
                   append=grid.ghosts(values)[1][..., np.newaxis])


def _lerp(values: np.ndarray, slopes: np.ndarray, s: np.ndarray,
          grid, out: np.ndarray | None = None) -> np.ndarray:
    """Linear interpolation at node-unit positions s of node values.

    Node k sits at s = k, so node j = floor(s) and weight w = s - j give
    values[j] + w slopes[j], written into ``out`` when it is given.
    Periodic grids wrap j; constant extension clamps s to the table.  s
    itself is not written.  A non-finite s raises BlowupError.
    """
    n = grid.n_cells
    if grid.periodic:
        j = np.floor(s)
        w = s - j
    else:
        w = np.minimum(np.maximum(s, 0.0), n - 1)
        j = np.floor(w)
        w -= j
    # "wrap" mode moves an index by n per pass, so far indices are reduced
    # first, while still floats; a NaN fails the test and is caught here
    if not (j.min() >= -n and j.max() < 2 * n):
        if not np.isfinite(j).all():
            raise BlowupError("non-finite traced position")
        np.mod(j, n, out=j)
    idx = j.astype(np.intp)
    out = np.take(slopes, idx, mode="wrap", out=out)
    out *= w
    out += np.take(values, idx, mode="wrap", out=w)
    return out


#: cells traced at once: rows of the Picard trace are processed in blocks
#: of max(1, TRACE_BLOCK_CELLS // N) rows, so a sweep's temporaries do not
#: grow with the level count
TRACE_BLOCK_CELLS = 16384


def _sweep(history: np.ndarray, new: np.ndarray, pos: np.ndarray,
           expo: np.ndarray, scan: tuple[np.ndarray, np.ndarray],
           model: VelocityModel, eps_val: float, dt: float, grid) -> float:
    """One Picard sweep from ``history`` into ``new``; returns the distance.

    Row l of the guess (time l dt) is traced back from the cell centers
    through levels l, l - 1, ..., 1 to its foot at t = 0, and level l's
    interpolation tables (q, the time-midpoint q and rho, and their
    forward differences) are built when the trace reaches it, so they
    cost O(N) each.  Rows are traced in blocks of ``TRACE_BLOCK_CELLS``
    cells.  Row 0 of both buffers holds the data and is not written; rows
    1..m of ``new`` get foot * exp(exponent), and those of ``history`` the
    distance |new - history|, whose max is returned.  ``scan`` holds the
    kernel scan's work array and spare buffer for the m + 1 levels
    (``_scan_work``, ``_scan_spare``); the averaged history is a view of
    the first, and ``pos`` may sit in the second, which the scan writes
    before the trace starts.
    """
    m, n = pos.shape
    rows = max(1, TRACE_BLOCK_CELLS // n)
    cells_per_dt = dt / grid.dx
    initial = history[0]
    q_levels = _recursion(history, (grid.dx / eps_val,) * (m + 1),
                          grid.periodic, *scan)

    # ensemble backward trace: row l (pos[l - 1]) targets time l*dt
    pos[:] = np.arange(n) + 0.5
    expo.fill(0.0)
    for level in range(m, 0, -1):
        q_row = q_levels[level]
        q_slopes = _slopes(q_row, grid)
        # the midpoint in time between levels level - 1 and level
        q_mid_row = 0.5 * (q_row + q_levels[level - 1])
        qm_slopes = _slopes(q_mid_row, grid)
        rho_mid_row = 0.5 * (history[level] + history[level - 1])
        rm_slopes = _slopes(rho_mid_row, grid)
        # rows with target >= current level, a block at a time
        for lo in range(level - 1, m, rows):
            s = pos[lo:lo + rows]
            k1 = model.v(_lerp(q_row, q_slopes, s, grid))
            s_half = np.multiply(k1, -0.5 * cells_per_dt)
            s_half += s
            q_mid = _lerp(q_mid_row, qm_slopes, s_half, grid)
            s_half -= 0.5  # center (rho) nodes
            gain = _lerp(rho_mid_row, rm_slopes, s_half, grid)
            # -v'(q) q_x dt with q_x = (q - rho)/eps
            gain -= q_mid
            gain *= model.dv(q_mid)
            gain *= dt / eps_val
            expo[lo:lo + rows] += gain
            drift = np.multiply(model.v(q_mid), cells_per_dt)
            s -= drift  # s is a view: this moves pos[lo:lo + rows]

    init_slopes = _slopes(initial, grid)
    for lo in range(0, m, rows):
        s = pos[lo:lo + rows]
        s -= 0.5
        foot = _lerp(initial, init_slopes, s, grid,
                     out=new[lo + 1:lo + rows + 1])
        e = expo[lo:lo + rows]
        foot *= np.exp(e, out=e)

    retired = history[1:]
    np.subtract(new[1:], retired, out=retired)
    np.abs(retired, out=retired)
    return float(np.max(retired))


def picard_oracle(initial: DensityField, model: VelocityModel,
                  eps: KernelScale, t0: float,
                  iteration_tolerance: float = 1e-10) -> PicardResult:
    """Short-time solution by iterating a characteristics transform.

    Keeps a guessed space-time history on uniform levels over [0, t0].
    One sweep replaces the guess wholesale: from every level's cell
    centers, trace backward along dx/dt = v(q) (midpoint rule, linear
    interpolation of the current guess in x and t), accumulate the
    exponent of du/dt = -v'(q) q_x u along the path using the kernel
    identity q_x = (q - rho)/eps, and set the new value to the traced
    initial datum times that exponential.  The levels number
    ceil(t0 v(0) / (0.35 dx)), at least 3, so that a characteristic at
    speed v(0) or less moves at most 0.35 cells per level.  Sweeps repeat
    until successive histories agree to ``iteration_tolerance`` in the
    max norm, at most ``MAX_SWEEPS`` times.

    Traced positions are carried in cell units, s = (x - x_min)/dx, and
    they and the exponent are updated in place.  The edge (q) nodes sit
    at integer s and the center (rho) nodes half a cell right, so a
    midpoint reads q at s_half and rho at s_half - 1/2.  The interpolation
    uses that the nodes are uniform: a point costs one floor and two
    gathers from the node values and their forward differences, with the
    index wrapped on periodic grids and the point clamped to the table
    under constant extension.  Row l is traced back
    through l levels, so a sweep over m levels visits m (m + 1) / 2
    row-levels and takes O(levels^2 * N) time (2775 row-levels of N cells
    at 74 levels).  The oracle holds five (levels + 1) x N tables, made
    once: two history buffers, the exponents, and the kernel scan's work
    array (and its block sums, an eighth of a table), of which the
    averaged history is a view, and spare buffer, which holds the
    positions.  A sweep adds O(N) tables per level and one block of
    ``TRACE_BLOCK_CELLS`` cells of temporaries; every operation is per
    element, so the blocking does not change a bit.

    The transform contracts only for short horizons on Lipschitz,
    uniformly positive data; that is the intended regime: divergence (the
    iterate distance growing three sweeps in a row) raises
    ContractionFailure, a non-finite iterate BlowupError.  Returns the
    density at t0 with the sweep count and iterate distances.
    ``iteration_tolerance`` must be positive and the data in
    [0, rho_jam], else DomainError.
    """
    grid = initial.grid
    if not iteration_tolerance > 0.0:
        raise DomainError(
            f"iteration_tolerance must be > 0, got {iteration_tolerance}")
    check_band(initial.values, model.rho_jam, "initial density")
    if float(np.min(initial.values)) <= 0.0:
        raise PositivityError(
            "the characteristics oracle requires uniformly positive data")
    if not np.isfinite(t0):
        raise DomainError(f"t0 must be finite, got {t0}")
    if t0 < 0.0:
        raise DomainError(f"t0 must be >= 0, got {t0}")
    if t0 == 0.0:
        return PicardResult(initial, 0, 0.0, ())

    v0 = model.v_max
    m = max(3, int(np.ceil(t0 / (0.35 * grid.dx / max(v0, 1e-30)))))
    n = grid.n_cells

    # history[l] holds the guess at time l*dt; level 0 is pinned to the
    # data in both buffers, which swap roles after every sweep
    history = np.tile(initial.values, (m + 1, 1))
    new = history.copy()
    # the kernel scan's buffers, made once; traced positions in cell
    # units, in the scan's spare buffer, and exponents, rows 1..m (index
    # shifted by one)
    hs = (grid.dx / eps.epsilon,) * (m + 1)
    scan = _scan_work(n, hs), _scan_spare(n, hs)
    pos = scan[1][:m * n].reshape(m, n)
    expo = np.empty((m, n))
    deltas: list[float] = []

    for sweep in range(1, MAX_SWEEPS + 1):
        try:
            delta = _sweep(history, new, pos, expo, scan, model,
                           eps.epsilon, t0 / m, grid)
        except BlowupError as err:
            raise BlowupError(f"{err} at sweep {sweep}") from None
        if not np.isfinite(delta):
            raise BlowupError(f"non-finite iterate at sweep {sweep}")
        deltas.append(delta)
        if len(deltas) >= 4 and deltas[-4] < deltas[-3] < deltas[-2] < delta:
            raise ContractionFailure(
                f"iterate distance grew 3 sweeps in a row (latest ratio "
                f"{delta / deltas[-2]:.3g})")
        history, new = new, history
        if delta < iteration_tolerance:
            return PicardResult(DensityField(grid, history[m]), sweep,
                                delta, tuple(deltas))

    raise ContractionFailure(
        f"no convergence in {MAX_SWEEPS} sweeps; last distance {deltas[-1]:.3e}")

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
from .kernel import AveragedField, _BoundScan
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
    the kernel scan bound to the density (``kernel._BoundScan``), with its
    work array, of which q is a view, and its spare buffer, which holds
    the update between scans.  Every view a step reads is made with them,
    so only a custom law's evaluator, whose result is copied into the
    interface array, allocates on each step.
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
    # q at the n + 1 interfaces, turned into v(q) in place and then into
    # the flux; the last one sees q_0 again on periodic grids and the
    # frozen edge value under constant extension
    iface = np.empty((m, n + 1))
    scan = _BoundScan(rho, hs, grid.periodic)
    q = scan()
    # the scan overwrites the update, which is no longer needed once the
    # density is stepped
    update = scan.spare[:m * n].reshape(m, n)
    speeds, inner, past_end = iface.reshape(-1), iface[:, :n], iface[:, n]
    end = q[:, 0] if grid.periodic else rho[:, -1]
    upstream, downstream, first = iface[:, :-1], iface[:, 1:], iface[:, 0]
    ghost = grid.ghosts(rho)[0]
    v0, cfl_dx = model.v_max, config.cfl * grid.dx

    def stable_dt() -> float:
        np.copyto(inner, q)
        np.copyto(past_end, end)
        model.v_into(speeds, speeds)
        return cfl_dx / max(v0, float(np.maximum.reduce(speeds)))

    def advance(dt: float):
        np.multiply(rho, downstream, out=downstream)
        np.multiply(ghost, first, out=first)
        np.subtract(downstream, upstream, out=update)
        np.multiply(update, dt / grid.dx, out=update)
        np.subtract(rho, update, out=rho)
        scan()

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


def _slopes(values: np.ndarray, grid, out: np.ndarray) -> np.ndarray:
    """Forward differences of node values along the last axis, written
    into ``out``.

    The difference out of the last node reaches the node past it,
    ``grid.ghosts``' right value: the first node on periodic grids, and
    the last node itself under constant extension, where the difference
    is zero and holds the end value past the table as ``np.interp`` does.
    """
    np.subtract(values[..., 1:], values[..., :-1], out=out[..., :-1])
    np.subtract(grid.ghosts(values)[1], values[..., -1], out=out[..., -1])
    return out


def _far(lo: float, hi: float, grid) -> bool:
    """Whether node indices floor(s), for positions s in [lo, hi], must be
    reduced mod N before "wrap" mode gathers with them: "wrap" moves an
    index by N per pass, so only [-N, 2N) is taken directly.  Under
    constant extension s is clamped to the table first, so never.  A NaN
    position, or on periodic grids an infinite one, raises BlowupError.
    """
    n = grid.n_cells
    if not grid.periodic:
        if np.isnan(lo) or np.isnan(hi):
            raise BlowupError("non-finite traced position")
        return False
    if lo >= -n and hi < 2 * n:
        return False
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise BlowupError("non-finite traced position")
    return True


def _lerp(values: np.ndarray, slopes: np.ndarray, s: np.ndarray,
          grid, out: np.ndarray, scratch,
          far: bool | None = None) -> np.ndarray:
    """Linear interpolation at node-unit positions s of node values.

    Node k sits at s = k, so node j = floor(s) and weight w = s - j give
    values[j] + w slopes[j], written into ``out``.  Periodic grids wrap
    j; constant extension clamps s to the table.  s is read only before
    the first gather writes ``out``, so ``out`` may be s itself; s is not
    written otherwise.  ``scratch`` holds j, w (floats) and the index
    (intp), each of s's shape.  ``far`` says whether j must be reduced
    mod N first (``_far``); when it is not given, j's range is checked
    here.  A non-finite s raises BlowupError, before j is cast to an
    index.
    """
    n = grid.n_cells
    j, w, idx = scratch
    if grid.periodic:
        np.floor(s, out=j)
        np.subtract(s, j, out=w)
    else:
        np.maximum(s, 0.0, out=w)
        np.minimum(w, n - 1, out=w)
        np.floor(w, out=j)
        w -= j
    if far is None:
        far = _far(float(np.minimum.reduce(j, axis=None)),
                   float(np.maximum.reduce(j, axis=None)), grid)
    if far:
        np.mod(j, n, out=j)
    np.copyto(idx, j, casting="unsafe")
    np.take(slopes, idx, mode="wrap", out=out)
    out *= w
    out += np.take(values, idx, mode="wrap", out=w)
    return out


#: cells traced at once: rows of the Picard trace are processed in blocks
#: of max(1, TRACE_BLOCK_CELLS // N) rows, so a sweep's temporaries do not
#: grow with the level count
TRACE_BLOCK_CELLS = 16384


class _Trace:
    """A Picard sweep's temporaries for m levels of N cells, made once per
    oracle: the ``rows`` of one trace block, a speed, a midpoint
    position, the midpoint q, the gain and ``_lerp``'s scratch; and one
    level's interpolation tables, N each: q (a contiguous copy of the
    scan's reversed row, which ``np.take`` would copy on every gather),
    the time-midpoint q and rho, and the forward differences of those
    three."""

    def __init__(self, m: int, n: int):
        self.rows = max(1, TRACE_BLOCK_CELLS // n)
        block = (min(self.rows, m), n)
        self.centers = np.arange(n) + 0.5
        self._block = tuple(np.empty(block) for _ in range(6)) + (
            np.empty(block, dtype=np.intp),)
        self.tables = tuple(np.empty(n) for _ in range(6))

    def block(self, k: int):
        """(speed, s_half, q_mid, gain, (j, w, index)) for k rows."""
        speed, s_half, q_mid, gain, j, w, idx = (
            a[:k] for a in self._block)
        return speed, s_half, q_mid, gain, (j, w, idx)


def _sweep(history: np.ndarray, pos: np.ndarray, expo: np.ndarray, scan,
           trace: _Trace, model: VelocityModel, eps_val: float, dt: float,
           grid) -> float:
    """One Picard sweep of ``history`` in place; returns the distance.

    Row l of the guess (time l dt) is traced back from the cell centers
    through levels l, l - 1, ..., 1 to its foot at t = 0, and level l's
    interpolation tables (q, the time-midpoint q and rho, and their
    forward differences) are built when the trace reaches it, so they
    cost O(N) each.  Rows are traced in blocks of ``TRACE_BLOCK_CELLS``
    cells.  Each row's foot lerp writes the new iterate, foot *
    exp(exponent), over the row's traced positions in ``pos``; the
    distance |new - history| then goes into ``expo``, the new rows are
    copied into rows 1..m of ``history``, and the distance's max is
    returned.  Row 0 of ``history`` holds the data and is not written.
    ``scan`` is the kernel scan bound to ``history`` for its m + 1 levels
    (``kernel._BoundScan``); the averaged history is a view of its work
    array, and ``pos`` may sit in its spare buffer, which the scan writes
    before the trace starts and not again until the next sweep.  Every
    temporary is one of ``trace``'s.
    """
    m, n = pos.shape
    rows = trace.rows
    cells_per_dt = dt / grid.dx
    half_step, gain_scale = -0.5 * cells_per_dt, dt / eps_val
    initial = history[0]
    q_levels = scan()
    q_row, q_slopes, q_mid_row, qm_slopes, rho_mid_row, rm_slopes = (
        trace.tables)

    # ensemble backward trace: row l (pos[l - 1]) targets time l*dt
    np.copyto(pos, trace.centers)
    expo.fill(0.0)
    for level in range(m, 0, -1):
        np.copyto(q_row, q_levels[level])
        _slopes(q_row, grid, q_slopes)
        # the midpoint in time between levels level - 1 and level
        np.add(q_row, q_levels[level - 1], out=q_mid_row)
        q_mid_row *= 0.5
        _slopes(q_mid_row, grid, qm_slopes)
        np.add(history[level], history[level - 1], out=rho_mid_row)
        rho_mid_row *= 0.5
        _slopes(rho_mid_row, grid, rm_slopes)
        # rows with target >= current level, a block at a time
        for lo in range(level - 1, m, rows):
            s = pos[lo:lo + rows]
            speed, s_half, q_mid, gain, scratch = trace.block(len(s))
            _lerp(q_row, q_slopes, s, grid, speed, scratch)
            model.v_into(speed, speed)
            np.multiply(speed, half_step, out=s_half)
            s_half += s
            # one range check serves both midpoint lerps: q at s_half, rho
            # half a cell left of it
            far = _far(float(np.minimum.reduce(s_half, axis=None)) - 0.5,
                       float(np.maximum.reduce(s_half, axis=None)), grid)
            _lerp(q_mid_row, qm_slopes, s_half, grid, q_mid, scratch, far)
            s_half -= 0.5  # center (rho) nodes
            _lerp(rho_mid_row, rm_slopes, s_half, grid, gain, scratch, far)
            # -v'(q) q_x dt with q_x = (q - rho)/eps
            gain -= q_mid
            gain *= model.dv_into(q_mid, speed)
            gain *= gain_scale
            expo[lo:lo + rows] += gain
            model.v_into(q_mid, speed)
            speed *= cells_per_dt
            s -= speed  # s is a view: this moves pos[lo:lo + rows]

    # the new iterate, foot * exp(exponent), over the traced positions
    init_slopes = _slopes(initial, grid, q_slopes)
    for lo in range(0, m, rows):
        s = pos[lo:lo + rows]
        s -= 0.5
        foot = _lerp(initial, init_slopes, s, grid, s,
                     trace.block(len(s))[-1])
        e = expo[lo:lo + rows]
        foot *= np.exp(e, out=e)

    np.subtract(pos, history[1:], out=expo)
    np.abs(expo, out=expo)
    np.copyto(history[1:], pos)
    return float(np.maximum.reduce(expo, axis=None))


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
    at 74 levels).  The oracle holds four (levels + 1) x N tables, made
    once: the history, the exponents, which take the iterate distance at
    the end of a sweep, and the work array (and its block sums, an eighth
    of a table) of the kernel scan bound to the history, of which the
    averaged history is a view, and its spare buffer, which holds the
    positions and then the new iterate until it is copied into the
    history.  Its temporaries are made once too (``_Trace``): six N-long
    interpolation tables, rewritten at each level, and one block of
    ``TRACE_BLOCK_CELLS`` cells for each per-block array; every operation
    is per element, so the blocking does not change a bit.  One range
    check per block serves both midpoint gathers, q at s_half and rho at
    s_half - 1/2, and v'(q) goes into the block's speed buffer
    (``VelocityModel.dv_into``).

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
    # data, and each sweep rewrites levels 1..m in place
    history = np.tile(initial.values, (m + 1, 1))
    # the kernel scan bound to the history; traced positions in cell
    # units, in the scan's spare buffer, and exponents, rows 1..m (index
    # shifted by one)
    hs = (grid.dx / eps.epsilon,) * (m + 1)
    scan = _BoundScan(history, hs, grid.periodic)
    pos = scan.spare[:m * n].reshape(m, n)
    expo = np.empty((m, n))
    trace = _Trace(m, n)
    deltas: list[float] = []

    for sweep in range(1, MAX_SWEEPS + 1):
        try:
            delta = _sweep(history, pos, expo, scan, trace, model,
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
        if delta < iteration_tolerance:
            return PicardResult(DensityField(grid, history[m]), sweep,
                                delta, tuple(deltas))

    raise ContractionFailure(
        f"no convergence in {MAX_SWEEPS} sweeps; last distance {deltas[-1]:.3e}")

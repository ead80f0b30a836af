"""Forward-looking exponential averaging of a density field.

The averaged density

    q(x) = integral_0^inf eps^-1 exp(-s/eps) rho(x + s) ds

solves the one-sided ODE q_x = (q - rho)/eps, which is what makes this
kernel family special: q can be evaluated exactly in O(N) by a right-to-left
recursion instead of by convolution.

Anchoring convention: q_i denotes the average seen from the LEFT EDGE of
cell i, i.e. from the interface i-1/2.  With beta = exp(-dx/eps) and
piecewise-constant rho the recursion

    q_i = (1 - beta) rho_i + beta q_{i+1}

is the exact integral, not an approximation.  Upwind solvers consume these
edge values directly as interface speeds.  Other anchorings (center, right
edge) would be equally consistent; the left edge is a convention, chosen so
that averaging error never contaminates flux evaluation.

The recursion is a first-order linear scan, evaluated in numpy as a scaled
prefix sum (the linear-recurrence scan of Blelloch, "Prefix sums and their
applications", 1990), blocked: the cells are summed in blocks of
b = min(8, row width), one cumsum runs over the block sums alone, and one
matrix product with a b x b triangle gives every prefix sum.  No compiled
filter is needed, so importing this module loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (DensityField, Grid, KernelScale, QuadratureError,
                   ShapeError, _as_readonly)

#: integration cut-off in units of eps; the discarded kernel mass
#: exp(-40) ~ 4e-18 is below double-precision relevance
TRUNCATION_WIDTHS = 40.0

#: largest exponent h * width of a scan row (h = dx/eps): the scan weights
#: exp(h k) stay below exp(600) ~ 4e260, finite with room for the sums
SCAN_EXPONENT_CAP = 600.0

#: cells per block of the scan's blocked prefix sum
SCAN_BLOCK = 8


@dataclass(frozen=True)
class AveragedField:
    """Averaged density at cell left edges, same length as the density."""

    grid: Grid
    values: np.ndarray
    epsilon: KernelScale

    def __post_init__(self):
        object.__setattr__(
            self, "values",
            _as_readonly(self.values, self.grid.n_cells, "AveragedField"))


def _check_pair(rho: DensityField, q: AveragedField):
    if rho.grid != q.grid:
        raise ShapeError("density and averaged field live on different grids")


@lru_cache(maxsize=32)
def _scan_weights(width: int, h: float) -> np.ndarray:
    """Read-only scan weights w_k = beta^-k = exp(h k), k < width.

    A rounded exponent h * k would put a relative error of up to u h k
    (~300 u near the cap) into the weights.  Splitting h = h_hi + h_lo
    with h_hi on 26 bits (Dekker) makes h_hi * k exact for k < 2^27, so
    each weight is within a few ulp of exp(h k).
    """
    k = np.arange(width, dtype=float)
    scaled = h * 134217729.0  # (2^27 + 1) h
    h_hi = scaled - (scaled - h)
    w = np.exp(h_hi * k) * np.exp((h - h_hi) * k)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=32)
def _scan_triangle(block: int, h: float) -> np.ndarray:
    """Read-only (block, block) matrix, 1 - beta on and above the
    diagonal: a block of cells times it gives the block's inclusive
    prefix sums, already scaled by 1 - beta."""
    tri = np.triu(np.full((block, block), -np.expm1(-h)))
    tri.setflags(write=False)
    return tri


@dataclass(frozen=True)
class _ScanGroup:
    """Members of an ensemble that share a scan width, with their weights.

    ``members`` indexes the ensemble rows.  A scan row of ``width`` cells
    is summed in blocks of ``block`` = min(SCAN_BLOCK, width) cells, so in
    the work array it takes ``stride`` cells, width rounded up to whole
    blocks.  ``w`` (weights) and ``tri`` (``_scan_triangle``) have one
    entry per member, or a single one shared by all when the members
    share one h, as a Picard sweep's levels do; the per-member scalars are
    (m, 1) columns.  Each is computed exactly as for a lone member, so
    that every row rounds the same way in any ensemble.
    """

    members: np.ndarray
    width: int
    rows: int
    block: int
    stride: int
    w: np.ndarray            # (1 or m, 1, width): exp(h k), k < width
    tri: np.ndarray          # (1 or m, block, block)
    ones: np.ndarray         # (block,): a block times it is the block's sum
    gamma: np.ndarray        # beta^width, the damping per row
    close: np.ndarray        # (1 - beta) / (w_k (1 - beta^N)), k = the last
                             # cell's place in its row: the periodic seed
    seed_lift: np.ndarray    # beta / (1 - beta) gamma^j, j < min(rows, 3)

    @property
    def cells(self) -> int:  # one member's rows of cells, with padding
        return self.rows * self.stride


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


@lru_cache(maxsize=32)
def _scan_plan(n: int, hs: tuple[float, ...]) -> tuple[_ScanGroup, ...]:
    """Members grouped by scan width, for rows of n cells with h = hs[m]."""
    widths = [min(n, max(1, int(SCAN_EXPONENT_CAP / h))) for h in hs]
    groups = []
    for width in dict.fromkeys(widths):
        members = [m for m, wd in enumerate(widths) if wd == width]
        rows = -(-n // width)
        block = min(SCAN_BLOCK, width)
        h = [hs[m] for m in members]
        # beta^width as beta / w_{width-1}: exp(-h width) itself would carry
        # the rounding of h width, up to ~600 u, into every row's carry
        gamma = [np.exp(-x) / _scan_weights(width, x)[-1] for x in h]
        last = n - 1 - (rows - 1) * width
        # members of one h share one copy of the weights: the cached ones
        shared = h[:1] if len(set(h)) == 1 else h
        w = (_scan_weights(width, h[0])[None] if len(shared) == 1
             else np.stack([_scan_weights(width, x) for x in shared]))
        groups.append(_ScanGroup(
            members=np.array(members), width=width, rows=rows, block=block,
            stride=-(-width // block) * block, w=w[:, None],
            tri=np.stack([_scan_triangle(block, x) for x in shared]),
            ones=np.ones(block),
            gamma=_column(gamma),
            close=_column([-np.expm1(-x) / _scan_weights(width, x)[last]
                           / -np.expm1(-x * n) for x in h]),
            seed_lift=np.stack([np.exp(-x) / -np.expm1(-x)
                                * g ** np.arange(min(rows, 3))
                                for x, g in zip(h, gamma)])))
    return tuple(groups)


class _GroupScan:
    """The recursion on one scan group's (m, N) rows ``values``, bound to
    them and to its share of the scan's buffers: every view and temporary
    of a call is made here, once, so a call costs its array work alone.
    Its q is a reversed view of the first m * rows * width floats of
    ``work``; the scaled prefix sums pass through ``spare``."""

    def __init__(self, values: np.ndarray, g: _ScanGroup, periodic: bool,
                 work: np.ndarray, spare: np.ndarray):
        m, n = values.shape
        rows, width, block = g.rows, g.width, g.block
        cells = m * g.cells
        num = work[:cells].reshape(m, rows, g.stride)
        sums = work[cells:cells + cells // block].reshape(m, rows, -1)
        self.values, self.g, self.periodic = values, g, periodic

        # r w along the rows; the rows' padding to whole blocks and the
        # last row's end are zeroed on every call, since whatever the work
        # array held there could overflow the sums.  The reversed density
        # r is a view of ``values``, so each call reads the values as they
        # are then
        r = values[:, ::-1]
        full = n // width
        self._fill = [(r[:, :full * width].reshape(m, full, width,
                                                   copy=False),
                       g.w, num[:, :full, :width])]
        self._zero = []
        if g.stride > width:
            self._zero.append(num[:, :full, width:])
        if full < rows:
            rest = n - full * width
            self._fill.append((r[:, full * width:], g.w[:, 0, :rest],
                               num[:, full, :rest]))
            self._zero.append(num[:, full, rest:])
        self._last = values[:, -1]
        # constant extension: everything beyond the last cell averages to
        # its value c, so the sums start from beta c / (1 - beta)
        self._end_seed = None if periodic else (
            g.seed_lift[:, 0].copy(), np.empty(m), num[:, 0, 0])
        self._blocks = num.reshape(m, -1, block)
        self._sums, self._block_sums = sums, sums.reshape(m, -1)
        # each block past a row's first starts from the blocks before it
        self._fold = ((num[:, :, block::block], sums[:, :, :-1])
                      if g.stride > block else None)

        # each row's lift, 1/(1 - beta) times its carry, goes into the
        # first cell of each of its blocks; gamma times the rows' end
        # values (the rows' sums) is the lift of the rows after them, and
        # gamma and gamma^2 times those again reach two and three rows on
        lift = np.empty((m, rows)) if rows > 1 or periodic else None
        self._lift = None if lift is None else (
            lift[:, :1], lift[:, :, None], num[:, :, ::block])
        totals = sums[:, :, -1]
        self._carry = None if rows == 1 else (
            totals[:, :-1], lift[:, 1:], lift[:, 1:-1],
            np.empty((m, rows - 2)), lift[:, 2:], g.gamma * g.gamma,
            lift[:, 1:-2], np.empty((m, max(rows - 3, 0))), lift[:, 3:])
        k = g.seed_lift.shape[1]
        self._closure = None if not periodic else (
            totals[:, -1:], lift[:, -1:], np.empty((m, 1)), np.empty((m, k)),
            lift[:, :k])

        self._prefix = spare[:cells].reshape(m, -1, block)
        self._quotient = (spare[:cells].reshape(m, rows, g.stride)[:, :, :width],
                          work[:m * rows * width].reshape(m, rows, width))
        self.q = self._quotient[1].reshape(m, -1)[:, n - 1::-1]
        self._signs = np.empty(m, dtype=bool)

    def __call__(self) -> np.ndarray:
        g = self.g
        for r, w, num in self._fill:
            np.multiply(r, w, out=num)
        for pad in self._zero:
            pad.fill(0.0)
        if self._end_seed is not None:
            lift, seed, first = self._end_seed
            np.multiply(self._last, lift, out=seed)
            np.add(first, seed, out=first)

        # block sums and their running sums along each row; each block then
        # starts from the blocks before it, and one product with the scaled
        # triangle gives every (1 - beta) times prefix sum at once.  The
        # products run per member, so that BLAS sees the same shapes, and
        # rounds each row the same way, in any ensemble
        np.matmul(self._blocks, g.ones, out=self._block_sums)
        np.add.accumulate(self._sums, axis=-1, out=self._sums)
        if self._fold is not None:
            starts, before = self._fold
            np.add(starts, before, out=starts)
        if self._lift is not None:
            self._lift_rows()
        np.matmul(self._blocks, g.tri, out=self._prefix)
        np.divide(self._quotient[0], g.w, out=self._quotient[1])
        if np.count_nonzero(np.signbit(self._last, out=self._signs)):
            _negative_zero_tail(self.values, self.q, self.periodic)
        return self.q

    def _lift_rows(self):
        """Add each row's carry and seed to the first cell of its blocks.
        The rows before it are damped by gamma per row (gamma^3
        underflows); the periodic seed reaches the first three rows.  A
        constant-extension seed is already in row 0's sums, so the rows
        after it see it through them."""
        g = self.g
        first, lift, starts = self._lift
        first.fill(0.0)
        if self._carry is not None:
            (totals, ends, ends_two, two, two_on, gamma2, ends_three, three,
             three_on) = self._carry
            np.multiply(g.gamma, totals, out=ends)
            np.multiply(g.gamma, ends_two, out=two)
            np.multiply(gamma2, ends_three, out=three)
            np.add(two_on, two, out=two_on)
            np.add(three_on, three, out=three_on)
        if self._closure is not None:
            # one full period later the same edge is seen again, damped by
            # beta^N; closing the geometric sum over q_{N-1} gives q_0
            # exactly
            total, last, seed, lifted, head = self._closure
            np.add(total, last, out=seed)
            np.multiply(seed, g.close, out=seed)
            np.multiply(seed, g.seed_lift, out=lifted)
            np.add(head, lifted, out=head)
        np.add(starts, lift, out=starts)


def _negative_zero_tail(values: np.ndarray, q: np.ndarray, periodic: bool):
    """Give q the sign of a -0.0 density tail, as the sequential recursion
    does: q_i = -0.0 on a trailing run of -0.0 cells when the seed is
    -0.0 too, that is, always under constant extension and, on a
    periodic grid, when every cell is -0.0.  The sums start from +0.0,
    so they lose that sign; only a -0.0 last cell can start such a run."""
    last = values[:, -1]
    for i in np.flatnonzero(np.signbit(last) & (last == 0.0)):
        kept = np.flatnonzero(~(np.signbit(values[i]) & (values[i] == 0.0)))
        start = kept[-1] + 1 if kept.size else 0
        if start == 0 or not periodic:
            q[i, start:] = -0.0


class _BoundScan:
    """The kernel scan bound to one (M, N) values array, for its rows'
    hs and one boundary: ``scan()`` returns q for the values as they are
    when it is called.

    The scan owns its buffers: a work array, of which q is a view (each
    scan group's rows of cells and their block sums, and when the members
    form more than one group, room for each group's gathered densities
    and for q), and a spare buffer that the scaled prefix sums pass
    through.  The spare holds nothing once a scan returns, so an owner may
    keep in its first M * N floats an (M, N) array that it does not need
    across a scan.  Every view and per-row temporary is made when the
    scan is built, so a call allocates nothing N-long and nothing per
    row; q holds until the next call.
    """

    def __init__(self, values: np.ndarray, hs, periodic: bool):
        m, n = values.shape
        groups = _scan_plan(n, tuple(hs))
        size = sum(g.members.size * (g.cells + g.cells // g.block)
                   for g in groups)
        if len(groups) > 1:
            size += 2 * m * n
        self.work = np.empty(size)
        self.spare = np.empty(sum(g.members.size * g.cells for g in groups))
        self.values = values
        if len(groups) == 1:
            self._gathers = ()
            self._single = _GroupScan(values, groups[0], periodic,
                                      self.work, self.spare)
            self.q = self._single.q
            return
        self._single = None
        self.q = self.work[:m * n].reshape(m, n)
        gathers, start, spare_start = [], m * n, 0
        for g in groups:
            rows = self.work[start:start + g.members.size * n].reshape(-1, n)
            start += rows.size
            cells = g.members.size * g.cells
            gathers.append((g.members, rows, _GroupScan(
                rows, g, periodic,
                self.work[start:start + cells + cells // g.block],
                self.spare[spare_start:spare_start + cells])))
            start += cells + cells // g.block
            spare_start += cells
        self._gathers = tuple(gathers)

    def __call__(self) -> np.ndarray:
        if self._single is not None:
            return self._single()
        for members, rows, scan in self._gathers:
            np.take(self.values, members, axis=0, out=rows, mode="clip")
            self.q[members] = scan()
        return self.q


def _recursion(values: np.ndarray, hs, periodic: bool) -> np.ndarray:
    """Exact recursion q_i = (1 - beta) rho_i + beta q_{i+1}, as a scan.

    ``values`` holds one density per row (an ensemble of M members on one
    grid) and row m has its own h = hs[m] = dx/eps_m, beta = exp(-h).  On
    the reversed density r (r_k = rho_{N-1-k}), with w_k = beta^-k, the
    recursion seeded with q_N = c has the closed form

        q_{N-1-k} = (1 - beta) (beta c / (1 - beta) + sum_{j<=k} r_j w_j)
                    / w_k,

    a scaled prefix sum.  The seed is rho_{N-1} for constant extension.
    For periodic grids the sums run seeded with 0 and the geometric
    closure over all later periods gives the seed c = q_0.

    The weights are cached per (width, h) and kept finite by capping a
    scan row at h * width <= SCAN_EXPONENT_CAP, so the scan runs along
    rows of width min(N, cap / h) cells, each joined to the rows before
    it by a carry.  Every scan takes one path, a blocked prefix sum (the
    scan of Blelloch, "Prefix sums and their applications", 1990): r w
    fills the rows, padded to whole blocks of b = min(SCAN_BLOCK, width)
    cells; one matrix-vector product gives the block sums and one cumsum
    runs over those alone, N/b numbers; each block's first cell takes the
    blocks before it in its row, and the row's carry and seed times
    1/(1 - beta); one product with a cached b x b triangle of 1 - beta
    gives every scaled prefix sum; one divide by w gives q.  With two or
    more rows h * width > 300, so the damping gamma = beta^width <
    exp(-300) per row makes gamma^3 underflow, and the carry series
    end_{b-1} + gamma end_{b-2} + gamma^2 end_{b-3} of the earlier rows'
    end values is exact in float64.  One row (h * N <= cap, as in every
    shipped configuration and benchmark workload) carries only the seed.
    The sums start from +0.0, so a -0.0 density tail is given its sign
    afterwards: q is -0.0 there, as the sequential recursion gives it.

    Members that share a scan width share one scan over all their rows,
    so one-row and multi-row members can sit in one ensemble.  Every
    operation acts along a row, with per-member scalars computed as for a
    lone member, and the two products run per member, so each member's q
    is bit for bit the same in any ensemble.

    This is the scan bound to ``values`` (``_BoundScan``), built and
    called once; q is a view of that scan's work array.  A solver that
    scans the same array on every step builds the bound scan once instead
    and calls it, so that a step allocates nothing for its scan.

    Rounding: a prefix sum is the sum of the blocks before it plus at
    most b terms of its own block; each term carries relative error u
    and the terms grow like w, so q is accurate to about
    u (1 + eps/dx) max|rho|, the order of the sequential recursion
    (tests/test_kernel.py holds the two within 8 u (1 + eps/dx) max|rho|).
    """
    return _BoundScan(np.ascontiguousarray(values), hs, periodic)()


def _gauss_weights(dx: float, eps: float, tol: float) -> np.ndarray:
    """Kernel mass per downstream cell, by refined Gauss-Legendre panels.

    W_k = integral over [k dx, (k+1) dx] of eps^-1 exp(-s/eps) ds, for
    k dx < TRUNCATION_WIDTHS * eps.  Panels per cell double until two
    successive weight vectors agree to tol in the max norm.  Kept free of
    the closed-form geometric factors so it can serve as an independent
    oracle for the recursion.
    """
    n_cells = max(1, int(np.ceil(TRUNCATION_WIDTHS * eps / dx)))
    nodes, gauss_w = np.polynomial.legendre.leggauss(16)

    def weights(panels_per_cell: int) -> np.ndarray:
        edges = np.linspace(0.0, dx, panels_per_cell + 1)
        starts, widths = edges[:-1], np.diff(edges)
        # absolute positions: cell offset + panel start + scaled node
        offs = (np.arange(n_cells) * dx)[:, None, None]
        pos = offs + starts[None, :, None] + \
            (widths[None, :, None] * (nodes[None, None, :] + 1.0) / 2.0)
        vals = np.exp(-pos / eps) / eps
        panel = np.einsum("cpn,n->cp", vals, gauss_w) * (widths / 2.0)[None, :]
        return panel.sum(axis=1)

    # per-weight target, so that the summed error over all weights stays
    # within tol even for long kernels
    tol_w = tol / n_cells
    panels = max(1, int(np.ceil(dx / (4.0 * eps))))
    prev = weights(panels)
    for _ in range(8):
        panels *= 2
        cur = weights(panels)
        resid = float(np.max(np.abs(cur - prev)))
        if resid <= tol_w:
            return cur
        prev = cur
    raise QuadratureError(
        f"kernel-weight quadrature stalled at residual {resid:.3e} "
        f"(target {tol_w:.1e})")


def _quadrature(rho: DensityField, eps: float, tol: float) -> np.ndarray:
    """The average by Gauss panels truncated at ``TRUNCATION_WIDTHS`` eps,
    refined until ``tol``: slower than the recursion, and independent of
    it, so the tests hold ``average`` against it."""
    grid = rho.grid
    n = grid.n_cells
    w = _gauss_weights(grid.dx, eps, tol)
    m = w.size
    if grid.periodic:
        reps = int(np.ceil(m / n)) + 1
        padded = np.concatenate([rho.values] + [rho.values] * reps)
    else:
        padded = np.concatenate([rho.values, np.full(m, rho.values[-1])])
    return np.correlate(padded, w, mode="valid")[:n]


def average(rho: DensityField, eps: KernelScale) -> AveragedField:
    """Average the density with the exponential kernel of scale eps.

    The kernel integral against the piecewise-constant density is
    evaluated in closed form (O(N), right to left; the periodic closure
    sums the infinitely many periods geometrically), as a scaled prefix
    sum with cached weights, blocked in b = min(8, width) cells, along
    rows of width at most SCAN_EXPONENT_CAP * eps / dx cells joined by a
    carry so that the weights stay finite; one row when
    eps >= N dx / 600.  tests/test_kernel.py holds the result within
    8 u (1 + eps/dx) max|rho| of the sequential recursion (u the unit
    roundoff).
    """
    values = _recursion(rho.values[None], (rho.grid.dx / eps.epsilon,),
                        rho.grid.periodic)[0]
    return AveragedField(rho.grid, values, eps)


def ode_residual(rho: DensityField, q: AveragedField) -> float:
    """Max-norm residual of the defining ODE q_x = (q - rho)/eps.

    The forward difference at left edges is scaled by the exponentially
    consistent step eps*(exp(dx/eps) - 1) (which is dx to leading order),
    so a field produced by the exact recursion has residual at rounding
    level regardless of dx/eps.  Interior cells only; in periodic mode the
    wrap pair counts as interior.
    """
    _check_pair(rho, q)
    grid = rho.grid
    eps = q.epsilon.epsilon
    h = grid.dx / eps
    # 1/(eps*(e^h - 1)) computed overflow-free as e^-h / (eps*(1 - e^-h))
    scale = np.exp(-h) / (eps * (-np.expm1(-h)))
    qv = q.values
    if grid.periodic:
        q_next = np.roll(qv, -1)
        diff = (q_next - qv) * scale
        resid = diff - (qv - rho.values) / eps
    else:
        diff = (qv[1:] - qv[:-1]) * scale
        resid = diff - (qv[:-1] - rho.values[:-1]) / eps
    return float(np.max(np.abs(resid))) if resid.size else 0.0


def edge_to_center(rho: DensityField, q: AveragedField) -> np.ndarray:
    """Exact averaged density at cell centers, from the edge values.

    From a cell center the kernel sees half a cell of the local constant
    value before reaching the next left edge:
    q(center_i) = (1 - gamma) rho_i + gamma q_{i+1} with
    gamma = exp(-dx/(2 eps)).
    """
    _check_pair(rho, q)
    grid = rho.grid
    gamma = np.exp(-grid.dx / (2.0 * q.epsilon.epsilon))
    return _center_average(rho.values, q.values, gamma, grid.periodic,
                           0, grid.n_cells)


def _q_past_end(rho: np.ndarray, q: np.ndarray, periodic: bool):
    """q past the last edge (last axis): q_0 if periodic, else rho_{N-1}."""
    return q[..., 0] if periodic else rho[..., -1]


def _center_average(rho: np.ndarray, q: np.ndarray, gamma: float,
                    periodic: bool, start: int, stop: int) -> np.ndarray:
    """``edge_to_center`` on raw arrays, for the cells [start, stop)."""
    if stop < rho.size:
        q_next = q[start + 1:stop + 1]
    else:
        q_next = np.append(q[start + 1:], _q_past_end(rho, q, periodic))
    return (1.0 - gamma) * rho[start:stop] + gamma * q_next

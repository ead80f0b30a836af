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

The recursion is a first-order linear scan, evaluated in numpy with one
scaled cumulative sum (the linear-recurrence scan of Blelloch, "Prefix sums
and their applications", 1990): no compiled filter is needed, so importing
this module loads numpy only.
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


@dataclass(frozen=True)
class _ScanGroup:
    """Members of an ensemble that share a scan width, with their weights.

    ``members`` indexes the ensemble rows; ``w`` stacks each member's
    weights (m, width) and the per-member scalars are (m, 1) columns,
    each computed exactly as for a lone member so that every row rounds
    the same way in any ensemble.
    """

    members: np.ndarray
    width: int
    rows: int
    w: np.ndarray
    scale: np.ndarray        # 1 - beta = -expm1(-h)
    beta: np.ndarray         # exp(-h)
    closure: np.ndarray      # 1 - beta^N, the periodic closure
    gamma: np.ndarray        # beta^width, the damping per row
    seed_powers: np.ndarray  # gamma^j, j < min(rows, 3)


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
        h = [hs[m] for m in members]
        gamma = [np.exp(-x * width) for x in h]
        groups.append(_ScanGroup(
            members=np.array(members), width=width, rows=rows,
            # members of one h, as a Picard sweep's levels, share one row
            w=(np.broadcast_to(_scan_weights(width, h[0]), (len(h), width))
               if len(set(h)) == 1 else
               np.stack([_scan_weights(width, x) for x in h])),
            scale=_column([-np.expm1(-x) for x in h]),
            beta=_column([np.exp(-x) for x in h]),
            closure=_column([-np.expm1(-x * n) for x in h]),
            gamma=_column(gamma),
            seed_powers=np.stack([g ** np.arange(min(rows, 3))
                                  for g in gamma])))
    return tuple(groups)


def _scan_work(n: int, hs) -> np.ndarray:
    """A work array for ``_recursion`` on len(hs) rows of n cells: each
    scan group's rows padded to rows * width cells, and when the members
    form more than one group, room for each group's gathered densities
    and for q."""
    groups = _scan_plan(n, tuple(hs))
    size = sum(g.members.size * g.rows * g.width for g in groups)
    if len(groups) > 1:
        size += 2 * len(hs) * n
    return np.empty(size)


def _scan_group(values: np.ndarray, g: _ScanGroup, periodic: bool,
                work: np.ndarray) -> np.ndarray:
    """The recursion on one group's rows; values is (m, N), q is too, a
    reversed view of ``work``'s first m * rows * width floats."""
    m, n = values.shape
    r = values[:, ::-1]
    if g.rows == 1:
        num = np.multiply(r, g.w, out=work[:m * n].reshape(m, n))
        np.cumsum(num, axis=-1, out=num)
        num *= g.scale
        q_last = num[:, -1:] / g.w[:, -1:]
    else:
        padded = work[:m * g.rows * g.width].reshape(m, -1)
        padded[:, :n] = r
        # the padding reaches only the last row's end, which no q reads,
        # but the last scan's values left there could overflow
        padded[:, n:] = 0.0
        num = padded.reshape(m, g.rows, g.width)
        num *= g.w[:, None, :]
        np.cumsum(num, axis=-1, out=num)
        num *= g.scale[:, :, None]
        # carry into row b, seed aside: the row ends before it, damped by
        # gamma per row; terms beyond gamma^2 underflow
        ends = num[:, :, -1] / g.w[:, -1:]
        carry = np.zeros((m, g.rows))
        carry[:, 1:] = ends[:, :-1]
        carry[:, 2:] += g.gamma * ends[:, :-2]
        carry[:, 3:] += g.gamma * g.gamma * ends[:, :-3]
        k = n - 1 - (g.rows - 1) * g.width
        q_last = (num[:, -1, k:k + 1] + g.beta * carry[:, -1:]) \
            / g.w[:, k:k + 1]

    if periodic:
        # one full period later the same edge is seen again, damped by
        # beta^N; closing the geometric sum gives q_0 exactly
        seed = q_last / g.closure
    else:
        # constant extension: everything beyond the last cell averages to
        # its value
        seed = values[:, -1:]

    if g.rows == 1:
        num += g.beta * seed
        num /= g.w
        return num[:, ::-1]
    carry[:, :g.seed_powers.shape[1]] += seed * g.seed_powers
    carry *= g.beta
    num += carry[:, :, None]
    num /= g.w[:, None, :]
    return num.reshape(m, -1)[:, n - 1::-1]


def _recursion(values: np.ndarray, hs, periodic: bool,
               work: np.ndarray | None = None) -> np.ndarray:
    """Exact recursion q_i = (1 - beta) rho_i + beta q_{i+1}, as a scan.

    ``values`` holds one density per row (an ensemble of M members on one
    grid) and row m has its own h = hs[m] = dx/eps_m, beta = exp(-h).  On
    the reversed density r (r_k = rho_{N-1-k}), with w_k = beta^-k, the
    recursion seeded with q_N = c has the closed form

        q_{N-1-k} = ((1 - beta) sum_{j<=k} r_j w_j + beta c) / w_k,

    one cumulative sum.  The seed is rho_{N-1} for constant extension.  For
    periodic grids the scan runs seeded with 0 and the geometric closure
    over all later periods gives the seed c = q_0; adding beta c / w_k
    reuses the same weights.

    The weights are cached per (width, h) and kept finite by capping a
    scan row at h * width <= SCAN_EXPONENT_CAP.  A member with h * N <=
    SCAN_EXPONENT_CAP scans as one row of width N; the shipped
    configurations and the benchmark workloads all do.  Shorter kernels
    split the reversed density into rows of that width, scanned by one
    cumsum over the rows of a 2-D array.
    Each row is then seeded with the carry from the rows before it: with
    two or more rows h * width > 300, so the damping gamma = beta^width
    < exp(-300) per row makes gamma^3 underflow, and the carry series
    end_{b-1} + gamma end_{b-2} + gamma^2 end_{b-3} of the earlier rows'
    end values is exact in float64.  On a 2-core Xeon at N = 65536 this
    2-D form took 1.2-2.9 ms per call at eps = dx/10 and dx/500, against
    7-15 ms and ~0.56 s for a Python loop over the rows, and 0.5-1.1 ms
    for a compiled IIR filter pass.

    Members that share a scan width share one cumsum over all their rows,
    so one-row and multi-row members can sit in one ensemble.  Every
    operation acts along a row, with per-member scalars computed as for a
    lone member, so each member's q is bit for bit the same in any
    ensemble.

    The scan writes into ``work`` (from ``_scan_work(N, hs)``, made fresh
    when not given) and q is a view of it, so a solver that passes one
    work array on every step allocates no N-long array per scan; only
    the per-row carries of a multi-row scan, 1/width of that, are new on
    each call.  q holds until the next scan into the same work array.

    Rounding: each cumulative sum term carries relative error u and the
    terms grow like w, so q is accurate to about u (1 + eps/dx) max|rho|,
    the order of the sequential recursion (tests/test_kernel.py holds the
    two within 8 u (1 + eps/dx) max|rho|).
    """
    m, n = values.shape
    groups = _scan_plan(n, tuple(hs))
    if work is None:
        work = _scan_work(n, hs)
    if len(groups) == 1:
        return _scan_group(values, groups[0], periodic, work)
    q = work[:m * n].reshape(m, n)
    start = m * n
    for g in groups:
        rows = work[start:start + g.members.size * n].reshape(-1, n)
        np.take(values, g.members, axis=0, out=rows, mode="clip")
        start += rows.size
        size = g.members.size * g.rows * g.width
        q[g.members] = _scan_group(rows, g, periodic,
                                   work[start:start + size])
        start += size
    return q


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
    sums the infinitely many periods geometrically), as one scaled
    cumulative sum with cached weights.  A kernel shorter than a 600th of
    the domain (N dx / eps > 600) is scanned as rows of a 2-D array
    instead; at eps = dx/10 and below that costs 2-4x the one-row scan at
    N = 65536.
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


def _center_average(rho: np.ndarray, q: np.ndarray, gamma: float,
                    periodic: bool, start: int, stop: int) -> np.ndarray:
    """``edge_to_center`` on raw arrays, for the cells [start, stop)."""
    if stop < rho.size:
        q_next = q[start + 1:stop + 1]
    else:
        q_next = np.append(q[start + 1:], q[0] if periodic else rho[-1])
    return (1.0 - gamma) * rho[start:stop] + gamma * q_next

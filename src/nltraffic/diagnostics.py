"""Measurement machinery: variation norms, deviation bounds, entropy
residuals, rearrangements and semigroup stability ratios.

Everything here is a pure function of trajectories and fields; nothing
feeds back into the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import DensityField, DomainError, ShapeError
from .kernel import AveragedField


class SupportError(ValueError):
    """A test function's support is not covered by the trajectory."""


class InsufficientDataError(ValueError):
    """Operation needs more snapshots than the trajectory carries."""


# ---------------------------------------------------------------------------
# variation and distance
# ---------------------------------------------------------------------------

def total_variation(f: DensityField) -> float:
    """Sum of absolute jumps between neighbouring cells.

    Periodic grids include the wrap-around pair, so a discretized closed
    profile measures its full variation.
    """
    return _variation(f.values, f.grid.periodic)


def _variation(v: np.ndarray, periodic: bool) -> float:
    tv = float(np.sum(np.abs(np.diff(v))))
    if periodic:
        tv += abs(float(v[0] - v[-1]))
    return tv


def l1_distance(f1: DensityField, f2: DensityField) -> float:
    if f1.grid != f2.grid:
        raise ShapeError("fields live on different grids")
    return float(np.sum(np.abs(f1.values - f2.values))) * f1.grid.dx


def kernel_deviation(rho: DensityField, q: AveragedField) -> tuple[float, float]:
    """L1 distance between the density and its average, with its bound.

    Returns (deviation, bound) where deviation = ||q - rho||_L1 and
    bound = eps * TV(rho).  The averaging kernel cannot displace more mass
    than eps per unit of variation, so deviation <= bound holds for every
    BV field; callers assert deviation <= bound * (1 + tol).
    """
    if rho.grid != q.grid:
        raise ShapeError("density and averaged field live on different grids")
    deviation, bound = kernel_deviation_values(rho.values, q.values, rho.grid,
                                               q.epsilon.epsilon)
    return float(deviation), float(bound)


def kernel_deviation_values(rho: np.ndarray, q: np.ndarray, grid, eps):
    """``kernel_deviation`` on raw arrays, for snapshot observers.

    ``rho`` and ``q`` may hold an (M, N) ensemble, one member per row, with
    ``eps`` one width per row: every row is reduced along the last axis at
    once, bit for bit as the row alone, and (deviation, bound) come back as
    arrays of M values.
    """
    deviation = np.sum(np.abs(q - rho), axis=-1) * grid.dx
    tv = np.sum(np.abs(np.diff(rho, axis=-1)), axis=-1)
    if grid.periodic:
        tv = tv + np.abs(rho[..., 0] - rho[..., -1])
    return deviation, eps * tv


# ---------------------------------------------------------------------------
# space-time test functions and the entropy residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpTestFunction:
    """Nonnegative C^2 bump phi(t, x) with closed-form derivatives.

    phi = s(theta) * s(xi) with s(r) = (1 - r^2)^3 on |r| < 1, where
    theta = (t - center_t)/radius_t and xi = (x - center_x)/radius_x.
    The support is the rectangle |theta| <= 1, |xi| <= 1; phi and its
    first two derivatives vanish on its boundary.  Being a perfect cube
    of a nonnegative C^2 function is what the rearrangement argument
    behind the entropy estimate needs.
    """

    center_x: float
    center_t: float
    radius_x: float
    radius_t: float

    def __post_init__(self):
        if self.radius_x <= 0 or self.radius_t <= 0:
            raise DomainError("bump radii must be positive")

    @staticmethod
    def _s(r: np.ndarray) -> np.ndarray:
        inside = np.abs(r) < 1.0
        return np.where(inside, (1.0 - r * r) ** 3, 0.0)

    @staticmethod
    def _ds(r: np.ndarray) -> np.ndarray:
        inside = np.abs(r) < 1.0
        return np.where(inside, -6.0 * r * (1.0 - r * r) ** 2, 0.0)

    def _scaled(self, t, x):
        theta = (np.asarray(t, dtype=float) - self.center_t) / self.radius_t
        xi = (np.asarray(x, dtype=float) - self.center_x) / self.radius_x
        return theta, xi

    def phi(self, t, x) -> np.ndarray:
        theta, xi = self._scaled(t, x)
        return self._s(theta) * self._s(xi)

    def phi_t(self, t, x) -> np.ndarray:
        theta, xi = self._scaled(t, x)
        return self._ds(theta) / self.radius_t * self._s(xi)

    def phi_x(self, t, x) -> np.ndarray:
        theta, xi = self._scaled(t, x)
        return self._s(theta) * self._ds(xi) / self.radius_x

    @property
    def t_support(self) -> tuple[float, float]:
        return (self.center_t - self.radius_t, self.center_t + self.radius_t)

    @property
    def x_support(self) -> tuple[float, float]:
        return (self.center_x - self.radius_x, self.center_x + self.radius_x)


class EntropyProjector:
    """The entropy residuals of an ensemble of runs, fed a snapshot at a time.

    Built from the grid and the snapshot times, it runs every check of
    ``entropy_residual`` before any density arrives.  ``add`` then takes
    each snapshot's (M, N) densities, one row per member, in time order
    and projects them at once, so no field is held; ``finish`` returns
    R(phi) for each phi, one list per member.

    eta and psi are evaluated once per snapshot on the whole (M, N) array
    (for a custom law, one psi quadrature for all members), and each row
    is projected by its own matrix-vector product, so every member's
    residuals are bit for bit those of a one-member projector.

    A snapshot is dead when every time midpoint next to it has zero width
    or lies outside every phi's time support (|theta| >= 1), so that
    ``finish`` weighs its projections by zero.  eta and psi are never
    evaluated on a dead snapshot; its projections are stored as exact
    zeros.  The residuals are the same, except that a psi that is not
    finite on a dead snapshot no longer turns them into NaN.
    """

    def __init__(self, grid, times, fe, phis):
        times = np.asarray(times, dtype=float)
        if times.size < 2:
            raise InsufficientDataError("need at least two snapshots")
        phis = list(phis)
        t_lo, t_hi = times[0], times[-1]
        dt = np.diff(times)
        for phi in phis:
            lo, hi = phi.t_support
            if lo < t_lo - 1e-12 or hi > t_hi + 1e-12:
                raise SupportError(
                    f"phi time support [{lo}, {hi}] exceeds trajectory window "
                    f"[{t_lo}, {t_hi}]")
            xlo, xhi = phi.x_support
            if xlo < grid.x_min - 1e-12 or xhi > grid.x_max + 1e-12:
                raise SupportError(
                    f"phi space support [{xlo}, {xhi}] exceeds the domain "
                    f"[{grid.x_min}, {grid.x_max}]")
            covering = (times[1:] >= lo) & (times[:-1] <= hi)
            spacing = dt[covering]
            if spacing.size and float(np.max(spacing)) > phi.radius_t / 16.0:
                raise SupportError(
                    f"snapshot spacing {np.max(spacing):.3g} too coarse for "
                    f"radius_t {phi.radius_t} (need <= radius_t/16)")

        self._fe = fe
        self._times = times
        self._dx = grid.dx
        self._radius_t = np.array([phi.radius_t for phi in phis])
        center_t = np.array([phi.center_t for phi in phis])
        center_x = np.array([phi.center_x for phi in phis])
        radius_x = np.array([phi.radius_x for phi in phis])
        xi = (grid.cell_centers()[:, None] - center_x) / radius_x
        self._space = BumpTestFunction._s(xi)                 # (N, n_phi)
        self._space_dx = BumpTestFunction._ds(xi) / radius_x
        t_mid = 0.5 * (times[:-1] + times[1:])
        self._theta = (t_mid[:, None] - center_t) / self._radius_t
        weighted = (dt > 0) & np.any(np.abs(self._theta) < 1.0, axis=1)
        self._live = np.zeros(times.size, dtype=bool)
        self._live[:-1] |= weighted
        self._live[1:] |= weighted
        self._eta = self._psi = None          # (M, n_snap, n_phi)
        self._count = 0

    def add(self, rho: np.ndarray):
        """Project the (M, N) densities of the next snapshot."""
        n = self._count
        if n == self._times.size:
            raise InsufficientDataError(
                f"all {n} snapshots were already added")
        if np.ndim(rho) != 2:
            raise ShapeError(
                f"expected (M, N) densities, got shape {np.shape(rho)}")
        if self._eta is None:
            shape = (len(rho), self._times.size, self._space.shape[1])
            self._eta, self._psi = np.zeros(shape), np.zeros(shape)
        elif len(rho) != len(self._eta):
            raise ShapeError(f"expected {len(self._eta)} members, "
                             f"got {len(rho)}")
        if self._live[n]:
            eta, psi = self._fe.eta(rho), self._fe.psi(rho)
            for m in range(len(rho)):
                self._eta[m, n] = eta[m] @ self._space
                self._psi[m, n] = psi[m] @ self._space_dx
        self._count = n + 1

    def finish(self) -> list[list[float]]:
        """R(phi) for each member and phi, once every snapshot is added."""
        if self._count != self._times.size:
            raise InsufficientDataError(
                f"{self._count} of {self._times.size} snapshots added")
        dt = np.diff(self._times)
        keep = dt > 0
        theta = self._theta[keep]
        weight_eta = BumpTestFunction._ds(theta) / self._radius_t
        weight_psi = BumpTestFunction._s(theta)
        residuals = []
        for eta, psi in zip(self._eta, self._psi):
            eta_mid = 0.5 * (eta[:-1] + eta[1:])[keep]
            psi_mid = 0.5 * (psi[:-1] + psi[1:])[keep]
            integrand = eta_mid * weight_eta + psi_mid * weight_psi
            acc = (dt[keep] @ integrand) * self._dx
            residuals.append([-float(a) for a in acc])
        return residuals


def entropy_residual(traj, fe, phis) -> list[float]:
    """Weak-form entropy residual of a trajectory against bump functions.

    For each phi returns

        R(phi) = - sum_{n,i} [eta(rho) phi_t + psi(rho) phi_x](t*, x_i) dx dt

    with phi derivatives at time midpoints between adjacent snapshots, the
    entropy values averaged over the two snapshots (second order in time)
    and trapezoid summation in space.  phi is compactly supported inside
    the space-time window, so no boundary terms arise.  An entropy
    admissible evolution gives R(phi) <= 0 for phi >= 0, up to
    discretization; positive values measure entropy production.

    The sum is evaluated separably, since phi = s(theta) s(xi): each
    snapshot's eta and psi are projected onto the space factors s(xi) and
    s'(xi)/radius_x as it is read, and the midpoint average and the time
    weights s'(theta)/radius_t, s(theta) act on those projections.  This
    is the one-member case of ``EntropyProjector``, so snapshots outside
    every phi's time support are not evaluated at all.  Extra memory is
    O(n_snap * n_phi + N * n_phi), never O(n_snap * N).
    """
    snaps = traj.snapshots
    projector = EntropyProjector(snaps[0].rho.grid, [s.t for s in snaps],
                                 fe, phis)
    for snap in snaps:
        projector.add(snap.rho.values[None])
    return projector.finish()[0]


# ---------------------------------------------------------------------------
# rearrangements
# ---------------------------------------------------------------------------

def _center_out_order(n: int) -> np.ndarray:
    """Indices ordered by distance from the center, right before left on ties."""
    center = n // 2
    idx = np.arange(n)
    dist = np.abs(idx - center)
    right_first = np.where(idx >= center, 0, 1)
    return idx[np.lexsort((right_first, dist))]


def symmetric_rearrangement(g) -> np.ndarray:
    """Symmetric decreasing rearrangement of a nonnegative sequence.

    Values are sorted descending and placed center-out (largest at index
    n//2, then alternating right/left, right first on ties).  The output is
    a permutation of the input, nondecreasing up to the peak and
    nonincreasing after it.
    """
    arr = np.asarray(g, dtype=float)
    if arr.ndim != 1:
        raise ShapeError("expected a 1-D sequence")
    if arr.size and float(np.min(arr)) < 0.0:
        raise DomainError("rearrangement requires nonnegative entries")
    out = np.empty_like(arr)
    out[_center_out_order(arr.size)] = np.sort(arr)[::-1]
    return out


def hardy_littlewood_gap(g1, g2) -> float:
    """How much the rearranged inner product exceeds the raw one.

    Returns sum(g1* g2*) - sum(g1 g2) where * is the symmetric decreasing
    rearrangement.  Both rearrangements use the same center-out placement,
    so the rearranged product pairs k-th largest with k-th largest; the gap
    is therefore nonnegative and the rearranged sum is the maximum of
    sum(g1 * permuted g2) over all permutations.
    """
    a = np.asarray(g1, dtype=float)
    b = np.asarray(g2, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size and (float(np.min(a)) < 0.0 or float(np.min(b)) < 0.0):
        raise DomainError("rearrangement requires nonnegative entries")
    raw = float(np.dot(a, b))
    rearranged = float(np.dot(symmetric_rearrangement(a),
                              symmetric_rearrangement(b)))
    return rearranged - raw


def max_permuted_product(g1, g2) -> float:
    """Brute-force max of sum(g1 * permuted g2); exponential, keep inputs short."""
    a = np.asarray(g1, dtype=float)
    best = -math.inf
    for perm in permutations(np.asarray(g2, dtype=float)):
        best = max(best, float(np.dot(a, perm)))
    return best


def shifted_product_check(h, shift: int) -> tuple[float, float]:
    """Compare sum h(i)^2 h(i+shift) against sum h(i)^3, cyclically.

    The level sets of h^2 and h coincide, so the aligned (shift 0) product
    dominates every shifted one: lhs <= rhs for all shifts.
    """
    arr = np.asarray(h, dtype=float)
    if arr.size and float(np.min(arr)) < 0.0:
        raise DomainError("shifted_product_check requires nonnegative entries")
    shifted = np.roll(arr, -int(shift))
    lhs = float(np.sum(arr * arr * shifted))
    rhs = float(np.sum(arr * arr * arr))
    return lhs, rhs


# ---------------------------------------------------------------------------
# semigroup stability
# ---------------------------------------------------------------------------

def stability_gap(traj1, traj2) -> tuple[float, np.ndarray, np.ndarray]:
    """Growth of an initial L1 perturbation along two trajectories.

    ratio(t) = ||rho1(t) - rho2(t)||_L1 / ||rho1(0) - rho2(0)||_L1,
    evaluated at the common snapshot times.  Returns
    (sup_ratio, times, ratios); ratio(0) is 1 by construction.  The
    semigroup is L1-Lipschitz with a time-dependent constant, so the sup
    is reported, never asserted against a universal bound.
    """
    s1, s2 = traj1.snapshots, traj2.snapshots
    if len(s1) != len(s2):
        raise ShapeError("trajectories carry different snapshot counts")
    t1 = np.array([s.t for s in s1])
    t2 = np.array([s.t for s in s2])
    if not np.array_equal(t1, t2):
        raise ShapeError("trajectories sampled at different times")
    if s1[0].rho.grid != s2[0].rho.grid:
        raise ShapeError("trajectories live on different grids")
    denom = l1_distance(s1[0].rho, s2[0].rho)
    if denom == 0.0:
        raise DomainError("initial data are identical; ratio is undefined")
    ratios = np.array([l1_distance(a.rho, b.rho) / denom
                       for a, b in zip(s1, s2)])
    return float(np.max(ratios)), t1, ratios


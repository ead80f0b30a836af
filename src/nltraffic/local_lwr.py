"""Godunov reference solver for the local conservation law
rho_t + (rho v(rho))_x = 0, with the quadratic entropy pair.

This is the zero-kernel-width limit of the nonlocal model; the Godunov
scheme produces its entropy admissible solution and serves as the
reference in convergence sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import (DensityField, ModelEvaluationError, SolverConfig,
                   VelocityModel, check_band)
from .trajectory import Snapshot, Trajectory, march


# The non-negative half of the 32-point Gauss-Legendre rule on [-1, 1] as
# (node, weight) pairs, nodes ascending.  The rule is symmetric, so the full
# rule is this half mirrored; both are bit for bit
# scipy.special.roots_legendre(32).  numpy's leggauss(32) is not: its
# weights differ from these by up to 5.6e-13 relative.
_GAUSS_LEGENDRE_32_HALF = (
    (0.04830766568773834, 0.09654008851472759),
    (0.14447196158279643, 0.09563872007927465),
    (0.2392873622521371, 0.09384439908080441),
    (0.33186860228212767, 0.09117387869576364),
    (0.4213512761306354, 0.0876520930044037),
    (0.5068999089322295, 0.08331192422694647),
    (0.5877157572407623, 0.07819389578707016),
    (0.6630442669302152, 0.07234579410884849),
    (0.7321821187402897, 0.06582222277636134),
    (0.7944837959679423, 0.05868409347853579),
    (0.8493676137325699, 0.05099805926237625),
    (0.8963211557660521, 0.0428358980222272),
    (0.9349060759377397, 0.03427386291302054),
    (0.9647622555875064, 0.025392065309261264),
    (0.9856115115452684, 0.01627439473090403),
    (0.9972638618494816, 0.00701861000947442),
)


@cache
def _gauss_legendre_32() -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the 32-point rule on [-1, 1]."""
    half = np.array(_GAUSS_LEGENDRE_32_HALF)
    nodes = np.concatenate([-half[::-1, 0], half[:, 0]])
    weights = np.concatenate([half[::-1, 1], half[:, 1]])
    return nodes, weights


# samples of [0, rho_jam] on which solve_local reads f' and f'' per solve
_FLUX_SAMPLES = 257


@dataclass(frozen=True)
class FluxEntropyModel:
    """The entropy pair eta = rho^2/2, psi' = eta' f', psi(0) = 0, of the
    flux f(rho) = rho v(rho) (``VelocityModel.f``, ``.df``, ``.d2f``).

    For affine v = a - b rho the entropy flux is closed form:
    psi(rho) = a rho^2/2 - 2 b rho^3/3.  Otherwise psi is evaluated by
    32-point Gauss-Legendre quadrature of rho f'(rho) from zero, all cells
    at once on a (cells x 32) node array.

    ``solve_local`` steps all interfaces at once for every law; the scalar
    ``godunov_flux`` (the only code loading ``scipy.optimize``) is its oracle.
    """

    model: VelocityModel

    def eta(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return 0.5 * rho * rho

    def psi(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self.model.is_affine:
            return (self.model.a * rho ** 2 / 2.0
                    - 2.0 * self.model.b * rho ** 3 / 3.0)
        flat = np.atleast_1d(rho).ravel()
        nodes, weights = _gauss_legendre_32()
        # same operation order as scipy's fixed_quad on [0, rho], per cell;
        # df sees a 1-D array, so laws written for 1-D input keep working
        y = flat[:, None] * (nodes + 1.0) / 2.0
        integrand = y * self.model.df(y.ravel()).reshape(y.shape)
        out = flat / 2.0 * np.sum(weights * integrand, axis=-1)
        return out.reshape(np.shape(rho)) if np.ndim(rho) else float(out[0])


def _extremum_state(fe: FluxEntropyModel, lo: float, hi: float,
                    maximize: bool) -> float:
    """Location in [lo, hi] where f attains its min (or max)."""
    model = fe.model
    candidates = [lo, hi]
    if model.is_affine:
        crit = model.a / (2.0 * model.b)
        if lo < crit < hi:
            candidates.append(crit)
    elif hi > lo:
        from scipy.optimize import minimize_scalar
        sign = -1.0 if maximize else 1.0
        res = minimize_scalar(lambda r: sign * float(model.f(r)),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        candidates.append(float(res.x))
    fvals = [float(model.f(c)) for c in candidates]
    pick = int(np.argmax(fvals)) if maximize else int(np.argmin(fvals))
    return candidates[pick]


def godunov_state(rho_left: float, rho_right: float,
                  fe: FluxEntropyModel) -> float:
    """State whose flux solves the interface Riemann problem.

    Minimizer of f over [rho_left, rho_right] when rho_left <= rho_right,
    maximizer over [rho_right, rho_left] otherwise.  Exposed separately
    because the numerical entropy flux is psi evaluated at this state.
    """
    check_band(rho_left, fe.model.rho_jam, "rho_left")
    check_band(rho_right, fe.model.rho_jam, "rho_right")
    if rho_left <= rho_right:
        return _extremum_state(fe, rho_left, rho_right, maximize=False)
    return _extremum_state(fe, rho_right, rho_left, maximize=True)


def godunov_flux(rho_left: float, rho_right: float,
                 fe: FluxEntropyModel) -> float:
    """Godunov numerical flux: min of f over [L, R] if L <= R, else max."""
    return float(fe.model.f(godunov_state(rho_left, rho_right, fe)))


def _root(g, lo: float, hi: float) -> float:
    """Where g falls through zero on [lo, hi]: lo if g(lo) <= 0, hi if
    g(hi) >= 0, else of the adjacent floats that bisection (a NaN counting
    as <= 0) leaves around the sign change, the one with smaller |g|."""
    g_lo, g_hi = g(lo), g(hi)
    if g_lo <= 0.0:
        return lo
    if g_hi >= 0.0:
        return hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        g_mid = g(mid)
        if g_mid > 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return lo if abs(g_lo) < abs(g_hi) else hi


def _flux_shape(fe: FluxEntropyModel):
    """max |f'| over the samples, and the states ``(low, high)`` at which
    f, clipped into an interface's interval, attains its min or its max.

    The sampled sign changes of f'', bisected to adjacent floats, split
    [0, rho_jam] into concave pieces, whose min lies at their ends and max
    at their crest (an affine law's exact a / (2 b)), and convex pieces,
    whose max lies at their ends and min at their trough.  A sign change
    between samples is not seen; a non-finite sample of f' or f'' raises
    ``ModelEvaluationError``.
    """
    model = fe.model
    rho = np.linspace(0.0, model.rho_jam, _FLUX_SAMPLES)
    df, d2f = model.df(rho), model.d2f(rho)
    bad = rho[~(np.isfinite(df) & np.isfinite(d2f))]
    if bad.size:
        raise ModelEvaluationError(f"f' or f'' not finite at rho = {bad[0]}")
    convex = d2f > 0.0
    cuts = np.flatnonzero(convex[1:] != convex[:-1]).tolist()
    kinds = convex[[0] + [i + 1 for i in cuts]].tolist()
    samples, ends = rho.tolist(), [0.0, model.rho_jam]
    for i, kind in zip(cuts, kinds):
        sign = 1.0 if kind else -1.0   # f'' falls from a convex piece
        ends.insert(-1, _root(lambda r: sign * float(model.d2f(r)),
                              samples[i], samples[i + 1]))
    low, high = set(), set()
    for lo, hi, kind in zip(ends[:-1], ends[1:], kinds):
        sign = -1.0 if kind else 1.0   # f' falls at a crest, rises at a trough
        (high if kind else low).update((lo, hi))
        (low if kind else high).add(
            model.a / (2.0 * model.b) if model.is_affine
            else _root(lambda r: sign * float(model.df(r)), lo, hi))
    return float(np.max(np.abs(df))), (tuple(sorted(low)),
                                        tuple(sorted(high)))


def _extremum(fe, pick, states, lo, hi, f_lo, f_hi, out, clipped,
              f_clipped) -> np.ndarray:
    """``pick`` (np.minimum or np.maximum) of f at the states clipped into
    [lo, hi], folded left to right and written into ``out``; a state at an
    end of [0, rho_jam] is read as f_lo or f_hi.  ``clipped`` and
    ``f_clipped`` are scratch of out's shape."""
    acc = None
    for s in states:
        if s <= 0.0:
            f_s = f_lo
        elif s >= fe.model.rho_jam:
            f_s = f_hi
        else:
            np.clip(s, lo, hi, out=clipped)
            f_s = fe.model.f_into(clipped, out if acc is None else f_clipped)
        acc = f_s if acc is None else pick(acc, f_s, out=out)
    if acc is not out:
        np.copyto(out, acc)
    return out


def _flux_work(n_cells: int) -> tuple[np.ndarray, ...]:
    """Buffers for ``_interface_flux`` between n_cells cells: f per cell;
    per interface the flux, the other branch, a clipped state and its f;
    and the interfaces where L <= R."""
    n = n_cells - 1
    return (np.empty(n_cells), *(np.empty(n) for _ in range(4)),
            np.empty(n, dtype=bool))


def _interface_flux(fe: FluxEntropyModel, cells: np.ndarray, states,
                    work: tuple[np.ndarray, ...]) -> np.ndarray:
    """Godunov flux between neighbouring ``cells``: the min of f over
    [L, R] where L <= R, else the max over [R, L], at the ``_flux_shape``
    states (concave law: min(f_L, f_R) or f(clip(crest, R, L))), from one
    f per cell.  Written into ``work`` (from ``_flux_work(cells.size)``)
    and returned as a view of it.  A caller with separate pairs passes
    [L1, R1, L2, R2, ...] and reads every second interface."""
    (low, high), left, right = states, cells[:-1], cells[1:]
    f_cells, flux, other, clipped, f_clipped, shock = work
    fe.model.f_into(cells, f_cells)
    f_left, f_right = f_cells[:-1], f_cells[1:]
    _extremum(fe, np.maximum, high, right, left, f_right, f_left, flux,
              clipped, f_clipped)
    _extremum(fe, np.minimum, low, left, right, f_left, f_right, other,
              clipped, f_clipped)
    np.less_equal(left, right, out=shock)
    np.copyto(flux, other, where=shock)
    return flux


def solve_local(initial: DensityField, fe: FluxEntropyModel,
                config: SolverConfig, *, history: bool = True) -> Trajectory:
    """March the Godunov scheme to t_final, recording snapshots.

    Conservative update with the exact-Riemann interface flux; dt satisfies
    cfl * dx / max|f'| and lands exactly on every requested snapshot time.
    The scheme is total-variation diminishing and respects the range of the
    initial data.

    The wave speed and the flux's states come from ``_flux_shape`` once
    per solve; all interfaces are stepped at once.  Every step writes
    into arrays made once per solve (the density with its ghost cells,
    f per cell, the two flux branches with their scratch and mask, and
    the update); only a custom law's evaluator allocates on each step.
    Each snapshot copies the density.

    With ``history=False`` the march still lands on every emission time,
    so the final density keeps its bits, but only the snapshots at t = 0
    and t_final are recorded: a caller that reads only ``.final`` holds
    two densities instead of one per emission time.
    """
    grid = initial.grid
    model = fe.model
    check_band(initial.values, model.rho_jam, "initial density")

    speed, states = _flux_shape(fe)
    dt_cfl = config.cfl * grid.dx / speed if speed > 0 else config.t_final

    # the cells between one ghost cell at each end, stepped in place and
    # marched as one row
    padded = np.empty(grid.n_cells + 2)
    rho = padded[1:-1]
    rho[:] = initial.values
    work = _flux_work(padded.size)
    update = np.empty(grid.n_cells)
    snapshots = []

    def advance(dt: float):
        padded[0], padded[-1] = grid.ghosts(rho)
        flux = _interface_flux(fe, padded, states, work)
        np.subtract(flux[1:], flux[:-1], out=update)
        np.multiply(update, dt / grid.dx, out=update)
        np.subtract(rho, update, out=rho)

    emit = config.emission_times()

    def record(t: float):
        if history or t == 0.0 or t == emit[-1]:
            snapshots.append(Snapshot(t=t, rho=DensityField(grid, rho),
                                      q=None))

    stats = march(emit, rho[np.newaxis], lambda: dt_cfl, advance, record)
    return Trajectory(snapshots=tuple(snapshots), stats=stats)


def entropy_pair(rho: DensityField, fe: FluxEntropyModel
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise entropy eta(rho) and entropy flux psi(rho)."""
    check_band(rho.values, fe.model.rho_jam, "density")
    return fe.eta(rho.values), fe.psi(rho.values)

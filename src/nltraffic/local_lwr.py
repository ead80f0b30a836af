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

from .core import (DensityField, DomainError, SolverConfig, VelocityModel,
                   flux_curvature_sup)
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


# samples of [0, rho_jam] on which a custom law's flux must be concave for
# solve_local's vectorized step; the same count as max_wave_speed's
_CONCAVITY_SAMPLES = 257


@dataclass(frozen=True)
class FluxEntropyModel:
    """Flux f(rho) = rho v(rho) plus the entropy pair eta = rho^2/2,
    psi' = eta' f', psi(0) = 0.

    For affine v = a - b rho the entropy flux is closed form:
    psi(rho) = a rho^2/2 - 2 b rho^3/3.  Otherwise psi is evaluated by
    32-point Gauss-Legendre quadrature of rho f'(rho) from zero, all cells
    at once on a (cells x 32) node array.

    ``solve_local`` steps every interface at once when f is concave: always
    for affine v, and for custom v when 2 v' + rho v'' <= 0 at every sample
    (``core.flux_curvature_sup``).  A non-concave custom law runs the scalar
    ``godunov_flux`` at each interface on every step; that bounded
    optimiser is the only part of the solver that loads ``scipy.optimize``.
    """

    model: VelocityModel

    def f(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return rho * self.model.v(rho)

    def df(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return self.model.v(rho) + rho * self.model.dv(rho)

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
        integrand = y * self.df(y.ravel()).reshape(y.shape)
        out = flat / 2.0 * np.sum(weights * integrand, axis=-1)
        return out.reshape(np.shape(rho)) if np.ndim(rho) else float(out[0])

    def max_wave_speed(self, n_samples: int = 257) -> float:
        """max |f'| over [0, rho_jam], sampled."""
        rho = np.linspace(0.0, self.model.rho_jam, n_samples)
        return float(np.max(np.abs(self.df(rho))))


def _check_band(value: float, rho_jam: float, name: str):
    if not (0.0 <= value <= rho_jam):
        raise DomainError(f"{name} = {value} outside [0, {rho_jam}]")


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
        res = minimize_scalar(lambda r: sign * float(fe.f(r)),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        candidates.append(float(res.x))
    fvals = [float(fe.f(c)) for c in candidates]
    pick = int(np.argmax(fvals)) if maximize else int(np.argmin(fvals))
    return candidates[pick]


def godunov_state(rho_left: float, rho_right: float,
                  fe: FluxEntropyModel) -> float:
    """State whose flux solves the interface Riemann problem.

    Minimizer of f over [rho_left, rho_right] when rho_left <= rho_right,
    maximizer over [rho_right, rho_left] otherwise.  Exposed separately
    because the numerical entropy flux is psi evaluated at this state.
    """
    rho_jam = fe.model.rho_jam
    _check_band(rho_left, rho_jam, "rho_left")
    _check_band(rho_right, rho_jam, "rho_right")
    if rho_left <= rho_right:
        return _extremum_state(fe, rho_left, rho_right, maximize=False)
    return _extremum_state(fe, rho_right, rho_left, maximize=True)


def godunov_flux(rho_left: float, rho_right: float,
                 fe: FluxEntropyModel) -> float:
    """Godunov numerical flux: min of f over [L, R] if L <= R, else max."""
    return float(fe.f(godunov_state(rho_left, rho_right, fe)))


def _interface_flux_concave(fe: FluxEntropyModel, left: np.ndarray,
                            right: np.ndarray, crit: float) -> np.ndarray:
    """Vectorized Godunov flux for a concave f whose maximiser on
    [0, rho_jam] is crit.

    Equals godunov_flux pairwise: concavity puts minima at the endpoints
    and maxima at the critical point clamped into the interval.
    """
    f_left = fe.f(left)
    f_right = fe.f(right)
    shock = np.minimum(f_left, f_right)
    fan = fe.f(np.clip(crit, right, left))
    return np.where(left <= right, shock, fan)


def _critical_density(fe: FluxEntropyModel) -> float | None:
    """Maximiser of f on [0, rho_jam] when f is concave, else None.

    Affine laws give the exact a / (2 b).  Custom laws count as concave
    when 2 v' + rho v'' <= 0 at every sample of ``flux_curvature_sup``;
    their crest is an end of the range when f is monotone there, else the
    root of f', bisected on the sign of f' (non-increasing for a concave
    f) until the two ends are adjacent floats.  Of those two it returns
    the one with the smaller |f'|.  A law that is non-concave only between
    samples is taken as concave.
    """
    model = fe.model
    if model.is_affine:
        return model.a / (2.0 * model.b)
    if not flux_curvature_sup(model, _CONCAVITY_SAMPLES) <= 0.0:
        return None
    lo, hi = 0.0, model.rho_jam
    df_lo, df_hi = float(fe.df(lo)), float(fe.df(hi))
    if df_lo <= 0.0:
        return lo
    if df_hi >= 0.0:
        return hi
    # f'(lo) > 0 >= f'(hi) throughout; a NaN f' counts as <= 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        df_mid = float(fe.df(mid))
        if df_mid > 0.0:
            lo, df_lo = mid, df_mid
        else:
            hi, df_hi = mid, df_mid
    return lo if abs(df_lo) < abs(df_hi) else hi


def _interface_flux(fe: FluxEntropyModel, left: np.ndarray,
                    right: np.ndarray, crit: float | None) -> np.ndarray:
    if crit is None:
        return np.array([godunov_flux(float(a), float(b), fe)
                         for a, b in zip(left, right)])
    return _interface_flux_concave(fe, left, right, crit)


def _with_ghosts(values: np.ndarray, periodic: bool) -> np.ndarray:
    if periodic:
        return np.concatenate([values[-1:], values, values[:1]])
    return np.concatenate([values[:1], values, values[-1:]])


def solve_local(initial: DensityField, fe: FluxEntropyModel,
                config: SolverConfig) -> Trajectory:
    """March the Godunov scheme to t_final, recording snapshots.

    Conservative update with the exact-Riemann interface flux; dt satisfies
    cfl * dx / max|f'| and lands exactly on every requested snapshot time.
    The scheme is total-variation diminishing and respects the range of the
    initial data.

    When f is concave (every affine law, and custom laws with
    2 v' + rho v'' <= 0 at every sample of [0, rho_jam]) the critical
    density is found once and the flux is evaluated for all interfaces at
    once.  Otherwise each interface runs the scalar ``godunov_flux``, whose
    bounded optimiser can be misled where f is not unimodal.
    """
    grid = initial.grid
    model = fe.model
    lo, hi = float(np.min(initial.values)), float(np.max(initial.values))
    if lo < 0.0 or hi > model.rho_jam:
        raise DomainError(
            f"initial density range [{lo}, {hi}] outside [0, {model.rho_jam}]")

    crit = _critical_density(fe)
    speed = fe.max_wave_speed()
    dt_cfl = config.cfl * grid.dx / speed if speed > 0 else config.t_final

    rho = initial.values.copy()
    snapshots = []
    seen_min, seen_max = lo, hi

    def advance(dt: float) -> bool:
        nonlocal rho, seen_min, seen_max
        padded = _with_ghosts(rho, grid.periodic)
        flux = _interface_flux(fe, padded[:-1], padded[1:], crit)
        rho = rho - (dt / grid.dx) * (flux[1:] - flux[:-1])
        if not np.all(np.isfinite(rho)):
            return False
        seen_min = min(seen_min, float(np.min(rho)))
        seen_max = max(seen_max, float(np.max(rho)))
        return True

    def record(t: float):
        snapshots.append(Snapshot(t=t, rho=DensityField(grid, rho), q=None))

    summary = march(config.emission_times(), lambda: dt_cfl, advance, record)
    return Trajectory(
        model=model, eps=None, snapshots=tuple(snapshots),
        dt_summary=summary, rho_min_seen=seen_min, rho_max_seen=seen_max)


def entropy_pair(rho: DensityField, fe: FluxEntropyModel
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise entropy eta(rho) and entropy flux psi(rho)."""
    lo, hi = float(np.min(rho.values)), float(np.max(rho.values))
    if lo < 0.0 or hi > fe.model.rho_jam:
        raise DomainError(
            f"density range [{lo}, {hi}] outside [0, {fe.model.rho_jam}]")
    return fe.eta(rho.values), fe.psi(rho.values)

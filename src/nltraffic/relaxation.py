"""Relaxation-system view of the nonlocal model.

In tilted coordinates tau = t - x/K, y = x (with a constant K > v(0)) the
density/average pair becomes a strictly hyperbolic 2x2 system with a stiff
source.  With the dependent variables

    u = ln rho,            z = ln(K - v(q)),

the system is diagonal:

    u_tau + K (K e^{-z} - 1) u_y =  (K/eps) Lambda(u, z),
    z_tau - K z_y               = -(K/eps) Lambda(u, z),

    Lambda(u, z) = (e^u - q(z)) * v'(q(z)) / (K - v(q(z))),
    q(z) = v_inverse(K - e^z).

The frozen characteristic speeds are lambda1 = -K and
lambda2 = K v(q)/(K - v(q)); the equilibrium manifold is z = g(u) with
g(u) = ln(K - v(e^u)), on which the dynamics reduce to the local
conservation law with speed lambda* = K f'/(K - f').  This module holds
the coordinate machinery, the stability condition checks, a monitor for
the tilted total variation, and an IMEX integrator for the system used to
cross-validate the physical solver.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (CheckResult, DensityField, DomainError, Grid, KernelScale,
                   NumericsError, PositivityError, SolverConfig,
                   VelocityModel, _as_readonly, check_band)
from .diagnostics import InsufficientDataError
from .kernel import AveragedField, _center_average, _check_pair
from .trajectory import RunStats, Trajectory, march


class FrameError(ValueError):
    """Relaxation frame parameters are inconsistent (needs K > v(0))."""


class SourceBandError(ValueError):
    """z left the band [ln(K - v(0)), ln K] where q(z) is defined."""


class StiffSourceError(NumericsError):
    """The implicit source solve met a cell whose band holds no sign change
    of the residual, or whose residual is not finite."""


_BAND_SLACK = 1e-9

#: the source solve's Newton stop (absolute residual)
NEWTON_TOL = 1e-12

#: lattice points per density range in ``check_bv_conditions``
BV_SAMPLES = 513

#: midpoint-lattice densities in ``check_subcharacteristic``
SUBCHARACTERISTIC_SAMPLES = 1000


@dataclass(frozen=True)
class RelaxationFrame:
    """Tilt speed K, kernel scale and velocity model, with K > v(0)."""

    K: float
    eps: KernelScale
    model: VelocityModel

    def __post_init__(self):
        v0 = self.model.v_max
        if not self.K > v0:
            raise FrameError(
                f"K = {self.K} must strictly exceed v(0) = {v0}")

    @property
    def z_band(self) -> tuple[float, float]:
        """Admissible z interval [ln(K - v(0)), ln K]."""
        return (math.log(self.K - self.model.v_max), math.log(self.K))

    def z_of(self, q) -> np.ndarray:
        """The tilted variable z = ln(K - v(q)) of averages q."""
        return np.log(self.K - self.model.v(q))


@dataclass(frozen=True)
class UZFields:
    """Logarithmic variables u = ln rho and z = ln(K - v(q)) on a grid."""

    grid: Grid
    u: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        n = self.grid.n_cells
        object.__setattr__(self, "u", _as_readonly(self.u, n, "UZFields.u"))
        object.__setattr__(self, "z", _as_readonly(self.z, n, "UZFields.z"))


# ---------------------------------------------------------------------------
# speeds and stability conditions
# ---------------------------------------------------------------------------

def _below_tilt(K: float, values: np.ndarray, what: str):
    """Raise FrameError naming the first of ``values`` not below K."""
    reached = K <= values
    if np.any(reached):
        first = values.flat[np.argmax(reached)]
        raise FrameError(f"K = {K} <= {what} = {first}")


def speeds(q_value, frame: RelaxationFrame) -> tuple[float, np.ndarray]:
    """Frozen characteristic speeds (lambda1, lambda2) at average q, a
    number or an array."""
    check_band(q_value, frame.model.rho_jam, "q")
    vq = np.asarray(frame.model.v(q_value), dtype=float)
    _below_tilt(frame.K, vq, "v(q)")
    return (-frame.K, frame.K * vq / (frame.K - vq))


def equilibrium_speed(rho, frame: RelaxationFrame) -> np.ndarray:
    """Equilibrium characteristic speed lambda* = K f'/(K - f') at a
    number or an array of densities."""
    check_band(rho, frame.model.rho_jam, "rho")
    df = np.asarray(frame.model.df(rho), dtype=float)
    # unreachable when K > v(0) >= f', guarded all the same
    _below_tilt(frame.K, df, "f'(rho)")
    return frame.K * df / (frame.K - df)


@dataclass(frozen=True)
class SubcharacteristicReport:
    min_margin_lower: float   # min over samples of lambda* - lambda1
    min_margin_upper: float   # min over samples of lambda2 - lambda*
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_subcharacteristic(frame: RelaxationFrame) -> SubcharacteristicReport:
    """Verify lambda1 < lambda* < lambda2 at equilibrium (rho = q).

    Samples the open midpoint lattice rho_j = (j + 1/2) rho_jam / n with
    n = ``SUBCHARACTERISTIC_SAMPLES``.
    The vacuum endpoint rho = 0 is deliberately excluded: there f' = v(0)
    exactly, so lambda* and lambda2 coincide and the upper margin
    degenerates to zero; strict separation holds on (0, rho_jam].  The
    speeds are those of ``equilibrium_speed`` and ``speeds``, called on
    all samples at once, and raise FrameError as they do.
    """
    n = SUBCHARACTERISTIC_SAMPLES
    rho = (np.arange(n) + 0.5) * frame.model.rho_jam / n
    lam_star = equilibrium_speed(rho, frame)
    lam1, lam2 = speeds(rho, frame)
    lower = lam_star - lam1
    upper = lam2 - lam_star
    min_lower = float(np.min(lower))
    min_upper = float(np.min(upper))
    checks = (
        CheckResult("lambda_star_above_lambda1", min_lower > 0.0, min_lower,
                    f"min(lambda* - lambda1) = {min_lower:.6g}"),
        CheckResult("lambda_star_below_lambda2", min_upper > 0.0, min_upper,
                    f"min(lambda2 - lambda*) = {min_upper:.6g}"),
    )
    return SubcharacteristicReport(min_lower, min_upper, checks)


@dataclass(frozen=True)
class BVConditionReport:
    """Verdicts on the variation-monotonicity conditions.

    ``range_margin`` is the slack of the range-restricted condition
    min |v'| >= (rho2 - rho1)(||v''|| + ||v'||^2/(K - ||v||)); it controls
    whether the tilted total variation is non-increasing on data confined
    to [rho1, rho2].  ``uniform_margin`` is min |v'| - rho_jam ||v''||, the
    K-independent version.  For affine models ``min_K_affine`` is the
    smallest K for which the range condition holds on the full density
    range.  ``lambda_u_max`` / ``lambda_z_min`` are the extrema of the
    closed-form source partials over a lattice of the band (need
    Lambda_u <= 0 <= Lambda_z); where the lattice reaches v'(q) = 0,
    Lambda_z is not finite and ``source_z_sign`` fails.
    """

    rho_range: tuple[float, float]
    range_margin: float
    uniform_margin: float
    min_K_affine: float | None
    lambda_u_max: float
    lambda_z_min: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_bv_conditions(frame: RelaxationFrame,
                        rho_range: tuple[float, float]) -> BVConditionReport:
    """The ``BVConditionReport`` of ``frame`` on data in ``rho_range``,
    with the sups and mins sampled at ``BV_SAMPLES`` points."""
    model = frame.model
    rho1, rho2 = float(rho_range[0]), float(rho_range[1])
    if not (0.0 <= rho1 < rho2 <= model.rho_jam):
        raise DomainError(
            f"need 0 <= rho1 < rho2 <= rho_jam, got ({rho1}, {rho2})")

    full = np.linspace(0.0, model.rho_jam, BV_SAMPLES)
    sub = np.linspace(rho1, rho2, BV_SAMPLES)
    v_sup = float(np.max(np.abs(model.v(full))))
    dv_full = np.abs(model.dv(full))
    dv_sup = float(np.max(dv_full))
    dv_min_full = float(np.min(dv_full))
    d2v_sup = float(np.max(np.abs(model.d2v(full))))
    dv_min_sub = float(np.min(np.abs(model.dv(sub))))

    range_rhs = (rho2 - rho1) * (d2v_sup + dv_sup ** 2 / (frame.K - v_sup))
    range_margin = dv_min_sub - range_rhs
    uniform_margin = dv_min_full - model.rho_jam * d2v_sup

    min_k = None
    affine_checks = ()
    if model.is_affine:
        # rho_jam ||v'||^2 / (K - ||v||) <= min |v'| solved for K
        min_k = v_sup + model.rho_jam * dv_sup ** 2 / dv_min_full
        affine_margin = dv_min_full - model.rho_jam * dv_sup ** 2 \
            / (frame.K - v_sup)
        affine_checks = (CheckResult(
            "affine_full_range", affine_margin >= 0.0, affine_margin,
            f"holds for K >= {min_k:.6g}; margin {affine_margin:.6g}"),)

    lam_u_max, lam_z_min = _source_partial_extrema(frame, rho1, rho2)

    checks = (
        CheckResult("range_condition", range_margin >= 0.0, range_margin,
                    f"min|v'| - rhs = {range_margin:.6g}"),
        CheckResult("uniform_condition", uniform_margin > 0.0, uniform_margin,
                    f"min|v'| - rho_jam ||v''|| = {uniform_margin:.6g}"),
        CheckResult("source_u_sign", lam_u_max <= 1e-8, -lam_u_max,
                    f"max Lambda_u = {lam_u_max:.6g} (need <= 0)"),
        CheckResult("source_z_sign", lam_z_min >= -1e-8, lam_z_min,
                    f"min Lambda_z = {lam_z_min:.6g} (need >= 0)"),
    ) + affine_checks
    return BVConditionReport(
        rho_range=(rho1, rho2), range_margin=range_margin,
        uniform_margin=uniform_margin, min_K_affine=min_k,
        lambda_u_max=lam_u_max, lambda_z_min=lam_z_min, checks=checks)


def _source_partial_extrema(frame: RelaxationFrame, rho1: float,
                            rho2: float) -> tuple[float, float]:
    """max Lambda_u and min Lambda_z over a 33 x 33 (u, z) lattice."""
    model = frame.model
    rho_lo = max(rho1, 1e-8 * model.rho_jam)
    u_grid = np.log(np.linspace(rho_lo, rho2, 33))
    z_grid = frame.z_of(np.linspace(max(rho1, 1e-12), rho2, 33))
    uu, zz = np.meshgrid(u_grid, z_grid, indexing="ij")
    _, lam_u, neg_lam_z = _source(uu, zz, frame)
    return float(np.max(lam_u)), -float(np.max(neg_lam_z))


# ---------------------------------------------------------------------------
# coordinate maps and the source term
# ---------------------------------------------------------------------------

def to_uz(rho: DensityField, q: AveragedField,
          frame: RelaxationFrame) -> UZFields:
    """Map (rho, q) to the logarithmic variables (u, z).

    Entries are paired index-wise; requires uniformly positive rho.
    exp(u) recovers rho and K - exp(z) recovers v(q) exactly.
    """
    _check_pair(rho, q)
    if float(np.min(rho.values)) <= 0.0:
        raise PositivityError(
            "u = ln(rho) needs uniformly positive density")
    with np.errstate(divide="ignore", invalid="ignore"):
        z = frame.z_of(q.values)
    # ln(K - v(q)) is -inf or NaN exactly where v(q) >= K
    if not np.all(z > -np.inf):
        raise FrameError("K must exceed v(q) everywhere")
    return UZFields(rho.grid, np.log(rho.values), z)


def from_uz(uz: UZFields, frame: RelaxationFrame
            ) -> tuple[np.ndarray, np.ndarray]:
    """Invert the logarithmic map: returns (rho, q) cell arrays."""
    rho = np.exp(uz.u)
    q = frame.model.v_inverse(frame.K - np.exp(uz.z))
    return rho, q


def equilibrium_z(u, frame: RelaxationFrame) -> np.ndarray:
    """Monotone equilibrium map g(u) = ln(K - v(e^u))."""
    return frame.z_of(np.exp(u))


def _check_z_band(z, frame: RelaxationFrame, what: str):
    """Raise SourceBandError unless every z lies in ``frame.z_band``, up to
    ``_BAND_SLACK``."""
    lo, hi = frame.z_band
    if not (lo - _BAND_SLACK <= np.min(z) and np.max(z) <= hi + _BAND_SLACK):
        raise SourceBandError(
            f"{what} outside the admissible band [{lo:.6g}, {hi:.6g}]")


def lambda_source(u: float, z: float,
                  frame: RelaxationFrame) -> tuple[float, float]:
    """Source strength Lambda(u, z) and the equilibrium value g(u).

    Lambda vanishes exactly on z = g(u); its sign drives z toward
    equilibrium.  z must lie in the band [ln(K - v(0)), ln K] where
    q(z) = v_inverse(K - e^z) is defined.
    """
    _check_z_band(z, frame, f"z = {z}")
    rho = math.exp(u)
    if rho > frame.model.rho_jam * (1.0 + 1e-12):
        raise DomainError(
            f"exp(u) = {rho} exceeds rho_jam = {frame.model.rho_jam}")
    lam, _, _ = _source(np.array([u]), np.array([z]), frame)
    return float(lam[0]), float(equilibrium_z(u, frame))


def _source(u: np.ndarray, z: np.ndarray, frame: RelaxationFrame
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lambda(u, z), Lambda_u and -Lambda_z cellwise, in closed form, with
    q(z) clipped into [0, rho_jam].

    With the shared factor r = v'(q)/(K - v(q)) and e = e^z/(K - v(q)):
    Lambda = (rho - q) r, Lambda_u = rho r and
    -Lambda_z = Lambda_q e^z / v' = (Lambda - 1) e + (rho - q) v'' e / v'.
    The last term is absent for affine laws; where v'(q) = 0 it is not
    finite, and neither is -Lambda_z.
    """
    model = frame.model
    e = np.exp(z)
    q = np.maximum(model.v_inverse(frame.K - e), 0.0)
    np.minimum(q, model.rho_jam, out=q)
    denom = frame.K - model.v(q)
    dvq = model.dv(q)
    r = dvq / denom
    lam_u = np.exp(u)
    gap = lam_u - q
    lam = gap * r
    e /= denom
    neg_lam_z = lam - 1.0
    neg_lam_z *= e
    if not model.is_affine:
        with np.errstate(divide="ignore", invalid="ignore"):
            gap *= model.d2v(q)
            gap *= e
            gap /= dvq
        neg_lam_z += gap
    lam_u *= r
    return lam, lam_u, neg_lam_z


# ---------------------------------------------------------------------------
# tilted total-variation monitor
# ---------------------------------------------------------------------------

def _time_derivative(prev, cur, nxt, h1: float, h2: float) -> np.ndarray:
    """Three-point centered derivative on possibly uneven spacing."""
    return (nxt * h1 * h1 - prev * h2 * h2 + cur * (h2 * h2 - h1 * h1)) \
        / (h1 * h2 * (h1 + h2))


def _space_derivative(values: np.ndarray, grid) -> np.ndarray:
    """Centered differences, reading ``grid.ghosts`` past the ends."""
    left, right = grid.ghosts(values)
    padded = np.concatenate([[left], values, [right]])
    return (padded[2:] - padded[:-2]) / (2.0 * grid.dx)


def transformed_tv(traj: Trajectory, frame: RelaxationFrame
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Tilted total variation ||u_y||_L1 + ||z_y||_L1 along a trajectory.

    The tilted derivative is d_y = d_x + K^{-1} d_t.  Spatial parts use
    centered differences; time parts use three-point differencing across
    neighbouring snapshots, so only interior snapshot times are reported.
    When the variation-monotonicity conditions hold this series is
    non-increasing for exact solutions; discretization can perturb it by
    a few per cent, shrinking under refinement.

    The snapshots are read in time order through a window of three (u, z)
    levels, so the monitor holds O(N) memory however many snapshots the
    trajectory has.  A snapshot without an averaged field raises
    DomainError when the window reaches it.
    """
    snaps = traj.snapshots
    if len(snaps) < 3:
        raise InsufficientDataError(
            "transformed_tv needs at least three snapshots")
    grid = snaps[0].rho.grid

    window = deque(maxlen=3)
    out_t, out_v = [], []
    for s in snaps:
        if s.q is None:
            raise DomainError("trajectory snapshots carry no averaged field")
        uz = to_uz(s.rho, s.q, frame)
        window.append((s.t, uz.u, uz.z))
        if len(window) < 3:
            continue
        (t_prev, u_prev, z_prev), (t, u, z), (t_next, u_next, z_next) = window
        h1 = t - t_prev
        h2 = t_next - t
        u_t = _time_derivative(u_prev, u, u_next, h1, h2)
        z_t = _time_derivative(z_prev, z, z_next, h1, h2)
        u_y = _space_derivative(u, grid) + u_t / frame.K
        z_y = _space_derivative(z, grid) + z_t / frame.K
        total = (np.sum(np.abs(u_y)) + np.sum(np.abs(z_y))) * grid.dx
        out_t.append(t)
        out_v.append(float(total))
    return np.array(out_t), np.array(out_v)


# ---------------------------------------------------------------------------
# IMEX integrator for the tilted system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UZSnapshot:
    tau: float
    fields: UZFields


@dataclass(frozen=True)
class RelaxationTrajectory:
    snapshots: tuple[UZSnapshot, ...]
    #: the march's record; row 0 is u, row 1 is z
    stats: RunStats
    #: the most passes of the source solve in one step
    newton_iterations_max: int
    #: midpoints that replaced a Newton step, summed over cells and steps
    midpoint_steps: int

    @property
    def step_count(self) -> int:
        """``stats.steps``, under the name the benchmark's tracer reads."""
        return self.stats.steps

    @property
    def final(self) -> UZSnapshot:
        return self.snapshots[-1]


def _implicit_source(u_star: np.ndarray, total: np.ndarray, c: float,
                     frame: RelaxationFrame) -> tuple[np.ndarray, int, int]:
    """Solve U = u_star + c*Lambda(U, total - U) cellwise.

    The source moves (u, z) along lines of constant u + z, so the solve is
    a scalar root per cell on the band [total - ln K, total - ln(K - v(0))],
    where the residual's slope 1 - c (Lambda_u - Lambda_z) is >= 1 whenever
    the sign conditions hold.  One safeguarded Newton loop runs on the open
    cells, each keeping a sign bracket that starts as the band and that
    every residual narrows.  A cell whose |residual| falls below
    ``NEWTON_TOL`` takes that pass's step, clamped to the band, and
    freezes.  Otherwise a Newton step not strictly inside the bracket (a
    slope that is not finite, v'(q) = 0 at the band edge, takes none)
    becomes its midpoint; a cell whose bracket is two adjacent floats
    (very stiff sources jump by more than ``NEWTON_TOL`` between them)
    ends at the end with the smaller |residual|, evaluating both ends of a
    shut bracket.  After the first pass
    every iterate lies strictly inside its bracket, so each pass moves an
    end strictly inward and the loop ends without a cap.  Returns U, the
    passes and the midpoint steps.  StiffSourceError names the first cell
    whose residual is not finite or has no sign change on the band.
    """
    z_lo, z_hi = frame.z_band
    a = total - z_hi
    b = total - z_lo
    U = np.minimum(np.maximum(u_star, a), b)
    # the open cells: their indices, iterates and data, and their sign
    # brackets [a, b], at first the band; a bracket is first written once
    # a pass has copied it out for the cells left open
    cells = np.arange(U.size)
    x, us, tot = U, u_star, total

    def fail(i: int, what: str):
        raise StiffSourceError(
            f"source solve failed in cell {cells[i]}: {what}")

    passes = midpoints = 0
    while cells.size:
        passes += 1
        resid, step = _residual(x, us, tot, c, frame)
        np.divide(resid, step, out=step)
        step[np.isnan(step)] = 0.0
        new = np.subtract(x, step, out=step)
        np.maximum(new, tot - z_hi, out=new)
        np.minimum(new, tot - z_lo, out=new)
        done = np.abs(resid) < NEWTON_TOL
        U[cells[done]] = new[done]
        if done.all():
            break
        i = np.flatnonzero(~done)
        cells, x, new, resid, us, tot, a, b = (
            v[i] for v in (cells, x, new, resid, us, tot, a, b))
        finite = np.isfinite(resid)
        if not finite.all():
            fail(np.argmin(finite), "non-finite residual")
        up = resid > 0.0
        np.copyto(b, x, where=up)
        np.copyto(a, x, where=~up)
        newton = (a < new) & (new < b)
        x = np.where(newton, new, 0.5 * (a + b))
        # the midpoint of two adjacent floats is one of them
        shut = ~((a < x) & (x < b))
        midpoints += int(np.count_nonzero(~(newton | shut)))
        if not shut.any():
            continue
        i = np.flatnonzero(shut)
        ra, rb = (_residual(end[i], us[i], tot[i], c, frame)[0]
                  for end in (a, b))
        finite = np.isfinite(ra) & np.isfinite(rb)
        if not finite.all():
            fail(i[np.argmin(finite)], "non-finite residual")
        wrong = (ra > 0.0) | (rb < 0.0)
        if wrong.any():
            j = i[np.argmax(wrong)]
            band = tot[j] - np.array([z_hi, z_lo])
            r_lo, r_hi = _residual(band, us[j], tot[j], c, frame)[0]
            fail(j, f"no sign change on the band, residuals "
                    f"({r_lo:.3e}, {r_hi:.3e})")
        U[cells[i]] = np.where(np.abs(ra) < np.abs(rb), a[i], b[i])
        i = np.flatnonzero(~shut)
        cells, x, us, tot, a, b = (v[i] for v in (cells, x, us, tot, a, b))
    return U, passes, midpoints


def _residual(U: np.ndarray, u_star: np.ndarray, total: np.ndarray,
              c: float, frame: RelaxationFrame
              ) -> tuple[np.ndarray, np.ndarray]:
    """The source solve's residual U - u_star - c*Lambda(U, total - U) and
    its slope 1 - c (Lambda_u - Lambda_z) along the line u + z = total."""
    lam, lam_u, slope = _source(U, total - U, frame)
    lam *= c
    resid = U - u_star
    resid -= lam
    slope += lam_u
    slope *= -c
    slope += 1.0
    return resid, slope


def solve_relaxation(initial: UZFields, frame: RelaxationFrame,
                     config: SolverConfig) -> RelaxationTrajectory:
    """IMEX march of the tilted system over tau in [0, t_final].

    Transport is explicit upwind: u moves right with speed
    K(K e^{-z} - 1) >= 0 (fed from the left), z moves left with speed K
    (fed from the right).  The stiff source is implicit Euler; u + z is
    invariant under the source, reducing it to a per-cell scalar solve.
    One safeguarded Newton loop, ``_implicit_source``, solves it to
    ``NEWTON_TOL`` or to two adjacent floats, reading Lambda and its
    partials from the one closed form ``_source``.  dtau obeys the CFL
    bound on max(K, transport speed) and lands exactly on requested
    snapshot times.  The trajectory reports the most passes any step's
    solve needed and the midpoint steps summed over cells and steps.  A
    source solve with no sign change on the band, or with a non-finite
    residual, raises StiffSourceError.  For a law with v'(0) = 0, Lambda
    vanishes on the lower band edge z = ln(K - v(0)), so data there stays
    there however far it is from equilibrium, although q = 0 beside
    rho > 0 is not the average of any density.
    """
    grid = initial.grid
    _check_z_band(initial.z, frame, "initial z")

    state = np.stack([initial.u, initial.z])
    u, z = state
    snapshots = []
    passes_max = 0
    midpoints = 0
    K = frame.K
    ratio_eps = K / frame.eps.epsilon
    speed_u = None

    def stable_dt() -> float:
        nonlocal speed_u
        speed_u = K * (K * np.exp(-z) - 1.0)
        return config.cfl * grid.dx / max(K, float(np.max(speed_u)))

    def advance(dtau: float):
        nonlocal passes_max, midpoints
        # u is fed from its left neighbour, z from its right one
        left, right = grid.ghosts(state)
        u_left = np.concatenate([left[:1], u[:-1]])
        z_right = np.concatenate([z[1:], right[1:]])
        u_star = u - (dtau / grid.dx) * speed_u * (u - u_left)
        z_star = z + (dtau / grid.dx) * K * (z_right - z)

        total = u_star + z_star
        u[:], passes, n_midpoints = _implicit_source(
            u_star, total, dtau * ratio_eps, frame)
        np.subtract(total, u, out=z)
        passes_max = max(passes_max, passes)
        midpoints += n_midpoints

    def record(tau: float):
        snapshots.append(UZSnapshot(tau, UZFields(grid, u, z)))

    stats = march(config.emission_times(), state, stable_dt, advance, record)
    return RelaxationTrajectory(
        snapshots=tuple(snapshots), stats=stats,
        newton_iterations_max=passes_max, midpoint_steps=midpoints)


# ---------------------------------------------------------------------------
# slanted-slice sampling of a physical trajectory
# ---------------------------------------------------------------------------

class SliceGatherer:
    """Samples of a physical run along the line t = tau + x/K, gathered
    while the run is solved.

    A constant-tau slice of the tilted coordinates is exactly such a
    slanted line in (t, x).  Built from the grid, the kernel scale and the
    run's emission times, which must cover the whole line (else
    DomainError); ``add`` takes each snapshot's density and left-edge
    average in time order.  ``result`` returns per-cell (rho, q) with q at
    cell centers, linearly interpolated in time between snapshots.

    Slice times grow with x, so the bracketing snapshot pair is constant
    on runs of adjacent cells.  A snapshot writes its (1 - w) share into
    the run it opens and adds its w share to the run it closes: O(N)
    memory however many snapshots there are, and no history.
    """

    def __init__(self, grid: Grid, eps: KernelScale, times, K: float,
                 tau: float):
        times = np.asarray(times, dtype=float)
        t_slice = tau + grid.cell_centers() / K
        if (float(np.min(t_slice)) < times[0] - 1e-12
                or float(np.max(t_slice)) > times[-1] + 1e-12):
            raise DomainError(
                f"slice times [{t_slice.min():.6g}, {t_slice.max():.6g}] not "
                f"covered by snapshots [{times[0]:.6g}, {times[-1]:.6g}]")
        idx = np.clip(np.searchsorted(times, t_slice, side="right") - 1,
                      0, len(times) - 2)
        w = (t_slice - times[idx]) / (times[idx + 1] - times[idx])
        self._w = np.clip(w, 0.0, 1.0)
        starts = np.flatnonzero(np.diff(idx, prepend=-1))
        stops = np.append(starts[1:], grid.n_cells)
        # snapshot k opens the run of cells bracketed by k and k + 1
        self._runs = {int(idx[a]): (int(a), int(b))
                      for a, b in zip(starts, stops)}
        self._gamma = np.exp(-grid.dx / (2.0 * eps.epsilon))
        self._periodic = grid.periodic
        self._n_times = times.size
        self._count = 0
        self._rho = np.empty(grid.n_cells)
        self._q = np.empty(grid.n_cells)

    def _center(self, rho, q, a: int, b: int) -> np.ndarray:
        return _center_average(rho, q, self._gamma, self._periodic, a, b)

    def add(self, rho: np.ndarray, q: np.ndarray):
        """Take the next snapshot's density and left-edge average."""
        k = self._count
        if k == self._n_times:
            raise DomainError(f"all {k} snapshots were already added")
        if k - 1 in self._runs:
            a, b = self._runs[k - 1]
            wr = self._w[a:b]
            self._rho[a:b] += wr * rho[a:b]
            self._q[a:b] += wr * self._center(rho, q, a, b)
        if k in self._runs:
            a, b = self._runs[k]
            wl = 1.0 - self._w[a:b]
            self._rho[a:b] = wl * rho[a:b]
            self._q[a:b] = wl * self._center(rho, q, a, b)
        self._count = k + 1

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell (rho, q) along the line, once every snapshot is in."""
        if self._count != self._n_times:
            raise DomainError(
                f"{self._count} of {self._n_times} snapshots added")
        return self._rho, self._q


def physical_slice(traj: Trajectory, K: float, tau: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Sample a physical-time trajectory along the line t = tau + x/K.

    Returns per-cell (rho, q) with q evaluated at cell centers, linearly
    interpolated in time between snapshots; the trajectory must cover the
    whole line and carry averaged fields.  The snapshots feed a
    ``SliceGatherer`` in time order, as a running solve would.
    """
    snaps = traj.snapshots
    if any(s.q is None for s in snaps):
        raise DomainError("trajectory snapshots carry no averaged field")
    gather = SliceGatherer(snaps[0].rho.grid, snaps[0].q.epsilon,
                           [s.t for s in snaps], K, tau)
    for snap in snaps:
        gather.add(snap.rho.values, snap.q.values)
    return gather.result()

"""Grids, density fields, velocity models and initial-data presets.

Everything downstream (averaging kernel, solvers, diagnostics) works on the
types defined here.  All containers are immutable after construction and all
operations are pure functions, so values can be shared freely across
concurrent runs.

Units are dimensionless throughout: the caller owns any rescaling of
density, speed and length to physical units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

PERIODIC = "periodic"
CONSTANT_EXTENSION = "constant_extension"
_BOUNDARY_MODES = (PERIODIC, CONSTANT_EXTENSION)


class DomainError(ValueError):
    """A value lies outside its admissible range."""


class PositivityError(DomainError):
    """A field that must be uniformly positive is not."""


class ShapeError(ValueError):
    """Mismatched grids or array lengths."""


class ModelEvaluationError(RuntimeError):
    """A velocity-model evaluator returned a non-finite value."""


class NumericsError(RuntimeError):
    """Base class for runtime failures of the numerical schemes."""


class TimeStepCollapse(NumericsError):
    """Adaptive time step shrank below the stagnation threshold."""


class BlowupError(NumericsError):
    """NaN or infinity appeared in the evolving state."""


class QuadratureError(NumericsError):
    """Adaptive quadrature failed to reach the requested tolerance."""


#: lattice points on [0, rho_jam] in ``validate_model``
MODEL_SAMPLES = 1001


# ---------------------------------------------------------------------------
# grid and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform 1-D cell grid on [x_min, x_max].

    Cell i covers [x_min + i*dx, x_min + (i+1)*dx]; its center is
    x_min + (i + 1/2)*dx.  ``boundary_mode`` selects how fields continue
    past the ends: ``periodic`` wraps, ``constant_extension`` freezes the
    first/last cell value on each side.
    """

    x_min: float
    x_max: float
    n_cells: int
    boundary_mode: str = PERIODIC

    def __post_init__(self):
        if not (isinstance(self.n_cells, (int, np.integer))
                and self.n_cells >= 4):
            raise DomainError(
                f"need an integer of at least 4 cells, got {self.n_cells!r}")
        if not 0.0 < self.x_max - self.x_min < np.inf:
            raise DomainError(f"domain [{self.x_min}, {self.x_max}] has no "
                              "finite positive length")
        if self.boundary_mode not in _BOUNDARY_MODES:
            raise DomainError(
                f"unknown boundary_mode {self.boundary_mode!r}; "
                f"expected one of {_BOUNDARY_MODES}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def cell_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def cell_edges(self) -> np.ndarray:
        """All n_cells + 1 edge positions, left to right."""
        return self.x_min + np.arange(self.n_cells + 1) * self.dx

    @property
    def periodic(self) -> bool:
        return self.boundary_mode == PERIODIC

    def ghosts(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of the values one cell before the first cell and one
        after the last, along the last axis: (last, first) on periodic
        grids, (first, last) under constant extension."""
        if self.periodic:
            return values[..., -1], values[..., 0]
        return values[..., 0], values[..., -1]


def check_band(values, rho_jam: float, what: str):
    """Raise DomainError unless every value (of a number or an array)
    lies in [0, rho_jam]; a NaN does not."""
    lo, hi = float(np.min(values)), float(np.max(values))
    if not (lo >= 0.0 and hi <= rho_jam):
        raise DomainError(
            f"{what} range [{lo:.6g}, {hi:.6g}] leaves the admissible "
            f"band [0, {rho_jam}]")


def _as_readonly(values, n: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size != n:
        raise ShapeError(f"{what}: expected {n} values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what}: non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DensityField:
    """Cell-averaged car density on a grid, one value per cell."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values",
            _as_readonly(self.values, self.grid.n_cells, "DensityField"))

    def total_mass(self) -> float:
        return float(np.sum(self.values)) * self.grid.dx

    def with_values(self, values) -> "DensityField":
        """The same grid with new values; no code in the package calls it,
        but ``benchmarks/corruptions.py --self-check`` does."""
        return DensityField(self.grid, values)


@dataclass(frozen=True)
class KernelScale:
    """Length scale eps > 0 of the averaging kernel eps^-1 exp(-s/eps)."""

    epsilon: float

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise DomainError(f"kernel scale must be positive, got {self.epsilon}")


# ---------------------------------------------------------------------------
# velocity models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityModel:
    """Speed law v(rho) on [0, rho_jam] with derivatives and inverse.

    The model is admissible when v(rho_jam) = 0 and v' <= -delta < 0 on the
    whole density range; ``validate_model`` measures how well a given model
    satisfies this.  Custom models supply all four evaluators explicitly
    (no finite-difference fallback: the derivative values feed condition
    checks where differentiation noise would flip verdicts).  Evaluators
    must accept numpy arrays.
    """

    kind: str
    rho_jam: float
    v: Callable[[np.ndarray], np.ndarray]
    dv: Callable[[np.ndarray], np.ndarray]
    d2v: Callable[[np.ndarray], np.ndarray]
    v_inverse: Callable[[np.ndarray], np.ndarray]
    a: float | None = None
    b: float | None = None

    @staticmethod
    def affine(a: float, b: float) -> "VelocityModel":
        """v(rho) = a - b*rho with rho_jam = a/b, for a, b > 0."""
        if a <= 0 or b <= 0:
            raise DomainError(f"affine model needs a, b > 0, got a={a}, b={b}")
        return VelocityModel(
            kind="affine",
            rho_jam=a / b,
            v=lambda rho: a - b * np.asarray(rho, dtype=float),
            dv=lambda rho: np.full_like(np.asarray(rho, dtype=float), -b),
            d2v=lambda rho: np.zeros_like(np.asarray(rho, dtype=float)),
            v_inverse=lambda s: (a - np.asarray(s, dtype=float)) / b,
            a=a,
            b=b,
        )

    @staticmethod
    def custom(v, dv, d2v, v_inverse, rho_jam: float) -> "VelocityModel":
        if rho_jam <= 0:
            raise DomainError(f"rho_jam must be positive, got {rho_jam}")
        return VelocityModel(kind="custom", rho_jam=rho_jam, v=v, dv=dv,
                             d2v=d2v, v_inverse=v_inverse)

    def v_into(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        """v(rho) written into ``out``, bit for bit ``v(rho)``; returns out.

        An affine law evaluates a + (-b) rho in place, which rounds
        exactly as a - b rho does.  A custom law's evaluator gets ``rho``
        as it is (the solvers pass one 1-D array) and its result is
        copied into ``out``.  ``out`` may be ``rho`` itself.
        """
        if self.is_affine:
            np.multiply(rho, -self.b, out=out)
            out += self.a
        else:
            np.copyto(out, self.v(rho))
        return out

    def dv_into(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        """v'(rho) written into ``out``, bit for bit ``dv(rho)``; returns
        out.  An affine law fills ``out`` with -b; a custom law's
        evaluator gets ``rho`` as it is and its result is copied into
        ``out``.  ``out`` may be ``rho`` itself.
        """
        if self.is_affine:
            out.fill(-self.b)
        else:
            np.copyto(out, self.dv(rho))
        return out

    def f_into(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        """f(rho) = rho v(rho) written into ``out``, bit for bit ``f(rho)``;
        returns out.  An affine law evaluates v in ``out`` first; a custom
        law's speeds are multiplied into ``out`` without a copy.

        Unlike ``v_into``, ``out`` must not overlap ``rho``: an affine law
        would overwrite rho with v before the multiply and return v * v.
        """
        if self.is_affine:
            assert not np.shares_memory(rho, out), "f_into: out overlaps rho"
            v = self.v_into(rho, out)
        else:
            v = self.v(rho)
        return np.multiply(rho, v, out=out)

    def f(self, rho) -> np.ndarray:
        """Flux f = rho v(rho)."""
        rho = np.asarray(rho, dtype=float)
        return rho * self.v(rho)

    def df(self, rho) -> np.ndarray:
        """f' = v + rho v'."""
        rho = np.asarray(rho, dtype=float)
        return self.v(rho) + rho * self.dv(rho)

    def d2f(self, rho) -> np.ndarray:
        """f'' = 2 v' + rho v''."""
        rho = np.asarray(rho, dtype=float)
        return 2.0 * self.dv(rho) + rho * self.d2v(rho)

    @property
    def v_max(self) -> float:
        """Free-flow speed v(0)."""
        return float(self.v(0.0))

    @property
    def is_affine(self) -> bool:
        return self.kind == "affine"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class ModelValidationReport:
    """Outcome of sampling-based admissibility checks on a velocity model."""

    vjam_residual: float
    delta_star: float
    d2v_sup: float
    inverse_roundtrip_error: float
    flux_curvature_sup: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_model(model: VelocityModel) -> ModelValidationReport:
    """Sample the model at ``MODEL_SAMPLES`` evenly spaced points of
    [0, rho_jam] and check its admissibility.

    Checks, with worst margins reported:

    * v(rho_jam) = 0 within 1e-12,
    * v'(rho) < 0 at every sample (delta_star is estimated as -max v'),
    * v_inverse(v(rho)) = rho within 1e-10 at every sample.

    The sup norm of v'' over the samples is reported for use by the
    relaxation-side condition checks, and the sup of the flux curvature
    2 v' + rho v'' (``flux_curvature_sup``) tells whether the flux is
    concave on the samples.  Concavity is reported, not checked: neither
    the paper nor the local Godunov solver assumes it.  Admissibility is
    verified, not enforced: a failing model is returned with failing
    entries rather than rejected.
    """
    rho = np.linspace(0.0, model.rho_jam, MODEL_SAMPLES)

    def _eval(fn, arg, name):
        out = np.asarray(fn(arg), dtype=float)
        if not np.all(np.isfinite(out)):
            bad = np.asarray(arg)[~np.isfinite(out)][0] if np.ndim(arg) else arg
            raise ModelEvaluationError(
                f"{name} returned a non-finite value at rho = {bad}")
        return out

    v = _eval(model.v, rho, "v")
    dv = _eval(model.dv, rho, "v'")
    d2v = _eval(model.d2v, rho, "v''")
    inv = _eval(model.v_inverse, v, "v_inverse")

    # the lattice ends exactly at rho_jam
    vjam_residual = abs(float(v[-1]))
    max_dv = float(np.max(dv))
    delta_star = -max_dv
    d2v_sup = float(np.max(np.abs(d2v)))
    inv_err = float(np.max(np.abs(inv - rho)))
    # f'' in the operation order of VelocityModel.d2f
    curvature = 2.0 * dv + rho * d2v
    curvature_sup = (float(np.max(curvature))
                     if np.all(np.isfinite(curvature)) else float("nan"))

    checks = (
        CheckResult("v_vanishes_at_jam", vjam_residual <= 1e-12,
                    1e-12 - vjam_residual,
                    f"|v(rho_jam)| = {vjam_residual:.3e}"),
        CheckResult("v_strictly_decreasing", max_dv < 0.0, -max_dv,
                    f"max v' over samples = {max_dv:.6g}"),
        CheckResult("inverse_roundtrip", inv_err <= 1e-10, 1e-10 - inv_err,
                    f"max |v_inverse(v(rho)) - rho| = {inv_err:.3e}"),
    )
    return ModelValidationReport(
        vjam_residual=vjam_residual,
        delta_star=delta_star,
        d2v_sup=d2v_sup,
        inverse_roundtrip_error=inv_err,
        flux_curvature_sup=curvature_sup,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# initial-data presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Riemann:
    """Two constant states with a jump at x0."""
    rho_left: float
    rho_right: float
    x0: float


@dataclass(frozen=True)
class Bump:
    """base + amplitude * cos^2(pi (x-center) / (2 width)) on |x-center| <= width."""
    base: float
    amplitude: float
    center: float
    width: float


@dataclass(frozen=True)
class Sine:
    """mean + amplitude * sin(2 pi x / wavelength)."""
    mean: float
    amplitude: float
    wavelength: float


@dataclass(frozen=True)
class MonotoneRamp:
    """Linear transition from rho_left (x <= x0) to rho_right (x >= x1)."""
    rho_left: float
    rho_right: float
    x0: float
    x1: float


Preset = Riemann | Bump | Sine | MonotoneRamp


def _riemann_antiderivative(p: Riemann, x: np.ndarray) -> np.ndarray:
    below = np.minimum(x, p.x0)
    above = np.maximum(x - p.x0, 0.0)
    return p.rho_left * below + p.rho_right * above


def _bump_antiderivative(p: Bump, x: np.ndarray) -> np.ndarray:
    # integral of cos^2(pi r / 2) dr from -1 to s equals (s+1)/2 + sin(pi s)/(2 pi)
    s = np.clip((x - p.center) / p.width, -1.0, 1.0)
    hump = p.width * ((s + 1.0) / 2.0 + np.sin(np.pi * s) / (2.0 * np.pi))
    return p.base * x + p.amplitude * hump


def _sine_antiderivative(p: Sine, x: np.ndarray) -> np.ndarray:
    w = 2.0 * np.pi / p.wavelength
    return p.mean * x - p.amplitude * np.cos(w * x) / w


def _ramp_antiderivative(p: MonotoneRamp, x: np.ndarray) -> np.ndarray:
    if not p.x1 > p.x0:
        raise DomainError(f"ramp needs x0 < x1, got [{p.x0}, {p.x1}]")
    slope = (p.rho_right - p.rho_left) / (p.x1 - p.x0)
    t = np.clip(x, p.x0, p.x1) - p.x0
    return (p.rho_left * np.minimum(x, p.x0)
            + p.rho_left * t + 0.5 * slope * t ** 2
            + p.rho_right * np.maximum(x - p.x1, 0.0))


def make_initial(grid: Grid, preset: Preset, rho_jam: float = 1.0) -> DensityField:
    """Build initial data as exact cell averages of a preset profile.

    Averages come from closed-form antiderivatives, so a Riemann jump inside
    a cell yields the proportional mixture of the two states and a sine over
    a full period carries exactly its mean.  Every cell value must land in
    [0, rho_jam]; pass the jam density of the model that will evolve the
    field.
    """
    if isinstance(preset, Riemann):
        if not (grid.x_min < preset.x0 < grid.x_max):
            raise DomainError(
                f"riemann jump x0={preset.x0} outside ({grid.x_min}, {grid.x_max})")
        anti = _riemann_antiderivative
    elif isinstance(preset, Bump):
        if preset.width <= 0:
            raise DomainError(f"bump width must be positive, got {preset.width}")
        anti = _bump_antiderivative
    elif isinstance(preset, Sine):
        if preset.wavelength <= 0:
            raise DomainError(
                f"sine wavelength must be positive, got {preset.wavelength}")
        anti = _sine_antiderivative
    elif isinstance(preset, MonotoneRamp):
        anti = _ramp_antiderivative
    else:
        raise DomainError(f"unknown preset {preset!r}")
    edges = grid.cell_edges()
    values = np.diff(anti(preset, edges)) / grid.dx

    check_band(values, rho_jam, "initial density")
    return DensityField(grid, values)


# ---------------------------------------------------------------------------
# solver configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters shared by all solvers.

    ``t_final`` must be finite and ``snapshot_times`` must be sorted and lie
    in [0, t_final]; solvers land exactly on each one.  The initial state and the final time are always
    recorded even when not listed.
    """

    t_final: float
    cfl: float = 0.5
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise DomainError(f"cfl must be in (0, 1], got {self.cfl}")
        if not np.isfinite(self.t_final):
            raise DomainError(f"t_final must be finite, got {self.t_final}")
        if self.t_final < 0.0:
            raise DomainError(f"t_final must be >= 0, got {self.t_final}")
        times = tuple(float(t) for t in self.snapshot_times)
        if not np.all(np.isfinite(times)):
            raise DomainError(f"snapshot_times must be finite, got {times}")
        if list(times) != sorted(times):
            raise DomainError("snapshot_times must be sorted")
        if times and (times[0] < 0.0 or times[-1] > self.t_final):
            raise DomainError(
                f"snapshot_times must lie in [0, {self.t_final}]")
        object.__setattr__(self, "snapshot_times", times)

    def emission_times(self) -> list[float]:
        """Strictly increasing times to record, always starting at 0."""
        times = np.unique(np.concatenate(
            [[0.0], np.asarray(self.snapshot_times, dtype=float),
             [self.t_final]]))
        return [float(t) for t in times]

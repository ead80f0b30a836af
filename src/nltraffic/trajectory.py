"""The solvers' one time loop, ``march``, and the records they return."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (BlowupError, DensityField, DomainError, KernelScale,
                   TimeStepCollapse, VelocityModel)
from .kernel import AveragedField


@dataclass(frozen=True)
class Snapshot:
    t: float
    rho: DensityField
    q: AveragedField | None = None


@dataclass(frozen=True)
class DtSummary:
    count: int
    min: float
    max: float
    mean: float


def march(emit: Sequence[float], stable_dt: Callable[[], float],
          advance: Callable[[float], bool],
          observe: Callable[[float], None]) -> DtSummary:
    """Step from t = 0 through the increasing times ``emit`` (emit[0] = 0).

    A step is ``stable_dt()`` clipped to the next emission time, which
    counts as reached within 1e-14 max(1, time); a clipped step below 1e-14
    raises TimeStepCollapse.  ``advance(dt)`` steps the state and returns
    whether it is finite, else BlowupError names the step.  ``observe(t)``
    runs at t = 0 and at each emission time, never after a raise.
    """
    observe(0.0)
    t, steps = 0.0, 0
    dt_min, dt_max, dt_sum = float("inf"), 0.0, 0.0
    for target in emit[1:]:
        while t < target - 1e-14 * max(1.0, target):
            dt = min(stable_dt(), target - t)
            if dt < 1e-14:
                raise TimeStepCollapse(
                    f"time step {dt:.3e} at t = {t:.6g} (step {steps})")
            if not advance(dt):
                raise BlowupError(f"non-finite state at step {steps}")
            t += dt
            steps += 1
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
            dt_sum += dt
        t = target
        observe(t)
    if steps == 0:
        return DtSummary(0, 0.0, 0.0, 0.0)
    return DtSummary(steps, dt_min, dt_max, dt_sum / steps)


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one solve, plus per-run bookkeeping.

    ``rho_min_seen`` / ``rho_max_seen`` track the extrema over EVERY step
    taken, not just the recorded snapshots, so range-preservation can be
    checked without storing the whole history.  ``eps`` is None for the
    local reference solver.
    """

    model: VelocityModel
    eps: KernelScale | None
    snapshots: tuple[Snapshot, ...]
    dt_summary: DtSummary
    rho_min_seen: float
    rho_max_seen: float

    def __post_init__(self):
        times = [s.t for s in self.snapshots]
        if not times or times[0] != 0.0:
            raise DomainError("first snapshot must be at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("snapshot times must increase strictly")

    @property
    def step_count(self) -> int:
        return self.dt_summary.count

    @property
    def times(self) -> list[float]:
        return [s.t for s in self.snapshots]

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]

    def at_time(self, t: float, tol: float = 1e-12) -> Snapshot:
        for snap in self.snapshots:
            if abs(snap.t - t) <= tol:
                return snap
        raise DomainError(f"no snapshot at t = {t}")

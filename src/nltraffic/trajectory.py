"""The solvers' one time loop, ``march``, and the records they return."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import BlowupError, DensityField, DomainError, TimeStepCollapse
from .kernel import AveragedField


@dataclass(frozen=True)
class Snapshot:
    t: float
    rho: DensityField
    q: AveragedField | None = None


@dataclass(frozen=True)
class RunStats:
    """What ``march`` saw: the step count, the step sizes (all 0.0 when no
    step was taken) and each state row's min and max over the initial
    state and every step, not just the emission times."""

    steps: int
    dt_min: float
    dt_max: float
    dt_mean: float
    low: np.ndarray
    high: np.ndarray


def march(emit: Sequence[float], state: np.ndarray,
          stable_dt: Callable[[], float], advance: Callable[[float], None],
          observe: Callable[[float], None]) -> RunStats:
    """Step the 2-D ``state`` from t = 0 through the increasing times
    ``emit`` (emit[0] = 0).

    A step is ``stable_dt()`` clipped to the next emission time, which
    counts as reached within 1e-14 max(1, time); a clipped step below 1e-14
    raises TimeStepCollapse.  ``advance(dt)`` steps ``state`` in place;
    then each row's min and max are taken, a non-finite one (NaN or an
    infinity anywhere in the row) raises BlowupError naming the step, and
    the rest fold into the record's ``low`` / ``high``.  ``observe(t)``
    runs at t = 0 and at each emission time, never after a raise.
    """
    low, high = state.min(axis=1), state.max(axis=1)
    # each step's row extrema and their finiteness, reduced in place
    extrema = np.empty((2, len(state)))
    row_min, row_max = extrema
    finite = np.empty(extrema.shape, dtype=bool)
    observe(0.0)
    t, steps = 0.0, 0
    dt_min, dt_max, dt_sum = float("inf"), 0.0, 0.0
    for target in emit[1:]:
        while t < target - 1e-14 * max(1.0, target):
            dt = min(stable_dt(), target - t)
            if dt < 1e-14:
                raise TimeStepCollapse(
                    f"time step {dt:.3e} at t = {t:.6g} (step {steps})")
            advance(dt)
            np.minimum.reduce(state, axis=1, out=row_min)
            np.maximum.reduce(state, axis=1, out=row_max)
            if not np.logical_and.reduce(np.isfinite(extrema, out=finite),
                                         axis=None):
                raise BlowupError(f"non-finite state at step {steps}")
            np.minimum(low, row_min, out=low)
            np.maximum(high, row_max, out=high)
            t += dt
            steps += 1
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
            dt_sum += dt
        t = target
        observe(t)
    if steps == 0:
        return RunStats(0, 0.0, 0.0, 0.0, low, high)
    return RunStats(steps, dt_min, dt_max, dt_sum / steps, low, high)


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one solve and its ``march`` record, whose one row is
    the density: ``stats.low[0]`` / ``stats.high[0]`` are its extrema over
    every step taken, so range preservation is checked without storing
    the history.
    """

    snapshots: tuple[Snapshot, ...]
    stats: RunStats

    def __post_init__(self):
        times = [s.t for s in self.snapshots]
        if not times or times[0] != 0.0:
            raise DomainError("first snapshot must be at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("snapshot times must increase strictly")

    @property
    def step_count(self) -> int:
        """``stats.steps``, under the name the benchmark's tracer reads."""
        return self.stats.steps

    @property
    def times(self) -> list[float]:
        return [s.t for s in self.snapshots]

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]

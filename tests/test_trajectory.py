import numpy as np
import pytest

from nltraffic import (DensityField, FluxEntropyModel, Grid, KernelScale,
                       RelaxationFrame, SolverConfig, UZFields, equilibrium_z,
                       solve_local, solve_nonlocal, solve_relaxation)
from nltraffic.core import BlowupError, TimeStepCollapse
from nltraffic.trajectory import RunStats, march


class _Recorder:
    """Driver callbacks on a (2, 2) state: step k is dts[k] (the last one
    repeats), and step k writes each ``writes[k]`` (row, col, value) into
    the state."""

    def __init__(self, dts, writes=None):
        self.dts = list(dts)
        self.writes = writes or {}
        self.state = np.array([[0.5, 0.5], [1.0, 1.0]])
        self.taken = []
        self.observed = []

    def stable_dt(self) -> float:
        return self.dts[min(len(self.taken), len(self.dts) - 1)]

    def advance(self, dt: float):
        for row, col, value in self.writes.get(len(self.taken), ()):
            self.state[row, col] = value
        self.taken.append(dt)

    def observe(self, t: float):
        self.observed.append((t, self.state.copy()))

    @property
    def observed_times(self) -> list[float]:
        return [t for t, _ in self.observed]

    def march(self, emit) -> RunStats:
        return march(emit, self.state, self.stable_dt, self.advance,
                     self.observe)


class TestMarch:
    def test_observes_every_emission_time_exactly(self):
        config = SolverConfig(t_final=0.7, snapshot_times=(0.1, 0.25, 0.3))
        rec = _Recorder([0.03])
        stats = rec.march(config.emission_times())
        assert rec.observed_times == config.emission_times()
        assert stats.steps == len(rec.taken)
        assert stats.dt_max == 0.03
        assert stats.dt_min == min(rec.taken) < 0.03
        assert stats.dt_mean == pytest.approx(0.7 / stats.steps)

    def test_zero_horizon_observes_once(self):
        rec = _Recorder([0.1])
        stats = rec.march(SolverConfig(t_final=0.0).emission_times())
        assert rec.observed_times == [0.0]
        assert rec.taken == []
        assert (stats.steps, stats.dt_min, stats.dt_max,
                stats.dt_mean) == (0, 0.0, 0.0, 0.0)
        assert stats.low.tolist() == stats.high.tolist() == [0.5, 1.0]

    def test_extrema_cover_every_step(self):
        # row 1 dips before the first emission time and row 0 peaks after
        # it; both are undone before the next observation
        rec = _Recorder([0.1], writes={0: [(1, 0, 0.2)], 1: [(1, 0, 1.0)],
                                       3: [(0, 1, 0.9)], 4: [(0, 1, 0.5)]})
        stats = rec.march([0.0, 0.15, 1.0])
        assert rec.observed_times == [0.0, 0.15, 1.0]
        for _, state in rec.observed:
            assert state.tolist() == [[0.5, 0.5], [1.0, 1.0]]
        assert stats.low.tolist() == [0.5, 0.2]
        assert stats.high.tolist() == [0.9, 1.0]

    def test_collapse_names_step_and_stops_observing(self):
        # three stable steps, then a step far below the collapse threshold
        rec = _Recorder([0.1, 0.1, 0.1, 1e-20])
        with pytest.raises(TimeStepCollapse, match=r"\(step 3\)"):
            rec.march([0.0, 0.15, 1.0])
        assert len(rec.taken) == 3
        assert rec.observed_times == [0.0, 0.15]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_blowup_names_step_and_stops_observing(self, bad):
        rec = _Recorder([0.1], writes={2: [(1, 0, bad)]})
        with pytest.raises(BlowupError, match="at step 2$"):
            rec.march([0.0, 0.15, 1.0])
        assert len(rec.taken) == 3
        assert rec.observed_times == [0.0, 0.15]


class TestSolversOnDriver:
    def test_all_solvers_land_on_emission_times(self, model):
        config = SolverConfig(t_final=0.2, snapshot_times=(0.013, 0.1))
        ic = DensityField(Grid(-1.0, 1.0, 16, "periodic"), np.full(16, 0.4))
        frame = RelaxationFrame(2.0, KernelScale(0.1), model)
        u0 = np.log(ic.values)
        uz = UZFields(ic.grid, u0, equilibrium_z(u0, frame))
        relaxed = solve_relaxation(uz, frame, config)
        nonlocal_ = solve_nonlocal(ic, model, KernelScale(0.1), config)
        local = solve_local(ic, FluxEntropyModel(model), config)
        times = [nonlocal_.times, local.times,
                 [s.tau for s in relaxed.snapshots]]
        assert times == [config.emission_times()] * 3
        # the benchmark's tracer reads step_count
        for out in (nonlocal_, local, relaxed):
            assert out.step_count == out.stats.steps > 0


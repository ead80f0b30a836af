import numpy as np
import pytest

from nltraffic import (DensityField, FluxEntropyModel, Grid, KernelScale,
                       RelaxationFrame, SolverConfig, UZFields, equilibrium_z,
                       solve_local, solve_nonlocal, solve_relaxation)
from nltraffic.core import BlowupError, TimeStepCollapse
from nltraffic.trajectory import DtSummary, march


class _Recorder:
    """Driver callbacks: step k is dts[k] (the last one repeats), and the
    ``fail_on``-th call of ``advance`` reports a non-finite state."""

    def __init__(self, dts, fail_on=None):
        self.dts = list(dts)
        self.fail_on = fail_on
        self.taken = []
        self.observed = []

    def stable_dt(self) -> float:
        return self.dts[min(len(self.taken), len(self.dts) - 1)]

    def advance(self, dt: float) -> bool:
        self.taken.append(dt)
        return len(self.taken) != self.fail_on

    def observe(self, t: float):
        self.observed.append(t)

    def march(self, emit) -> DtSummary:
        return march(emit, self.stable_dt, self.advance, self.observe)


class TestMarch:
    def test_observes_every_emission_time_exactly(self):
        config = SolverConfig(t_final=0.7, snapshot_times=(0.1, 0.25, 0.3))
        rec = _Recorder([0.03])
        summary = rec.march(config.emission_times())
        assert rec.observed == config.emission_times()
        assert summary.count == len(rec.taken)
        assert summary.max == 0.03
        assert summary.min == min(rec.taken) < 0.03
        assert summary.mean == pytest.approx(0.7 / summary.count)

    def test_zero_horizon_observes_once(self):
        rec = _Recorder([0.1])
        summary = rec.march(SolverConfig(t_final=0.0).emission_times())
        assert rec.observed == [0.0]
        assert rec.taken == []
        assert summary == DtSummary(0, 0.0, 0.0, 0.0)

    def test_collapse_names_step_and_stops_observing(self):
        # three stable steps, then a step far below the collapse threshold
        rec = _Recorder([0.1, 0.1, 0.1, 1e-20])
        with pytest.raises(TimeStepCollapse, match=r"\(step 3\)"):
            rec.march([0.0, 0.15, 1.0])
        assert len(rec.taken) == 3
        assert rec.observed == [0.0, 0.15]

    def test_blowup_names_step_and_stops_observing(self):
        rec = _Recorder([0.1], fail_on=3)
        with pytest.raises(BlowupError, match="at step 2$"):
            rec.march([0.0, 0.15, 1.0])
        assert len(rec.taken) == 3
        assert rec.observed == [0.0, 0.15]


class TestSolversOnDriver:
    def test_all_solvers_land_on_emission_times(self, model):
        config = SolverConfig(t_final=0.2, snapshot_times=(0.013, 0.1))
        ic = DensityField(Grid(-1.0, 1.0, 16, "periodic"), np.full(16, 0.4))
        frame = RelaxationFrame(2.0, KernelScale(0.1), model)
        u0 = np.log(ic.values)
        uz = UZFields(ic.grid, u0, equilibrium_z(u0, frame))
        relaxed = solve_relaxation(uz, frame, config)
        times = [solve_nonlocal(ic, model, KernelScale(0.1), config).times,
                 solve_local(ic, FluxEntropyModel(model), config).times,
                 [s.tau for s in relaxed.snapshots]]
        assert times == [config.emission_times()] * 3


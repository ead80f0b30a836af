import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nltraffic import (Bump, DensityField, DomainError, Grid, KernelScale,
                       MonotoneRamp, PositivityError, Riemann, ShapeError,
                       SolverConfig, Trajectory, VelocityModel, l1_distance,
                       make_initial, march_nonlocal, picard_oracle,
                       solve_nonlocal, stability_gap, total_variation)
from nltraffic import nonlocal_fv
from nltraffic.core import BlowupError, TimeStepCollapse
from nltraffic.kernel import average
from nltraffic.nonlocal_fv import (MAX_SWEEPS, ContractionFailure,
                                   PicardResult, _lerp, _slopes)
from nltraffic.trajectory import RunStats, Snapshot

from conftest import quadratic_model, random_bv_field, traced_peak


def _solve(ic, model, eps, **kw):
    return solve_nonlocal(ic, model, KernelScale(eps), SolverConfig(**kw))


def _nan_above(threshold: float) -> VelocityModel:
    """v = 1 - rho whose evaluator returns NaN above ``threshold``."""
    return VelocityModel.custom(
        v=lambda r: np.where(np.asarray(r) > threshold, np.nan,
                             1.0 - np.asarray(r, dtype=float)),
        dv=lambda r: np.full_like(np.asarray(r, dtype=float), -1.0),
        d2v=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        v_inverse=lambda s: 1.0 - np.asarray(s, dtype=float),
        rho_jam=1.0)


class TestSolveNonlocal:
    def test_constant_stays_constant(self, model):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.4))
        for eps in (0.01, 0.3):
            traj = _solve(ic, model, eps, t_final=0.7)
            assert np.max(np.abs(traj.final.rho.values - 0.4)) < 1e-14

    def test_max_principle_riemann(self, model):
        g = Grid(-1.0, 1.0, 512, "constant_extension")
        ic = make_initial(g, Riemann(0.2, 0.8, 0.0))
        traj = _solve(ic, model, 0.05, t_final=0.5)
        assert traj.stats.low[0] >= 0.2 - 1e-12
        assert traj.stats.high[0] <= 0.8 + 1e-12

    def test_tv_bound_positive_data(self, model):
        g = Grid(-1.0, 1.0, 512, "constant_extension")
        ic = make_initial(g, Riemann(0.2, 0.8, 0.0))
        traj = _solve(ic, model, 0.05, t_final=0.5)
        assert total_variation(traj.final.rho) <= (0.8 / 0.2) * 0.6 * (1 + 1e-8)

    def test_mass_conservation_periodic(self, model):
        g = Grid(-1.0, 1.0, 256, "periodic")
        ic = random_bv_field(g, np.random.default_rng(0))
        traj = _solve(ic, model, 0.1, t_final=0.6)
        drift = abs(traj.final.rho.total_mass() - ic.total_mass())
        assert drift <= 1e-12 * ic.total_mass()

    @pytest.mark.parametrize("left,right", [(0.2, 0.8), (0.8, 0.2)])
    def test_monotone_data_stay_monotone(self, model, left, right):
        g = Grid(-1.0, 1.0, 256, "constant_extension")
        ic = make_initial(g, MonotoneRamp(left, right, -0.3, 0.3))
        traj = _solve(ic, model, 0.1, t_final=0.5)
        diffs = np.diff(traj.final.rho.values)
        if left <= right:
            assert np.all(diffs >= -1e-12)
        else:
            assert np.all(diffs <= 1e-12)

    def test_rerun_bitwise_identical(self, model):
        g = Grid(-1.0, 1.0, 128, "periodic")
        ic = random_bv_field(g, np.random.default_rng(1))
        a = _solve(ic, model, 0.1, t_final=0.3)
        b = _solve(ic, model, 0.1, t_final=0.3)
        assert np.array_equal(a.final.rho.values, b.final.rho.values)

    def test_snapshot_requests_do_not_disturb_state(self, model):
        # base step is cfl*dx/v(0); with power-of-two numbers the requested
        # times land exactly on step boundaries and no clamping occurs
        g = Grid(-1.0, 1.0, 256, "periodic")
        ic = random_bv_field(g, np.random.default_rng(2))
        t_final = 0.5
        a = _solve(ic, model, 0.1, t_final=t_final,
                   snapshot_times=(0.125, 0.25))
        b = _solve(ic, model, 0.1, t_final=t_final, snapshot_times=(0.25,))
        fa = a.snapshots[a.times.index(0.25)].rho.values
        fb = b.snapshots[b.times.index(0.25)].rho.values
        assert np.array_equal(fa, fb)
        assert np.array_equal(a.final.rho.values, b.final.rho.values)

    def test_snapshots_carry_q(self, model):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = random_bv_field(g, np.random.default_rng(3))
        traj = _solve(ic, model, 0.1, t_final=0.2, snapshot_times=(0.1,))
        assert all(s.q is not None for s in traj.snapshots)
        assert [s.t for s in traj.snapshots] == [0.0, 0.1, 0.2]

    def test_l1_stability_ratio(self, model):
        g = Grid(-1.0, 1.0, 256, "periodic")
        x = g.cell_centers()
        base = DensityField(g, 0.5 + 0.2 * np.sin(np.pi * x))
        pert = DensityField(g, base.values + 0.01 * (x < 0.0))
        snaps = tuple(np.linspace(0.0, 0.5, 6)[1:-1])
        a = _solve(base, model, 0.1, t_final=0.5, snapshot_times=snaps)
        b = _solve(pert, model, 0.1, t_final=0.5, snapshot_times=snaps)
        sup, times, ratios = stability_gap(a, b)
        assert ratios[0] == 1.0
        assert np.isfinite(sup)

    def test_initial_range_checked(self, model):
        g = Grid(-1.0, 1.0, 16)
        with pytest.raises(DomainError):
            _solve(DensityField(g, np.full(16, 1.2)), model, 0.1, t_final=0.1)

    def test_time_step_collapse(self):
        # free-flow speed so large that the stable step stagnates
        racing = VelocityModel.affine(1e16, 1e16)
        g = Grid(-1.0, 1.0, 16)
        ic = DensityField(g, np.full(16, 0.4))
        with pytest.raises(TimeStepCollapse):
            _solve(ic, racing, 0.1, t_final=0.1)

    def test_blowup_detected(self):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.8))
        with pytest.raises(BlowupError):
            _solve(ic, _nan_above(0.6), 0.1, t_final=0.2)


class TestTrajectoryInvariants:
    def test_first_snapshot_at_zero(self):
        g = Grid(-1.0, 1.0, 8)
        f = DensityField(g, np.full(8, 0.5))
        with pytest.raises(DomainError):
            Trajectory(snapshots=(Snapshot(t=0.5, rho=f),),
                       stats=RunStats(0, 0.0, 0.0, 0.0, np.full(1, 0.5),
                                      np.full(1, 0.5)))

    def test_strictly_increasing_times(self):
        g = Grid(-1.0, 1.0, 8)
        f = DensityField(g, np.full(8, 0.5))
        with pytest.raises(DomainError):
            Trajectory(snapshots=(Snapshot(t=0.0, rho=f),
                                  Snapshot(t=0.0, rho=f)),
                       stats=RunStats(0, 0.0, 0.0, 0.0, np.full(1, 0.5),
                                      np.full(1, 0.5)))


def _one_d_only(fn):
    """An evaluator that refuses arrays of more than one dimension."""
    def evaluator(r):
        r = np.asarray(r, dtype=float)
        if r.ndim > 1:
            raise ValueError(f"1-D input only, got shape {r.shape}")
        return fn(r)
    return evaluator


def _one_d_quadratic() -> VelocityModel:
    """v = 1 - rho^2, with evaluators that accept 1-D input only."""
    return VelocityModel.custom(
        v=_one_d_only(lambda r: 1.0 - r ** 2),
        dv=_one_d_only(lambda r: -2.0 * r),
        d2v=_one_d_only(lambda r: np.full_like(r, -2.0)),
        v_inverse=_one_d_only(lambda s: np.sqrt(np.maximum(1.0 - s, 0.0))),
        rho_jam=1.0)


def _march_recorded(initials, model, eps_values, config):
    """Every member's (t, rho, q) at each emission time, and the stats."""
    records = [[] for _ in eps_values]

    def observe(t, rho, q):
        for m, record in enumerate(records):
            record.append((t, rho[m].copy(), q[m].copy()))

    stats = march_nonlocal(initials, model,
                           [KernelScale(e) for e in eps_values], config,
                           observe)
    return records, stats


class TestEnsembleMarch:
    @given(boundary=st.sampled_from(["periodic", "constant_extension"]),
           n=st.integers(16, 400),
           log_ratios=st.lists(st.floats(-1.5, 1.5), min_size=1,
                               max_size=4),
           law=st.sampled_from(["affine", "one_d_quadratic"]),
           shared_initial=st.booleans(),
           seed=st.integers(0, 2**16))
    @example(boundary="constant_extension", n=400,
             log_ratios=[1.0, -1.0, 0.5, -1.0], law="affine",
             shared_initial=True, seed=0)    # 1-row and 7-row members
    @example(boundary="periodic", n=256, log_ratios=[-1.2, 0.3],
             law="one_d_quadratic", shared_initial=False, seed=1)
    @settings(max_examples=25, deadline=None)
    def test_members_equal_lone_runs(self, boundary, n, log_ratios, law,
                                     shared_initial, seed):
        # eps = ratio * dx, so h N = N / ratio: below ratio = N / 600 a
        # member scans as several rows, beside one-row members
        g = Grid(-1.0, 1.0, n, boundary)
        model = (VelocityModel.affine(1.0, 1.0) if law == "affine"
                 else _one_d_quadratic())
        rng = np.random.default_rng(seed)
        initials = [random_bv_field(g, rng, n_blocks=8)
                    for _ in (log_ratios[:1] if shared_initial
                              else log_ratios)]
        initials *= len(log_ratios) // len(initials)
        eps_values = [10.0 ** r * g.dx for r in log_ratios]
        steps = 30
        t_final = steps * 0.5 * g.dx
        config = SolverConfig(t_final=t_final,
                              snapshot_times=(t_final / 3, t_final / 2))
        records, stats = _march_recorded(initials, model, eps_values, config)
        for m, eps in enumerate(eps_values):
            lone = solve_nonlocal(initials[m], model, KernelScale(eps),
                                  config)
            assert stats.steps == lone.stats.steps
            assert stats.low[m] == lone.stats.low[0]
            assert stats.high[m] == lone.stats.high[0]
            assert [t for t, _, _ in records[m]] == lone.times
            for (_, rho, q), snap in zip(records[m], lone.snapshots):
                assert np.array_equal(rho, snap.rho.values)
                assert np.array_equal(q, snap.q.values)

    def test_members_must_pair_with_scales(self, model):
        g = Grid(-1.0, 1.0, 16)
        f = DensityField(g, np.full(16, 0.5))
        config = SolverConfig(t_final=0.1)
        with pytest.raises(ShapeError):
            march_nonlocal((f, f), model, (KernelScale(0.1),), config,
                           lambda t, rho, q: None)
        with pytest.raises(ShapeError):
            march_nonlocal((f, DensityField(Grid(-1.0, 2.0, 16),
                                            np.full(16, 0.5))), model,
                           (KernelScale(0.1),) * 2, config,
                           lambda t, rho, q: None)

    def test_initial_range_checked_over_members(self, model):
        g = Grid(-1.0, 1.0, 16)
        good = DensityField(g, np.full(16, 0.5))
        bad = DensityField(g, np.full(16, 1.2))
        with pytest.raises(DomainError):
            march_nonlocal((good, bad), model, (KernelScale(0.1),) * 2,
                           SolverConfig(t_final=0.1), lambda t, rho, q: None)


# ---------------------------------------------------------------------------
# oracles for the Picard sweep's interpolation: np.interp, and the whole
# sweep evaluated with it
# ---------------------------------------------------------------------------

def _interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray,
            grid) -> np.ndarray:
    if grid.periodic:
        return np.interp(x, xp, fp, period=grid.length)
    return np.interp(x, xp, fp)  # np.interp clamps outside the table


def _picard_interp(initial, model, eps, t0, iteration_tolerance=1e-10):
    grid = initial.grid
    v0 = model.v_max
    m = max(3, int(np.ceil(t0 / (0.35 * grid.dx / max(v0, 1e-30)))))
    dt = t0 / m
    centers = grid.cell_centers()
    edges = grid.cell_edges()[:-1]
    n = grid.n_cells
    eps_val = eps.epsilon

    history = np.tile(initial.values, (m + 1, 1))
    deltas = []

    for sweep in range(1, MAX_SWEEPS + 1):
        q_levels = np.empty_like(history)
        for l in range(m + 1):
            q_levels[l] = average(DensityField(grid, history[l]), eps).values

        pos = np.tile(centers, (m, 1))
        expo = np.zeros((m, n))
        for level in range(m, 0, -1):
            active = slice(level - 1, m)
            x = pos[active]
            q_here = _interp(x, edges, q_levels[level], grid)
            k1 = model.v(q_here)
            x_half = x - 0.5 * dt * k1
            q_mid = _interp(x_half, edges,
                            0.5 * (q_levels[level] + q_levels[level - 1]),
                            grid)
            rho_mid = _interp(x_half, centers,
                              0.5 * (history[level] + history[level - 1]),
                              grid)
            qx_mid = (q_mid - rho_mid) / eps_val
            expo[active] += dt * (-model.dv(q_mid) * qx_mid)
            pos[active] = x - dt * model.v(q_mid)

        new_history = np.empty_like(history)
        new_history[0] = initial.values
        foot = _interp(pos, centers, initial.values, grid)
        new_history[1:] = foot * np.exp(expo)

        delta = float(np.max(np.abs(new_history - history)))
        deltas.append(delta)
        if len(deltas) >= 4 and deltas[-4] < deltas[-3] < deltas[-2] < delta:
            raise ContractionFailure("iterate distance grew 3 sweeps in a row")
        history = new_history
        if delta < iteration_tolerance:
            return PicardResult(DensityField(grid, history[m]), sweep,
                                delta, tuple(deltas))
    raise ContractionFailure(f"no convergence in {MAX_SWEEPS} sweeps")


#: deviation of the uniform-node interpolant from np.interp, in units of u
#: times the scale below; see the measured worst case in the test
LERP_TOL = 4.0


@given(boundary=st.sampled_from(["periodic", "constant_extension"]),
       n=st.integers(4, 2048),
       x_min=st.floats(-5.0, 5.0),
       length=st.floats(0.1, 10.0),
       centered=st.booleans(),
       seed=st.integers(0, 2**16))
@example(boundary="periodic", n=4, x_min=-1.0, length=2.0, centered=True,
         seed=0)
@example(boundary="constant_extension", n=4, x_min=-1.0, length=2.0,
         centered=False, seed=1)
@example(boundary="periodic", n=1024, x_min=-1.0, length=2.0,
         centered=False, seed=2)
@settings(max_examples=80, deadline=None)
def test_lerp_matches_np_interp(boundary, n, x_min, length, centered, seed):
    grid = Grid(x_min, x_min + length, n, boundary)
    rng = np.random.default_rng(seed)
    fp = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 1.0)
    dx = grid.dx
    xp = grid.cell_centers() if centered else grid.cell_edges()[:-1]
    reach = 3 * n * dx  # up to three periods past either end
    x = np.concatenate([
        rng.uniform(x_min - dx, grid.x_max + dx, 512),
        grid.cell_edges(), grid.cell_centers(),  # both kinds of node
        x_min - rng.uniform(0.0, reach, 64),
        grid.x_max + rng.uniform(0.0, reach, 64),
    ])
    slopes = _slopes(fp, grid)
    # node-unit positions of x; node k sits at x_min + (k + shift) dx
    s = (x - x_min) / dx - (0.5 if centered else 0.0)
    got = _lerp(fp, slopes, s, grid)
    want = _interp(x, xp, fp, grid)

    # this interpolant rounds within ~u (|x - x0|/dx + 1) max|dfp|;
    # np.interp's node positions and periodic reduction add
    # ~u (|x| + |x0| + period)/dx max|dfp|; each adds a rounding of fp
    period = grid.length if grid.periodic else 0.0
    cells = (np.abs(x - x_min) + np.abs(x) + abs(x_min) + period) / dx
    scale = (cells + 1.0) * np.max(np.abs(slopes)) + np.max(np.abs(fp))
    u = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= LERP_TOL * u * scale)
    if not grid.periodic:
        # past the ends both clamp exactly
        outside = (x < xp[0]) | (x > xp[-1])
        assert np.array_equal(got[outside], want[outside])


def _picard_levels(grid, model, t0):
    """The oracle's level count: ceil(t0 v(0) / (0.35 dx)), at least 3."""
    return max(3, int(np.ceil(t0 / (0.35 * grid.dx / model.v_max))))


#: N = 512 and t0 = 0.05 give 37 levels, more than the 32 rows of one
#: default trace block, so the default run traces some levels in two blocks
BLOCKING_CASES = {
    "periodic": ("periodic", VelocityModel.affine(1.0, 1.0)),
    "constant_extension": ("constant_extension",
                           VelocityModel.affine(1.0, 1.0)),
    "quadratic": ("periodic", quadratic_model()),
}


class TestPicardOracle:
    def test_constant_data(self, model):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.55))
        res = picard_oracle(ic, model, KernelScale(0.2), 0.08)
        assert np.max(np.abs(res.field.values - 0.55)) < 1e-12

    def test_rejects_data_above_jam(self, model):
        g = Grid(-1.0, 1.0, 16, "periodic")
        ic = DensityField(g, np.full(16, 1.1))
        with pytest.raises(DomainError, match="admissible band"):
            picard_oracle(ic, model, KernelScale(0.2), 0.01)

    def test_zero_horizon_returns_initial(self, model):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.55))
        res = picard_oracle(ic, model, KernelScale(0.2), 0.0)
        assert res.iterations == 0
        assert np.array_equal(res.field.values, ic.values)

    def test_matches_solver_on_smooth_bump(self, model):
        g = Grid(-1.0, 1.0, 512, "periodic")
        ic = make_initial(g, Bump(0.4, 0.2, -0.2, 0.3))
        t0 = 0.05
        res = picard_oracle(ic, model, KernelScale(0.2), t0, 1e-10)
        traj = _solve(ic, model, 0.2, t_final=t0)
        # frozen from a dx-refinement study: distance/dx levels off near 0.045
        assert l1_distance(res.field, traj.final.rho) <= 0.1 * g.dx
        assert res.iterations <= 30

    def test_matches_solver_on_constant_extension(self, model):
        g = Grid(-1.0, 1.0, 512, "constant_extension")
        ic = make_initial(g, Bump(0.4, 0.2, -0.2, 0.3))
        t0 = 0.05
        res = picard_oracle(ic, model, KernelScale(0.2), t0, 1e-10)
        traj = _solve(ic, model, 0.2, t_final=t0)
        # measured 0.043 dx and 7 sweeps
        assert l1_distance(res.field, traj.final.rho) <= 0.1 * g.dx
        assert res.iterations <= 30

    @pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
    def test_matches_np_interp_sweep(self, model, boundary):
        g = Grid(-1.0, 1.0, 256, boundary)
        ic = make_initial(g, Bump(0.4, 0.2, -0.2, 0.3))
        res = picard_oracle(ic, model, KernelScale(0.2), 0.05, 1e-10)
        ref = _picard_interp(ic, model, KernelScale(0.2), 0.05, 1e-10)
        assert res.iterations == ref.iterations
        assert np.max(np.abs(res.field.values - ref.field.values)) <= 1e-12

    @pytest.mark.parametrize("case", sorted(BLOCKING_CASES))
    def test_trace_blocks_keep_bits(self, monkeypatch, case):
        boundary, model = BLOCKING_CASES[case]
        g = Grid(-1.0, 1.0, 512, boundary)
        ic = make_initial(g, Bump(0.4, 0.2, -0.2, 0.3))
        levels = _picard_levels(g, model, 0.05)
        assert levels > nonlocal_fv.TRACE_BLOCK_CELLS // g.n_cells
        ref = picard_oracle(ic, model, KernelScale(0.2), 0.05, 1e-10)
        # one row per block, blocks that do not divide the levels, and
        # every row in one block
        for rows in (1, 5, levels + 1):
            monkeypatch.setattr(nonlocal_fv, "TRACE_BLOCK_CELLS",
                                rows * g.n_cells)
            res = picard_oracle(ic, model, KernelScale(0.2), 0.05, 1e-10)
            assert np.array_equal(res.field.values.view(np.int64),
                                  ref.field.values.view(np.int64))
            assert res.iterations == ref.iterations
            assert res.deltas == ref.deltas

    def test_sweep_memory_bounded(self, model):
        # criterion 13's input; a table is one (levels + 1) x N float array
        g = Grid(-1.0, 1.0, 1024, "periodic")
        ic = make_initial(g, Bump(0.4, 0.2, -0.2, 0.3))
        levels = _picard_levels(g, model, 0.05)
        assert levels == 74
        table = (levels + 1) * g.n_cells * 8
        peak = traced_peak(
            lambda: picard_oracle(ic, model, KernelScale(0.2), 0.05, 1e-10))
        # five tables (two history buffers, the averaged history, the
        # positions, the exponents) and one trace block measured ~7 tables;
        # whole-history interpolation tables held ~19
        assert peak <= 9 * table

    @pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_law_raises(self, boundary):
        # the bump reaches 0.6, so the first sweep traces through NaN
        # speeds; the trace stops at the first NaN position, before its
        # cast to an index could warn
        g = Grid(-1.0, 1.0, 128, boundary)
        ic = make_initial(g, Bump(0.4, 0.2, -0.2, 0.3))
        with pytest.raises(BlowupError, match="sweep 1$"):
            picard_oracle(ic, _nan_above(0.45), KernelScale(0.2), 0.05)

    def test_requires_positive_data(self, model):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.0))
        with pytest.raises(PositivityError):
            picard_oracle(ic, model, KernelScale(0.2), 0.05)

    @pytest.mark.parametrize("t0", [float("nan"), float("inf")])
    def test_rejects_non_finite_horizon(self, model, t0):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.5))
        with pytest.raises(DomainError, match="t0 must be finite"):
            picard_oracle(ic, model, KernelScale(0.2), t0)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_rejects_nonpositive_tolerance(self, model, tol):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.5))
        with pytest.raises(DomainError, match="iteration_tolerance"):
            picard_oracle(ic, model, KernelScale(0.2), 0.05, tol)

    @staticmethod
    def _scripted_picard(monkeypatch, model, deltas):
        """picard_oracle with sweeps that return ``deltas`` in turn."""
        script = iter(deltas)
        monkeypatch.setattr(nonlocal_fv, "_sweep",
                            lambda *args: next(script))
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.5))
        return picard_oracle(ic, model, KernelScale(0.2), 0.05)

    def test_divergence_raises_after_three_growths(self, monkeypatch,
                                                   model):
        # the script ends at the fourth sweep, so a rule that raises later
        # fails on StopIteration
        with pytest.raises(ContractionFailure,
                           match=r"3 sweeps in a row \(latest ratio 1.08\)"):
            self._scripted_picard(monkeypatch, model, (1.0, 1.1, 1.2, 1.3))

    def test_divergence_streak_resets_on_decrease(self, monkeypatch, model):
        # never three growths in a row: the fall to 0.9 ends the streak
        deltas = (1.0, 1.1, 1.2, 0.9, 1.0, 1.1, 1e-12)
        res = self._scripted_picard(monkeypatch, model, deltas)
        assert res.deltas == deltas
        assert res.iterations == len(deltas)
        assert res.final_delta == 1e-12

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nltraffic import (DensityField, DomainError, Grid, KernelScale,
                       MonotoneRamp, PositivityError, RelaxationFrame,
                       Riemann, SolverConfig, UZFields, VelocityModel,
                       average, check_bv_conditions, check_subcharacteristic,
                       equilibrium_speed, equilibrium_z, from_uz,
                       lambda_source, make_initial, march_nonlocal,
                       physical_slice, solve_nonlocal, solve_relaxation,
                       speeds, to_uz, transformed_tv)
from nltraffic.core import TimeStepCollapse
from nltraffic.diagnostics import InsufficientDataError
from nltraffic.kernel import edge_to_center
from nltraffic.relaxation import (FrameError, SliceGatherer,
                                  SourceBandError, _source_partials)

from conftest import cubic_model, quadratic_model

LAWS = {"affine": VelocityModel.affine(1.0, 1.0),
        "wide": VelocityModel.affine(2.0, 0.5),
        "quadratic": quadratic_model(),
        "cubic": cubic_model()}


@pytest.fixture
def frame(model):
    return RelaxationFrame(2.0, KernelScale(0.1), model)


class TestFrame:
    def test_requires_k_above_free_flow(self, model):
        with pytest.raises(FrameError):
            RelaxationFrame(0.5, KernelScale(0.1), model)

    def test_boundary_k_rejected(self):
        fast = VelocityModel.affine(2.0, 1.0)  # v(0) = 2
        with pytest.raises(FrameError):
            RelaxationFrame(2.0, KernelScale(0.1), fast)

    def test_z_band(self, frame):
        lo, hi = frame.z_band
        assert lo == pytest.approx(0.0)          # ln(2 - 1)
        assert hi == pytest.approx(np.log(2.0))


class TestSpeeds:
    def test_spot_values(self, frame):
        lam1, lam2 = speeds(0.5, frame)
        assert lam1 == -2.0
        assert lam2 == pytest.approx(2.0 / 3.0)

    def test_jammed_second_speed_vanishes(self, frame):
        assert speeds(1.0, frame)[1] == pytest.approx(0.0)

    def test_free_flow(self, frame):
        assert speeds(0.0, frame)[1] == pytest.approx(2.0)

    def test_domain_check(self, frame):
        with pytest.raises(DomainError):
            speeds(1.5, frame)

    def test_equilibrium_spot_values(self, frame):
        assert equilibrium_speed(0.5, frame) == pytest.approx(0.0)
        assert equilibrium_speed(0.0, frame) == pytest.approx(2.0)
        assert equilibrium_speed(1.0, frame) == pytest.approx(-2.0 / 3.0)

    def test_interlacing_sampled(self, frame):
        rep = check_subcharacteristic(frame, 1001)
        assert rep.passed
        assert rep.min_margin_lower > 0.0
        assert rep.min_margin_upper > 0.0

    @pytest.mark.parametrize("name", sorted(LAWS))
    @given(tilt=st.floats(1.0 + 1e-9, 8.0), n=st.integers(2, 300))
    @settings(max_examples=30, deadline=None)
    def test_margins_equal_per_sample_speeds(self, name, tilt, n):
        model = LAWS[name]
        frame = RelaxationFrame(tilt * model.v_max, KernelScale(0.1), model)
        rho = (np.arange(n) + 0.5) * model.rho_jam / n
        lam_star = np.array([equilibrium_speed(float(r), frame) for r in rho])
        lam2 = np.array([speeds(float(r), frame)[1] for r in rho])
        rep = check_subcharacteristic(frame, n)
        assert rep.min_margin_lower == float(np.min(lam_star + frame.K))
        assert rep.min_margin_upper == float(np.min(lam2 - lam_star))

    def test_speed_above_tilt_raises(self):
        # v = 1 + 2 rho: f' = 1 + 4 rho passes K = 1.5 first, at the second
        # of 8 samples, rho = 0.1875, where equilibrium_speed raises too
        rising = VelocityModel.custom(
            v=lambda r: 1.0 + 2.0 * np.asarray(r, dtype=float),
            dv=lambda r: np.full_like(np.asarray(r, dtype=float), 2.0),
            d2v=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            v_inverse=lambda s: (np.asarray(s, dtype=float) - 1.0) / 2.0,
            rho_jam=1.0)
        frame = RelaxationFrame(1.5, KernelScale(0.1), rising)
        with pytest.raises(FrameError, match=r"f'\(rho\) = 1\.75$"):
            check_subcharacteristic(frame, 8)
        with pytest.raises(FrameError, match=r"f'\(rho\) = 1\.75$"):
            equilibrium_speed(0.1875, frame)


class TestBVConditions:
    def test_affine_full_range(self, model):
        frame = RelaxationFrame(4.0, KernelScale(0.1), model)
        rep = check_bv_conditions(frame, (0.0, 1.0))
        assert rep.passed
        assert rep.uniform_margin == pytest.approx(1.0)
        assert rep.min_K_affine == pytest.approx(2.0)
        affine = next(c for c in rep.checks if c.name == "affine_full_range")
        # rho_jam ||v'||^2/(K - ||v||) = 1/3 against min |v'| = 1
        assert affine.margin == pytest.approx(1.0 - 1.0 / 3.0)

    def test_affine_narrow_range_margin(self, model):
        frame = RelaxationFrame(2.0, KernelScale(0.1), model)
        rep = check_bv_conditions(frame, (0.4, 0.6))
        assert rep.range_margin == pytest.approx(1.0 - 0.2 * (1.0 / (2.0 - 1.0)))

    def test_quadratic_fails_uniform(self):
        frame = RelaxationFrame(4.0, KernelScale(0.1), quadratic_model())
        rep = check_bv_conditions(frame, (0.0, 1.0))
        assert rep.uniform_margin < 0.0   # min|v'| = 0 < rho_jam * 2
        assert not rep.passed

    def test_source_sign_extrema(self, model):
        frame = RelaxationFrame(4.0, KernelScale(0.1), model)
        rep = check_bv_conditions(frame, (0.1, 0.9))
        assert rep.lambda_u_max <= 1e-8
        assert rep.lambda_z_min >= -1e-8

    def test_bad_range(self, frame):
        with pytest.raises(DomainError):
            check_bv_conditions(frame, (0.6, 0.4))


class TestLogVariables:
    def test_spot_values(self, frame):
        g = Grid(-1.0, 1.0, 4)
        rho = DensityField(g, np.full(4, 0.5))
        q = average(rho, frame.eps)
        uz = to_uz(rho, q, frame)
        assert np.allclose(uz.u, np.log(0.5))
        assert np.allclose(uz.z, np.log(1.5))

    def test_jammed_z(self, model):
        frame = RelaxationFrame(2.0, KernelScale(0.1), model)
        g = Grid(-1.0, 1.0, 4)
        rho = DensityField(g, np.full(4, 1.0))
        q = average(rho, frame.eps)
        uz = to_uz(rho, q, frame)
        assert np.allclose(uz.z, np.log(2.0))   # v(q) = 0

    def test_roundtrip(self, frame):
        g = Grid(-1.0, 1.0, 64, "periodic")
        rng = np.random.default_rng(9)
        rho = DensityField(g, rng.uniform(0.15, 0.95, 64))
        q = average(rho, frame.eps)
        uz = to_uz(rho, q, frame)
        back_rho, back_q = from_uz(uz, frame)
        assert np.max(np.abs(back_rho - rho.values)) < 1e-12
        assert np.max(np.abs(back_q - q.values)) < 1e-12

    def test_positivity_required(self, frame):
        g = Grid(-1.0, 1.0, 4)
        rho = DensityField(g, [0.0, 0.5, 0.5, 0.5])
        q = average(DensityField(g, np.full(4, 0.5)), frame.eps)
        with pytest.raises(PositivityError):
            to_uz(rho, q, frame)


class TestSource:
    def test_spot_value(self, frame):
        lam, _ = lambda_source(np.log(0.5), np.log(1.6), frame)
        assert lam == pytest.approx(0.0625)

    def test_vanishes_on_equilibrium(self, frame):
        rng = np.random.default_rng(12)
        for u in np.log(rng.uniform(0.05, 1.0, 100)):
            lam, g_u = lambda_source(u, float(equilibrium_z(u, frame)), frame)
            assert abs(lam) < 1e-12
            assert g_u == pytest.approx(float(equilibrium_z(u, frame)))

    def test_equilibrium_map_increasing(self, frame):
        u = np.linspace(np.log(0.05), np.log(0.95), 50)
        h = 1e-7
        dg = (equilibrium_z(u + h, frame) - equilibrium_z(u - h, frame)) / (2 * h)
        assert np.all(dg > 0.0)

    def test_band_error(self, frame):
        with pytest.raises(SourceBandError):
            lambda_source(np.log(0.5), np.log(2.5), frame)

    def test_partials_match_finite_differences(self, frame):
        u = np.array([np.log(0.3), np.log(0.7)])
        z = np.array([np.log(1.2), np.log(1.7)])
        lam, lam_u, lam_z = _source_partials(u, z, frame)
        h = 1e-7
        fd_u = (_source_partials(u + h, z, frame)[0]
                - _source_partials(u - h, z, frame)[0]) / (2 * h)
        fd_z = (_source_partials(u, z + h, frame)[0]
                - _source_partials(u, z - h, frame)[0]) / (2 * h)
        assert np.max(np.abs(lam_u - fd_u)) < 1e-7
        assert np.max(np.abs(lam_z - fd_z)) < 1e-7
        assert np.all(lam_u < 0.0)
        assert np.all(lam_z > 0.0)


class TestSolveRelaxation:
    def test_equilibrium_is_stationary(self, frame):
        g = Grid(-1.0, 1.0, 64, "periodic")
        u0 = np.full(64, np.log(0.5))
        uz0 = UZFields(g, u0, equilibrium_z(u0, frame))
        out = solve_relaxation(uz0, frame, SolverConfig(t_final=0.05))
        assert out.step_count > 0
        assert np.max(np.abs(out.final.fields.u - u0)) < 1e-12 * out.step_count

    def test_source_conserves_u_plus_z(self, frame):
        # constant in y: transport is inert, only the source acts
        g = Grid(-1.0, 1.0, 64, "periodic")
        u0 = np.full(64, np.log(0.5))
        z0 = np.full(64, np.log(1.7))   # off equilibrium
        out = solve_relaxation(UZFields(g, u0, z0), frame,
                               SolverConfig(t_final=0.02))
        total0 = u0 + z0
        total1 = out.final.fields.u + out.final.fields.z
        assert np.max(np.abs(total1 - total0)) < 1e-13

    def test_relaxes_to_equilibrium_monotonically(self, model):
        eps = 1e-4
        frame = RelaxationFrame(2.0, KernelScale(eps), model)
        g = Grid(-1.0, 1.0, 32, "periodic")
        u0 = np.full(32, np.log(0.5))
        z0 = np.full(32, np.log(1.7))
        snaps = tuple(np.linspace(0.0, 0.01, 11)[1:-1])
        out = solve_relaxation(UZFields(g, u0, z0), frame,
                               SolverConfig(t_final=0.01,
                                            snapshot_times=snaps))
        gaps = [float(np.max(np.abs(s.fields.z
                                    - equilibrium_z(s.fields.u, frame))))
                for s in out.snapshots]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-10

        # implicit Euler linearized about equilibrium contracts the gap by
        # 1/(1 + dtau (K/eps)(Lambda_z - Lambda_u)) per step
        lam, lam_u, lam_z = _source_partials(
            out.final.fields.u, equilibrium_z(out.final.fields.u, frame),
            frame)
        margin = float(np.min(lam_z - lam_u))
        dtau = out.dt_summary.max
        bound = 1.0 / (1.0 + dtau * frame.K / eps * margin)
        measured = [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-13]
        assert measured
        assert max(measured) <= bound * 2.0

    def test_very_stiff_source_converges(self, model):
        g = Grid(-1.0, 1.0, 32, "periodic")
        eps = 1e-4 * g.dx * 2.0
        frame = RelaxationFrame(2.0, KernelScale(eps), model)
        u0 = np.full(32, np.log(0.5))
        z0 = np.full(32, np.log(1.9))
        out = solve_relaxation(UZFields(g, u0, z0), frame,
                               SolverConfig(t_final=0.2))
        gap = np.max(np.abs(out.final.fields.z
                            - equilibrium_z(out.final.fields.u, frame)))
        assert gap < 1e-10
        assert out.newton_iterations_max <= 50
        assert out.bisection_cells == 0

    def test_bisection_fallback_counted(self, model):
        # one Newton iteration cannot close the stiff solve: the stragglers
        # go to bisection and are counted (64 cells over the first steps)
        g = Grid(-1.0, 1.0, 32, "periodic")
        frame = RelaxationFrame(2.0, KernelScale(2e-4 * g.dx), model)
        uz = UZFields(g, np.full(32, np.log(0.5)), np.full(32, np.log(1.9)))
        config = SolverConfig(t_final=0.05)
        capped = solve_relaxation(uz, frame, config, newton_max_iter=1)
        full = solve_relaxation(uz, frame, config)
        assert 0 < capped.bisection_cells <= 32 * capped.step_count
        assert capped.newton_iterations_max == 1
        assert full.bisection_cells == 0
        gap = np.max(np.abs(capped.final.fields.z
                            - equilibrium_z(capped.final.fields.u, frame)))
        assert gap < 1e-10

    def test_band_validated(self, frame):
        g = Grid(-1.0, 1.0, 8)
        with pytest.raises(SourceBandError):
            solve_relaxation(UZFields(g, np.full(8, -0.7), np.full(8, 5.0)),
                             frame, SolverConfig(t_final=0.01))

    def test_time_step_collapse(self, model):
        # the step is at most cfl dx / K, so K = 1e16 stagnates it
        frame = RelaxationFrame(1e16, KernelScale(0.1), model)
        g = Grid(-1.0, 1.0, 16, "periodic")
        u0 = np.full(16, np.log(0.4))
        with pytest.raises(TimeStepCollapse):
            solve_relaxation(UZFields(g, u0, equilibrium_z(u0, frame)),
                             frame, SolverConfig(t_final=0.1))


class TestTransformedTV:
    def test_constant_trajectory_is_zero(self, model, frame):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.5))
        traj = solve_nonlocal(ic, model, frame.eps,
                              SolverConfig(t_final=0.2,
                                           snapshot_times=(0.05, 0.1, 0.15)))
        times, series = transformed_tv(traj, frame)
        assert times.size == 3
        assert np.max(series) < 1e-12

    def test_needs_three_snapshots(self, model, frame):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.5))
        traj = solve_nonlocal(ic, model, frame.eps, SolverConfig(t_final=0.1))
        with pytest.raises(InsufficientDataError):
            transformed_tv(traj, frame)

    def test_monotone_ramp_nonincreasing(self, model):
        frame = RelaxationFrame(4.0, KernelScale(0.05), model)
        g = Grid(-1.0, 1.0, 512, "constant_extension")
        ic = make_initial(g, MonotoneRamp(0.8, 0.2, -0.4, 0.0))
        snaps = tuple(np.linspace(0.0, 0.5, 21)[1:-1])
        traj = solve_nonlocal(ic, model, frame.eps,
                              SolverConfig(t_final=0.5, snapshot_times=snaps))
        _, series = transformed_tv(traj, frame)
        rises = np.diff(series)
        assert np.max(rises) <= 0.02 * series[0]


def _physical_slice_stacked(traj, K, tau):
    """physical_slice from a stack of every snapshot: the oracle."""
    snaps = traj.snapshots
    times = np.array([s.t for s in snaps])
    grid = snaps[0].rho.grid
    t_slice = tau + grid.cell_centers() / K
    rho_levels = np.stack([s.rho.values for s in snaps])
    qc_levels = np.stack([edge_to_center(s.rho, s.q) for s in snaps])
    idx = np.clip(np.searchsorted(times, t_slice, side="right") - 1,
                  0, len(times) - 2)
    cols = np.arange(grid.n_cells)
    w = (t_slice - times[idx]) / (times[idx + 1] - times[idx])
    w = np.clip(w, 0.0, 1.0)
    rho = (1.0 - w) * rho_levels[idx, cols] + w * rho_levels[idx + 1, cols]
    qc = (1.0 - w) * qc_levels[idx, cols] + w * qc_levels[idx + 1, cols]
    return rho, qc


class TestPhysicalSlice:
    @pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
    @pytest.mark.parametrize("n_snap", [12, 400])  # runs of many / one cell
    def test_matches_stacked_snapshots(self, model, frame, boundary, n_snap):
        g = Grid(-1.0, 1.0, 128, boundary)
        ic = make_initial(g, Riemann(0.8, 0.2, -0.3))
        x = g.cell_centers()
        t_final = 1.2
        tau_lo = -(x[0] / frame.K)           # slice starts at t = 0
        tau_hi = t_final - x[-1] / frame.K   # slice ends at t_final
        tau_on = 0.6
        # some slice times that are snapshot times, bit for bit
        landed = tuple(float(t) for t in (tau_on + x / frame.K)[::9])
        snaps = tuple(sorted(set(np.linspace(0.0, t_final, n_snap)[1:-1])
                             | set(landed)))
        config = SolverConfig(t_final=t_final, snapshot_times=snaps)
        taus = (tau_lo, tau_on, 0.5, tau_hi)
        # the same slices gathered while a march runs, holding no history
        gathers = [SliceGatherer(g, frame.eps, config.emission_times(),
                                 frame.K, tau) for tau in taus]

        def observe(t, rho, q):
            for gather in gathers:
                gather.add(rho[0], q[0])

        march_nonlocal((ic,), model, (frame.eps,), config, observe)
        traj = solve_nonlocal(ic, model, frame.eps, config)
        assert set(landed) <= set(traj.times)
        for tau, gather in zip(taus, gathers):
            rho_ref, q_ref = _physical_slice_stacked(traj, frame.K, tau)
            for rho, q in (physical_slice(traj, frame.K, tau),
                           gather.result()):
                assert np.array_equal(rho, rho_ref)
                assert np.array_equal(q, q_ref)
        assert np.ptp(rho) > 0.1  # the data is not constant along the slice

    def test_gatherer_counts_snapshots(self, frame):
        g = Grid(-1.0, 1.0, 64, "constant_extension")
        times = np.linspace(0.0, 1.2, 5)
        gather = SliceGatherer(g, frame.eps, times, frame.K, 0.5)
        rho = np.full(64, 0.5)
        for _ in times[:-1]:
            gather.add(rho, rho)
        with pytest.raises(DomainError, match="4 of 5"):
            gather.result()
        gather.add(rho, rho)
        assert np.array_equal(gather.result()[0], rho)
        with pytest.raises(DomainError, match="already added"):
            gather.add(rho, rho)

    def test_constant_state(self, model, frame):
        g = Grid(-1.0, 1.0, 64, "constant_extension")
        ic = DensityField(g, np.full(64, 0.5))
        snaps = tuple(np.linspace(0.0, 1.2, 25)[1:-1])
        traj = solve_nonlocal(ic, model, frame.eps,
                              SolverConfig(t_final=1.2, snapshot_times=snaps))
        rho, q = physical_slice(traj, frame.K, 0.5)
        assert np.max(np.abs(rho - 0.5)) < 1e-12
        assert np.max(np.abs(q - 0.5)) < 1e-12

    def test_window_check(self, model, frame):
        g = Grid(-1.0, 1.0, 64, "constant_extension")
        ic = DensityField(g, np.full(64, 0.5))
        traj = solve_nonlocal(ic, model, frame.eps, SolverConfig(t_final=0.2))
        with pytest.raises(DomainError):
            physical_slice(traj, frame.K, 5.0)

    def test_requires_averaged_fields(self, fe, frame):
        g = Grid(-1.0, 1.0, 64, "constant_extension")
        ic = make_initial(g, Riemann(0.8, 0.2, 0.0))
        from nltraffic import solve_local
        traj = solve_local(ic, fe, SolverConfig(
            t_final=1.2, snapshot_times=tuple(np.linspace(0.0, 1.2, 25)[1:-1])))
        with pytest.raises(DomainError):
            physical_slice(traj, frame.K, 0.5)

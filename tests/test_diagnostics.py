import functools
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nltraffic import (BumpTestFunction, DensityField, DomainError,
                       FluxEntropyModel, Grid, KernelScale, Riemann,
                       ShapeError, Sine, Snapshot, SolverConfig,
                       VelocityModel, average, entropy_residual,
                       hardy_littlewood_gap, kernel_deviation, l1_distance,
                       make_initial, shifted_product_check, solve_local,
                       solve_nonlocal, stability_gap, symmetric_rearrangement,
                       total_variation)
from nltraffic.diagnostics import (EntropyProjector, InsufficientDataError,
                                   SupportError, kernel_deviation_values,
                                   max_permuted_product)

from conftest import quadratic_model, random_bv_field

nonneg_lists = st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1,
                        max_size=40)


class TestTotalVariation:
    def test_step(self):
        g = Grid(-1.0, 1.0, 4, "constant_extension")
        assert total_variation(make_initial(g, Riemann(0.2, 0.8, 0.0))) \
            == pytest.approx(0.6)

    def test_constant(self):
        g = Grid(-1.0, 1.0, 8)
        assert total_variation(DensityField(g, np.full(8, 0.3))) == 0.0

    def test_sine_full_period(self):
        g = Grid(-1.0, 1.0, 512, "periodic")
        f = make_initial(g, Sine(0.5, 0.2, 2.0))
        assert total_variation(f) == pytest.approx(0.8, abs=4 * g.dx)

    def test_periodic_wrap_counted(self):
        g = Grid(0.0, 1.0, 4, "periodic")
        f = DensityField(g, [0.0, 0.0, 0.0, 1.0])
        assert total_variation(f) == pytest.approx(2.0)

    @given(seed=st.integers(0, 50), shift=st.floats(-0.5, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance_and_sign(self, seed, shift):
        g = Grid(-1.0, 1.0, 32, "periodic")
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.1, 0.4, 32)
        tv = total_variation(DensityField(g, vals))
        tv_shifted = total_variation(DensityField(g, vals + shift))
        assert tv >= 0.0
        assert tv_shifted == pytest.approx(tv, abs=1e-12)


class TestL1Distance:
    def test_identity_and_symmetry(self):
        g = Grid(-1.0, 1.0, 16)
        rng = np.random.default_rng(0)
        f1 = DensityField(g, rng.uniform(0, 1, 16))
        f2 = DensityField(g, rng.uniform(0, 1, 16))
        assert l1_distance(f1, f1) == 0.0
        assert l1_distance(f1, f2) == l1_distance(f2, f1)

    def test_constant_offset_measures_area(self):
        g = Grid(0.0, 1.0, 10)
        f1 = DensityField(g, np.full(10, 0.2))
        values = np.full(10, 0.2)
        values[:5] += 0.3   # offset c = 0.3 on measure m = 0.5
        f2 = DensityField(g, values)
        assert l1_distance(f1, f2) == pytest.approx(0.15)

    def test_grid_mismatch(self):
        f1 = DensityField(Grid(0.0, 1.0, 8), np.zeros(8))
        f2 = DensityField(Grid(0.0, 2.0, 8), np.zeros(8))
        with pytest.raises(ShapeError):
            l1_distance(f1, f2)


class TestKernelDeviation:
    def test_constant(self):
        g = Grid(-1.0, 1.0, 32)
        rho = DensityField(g, np.full(32, 0.4))
        dev, bound = kernel_deviation(rho, average(rho, KernelScale(0.1)))
        assert dev == pytest.approx(0.0, abs=1e-14)
        assert bound == pytest.approx(0.0, abs=1e-14)

    def test_step_closed_form(self):
        eps = 0.1
        g = Grid(-1.0, 1.0, 4096, "constant_extension")
        rho = make_initial(g, Riemann(0.2, 0.8, 0.0))
        dev, bound = kernel_deviation(rho, average(rho, KernelScale(eps)))
        assert bound == pytest.approx(0.6 * eps)
        assert dev == pytest.approx(0.6 * eps, rel=0.02)
        assert dev <= bound * (1 + 1e-6)

    @pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
    def test_random_fields_obey_bound(self, boundary):
        g = Grid(-1.0, 1.0, 256, boundary)
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho = random_bv_field(g, rng)
            for eps in (0.01, 0.1, 0.5):
                dev, bound = kernel_deviation(rho,
                                              average(rho, KernelScale(eps)))
                assert dev <= bound * (1 + 1e-6)


class TestBumpTestFunction:
    def test_nonnegative_and_supported(self):
        phi = BumpTestFunction(0.0, 0.5, 0.4, 0.2)
        t = np.linspace(0.0, 1.0, 41)
        x = np.linspace(-1.0, 1.0, 81)
        tt, xx = np.meshgrid(t, x)
        vals = phi.phi(tt, xx)
        assert np.all(vals >= 0.0)
        outside = (np.abs(tt - 0.5) >= 0.2) | (np.abs(xx) >= 0.4)
        assert np.all(vals[outside] == 0.0)
        assert np.all(phi.phi_x(tt, xx)[outside] == 0.0)

    def test_derivatives_match_finite_differences(self):
        phi = BumpTestFunction(0.1, 0.4, 0.5, 0.3)
        rng = np.random.default_rng(3)
        t = rng.uniform(0.15, 0.65, 50)
        x = rng.uniform(-0.35, 0.55, 50)
        h = 1e-6
        fd_t = (phi.phi(t + h, x) - phi.phi(t - h, x)) / (2 * h)
        fd_x = (phi.phi(t, x + h) - phi.phi(t, x - h)) / (2 * h)
        assert np.max(np.abs(fd_t - phi.phi_t(t, x))) < 1e-6
        assert np.max(np.abs(fd_x - phi.phi_x(t, x))) < 1e-6

    def test_bad_radii(self):
        with pytest.raises(DomainError):
            BumpTestFunction(0.0, 0.0, -1.0, 1.0)


def entropy_residual_loop(traj, fe, phis):
    """Per-snapshot-pair evaluation of the entropy residual (test oracle).

    Builds phi_t and phi_x on the whole grid at every time midpoint.
    Returns the raw residuals and, per phi, the sum of |eta phi_t| +
    |psi phi_x| dx dt that bounds their rounding error.
    """
    snaps = traj.snapshots
    times = np.array([s.t for s in snaps])
    grid = snaps[0].rho.grid
    x = grid.cell_centers()
    eta_vals = np.stack([fe.eta(s.rho.values) for s in snaps])
    psi_vals = np.stack([fe.psi(s.rho.values) for s in snaps])
    residuals, scales = [], []
    for phi in phis:
        acc = scale = 0.0
        for n in range(len(snaps) - 1):
            dt = times[n + 1] - times[n]
            if dt <= 0:
                continue
            t_mid = 0.5 * (times[n] + times[n + 1])
            eta_term = 0.5 * (eta_vals[n] + eta_vals[n + 1]) \
                * phi.phi_t(t_mid, x)
            psi_term = 0.5 * (psi_vals[n] + psi_vals[n + 1]) \
                * phi.phi_x(t_mid, x)
            acc += float(np.sum(eta_term + psi_term)) * grid.dx * dt
            scale += float(np.sum(np.abs(eta_term) + np.abs(psi_term))) \
                * grid.dx * dt
        residuals.append(-acc)
        scales.append(scale)
    return residuals, scales


T_EQUIV = 0.5
N_EQUIV_SNAPS = 50   # spacing 0.01 needs radius_t >= 0.16; bumps draw >= 0.17


@functools.lru_cache(maxsize=None)
def _equivalence_case(law: str, solver: str):
    model = (quadratic_model() if law == "quadratic"
             else VelocityModel.affine(1.0, 1.0))
    fe = FluxEntropyModel(model)
    snaps = tuple(np.linspace(0.0, T_EQUIV, N_EQUIV_SNAPS + 1)[1:-1])
    config = SolverConfig(t_final=T_EQUIV, snapshot_times=snaps)
    if solver == "nonlocal":
        g = Grid(-1.0, 1.0, 96, "periodic")
        traj = solve_nonlocal(make_initial(g, Sine(0.5, 0.2, 2.0)), model,
                              KernelScale(0.05), config)
    else:
        g = Grid(-1.0, 1.0, 48, "constant_extension")
        traj = solve_local(make_initial(g, Riemann(0.2, 0.7, -0.2)), fe,
                           config)
    return traj, fe


@st.composite
def bumps(draw):
    """Bumps inside [-1, 1] x [0, T_EQUIV]; their time support never spans
    the whole window."""
    radius_t = draw(st.floats(0.17, 0.24))
    center_t = draw(st.floats(radius_t, T_EQUIV - radius_t))
    radius_x = draw(st.floats(0.05, 1.0))
    center_x = draw(st.floats(-1.0 + radius_x, 1.0 - radius_x))
    return BumpTestFunction(center_x, center_t, radius_x, radius_t)


class TestEntropyResidualEquivalence:
    """The separable evaluation against the per-snapshot loop, on raw
    residuals (a clipped positive part would hide sign errors)."""

    @given(law=st.sampled_from(["affine", "quadratic"]),
           solver=st.sampled_from(["nonlocal", "local"]),
           phis=st.lists(bumps(), min_size=1, max_size=3),
           duplicate=st.none() | st.integers(0, N_EQUIV_SNAPS - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_snapshot_loop(self, law, solver, phis, duplicate):
        traj, fe = _equivalence_case(law, solver)
        if duplicate is not None:
            # a second record at an existing time (dt = 0) with another
            # density: the zero-width pair drops out, the next pair starts
            # from the twin
            snaps = list(traj.snapshots)
            snaps.insert(duplicate + 1, Snapshot(
                t=snaps[duplicate].t, rho=snaps[duplicate + 1].rho))
            traj = SimpleNamespace(snapshots=tuple(snaps))
        fast = entropy_residual(traj, fe, phis)
        slow, scales = entropy_residual_loop(traj, fe, phis)
        assert len(fast) == len(slow)
        for r_fast, r_slow, scale in zip(fast, slow, scales):
            assert abs(r_fast - r_slow) <= 1e-10 * scale

    def test_no_bumps(self):
        traj, fe = _equivalence_case("affine", "nonlocal")
        assert entropy_residual(traj, fe, []) == []


def projector_loop(grid, times, fe, phis, rows):
    """One member's residuals with every snapshot projected (test oracle).

    ``rows`` holds the member's (n_snap, N) densities.  Each snapshot's
    eta and psi are projected on its own, dead or not, the way a
    one-member ``EntropyProjector`` did before it skipped snapshots that
    no phi weighs.
    """
    x = grid.cell_centers()
    space = np.stack([BumpTestFunction._s((x - p.center_x) / p.radius_x)
                      for p in phis], axis=1)
    space_dx = np.stack([BumpTestFunction._ds((x - p.center_x) / p.radius_x)
                         / p.radius_x for p in phis], axis=1)
    eta = np.stack([fe.eta(row) @ space for row in rows])
    psi = np.stack([fe.psi(row) @ space_dx for row in rows])
    center_t = np.array([p.center_t for p in phis])
    radius_t = np.array([p.radius_t for p in phis])
    dt = np.diff(times)
    keep = dt > 0
    t_mid = 0.5 * (times[:-1] + times[1:])[keep]
    eta_mid = 0.5 * (eta[:-1] + eta[1:])[keep]
    psi_mid = 0.5 * (psi[:-1] + psi[1:])[keep]
    theta = (t_mid[:, None] - center_t) / radius_t
    integrand = (eta_mid * (BumpTestFunction._ds(theta) / radius_t)
                 + psi_mid * BumpTestFunction._s(theta))
    return [-float(a) for a in (dt[keep] @ integrand) * grid.dx]


def kernel_deviation_loop(rho, q, grid, eps):
    """One row's (deviation, bound) as Python floats (test oracle)."""
    deviation = float(np.sum(np.abs(q - rho))) * grid.dx
    tv = float(np.sum(np.abs(np.diff(rho))))
    if grid.periodic:
        tv += abs(float(rho[0] - rho[-1]))
    return deviation, eps * tv


T_ENSEMBLE = 1.0
N_ENSEMBLE_SNAPS = 200   # spacing 0.005 needs radius_t >= 0.08
# phi time windows: one inside [0.08, 0.37], one inside [0.58, 0.87]
ENSEMBLE_WINDOWS = ((0.2, 0.25), (0.7, 0.75))


@st.composite
def windowed_bumps(draw):
    """Two or three bumps whose time supports fall in two separate
    windows of [0, 1], so that dead snapshots lie before, between and
    after them."""
    windows = list(ENSEMBLE_WINDOWS) + draw(
        st.lists(st.sampled_from(ENSEMBLE_WINDOWS), max_size=1))
    phis = []
    for lo, hi in windows:
        radius_x = draw(st.floats(0.05, 1.0))
        phis.append(BumpTestFunction(
            draw(st.floats(-1.0 + radius_x, 1.0 - radius_x)),
            draw(st.floats(lo, hi)), radius_x, draw(st.floats(0.1, 0.12))))
    return phis


class TestEnsembleProjector:
    """The ensemble observers against member-by-member evaluation, bit for
    bit: the projector against one-member projectors and against the
    projection of every snapshot, and the batched kernel-deviation
    margins against the per-row formula."""

    @given(law=st.sampled_from(["affine", "quadratic"]),
           boundary=st.sampled_from(["periodic", "constant_extension"]),
           n_cells=st.sampled_from([40, 300]),
           members=st.integers(1, 5),
           phis=windowed_bumps(),
           duplicates=st.lists(st.integers(0, N_ENSEMBLE_SNAPS),
                               max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_member(self, law, boundary, n_cells, members,
                                phis, duplicates, seed):
        model = (quadratic_model() if law == "quadratic"
                 else VelocityModel.affine(1.0, 1.0))
        fe = FluxEntropyModel(model)
        grid = Grid(-1.0, 1.0, n_cells, boundary)
        base = np.linspace(0.0, T_ENSEMBLE, N_ENSEMBLE_SNAPS + 1)
        # a duplicated time is a zero-width pair of snapshots
        times = np.sort(np.concatenate([base, base[duplicates]]))
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.0, 1.0, (times.size, members, n_cells))
        q = rng.uniform(0.0, 1.0, rho.shape)
        widths = rng.uniform(0.01, 0.5, members)

        ensemble = EntropyProjector(grid, times, fe, phis)
        lone = [EntropyProjector(grid, times, fe, phis)
                for _ in range(members)]
        for snap_rho, snap_q in zip(rho, q):
            ensemble.add(snap_rho)
            for m, projector in enumerate(lone):
                projector.add(snap_rho[m:m + 1])
            dev, bound = kernel_deviation_values(snap_rho, snap_q, grid,
                                                 widths)
            for m in range(members):
                assert (dev[m], bound[m]) == kernel_deviation_loop(
                    snap_rho[m], snap_q[m], grid, widths[m])
        residuals = ensemble.finish()
        assert residuals == [p.finish()[0] for p in lone]
        assert residuals == [projector_loop(grid, times, fe, phis, rho[:, m])
                             for m in range(members)]

    def test_psi_never_sees_a_dead_snapshot(self):
        base = np.linspace(0.0, T_ENSEMBLE, N_ENSEMBLE_SNAPS + 1)
        # twins at t = 0.2 (live) and t = 0.5 (dead)
        times = np.sort(np.concatenate([base, [0.2, 0.5]]))
        # windows [0.11, 0.33] and [0.61, 0.83]; every midpoint lies
        # 0.0025 or more from their ends
        phis = [BumpTestFunction(0.0, 0.22, 0.5, 0.11),
                BumpTestFunction(0.3, 0.72, 0.5, 0.11)]
        t_mid = 0.5 * (times[:-1] + times[1:])
        weighed = (np.diff(times) > 0) & (
            (np.abs(t_mid - 0.22) < 0.11) | (np.abs(t_mid - 0.72) < 0.11))
        live = [n for n in range(times.size)
                if (n > 0 and weighed[n - 1])
                or (n < times.size - 1 and weighed[n])]
        assert live[0] > 0 and live[-1] < times.size - 1
        assert len(live) < live[-1] - live[0] + 1      # a gap between
        seen = []

        class CountingModel(FluxEntropyModel):
            def psi(self, rho):
                # snapshot n holds the density (n + 1) / (n_snap + 1)
                seen.append(round(float(np.ravel(rho)[0]) * (times.size + 1)) - 1)
                return super().psi(rho)

        fe = CountingModel(quadratic_model())
        rho = np.repeat((np.arange(times.size) + 1.0) / (times.size + 1),
                        3 * 16).reshape(times.size, 3, 16)
        grid = Grid(-1.0, 1.0, 16, "constant_extension")
        projector = EntropyProjector(grid, times, fe, phis)
        for snap in rho:
            projector.add(snap)
        assert seen == live
        assert projector.finish() == [projector_loop(grid, times, fe, phis, rho[:, m])
                             for m in range(3)]

    def test_rows_must_keep_their_shape(self):
        grid = Grid(-1.0, 1.0, 16, "periodic")
        projector = EntropyProjector(grid, [0.0, 0.1],
                                     FluxEntropyModel(
                                         VelocityModel.affine(1.0, 1.0)), [])
        with pytest.raises(ShapeError, match="expected"):
            projector.add(np.full(16, 0.5))
        projector.add(np.full((2, 16), 0.5))
        with pytest.raises(ShapeError, match="expected 2 members, got 3"):
            projector.add(np.full((3, 16), 0.5))
        projector.add(np.full((2, 16), 0.5))
        assert projector.finish() == [[], []]


class TestEntropyResidualErrors:
    """Every rejection path keeps its exception type and message, and
    fires before any snapshot is projected."""

    @pytest.fixture
    def case(self):
        traj, fe = _equivalence_case("affine", "nonlocal")
        calls = []

        class CountingModel(FluxEntropyModel):
            def psi(self, rho):
                calls.append(np.size(rho))
                return super().psi(rho)

        return traj, CountingModel(fe.model), calls

    def _raises(self, traj, fe, phis, calls, error, message):
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            entropy_residual(traj, fe, phis)
        assert calls == []

    def test_single_snapshot(self, case):
        traj, fe, calls = case
        short = SimpleNamespace(snapshots=traj.snapshots[:1])
        self._raises(short, fe, [], calls, InsufficientDataError,
                     "need at least two snapshots")

    def test_time_support(self, case):
        traj, fe, calls = case
        ok = BumpTestFunction(0.0, 0.25, 0.5, 0.2)
        late = BumpTestFunction(0.0, 0.45, 0.5, 0.2)
        self._raises(traj, fe, [ok, late], calls, SupportError,
                     f"phi time support [{0.45 - 0.2}, {0.45 + 0.2}] "
                     f"exceeds trajectory window [0.0, {T_EQUIV}]")

    def test_space_support(self, case):
        traj, fe, calls = case
        wide = BumpTestFunction(0.5, 0.25, 0.75, 0.2)
        self._raises(traj, fe, [wide], calls, SupportError,
                     "phi space support [-0.25, 1.25] exceeds the domain "
                     "[-1.0, 1.0]")

    def test_spacing(self, case):
        traj, fe, calls = case
        sharp = BumpTestFunction(0.0, 0.25, 0.5, 0.1)
        self._raises(traj, fe, [sharp], calls, SupportError,
                     "snapshot spacing 0.01 too coarse for radius_t 0.1 "
                     "(need <= radius_t/16)")


class TestEntropyResidual:
    @pytest.fixture
    def smooth_traj(self, model):
        g = Grid(-1.0, 1.0, 1024, "periodic")
        ic = make_initial(g, Sine(0.5, 0.1, 2.0))
        snaps = tuple(np.linspace(0.0, 0.3, 65)[1:-1])
        return solve_nonlocal(ic, model, KernelScale(0.02),
                              SolverConfig(t_final=0.3, snapshot_times=snaps))

    def test_smooth_flow_nearly_conservative(self, fe, smooth_traj):
        phi = BumpTestFunction(0.0, 0.15, 0.5, 0.1)
        (r,) = entropy_residual(smooth_traj, fe, [phi])
        g_dx = 2.0 / 1024
        assert abs(r) < 50 * (g_dx + 0.02)   # eps and dx floors

    def test_godunov_shock_dissipates(self, fe):
        g = Grid(-1.0, 1.0, 1024, "constant_extension")
        ic = make_initial(g, Riemann(0.2, 0.8, 0.0))
        snaps = tuple(np.linspace(0.0, 0.4, 65)[1:-1])
        traj = solve_local(ic, fe, SolverConfig(t_final=0.4,
                                                snapshot_times=snaps))
        phi = BumpTestFunction(0.0, 0.2, 0.3, 0.12)
        (r,) = entropy_residual(traj, fe, [phi])
        assert r < -1e-4

    def test_support_must_be_covered(self, fe, smooth_traj):
        late = BumpTestFunction(0.0, 0.9, 0.3, 0.2)
        with pytest.raises(SupportError):
            entropy_residual(smooth_traj, fe, [late])
        wide = BumpTestFunction(0.0, 0.15, 5.0, 0.1)
        with pytest.raises(SupportError):
            entropy_residual(smooth_traj, fe, [wide])

    def test_spacing_requirement(self, fe, model):
        g = Grid(-1.0, 1.0, 128, "periodic")
        ic = make_initial(g, Sine(0.5, 0.1, 2.0))
        traj = solve_nonlocal(ic, model, KernelScale(0.05),
                              SolverConfig(t_final=0.3,
                                           snapshot_times=(0.1, 0.2)))
        sharp = BumpTestFunction(0.0, 0.15, 0.3, 0.05)
        with pytest.raises(SupportError, match="spacing"):
            entropy_residual(traj, fe, [sharp])


class TestRearrangement:
    def test_three_elements(self):
        assert list(symmetric_rearrangement([3, 1, 2])) == [1, 3, 2]

    def test_symmetric_decreasing_fixed_point(self):
        arr = [1.0, 2.0, 4.0, 3.0, 0.5]
        rearranged = symmetric_rearrangement(arr)
        again = symmetric_rearrangement(rearranged)
        assert np.array_equal(rearranged, again)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            symmetric_rearrangement([1.0, -0.1])

    @given(nonneg_lists)
    @settings(max_examples=60, deadline=None)
    def test_permutation_and_shape(self, values):
        out = symmetric_rearrangement(values)
        assert sorted(out) == sorted(values)
        peak = int(np.argmax(out))
        assert np.all(np.diff(out[:peak + 1]) >= 0.0)
        assert np.all(np.diff(out[peak:]) <= 0.0)


class TestHardyLittlewood:
    def test_two_elements(self):
        assert hardy_littlewood_gap([1, 2], [2, 1]) == pytest.approx(1.0)

    def test_aligned_symmetric_decreasing_is_optimal(self):
        g1 = symmetric_rearrangement([4.0, 1.0, 2.0])
        g2 = symmetric_rearrangement([9.0, 3.0, 5.0])
        assert hardy_littlewood_gap(g1, g2) == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            hardy_littlewood_gap([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(0.0, 50.0), min_size=2, max_size=6),
           st.lists(st.floats(0.0, 50.0), min_size=2, max_size=6))
    @example([13.0, 50.0, 50.0, 50.0, 3.6696665107384234, 1.5629679028767143],
             [50.0, 50.0, 50.0, 50.0, 13.0, 2.0])
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_maximum(self, g1, g2):
        n = min(len(g1), len(g2))
        g1, g2 = g1[:n], g2[:n]
        gap = hardy_littlewood_gap(g1, g2)
        # both dot products round at the scale of the sorted product
        scale = float(np.dot(np.sort(g1), np.sort(g2)))
        assert gap >= -1e-14 * max(1.0, scale)
        best = max_permuted_product(g1, g2)
        rearranged = float(np.dot(symmetric_rearrangement(g1),
                                  symmetric_rearrangement(g2)))
        assert rearranged == pytest.approx(best, abs=1e-9)


class TestShiftedProduct:
    def test_zero_shift_equality(self):
        h = [0.4, 1.2, 0.8]
        lhs, rhs = shifted_product_check(h, 0)
        assert lhs == rhs

    def test_hand_computed(self):
        lhs, rhs = shifted_product_check([1.0, 2.0, 3.0], 1)
        assert lhs == pytest.approx(23.0)
        assert rhs == pytest.approx(36.0)

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20),
           st.integers(-25, 25))
    @settings(max_examples=60, deadline=None)
    def test_dominated_by_aligned(self, h, shift):
        lhs, rhs = shifted_product_check(h, shift)
        assert lhs <= rhs + 1e-12

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            shifted_product_check([1.0, -2.0], 1)


class TestStabilityGap:
    def _pair(self, model):
        g = Grid(-1.0, 1.0, 128, "periodic")
        x = g.cell_centers()
        base = DensityField(g, 0.5 + 0.1 * np.sin(np.pi * x))
        pert = DensityField(g, base.values + 0.01)
        snaps = (0.1, 0.2)
        cfg = SolverConfig(t_final=0.3, snapshot_times=snaps)
        eps = KernelScale(0.1)
        return (solve_nonlocal(base, model, eps, cfg),
                solve_nonlocal(pert, model, eps, cfg))

    def test_ratio_starts_at_one(self, model):
        sup, times, ratios = stability_gap(*self._pair(model))
        assert ratios[0] == 1.0
        assert sup >= 1.0 - 1e-12

    def test_identical_initial_rejected(self, model):
        a, _ = self._pair(model)
        with pytest.raises(DomainError):
            stability_gap(a, a)


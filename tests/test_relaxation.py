import functools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nltraffic import (DensityField, DomainError, Grid, KernelScale,
                       MonotoneRamp, PositivityError, RelaxationFrame,
                       Riemann, SolverConfig, UZFields, VelocityModel,
                       average, check_bv_conditions, check_subcharacteristic,
                       equilibrium_speed, equilibrium_z, from_uz,
                       lambda_source, make_initial, march_nonlocal,
                       physical_slice, solve_nonlocal, solve_relaxation,
                       speeds, to_uz, transformed_tv)
from nltraffic.core import ShapeError, TimeStepCollapse
from nltraffic.diagnostics import InsufficientDataError
from nltraffic.kernel import edge_to_center
from nltraffic.relaxation import (NEWTON_TOL, SUBCHARACTERISTIC_SAMPLES,
                                  FrameError, SliceGatherer, SourceBandError,
                                  StiffSourceError, _implicit_source,
                                  _residual, _source, _space_derivative,
                                  _time_derivative)
from nltraffic.trajectory import Snapshot, Trajectory

from conftest import cubic_model, quadratic_model, traced_peak

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LAWS = {"affine": VelocityModel.affine(1.0, 1.0),
        "wide": VelocityModel.affine(2.0, 0.5),
        "quadratic": quadratic_model(),
        "cubic": cubic_model()}


# ---------------------------------------------------------------------------
# oracles of the source solve: full-width Newton on the closed-form partials
# and a scalar bisection per cell
# ---------------------------------------------------------------------------

def _source_partials(u, z, frame):
    """(Lambda, Lambda_u, Lambda_z) evaluated cellwise, closed form."""
    model = frame.model
    ez = np.exp(z)
    q = np.clip(model.v_inverse(frame.K - ez), 0.0, model.rho_jam)
    vq = model.v(q)
    dvq = model.dv(q)
    d2vq = model.d2v(q)
    denom = frame.K - vq
    rho = np.exp(u)
    lam = (rho - q) * dvq / denom
    lam_u = rho * dvq / denom
    lam_q = ((rho - q) * (d2vq + dvq * dvq / denom) - dvq) / denom
    lam_z = lam_q * (-ez / dvq)
    return lam, lam_u, lam_z


def _source_line(U, total, frame):
    """Lambda(U, total - U) and its slope Lambda_u - Lambda_z along the
    source line u + z = total, cellwise, in closed form: the Newton
    solve's own evaluation before ``_source`` replaced it, kept frozen as
    the oracle of ``_source``'s bits."""
    model = frame.model
    ez = np.subtract(total, U)
    np.exp(ez, out=ez)
    q = np.maximum(model.v_inverse(frame.K - ez), 0.0)
    np.minimum(q, model.rho_jam, out=q)
    denom = frame.K - model.v(q)
    dvq = model.dv(q)
    r = dvq / denom
    rho = np.exp(U)
    gap = rho - q
    lam = gap * r
    ez /= denom
    slope = lam - 1.0
    slope *= ez
    if not model.is_affine:
        with np.errstate(divide="ignore", invalid="ignore"):
            gap *= model.d2v(q)
            gap *= ez
            gap /= dvq
        slope += gap
    rho *= r
    slope += rho
    return lam, slope


def _scalar_residual(val, u_star, total, c, frame):
    lam, _ = _source_line(np.array([val]), np.array([total]), frame)
    return val - u_star - c * float(lam[0])


def _bisect_cell(u_star, total, c, frame, lo, hi, tol, cell):
    def resid(val):
        return _scalar_residual(val, u_star, total, c, frame)

    r_lo, r_hi = resid(lo), resid(hi)
    if r_lo > 0.0 or r_hi < 0.0:
        raise StiffSourceError(
            f"source solve failed in cell {cell}: no sign change on the "
            f"band, residuals ({r_lo:.3e}, {r_hi:.3e})")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r_mid = resid(mid)
        if abs(r_mid) < tol:
            return mid
        if r_mid > 0.0:
            hi = mid
        else:
            lo = mid
    raise StiffSourceError(
        f"source solve failed in cell {cell}: bisection stalled at "
        f"residual {r_mid:.3e}")


def _check_at_root(val, u_star, total, c, frame):
    """Assert that ``val`` meets one of the source solve's two stops."""
    args = (u_star, total, c, frame)
    # a closed bracket ends at the one of two adjacent floats around the
    # root whose residual is no larger
    r = _scalar_residual(val, *args)
    if any(r * r_nb <= 0.0 and abs(r) <= abs(r_nb)
           for r_nb in (_scalar_residual(nb, *args) for nb in (
               np.nextafter(val, -np.inf), np.nextafter(val, np.inf)))):
        return
    # a cell whose residual fell below NEWTON_TOL at x took one more Newton
    # step, r(x) / slope: val itself, or a float within NEWTON_TOL / slope
    # of it, has a residual below NEWTON_TOL
    _, line = _source_line(np.array([val]), np.array([total]), frame)
    reach = NEWTON_TOL / abs(1.0 - c * float(line[0]))
    ulp = abs(np.spacing(val))
    k = min(int(reach / ulp) + 1, 4096)
    near = val + np.arange(-k, k + 1) * ulp
    lam, _ = _source_line(near, np.full(near.size, total), frame)
    assert np.min(np.abs(near - u_star - c * lam)) < NEWTON_TOL


def _newton_full_width(u_star, total, c, frame, tol, max_iter):
    """Newton on every cell until all residuals are below tol, then the
    scalar bisection for the stragglers: the source solve as it was before
    the active set.  Returns U, the iterations and the bisected cells.  An
    iterate clamped to the band's top end, where v'(q) = 0, divides by
    zero here, and 0 * inf makes it NaN."""
    lo = total - np.log(frame.K)
    hi = total - np.log(frame.K - frame.model.v_max)
    U = np.clip(u_star, lo, hi)
    for iterations in range(1, max_iter + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            lam, lam_u, lam_z = _source_partials(U, total - U, frame)
        resid = U - u_star - c * lam
        slope = 1.0 - c * (lam_u - lam_z)
        U = np.clip(U - resid / slope, lo, hi)
        if float(np.max(np.abs(resid))) < tol:
            return U, iterations, np.array([], dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam, _, _ = _source_partials(U, total - U, frame)
    bad = np.nonzero(np.abs(U - u_star - c * lam) >= tol)[0]
    for i in bad:
        U[i] = _bisect_cell(float(u_star[i]), float(total[i]), c, frame,
                            float(lo[i]), float(hi[i]), tol, i)
    return U, max_iter, bad


def _midpoint_lattice(model):
    """The densities ``check_subcharacteristic`` samples."""
    n = SUBCHARACTERISTIC_SAMPLES
    return (np.arange(n) + 0.5) * model.rho_jam / n


@functools.lru_cache(maxsize=None)
def _lattice_speeds(name):
    """v and f' of LAWS[name] at each lattice sample, one point per call,
    as read-only arrays: the per-sample oracle of the margins, shared by
    every tilt."""
    model = LAWS[name]
    rho = _midpoint_lattice(model)
    v = np.array([float(model.v(float(r))) for r in rho])
    df = np.array([float(model.df(float(r))) for r in rho])
    v.setflags(write=False)
    df.setflags(write=False)
    return v, df


def _rising_law():
    """v = 1 + 2 rho: no speed law, but a frame at K = 1.5 > v(0) admits
    it, and v(q) and f'(rho) reach K inside the band."""
    return VelocityModel.custom(
        v=lambda r: 1.0 + 2.0 * np.asarray(r, dtype=float),
        dv=lambda r: np.full_like(np.asarray(r, dtype=float), 2.0),
        d2v=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        v_inverse=lambda s: (np.asarray(s, dtype=float) - 1.0) / 2.0,
        rho_jam=1.0)


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
        with pytest.raises(DomainError):
            equilibrium_speed(np.array([0.5, -0.1]), frame)

    def test_arrays_match_numbers(self, frame):
        rho = np.array([0.0, 0.25, 0.5, 1.0])
        lam1, lam2 = speeds(rho, frame)
        assert lam1 == -2.0
        assert np.array_equal(lam2, [speeds(r, frame)[1] for r in rho])
        assert np.array_equal(equilibrium_speed(rho, frame),
                              [equilibrium_speed(r, frame) for r in rho])

    def test_equilibrium_spot_values(self, frame):
        assert equilibrium_speed(0.5, frame) == pytest.approx(0.0)
        assert equilibrium_speed(0.0, frame) == pytest.approx(2.0)
        assert equilibrium_speed(1.0, frame) == pytest.approx(-2.0 / 3.0)

    def test_interlacing_sampled(self, frame):
        rep = check_subcharacteristic(frame)
        assert rep.passed
        assert rep.min_margin_lower > 0.0
        assert rep.min_margin_upper > 0.0

    @pytest.mark.parametrize("name", sorted(LAWS))
    @given(tilt=st.floats(1.0 + 1e-9, 8.0))
    @settings(max_examples=30, deadline=None)
    def test_margins_equal_per_sample_speeds(self, name, tilt):
        model = LAWS[name]
        frame = RelaxationFrame(tilt * model.v_max, KernelScale(0.1), model)
        v, df = _lattice_speeds(name)
        # the operations of equilibrium_speed and speeds, sample by sample
        K = frame.K
        lam_star = K * df / (K - df)
        lam2 = K * v / (K - v)
        rep = check_subcharacteristic(frame)
        assert rep.min_margin_lower == float(np.min(lam_star + frame.K))
        assert rep.min_margin_upper == float(np.min(lam2 - lam_star))

    def test_speed_above_tilt_raises(self):
        # v = 1 + 2 rho: f' = 1 + 4 rho reaches K = 1.5 past rho = 0.125;
        # the check names the first lattice sample there, where
        # equilibrium_speed raises too
        model = _rising_law()
        frame = RelaxationFrame(1.5, KernelScale(0.1), model)
        rho = _midpoint_lattice(model)
        df = model.df(rho)
        first = int(np.argmax(df >= frame.K))
        message = re.escape(f"f'(rho) = {df[first]}") + "$"
        with pytest.raises(FrameError, match=message):
            check_subcharacteristic(frame)
        with pytest.raises(FrameError, match=message):
            equilibrium_speed(rho[first], frame)


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

    @pytest.mark.parametrize(
        "name, K, rho_range, want",
        [(name, None, (0.1, 0.9), None) for name in sorted(LAWS)]
        + [("affine", 2.0, (0.0, 1.0), 0.5), ("affine", 4.0, (0.0, 1.0), 0.75)],
        ids=sorted(LAWS) + ["affine-jam-K2", "affine-jam-K4"])
    def test_source_extrema_match_closed_form(self, name, K, rho_range, want):
        # on the full range the affine Lambda_z = 1 - Lambda is least at
        # rho = 1e-8 and q = rho_jam: 1 - 1/K + 1e-8/K; a difference that
        # straddles the clip at q = rho_jam reads half of it
        model = LAWS[name]
        frame = RelaxationFrame(K or 2.0 * model.v_max, KernelScale(0.1),
                                model)
        rep = check_bv_conditions(frame, rho_range)
        rho1, rho2 = rho_range
        u = np.log(np.linspace(max(rho1, 1e-8 * model.rho_jam), rho2, 33))
        q = np.linspace(max(rho1, 1e-12), rho2, 33)
        uu, zz = np.meshgrid(u, np.log(frame.K - model.v(q)), indexing="ij")
        _, lam_u, lam_z = _source_partials(uu, zz, frame)
        assert rep.lambda_u_max == pytest.approx(np.max(lam_u), rel=1e-12)
        assert rep.lambda_z_min == pytest.approx(np.min(lam_z), rel=1e-12)
        if want is not None:
            assert rep.lambda_z_min == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("span", ["jam", "0.1-0.9", "0.2-0.8"])
    @pytest.mark.parametrize("tilt", ["2v0", "4"])
    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_verdicts_over_laws(self, name, tilt, span):
        # the custom laws have v'(0) = 0: min |v'| vanishes on the full
        # range, and Lambda_z < 0 inside the band
        model = LAWS[name]
        K = 2.0 * model.v_max if tilt == "2v0" else 4.0
        rho_range = {"jam": (0.0, model.rho_jam), "0.1-0.9": (0.1, 0.9),
                     "0.2-0.8": (0.2, 0.8)}[span]
        rep = check_bv_conditions(RelaxationFrame(K, KernelScale(0.1), model),
                                  rho_range)
        failed = {c.name for c in rep.checks if not c.passed}
        if model.is_affine:
            assert failed == set()
        else:
            assert failed == {"range_condition", "source_z_sign",
                              "uniform_condition"}

    def test_bad_range(self, frame):
        with pytest.raises(DomainError):
            check_bv_conditions(frame, (0.6, 0.4))


class TestLogVariables:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["u", "z"])
    def test_fields_finite(self, which, bad):
        g = Grid(-1.0, 1.0, 4)
        fields = {"u": np.zeros(4), "z": np.full(4, 0.5)}
        fields[which][2] = bad
        with pytest.raises(DomainError, match=f"UZFields.{which}: non-finite"):
            UZFields(g, **fields)

    def test_fields_shape_and_frozen(self):
        g = Grid(-1.0, 1.0, 4)
        with pytest.raises(ShapeError):
            UZFields(g, np.zeros(4), np.zeros(5))
        u = np.zeros(4)
        uz = UZFields(g, u, np.zeros(4))
        u[0] = 1.0
        assert uz.u[0] == 0.0 and not uz.z.flags.writeable

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

    def test_tilt_must_exceed_v_of_q(self):
        # v = 1 + 2 rho reaches K = 1.5 at q = 0.25 and passes it after
        frame = RelaxationFrame(1.5, KernelScale(0.1), _rising_law())
        g = Grid(-1.0, 1.0, 4)
        rho = DensityField(g, np.full(4, 0.5))
        for level in (0.25, 0.5):
            q = average(DensityField(g, np.full(4, level)), frame.eps)
            with pytest.raises(FrameError, match="K must exceed v"):
                to_uz(rho, q, frame)

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


#: the laws besides the affine fixture, over which TestSolveRelaxation's
#: fixture cases run again
OTHER_LAWS = sorted(set(LAWS) - {"affine"})


def _law_frame(model, eps):
    """The tilt K = 2 v(0): K = 2 for the affine fixture."""
    return RelaxationFrame(2.0 * model.v_max, KernelScale(eps), model)


def _uniform_uz(frame, n, q_frac):
    """u = ln(rho_jam / 2) and z = ln(K - v(q_frac rho_jam)) on n periodic
    cells; z = ln 1.7 at q_frac = 0.7 and ln 1.9 at 0.9 for the fixture."""
    model = frame.model
    g = Grid(-1.0, 1.0, n, "periodic")
    u0 = np.full(n, np.log(0.5 * model.rho_jam))
    z0 = np.full(n, np.log(frame.K - model.v(q_frac * model.rho_jam)))
    return UZFields(g, u0, z0)


def _check_stationary(model):
    frame = _law_frame(model, 0.1)
    g = Grid(-1.0, 1.0, 64, "periodic")
    u0 = np.full(64, np.log(0.5 * model.rho_jam))
    uz0 = UZFields(g, u0, equilibrium_z(u0, frame))
    out = solve_relaxation(uz0, frame, SolverConfig(t_final=0.05))
    assert out.stats.steps > 0
    assert np.max(np.abs(out.final.fields.u - u0)) < 1e-12 * out.stats.steps


def _check_u_plus_z(model):
    # constant in y: transport is inert, only the source acts
    frame = _law_frame(model, 0.1)
    uz0 = _uniform_uz(frame, 64, 0.7)   # off equilibrium
    out = solve_relaxation(uz0, frame, SolverConfig(t_final=0.02))
    total0 = uz0.u + uz0.z
    total1 = out.final.fields.u + out.final.fields.z
    assert np.max(np.abs(total1 - total0)) < 1e-13


#: dx of the 32- and 64-cell grids on [-1, 1]
DX_32 = 2.0 / 32
DX_64 = 2.0 / 64


#: midpoint steps of each law's solve of ``_random_uz`` data at
#: eps = 3e-5 dx to t = 0.05
RANDOM_UZ_MIDPOINTS = {"affine": 726, "cubic": 930, "quadratic": 849,
                       "wide": 912}


def _random_uz(frame):
    """64 periodic cells of random off-equilibrium data (seed 0): rho in
    (0.2, 0.8) rho_jam and z = ln(K - v(q)) with q in (0.05, 0.95) rho_jam."""
    model = frame.model
    g = Grid(-1.0, 1.0, 64, "periodic")
    rng = np.random.default_rng(0)
    rho = rng.uniform(0.2, 0.8, 64) * model.rho_jam
    q = rng.uniform(0.05, 0.95, 64) * model.rho_jam
    return UZFields(g, np.log(rho), np.log(frame.K - model.v(q)))


def _check_very_stiff(model):
    frame = _law_frame(model, 1e-4 * DX_32 * 2.0)
    out = solve_relaxation(_uniform_uz(frame, 32, 0.9), frame,
                           SolverConfig(t_final=0.2))
    gap = np.max(np.abs(out.final.fields.z
                        - equilibrium_z(out.final.fields.u, frame)))
    assert gap < 1e-10
    assert out.newton_iterations_max <= 50
    assert out.midpoint_steps == 0


class TestSolveRelaxation:
    def test_equilibrium_is_stationary(self, model):
        _check_stationary(model)

    def test_source_conserves_u_plus_z(self, model):
        _check_u_plus_z(model)

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
        dtau = out.stats.dt_max
        bound = 1.0 / (1.0 + dtau * frame.K / eps * margin)
        measured = [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-13]
        assert measured
        assert max(measured) <= bound * 2.0

    def test_very_stiff_source_converges(self, model):
        _check_very_stiff(model)

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_stiff_source_midpoint_steps_bounded(self, name):
        # the stiff solve reaches equilibrium on uniform data; on random
        # data at eps = 3e-5 dx every law takes midpoint steps, and each
        # pass of the source solve replaces at most one Newton step per
        # open cell by a midpoint; the count is pinned exactly, so a
        # midpoint counted twice, or one left uncounted, moves it
        frame = _law_frame(LAWS[name], 2e-4 * DX_32)
        out = solve_relaxation(_uniform_uz(frame, 32, 0.9), frame,
                               SolverConfig(t_final=0.05))
        gap = np.max(np.abs(out.final.fields.z
                            - equilibrium_z(out.final.fields.u, frame)))
        assert gap < 1e-10
        frame = _law_frame(LAWS[name], 3e-5 * DX_64)
        out = solve_relaxation(_random_uz(frame), frame,
                               SolverConfig(t_final=0.05))
        assert 0 < out.midpoint_steps <= (64 * out.stats.steps
                                          * out.newton_iterations_max)
        assert out.midpoint_steps == RANDOM_UZ_MIDPOINTS[name]

    @pytest.mark.parametrize("name", OTHER_LAWS)
    def test_equilibrium_is_stationary_over_laws(self, name):
        _check_stationary(LAWS[name])

    @pytest.mark.parametrize("name", OTHER_LAWS)
    def test_source_conserves_u_plus_z_over_laws(self, name):
        _check_u_plus_z(LAWS[name])

    @pytest.mark.parametrize("name", OTHER_LAWS)
    def test_very_stiff_source_converges_over_laws(self, name):
        _check_very_stiff(LAWS[name])

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


def _source_problem(name, seed, n, c_max):
    """Random cells of the source solve for law ``name``: u_star from rho
    in (0.05, 0.95) rho_jam, z_star in the band, and c up to c_max."""
    model = LAWS[name]
    frame = _law_frame(model, 0.1)
    rng = np.random.default_rng(seed)
    u_star = np.log(rng.uniform(0.05, 0.95, n) * model.rho_jam)
    lo, hi = frame.z_band
    total = u_star + rng.uniform(lo, hi, n)
    c = float(10.0 ** rng.uniform(-3.0, np.log10(c_max)))
    return frame, u_star, total, c


def _stiff_repro_uz():
    """64 periodic cells of random off-equilibrium data (seed 0)."""
    g = Grid(-1.0, 1.0, 64, "periodic")
    rng = np.random.default_rng(0)
    return UZFields(g, np.log(rng.uniform(0.2, 0.8, 64)),
                    np.log(rng.uniform(1.05, 1.95, 64)))


class TestSourceSolve:
    @pytest.mark.parametrize("name", sorted(LAWS))
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_source_line_matches_partials(self, name, seed, n):
        frame, u_star, total, _ = _source_problem(name, seed, n, 1.0)
        lam, lam_u, neg_lam_z = _source(u_star, total - u_star, frame)
        ref, ref_u, ref_z = _source_partials(u_star, total - u_star, frame)
        scale = np.abs(ref_u) + np.abs(ref_z)
        assert np.all(np.abs(lam - ref) <= 1e-15 * (1.0 + np.abs(ref)))
        assert np.all(np.abs(lam_u - ref_u) <= 1e-15 * np.abs(ref_u))
        assert np.all(np.abs(-neg_lam_z - ref_z) <= 1e-13 * scale)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_source_matches_frozen_source_line(self, name, seed, n):
        # random cells plus the band's two edges, where v'(q) may vanish
        frame, u_star, total, _ = _source_problem(name, seed, n, 1.0)
        u_star = np.concatenate([u_star, u_star[:1], u_star[:1]])
        total = np.concatenate([total, u_star[:1] + frame.z_band])
        lam, lam_u, neg_lam_z = _source(u_star, total - u_star, frame)
        ref, slope = _source_line(u_star, total, frame)
        assert np.array_equal(lam, ref, equal_nan=True)
        assert np.array_equal(lam_u + neg_lam_z, slope, equal_nan=True)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_matches_full_width_newton(self, name, seed, n):
        # where the oracle's Newton converges, a cell that freezes skips
        # only sub-tolerance steps; where the oracle bisects, both end
        # within the tolerance of the residual, not of U
        frame, u_star, total, c = _source_problem(name, seed, n, 100.0)
        got, _, _ = _implicit_source(u_star, total, c, frame)
        ref, _, bisected = _newton_full_width(u_star, total, c, frame,
                                              NEWTON_TOL, 50)
        assume(np.all(np.isfinite(ref)))
        newton = np.ones(n, dtype=bool)
        newton[bisected] = False
        assert np.all(np.abs(got - ref)[newton] <= NEWTON_TOL)
        for i in bisected:
            _check_at_root(got[i], float(u_star[i]), float(total[i]), c,
                           frame)

    @pytest.mark.parametrize("name", sorted(LAWS))
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 32),
           log_c=st.floats(-3.0, 6.0))
    @settings(max_examples=25, deadline=None)
    def test_bisection_matches_scalar(self, name, seed, n, log_c):
        # up to c = 1e6, where the residual jumps by more than the
        # tolerance between adjacent floats, every cell ends where one of
        # the solve's stops puts it
        frame, u_star, total, _ = _source_problem(name, seed, n, 1.0)
        c = 10.0 ** log_c
        got, _, _ = _implicit_source(u_star, total, c, frame)
        for i in range(n):
            _check_at_root(got[i], float(u_star[i]), float(total[i]), c,
                           frame)

    @pytest.mark.parametrize("name", ["cubic", "quadratic"])
    def test_band_edge_where_v_prime_vanishes(self, name):
        # z at the lower band edge puts q at 0, where v'(0) = 0: the slope
        # is not finite there, and the cell, already at its root, takes no
        # Newton step; z never leaves the edge on any step
        frame = RelaxationFrame(2.0, KernelScale(0.1), LAWS[name])
        g = Grid(-1.0, 1.0, 32, "periodic")
        uz0 = UZFields(g, np.full(32, np.log(0.5)),
                       np.full(32, frame.z_band[0]))
        out = solve_relaxation(uz0, frame, SolverConfig(t_final=0.05))
        assert out.midpoint_steps == 0
        assert np.array_equal(out.final.fields.u, uz0.u)
        assert np.array_equal(out.final.fields.z, uz0.z)
        assert out.stats.low[1] == out.stats.high[1] == frame.z_band[0]

    @pytest.mark.parametrize("ratio, u_sum, gap", [
        (3e-5, -45.73045283182381, "2.531e-06"),
        (1e-4, -45.73044817696207, "8.437e-06"),
        (1e-6, -45.73045476309026, "8.437e-08")],
        ids=["eps_dx_3e-5", "eps_dx_1e-4", "eps_dx_1e-6"])
    def test_stiff_regime_pinned(self, model, ratio, u_sum, gap):
        # eps / dx from stiff to stiffest on the data below: the sum of u
        # bit for bit, and the equilibrium gap to four digits
        uz0 = _stiff_repro_uz()
        frame = RelaxationFrame(2.0, KernelScale(ratio * uz0.grid.dx), model)
        out = solve_relaxation(uz0, frame, SolverConfig(t_final=0.05))
        u, z = out.final.fields.u, out.final.fields.z
        assert float(np.sum(u)) == u_sum
        assert f"{np.max(np.abs(z - equilibrium_z(u, frame))):.3e}" == gap

    def test_very_stiff_source_bisects_to_adjacent_floats(self, model):
        # at c = dtau K / eps ~ 1.7e4 the residual moves by more than
        # NEWTON_TOL between adjacent floats: Newton steps leave their
        # brackets, midpoints replace them, and the cells end on the
        # adjacent floats around the root; at eps = 1e-4 dx each cell
        # freezes once its residual has dipped below NEWTON_TOL
        uz0 = _stiff_repro_uz()
        runs, gaps = [], []
        for eps in (3e-5 * uz0.grid.dx, 1e-4 * uz0.grid.dx):
            frame = RelaxationFrame(2.0, KernelScale(eps), model)
            out = solve_relaxation(uz0, frame, SolverConfig(t_final=0.05))
            runs.append(out)
            gaps.append(np.max(np.abs(
                out.final.fields.z - equilibrium_z(out.final.fields.u,
                                                   frame))))
        stiff, milder = runs
        assert stiff.newton_iterations_max > milder.newton_iterations_max
        assert stiff.midpoint_steps > 0
        assert milder.newton_iterations_max < 50
        assert milder.midpoint_steps == 0
        # transport keeps the state O(eps) off equilibrium
        assert 0.2 < gaps[0] / gaps[1] < 0.5

    def test_no_sign_change_raises(self, model):
        # rho at jam and z within the admitted slack above the band: the
        # root lies past the band's top end (rho > rho_jam)
        g = Grid(-1.0, 1.0, 8, "periodic")
        frame = RelaxationFrame(2.0, KernelScale(0.1), model)
        uz0 = UZFields(g, np.zeros(8), np.full(8, np.log(2.0) + 5e-10))
        with pytest.raises(StiffSourceError,
                           match="cell 0: no sign change on the band"):
            solve_relaxation(uz0, frame, SolverConfig(t_final=0.01))

    def test_no_sign_change_reports_band_residuals(self, model):
        # cell 2's root lies far below the band: every residual is
        # positive, so its bracket's upper end moves inward off the band
        # until the bracket shuts on the band's low end; the message
        # reports the residuals at the band's ends, not the bracket's
        frame = RelaxationFrame(2.0, KernelScale(0.1), model)
        u_star = np.full(4, -0.3)
        u_star[2] = np.log(1e-3)
        total = np.zeros(4)
        c = 1e-3
        band = total[2] - np.log([frame.K, frame.K - model.v_max])
        r_lo, r_hi = _residual(band, np.full(2, u_star[2]), np.zeros(2), c,
                               frame)[0]
        assert r_lo > 0.0
        msg = (f"cell 2: no sign change on the band, residuals "
               f"({r_lo:.3e}, {r_hi:.3e})")
        with pytest.raises(StiffSourceError, match=re.escape(msg)):
            _implicit_source(u_star, total, c, frame)

    def test_non_finite_residual_raises(self, frame):
        total = np.zeros(8)
        total[7] = np.nan
        with pytest.raises(StiffSourceError,
                           match="cell 7: non-finite residual"):
            _implicit_source(np.full(8, -0.5), total, 1.0, frame)


def _transformed_tv_lists(traj, frame):
    """transformed_tv from lists of every snapshot's (u, z): the oracle of
    the windowed monitor's bits."""
    snaps = traj.snapshots
    grid = snaps[0].rho.grid
    times = np.array([s.t for s in snaps])
    uz = [to_uz(s.rho, s.q, frame) for s in snaps]
    out_t, out_v = [], []
    for m in range(1, len(snaps) - 1):
        h1 = times[m] - times[m - 1]
        h2 = times[m + 1] - times[m]
        u_t = _time_derivative(uz[m - 1].u, uz[m].u, uz[m + 1].u, h1, h2)
        z_t = _time_derivative(uz[m - 1].z, uz[m].z, uz[m + 1].z, h1, h2)
        u_y = _space_derivative(uz[m].u, grid) + u_t / frame.K
        z_y = _space_derivative(uz[m].z, grid) + z_t / frame.K
        total = (np.sum(np.abs(u_y)) + np.sum(np.abs(z_y))) * grid.dx
        out_t.append(times[m])
        out_v.append(float(total))
    return np.array(out_t), np.array(out_v)


def _ramp_run(model, n_snap):
    """A ramp run with n_snap + 1 snapshots, t = 0 and t = 0.5 among
    them, for the tilted monitor."""
    frame = RelaxationFrame(4.0, KernelScale(0.05), model)
    g = Grid(-1.0, 1.0, 1024, "constant_extension")
    ic = make_initial(g, MonotoneRamp(0.8, 0.2, -0.4, 0.0))
    snaps = tuple(np.linspace(0.0, 0.5, n_snap + 1)[1:-1])
    traj = solve_nonlocal(ic, model, frame.eps,
                          SolverConfig(t_final=0.5, snapshot_times=snaps))
    return traj, frame


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

    def test_window_matches_every_level_lists(self, model):
        traj, frame = _ramp_run(model, 40)
        times, series = transformed_tv(traj, frame)
        want_t, want_v = _transformed_tv_lists(traj, frame)
        assert np.array_equal(times.view(np.int64), want_t.view(np.int64))
        assert np.array_equal(series.view(np.int64), want_v.view(np.int64))

    def test_memory_independent_of_snapshot_count(self, model):
        traj, frame = _ramp_run(model, 80)
        # the same run read at every fourth snapshot
        coarse = Trajectory(snapshots=traj.snapshots[::4], stats=traj.stats)
        assert len(coarse.snapshots) == 21
        peak_coarse = traced_peak(lambda: transformed_tv(coarse, frame))
        peak_fine = traced_peak(lambda: transformed_tv(traj, frame))
        # 60 more snapshots held as (u, z) would add 60 * 2 arrays of N
        n = traj.snapshots[0].rho.grid.n_cells
        assert peak_fine <= peak_coarse + 8 * n

    def test_snapshot_without_average_raises(self, model, frame):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.5))
        traj = solve_nonlocal(ic, model, frame.eps,
                              SolverConfig(t_final=0.2,
                                           snapshot_times=(0.05, 0.1, 0.15)))
        last = traj.snapshots[-1]
        bare = Trajectory(
            snapshots=traj.snapshots[:-1] + (Snapshot(last.t, last.rho),),
            stats=traj.stats)
        with pytest.raises(DomainError, match="carry no averaged field"):
            transformed_tv(bare, frame)

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

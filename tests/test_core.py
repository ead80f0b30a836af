import numpy as np
import pytest
from hypothesis import given, strategies as st

from nltraffic import (Bump, DensityField, DomainError, Grid, MonotoneRamp,
                       Riemann, ShapeError, Sine, SolverConfig,
                       VelocityModel, make_initial, validate_model)
from nltraffic.core import ModelEvaluationError, check_band

from conftest import cubic_model, non_concave_model, quadratic_model

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestGrid:
    def test_cell_centers_equally_spaced(self):
        g = Grid(-1.0, 1.0, 7)
        x = g.cell_centers()
        assert np.all(np.diff(x) > 0)
        assert np.max(np.abs(np.diff(x) - g.dx)) < 4 * np.finfo(float).eps

    def test_centers_formula(self):
        g = Grid(0.0, 1.0, 4)
        assert np.allclose(g.cell_centers(), [0.125, 0.375, 0.625, 0.875])

    def test_too_few_cells(self):
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, 3)

    def test_empty_domain(self):
        with pytest.raises(DomainError):
            Grid(1.0, 1.0, 8)

    def test_unknown_boundary(self):
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, 8, "reflecting")

    @pytest.mark.parametrize("x_min, x_max", [(0.0, np.inf),
                                              (-1e308, 1e308)])
    def test_length_must_be_finite(self, x_min, x_max):
        # an infinite end, or finite ends whose difference overflows,
        # would give an infinite dx and infinite cell centers
        with pytest.raises(DomainError, match="finite positive length"):
            Grid(x_min, x_max, 8)

    def test_cell_count_must_be_integer(self):
        with pytest.raises(DomainError, match="integer"):
            Grid(0.0, 1.0, 8.5)
        for n in (np.int64(8), np.int32(8), np.uint16(8)):
            assert Grid(0.0, 1.0, n).cell_centers().size == 8

    @pytest.mark.parametrize("boundary, ends", [
        ("periodic", (-1, 0)), ("constant_extension", (0, -1))])
    def test_ghosts(self, boundary, ends):
        g = Grid(0.0, 1.0, 5, boundary)
        row = np.arange(5.0)
        left, right = g.ghosts(row)
        assert (left, right) == (row[ends[0]], row[ends[1]])
        rows = np.arange(15.0).reshape(3, 5)
        left, right = g.ghosts(rows)
        assert np.array_equal(left, rows[:, ends[0]])
        assert np.array_equal(right, rows[:, ends[1]])


class TestCheckBand:
    @pytest.mark.parametrize("values", [0.0, 2.0, [0.0, 1.0, 2.0]])
    def test_band_is_closed(self, values):
        check_band(values, 2.0, "rho")

    @pytest.mark.parametrize("values", [-1e-300, 2.0000001, [0.5, np.nan],
                                        [np.inf, 0.5], [0.5, -np.inf]])
    def test_rejects_outside_and_nan(self, values):
        with pytest.raises(DomainError, match="rho range .* admissible band"):
            check_band(np.asarray(values), 2.0, "rho")


class TestDensityField:
    def test_wrong_length(self):
        with pytest.raises(ShapeError):
            DensityField(Grid(0.0, 1.0, 8), np.zeros(7))

    def test_non_finite(self):
        with pytest.raises(DomainError):
            DensityField(Grid(0.0, 1.0, 8), [0.1] * 7 + [np.nan])

    def test_values_read_only(self):
        f = DensityField(Grid(0.0, 1.0, 8), np.full(8, 0.3))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestFlux:
    @given(a=st.floats(0.5, 4.0), b=st.floats(0.5, 4.0))
    def test_affine_closed_forms(self, a, b):
        model = VelocityModel.affine(a, b)
        rho = np.linspace(0.0, model.rho_jam, 9)
        assert np.allclose(model.f(rho), a * rho - b * rho * rho)
        assert np.allclose(model.df(rho), a - 2.0 * b * rho)
        assert np.array_equal(model.d2f(rho), np.full(9, -2.0 * b))
        assert model.df(0.0) == a


class TestValidateModel:
    def test_affine_unit(self):
        report = validate_model(VelocityModel.affine(1.0, 1.0))
        assert report.passed
        assert report.vjam_residual == 0.0
        assert report.delta_star == pytest.approx(1.0)
        assert report.d2v_sup == 0.0

    def test_affine_wide(self):
        report = validate_model(VelocityModel.affine(2.0, 1.0))
        assert report.passed
        assert report.delta_star == pytest.approx(1.0)

    @given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0))
    def test_any_affine_passes(self, a, b):
        assert validate_model(VelocityModel.affine(a, b)).passed

    @pytest.mark.parametrize("law, expected", [
        (VelocityModel.affine(1.0, 1.0), -2.0),
        (VelocityModel.affine(2.0, 0.5), -1.0),
        (quadratic_model(), 0.0),     # f'' = -6 rho, zero at rho = 0
        (cubic_model(), 0.0),         # f'' = -12 rho^2
        (non_concave_model(), 2.0),   # f'' = 6 rho - 4, largest at rho = 1
    ])
    def test_flux_curvature_reported(self, law, expected):
        report = validate_model(law)
        assert report.flux_curvature_sup == pytest.approx(expected, abs=1e-14)
        # concavity is reported, never a verdict: the paper does not assume it
        assert [c.name for c in report.checks] == [
            "v_vanishes_at_jam", "v_strictly_decreasing", "inverse_roundtrip"]

    def test_non_finite_second_derivative_raises(self):
        law = VelocityModel.custom(
            v=lambda r: 1.0 - np.asarray(r, dtype=float),
            dv=lambda r: np.full_like(np.asarray(r, dtype=float), -1.0),
            d2v=lambda r: np.where(np.asarray(r) > 0.5, -np.inf, 0.0),
            v_inverse=lambda s: 1.0 - np.asarray(s, dtype=float),
            rho_jam=1.0)
        with pytest.raises(ModelEvaluationError, match="^v'' returned"):
            validate_model(law)

    def test_quadratic_fails_decreasing(self):
        report = validate_model(quadratic_model())
        assert not report.passed
        names = [c.name for c in report.checks if not c.passed]
        assert "v_strictly_decreasing" in names
        # v'(0) = 0, so the estimated decay margin collapses
        assert report.delta_star == pytest.approx(0.0)

    def test_non_finite_evaluator(self):
        bad = VelocityModel.custom(
            v=lambda r: np.where(np.asarray(r) > 0.5, np.nan, 1.0 - np.asarray(r)),
            dv=lambda r: np.full_like(np.asarray(r, dtype=float), -1.0),
            d2v=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            v_inverse=lambda s: 1.0 - np.asarray(s, dtype=float),
            rho_jam=1.0)
        with pytest.raises(ModelEvaluationError, match="rho ="):
            validate_model(bad)

    def test_affine_bad_params(self):
        with pytest.raises(DomainError):
            VelocityModel.affine(-1.0, 1.0)


class TestMakeInitial:
    def test_riemann_edge_aligned(self):
        g = Grid(-1.0, 1.0, 4)
        f = make_initial(g, Riemann(0.2, 0.8, 0.0))
        assert np.allclose(f.values, [0.2, 0.2, 0.8, 0.8])

    def test_riemann_jump_inside_cell(self):
        g = Grid(-1.0, 1.0, 4)
        # jump at 0.25 splits the third cell [0, 0.5] in half
        f = make_initial(g, Riemann(0.2, 0.8, 0.25))
        assert f.values[2] == pytest.approx(0.5)

    def test_riemann_jump_outside(self):
        g = Grid(-1.0, 1.0, 4)
        with pytest.raises(DomainError):
            make_initial(g, Riemann(0.2, 0.8, 2.0))

    def test_bump_zero_amplitude(self):
        g = Grid(-1.0, 1.0, 16)
        f = make_initial(g, Bump(0.3, 0.0, 0.0, 0.5))
        assert np.allclose(f.values, 0.3)

    def test_bump_mass(self):
        # integral of the hump is amplitude * width
        g = Grid(-2.0, 2.0, 4096)
        f = make_initial(g, Bump(0.3, 0.2, 0.1, 0.5))
        assert f.total_mass() == pytest.approx(0.3 * 4.0 + 0.2 * 0.5, abs=1e-12)

    def test_sine_mean_exact(self):
        g = Grid(-1.0, 1.0, 64, "periodic")
        f = make_initial(g, Sine(0.5, 0.2, 2.0))
        assert f.total_mass() == pytest.approx(0.5 * 2.0, abs=1e-14)

    def test_ramp_endpoints_and_monotone(self):
        g = Grid(-1.0, 1.0, 128, "constant_extension")
        f = make_initial(g, MonotoneRamp(0.8, 0.2, -0.4, 0.0))
        assert f.values[0] == pytest.approx(0.8)
        assert f.values[-1] == pytest.approx(0.2)
        # antiderivative differencing leaves eps(F)/dx level noise
        assert np.all(np.diff(f.values) <= 1e-13)

    def test_ramp_bad_interval(self):
        g = Grid(-1.0, 1.0, 16)
        with pytest.raises(DomainError):
            make_initial(g, MonotoneRamp(0.8, 0.2, 0.5, -0.5))

    def test_range_enforced(self):
        g = Grid(-1.0, 1.0, 16)
        with pytest.raises(DomainError, match="admissible"):
            make_initial(g, Bump(0.9, 0.3, 0.0, 0.5))
        with pytest.raises(DomainError):
            make_initial(g, Riemann(0.2, 1.4, 0.0), rho_jam=1.0)
        # the same profile is fine for a model with higher jam density
        make_initial(g, Riemann(0.2, 1.4, 0.0), rho_jam=2.0)

    @given(base=st.floats(0.0, 0.6), amp=st.floats(0.0, 0.4),
           center=st.floats(-0.8, 0.8), width=st.floats(0.05, 1.0))
    def test_bump_values_in_band(self, base, amp, center, width):
        g = Grid(-1.0, 1.0, 32)
        f = make_initial(g, Bump(base, amp, center, width))
        assert np.all(f.values >= 0.0)
        assert np.all(f.values <= 1.0)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(t_final=1.0)
        assert cfg.cfl == 0.5
        assert list(cfg.emission_times()) == [0.0, 1.0]

    def test_emission_merges_and_dedupes(self):
        cfg = SolverConfig(t_final=1.0, snapshot_times=(0.5, 1.0))
        assert list(cfg.emission_times()) == [0.0, 0.5, 1.0]

    def test_cfl_bounds(self):
        with pytest.raises(DomainError):
            SolverConfig(t_final=1.0, cfl=0.0)
        with pytest.raises(DomainError):
            SolverConfig(t_final=1.0, cfl=1.5)

    def test_snapshots_sorted(self):
        with pytest.raises(DomainError):
            SolverConfig(t_final=1.0, snapshot_times=(0.5, 0.2))

    def test_snapshots_within_horizon(self):
        with pytest.raises(DomainError):
            SolverConfig(t_final=1.0, snapshot_times=(1.5,))

    @pytest.mark.parametrize("t_final, snapshots", [
        (float("nan"), ()), (float("inf"), ()), (-float("inf"), ()),
        (1.0, (float("nan"),)), (1.0, (0.5, float("nan"))),
        (float("inf"), (float("inf"),))])
    def test_non_finite_times(self, t_final, snapshots):
        with pytest.raises(DomainError, match="finite"):
            SolverConfig(t_final=t_final, snapshot_times=snapshots)

    def test_zero_horizon(self):
        assert SolverConfig(t_final=0.0).emission_times() == [0.0]

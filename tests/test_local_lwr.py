from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import fixed_quad
from scipy.special import roots_legendre

from nltraffic import (DensityField, DomainError, FluxEntropyModel, Grid,
                       Riemann, SolverConfig, VelocityModel, entropy_pair,
                       godunov_flux, godunov_state, make_initial, solve_local,
                       total_variation)
from nltraffic.core import ModelEvaluationError, TimeStepCollapse
import nltraffic.local_lwr as local_lwr
from nltraffic.local_lwr import (_flux_shape, _gauss_legendre_32,
                                 _interface_flux)

from conftest import cubic_model, non_concave_model, quadratic_model

CONCAVE_LAWS = {"affine": VelocityModel.affine(1.0, 1.0),
                "quadratic": quadratic_model(),
                "cubic": cubic_model()}

unit = st.floats(0.0, 1.0)
# fans (L > R) with the crest inside, above and below [R, L], shocks, and
# L = R, on top of whatever pairs hypothesis draws
EDGE_PAIRS = [(0.0, 0.0), (1.0, 1.0), (0.4, 0.4), (0.9, 0.1), (1.0, 0.0),
              (0.95, 0.8), (0.3, 0.1), (0.1, 0.9), (0.0, 1.0)]

# Largest gap between the vectorized flux and scalar godunov_flux, in units
# of np.spacing(|f|).  Measured: 0 on affine laws (same arithmetic), at most
# 1 on the quadratic and cubic laws, all at fans across the crest, where the
# bounded optimiser and the bisected crest stop ~1e-12 apart and f is flat;
# at most 2 on non_concave_model() and 3 on the two-inflection law, at pairs
# within ~1e-6 of an inflection or extremum.
FLUX_ULP_TOL = 4.0


def _critical_density(fe):
    """The crest of a concave law: the one state the flux's max reads."""
    _, (low, (crest,)) = _flux_shape(fe)
    assert low == (0.0, fe.model.rho_jam)
    return crest


def _pair_flux(fe, left, right, crest=None):
    """The solver's cell-wise flux on separate (left, right) pairs: fed the
    cells [L1, R1, L2, R2, ...], its every second interface is a pair's.
    A given ``crest`` must be the one the law's set-up found."""
    _, states = _flux_shape(fe)
    assert crest is None or states[1] == (crest,)
    cells = np.column_stack([left, right]).ravel()
    return _interface_flux(fe, cells, states)[::2]


def _affine_formula(fe, left, right):
    # the affine-only vectorized flux that predates the concave one
    crit = fe.model.a / (2.0 * fe.model.b)
    shock = np.minimum(fe.f(left), fe.f(right))
    fan = fe.f(np.clip(crit, right, left))
    return np.where(left <= right, shock, fan)


def _power_law(a: float, b: float, p: float) -> VelocityModel:
    """v = a - b rho^p on [0, (a/b)^(1/p)]; f = rho v is concave for p >= 1.

    rho v'' tends to 0 at vacuum even where v'' does not (p < 2), so v'' is
    given as 0 there to keep the sampled curvature finite.
    """
    def d2v(r):
        r = np.asarray(r, dtype=float)
        return -b * p * (p - 1.0) * np.power(r, p - 2.0, where=r > 0.0,
                                             out=np.zeros_like(r))

    return VelocityModel.custom(
        v=lambda r: a - b * np.asarray(r, dtype=float) ** p,
        dv=lambda r: -b * p * np.asarray(r, dtype=float) ** (p - 1.0),
        d2v=d2v,
        v_inverse=lambda s: ((a - np.asarray(s, dtype=float)) / b) ** (1 / p),
        rho_jam=(a / b) ** (1.0 / p))


def _two_inflection_law() -> VelocityModel:
    """v = 1 - 2.8 rho + 3 rho^2 - 1.2 rho^3 on [0, 1]: f'' = 0 at 7/12 and
    2/3, f convex between them.  v is evaluated as the product
    (1 - rho) (1.2 (rho - 3/4)^2 + 0.325), whose terms do not cancel; the
    expanded sum loses ~10 ulps of f near rho = 2/3.  v_inverse is a
    table lookup, enough for a law only the flux reads."""
    def v(r):
        r = np.asarray(r, dtype=float)
        return (1.0 - r) * (1.2 * (r - 0.75) ** 2 + 0.325)

    table = np.linspace(0.0, 1.0, 4097)
    return VelocityModel.custom(
        v=v,
        dv=lambda r: -2.8 + np.asarray(r, dtype=float) * (
            6.0 - 3.6 * np.asarray(r, dtype=float)),
        d2v=lambda r: 6.0 - 7.2 * np.asarray(r, dtype=float),
        v_inverse=lambda s: np.interp(-np.asarray(s, dtype=float),
                                      -v(table), table),
        rho_jam=1.0)


NON_CONCAVE_LAWS = {"non_concave": non_concave_model(),
                    "two_inflection": _two_inflection_law()}


def _count_scalar_calls(monkeypatch) -> list:
    calls = []
    real = local_lwr.godunov_flux

    def counted(a, b, fe):
        calls.append((a, b))
        return real(a, b, fe)

    monkeypatch.setattr(local_lwr, "godunov_flux", counted)
    return calls


class TestFluxEntropyModel:
    def test_entropy_flux_closed_form(self, fe):
        rho = np.linspace(0.0, 1.0, 101)
        expected = rho ** 2 / 2 - 2 * rho ** 3 / 3
        assert np.max(np.abs(fe.psi(rho) - expected)) < 1e-15

    def test_quadrature_psi_matches_closed_form(self, model):
        # same speed law routed through the custom (quadrature) path
        clone = VelocityModel.custom(
            v=model.v, dv=model.dv, d2v=model.d2v,
            v_inverse=model.v_inverse, rho_jam=model.rho_jam)
        fe_affine = FluxEntropyModel(model)
        fe_quad = FluxEntropyModel(clone)
        rho = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(fe_quad.psi(rho) - fe_affine.psi(rho))) < 1e-12

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_vectorised_psi_equals_fixed_quad(self, densities):
        fe = FluxEntropyModel(quadratic_model())
        rho = np.array(densities)
        per_cell = np.array([
            fixed_quad(lambda r: r * fe.df(r), 0.0, float(val), n=32)[0]
            for val in rho])
        assert np.array_equal(fe.psi(rho), per_cell)

    def test_gauss_legendre_table_is_scipy_rule(self):
        nodes, weights = _gauss_legendre_32()
        ref_nodes, ref_weights = roots_legendre(32)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)

    def test_psi_keeps_input_shape(self):
        fe = FluxEntropyModel(quadratic_model())
        scalar = fe.psi(0.3)
        assert type(scalar) is float
        assert scalar == fe.psi(np.array([0.3]))[0]
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert fe.psi(grid).shape == (3, 4)
        assert np.array_equal(fe.psi(grid).ravel(), fe.psi(grid.ravel()))

    def test_psi_calls_law_with_1d_input(self):
        base = quadratic_model()

        def one_d(fn):
            def wrapped(r):
                assert np.ndim(r) <= 1
                return fn(r)
            return wrapped

        law = VelocityModel.custom(
            v=one_d(base.v), dv=one_d(base.dv), d2v=base.d2v,
            v_inverse=base.v_inverse, rho_jam=base.rho_jam)
        rho = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert np.array_equal(FluxEntropyModel(law).psi(rho),
                              FluxEntropyModel(base).psi(rho))

    def test_psi_derivative_identity(self, fe):
        # psi' = rho f' checked by central differences at sampled densities
        rho = np.linspace(0.01, 0.99, 101)
        h = 1e-5
        dpsi = (fe.psi(rho + h) - fe.psi(rho - h)) / (2 * h)
        assert np.max(np.abs(dpsi - rho * fe.df(rho))) < 1e-8

    def test_eta(self, fe):
        assert fe.eta(0.5) == pytest.approx(0.125)


class TestGodunovFlux:
    def test_shock_side(self, fe):
        assert godunov_flux(0.2, 0.8, fe) == pytest.approx(0.16)

    def test_fan_side(self, fe):
        assert godunov_flux(0.8, 0.2, fe) == pytest.approx(0.25)

    def test_consistency(self, fe):
        for c in (0.0, 0.3, 0.5, 0.9, 1.0):
            assert godunov_flux(c, c, fe) == pytest.approx(c * (1 - c))

    def test_domain_errors(self, fe):
        with pytest.raises(DomainError):
            godunov_flux(-0.1, 0.5, fe)
        with pytest.raises(DomainError):
            godunov_flux(0.5, 1.2, fe)

    def test_monotone_on_lattice(self, fe):
        grid_vals = np.linspace(0.0, 1.0, 21)
        flux = np.array([[godunov_flux(a, b, fe) for b in grid_vals]
                         for a in grid_vals])
        assert np.all(np.diff(flux, axis=0) >= -1e-14)   # nondecreasing in left
        assert np.all(np.diff(flux, axis=1) <= 1e-14)    # nonincreasing in right

    def test_vectorized_matches_scalar(self, fe):
        rng = np.random.default_rng(5)
        left = rng.uniform(0.0, 1.0, 200)
        right = rng.uniform(0.0, 1.0, 200)
        fast = _pair_flux(fe, left, right, _critical_density(fe))
        slow = np.array([godunov_flux(a, b, fe) for a, b in zip(left, right)])
        assert np.max(np.abs(fast - slow)) < 1e-15

    def test_quadratic_law_crest_at_inverse_sqrt3(self):
        # v = 1 - rho^2 gives the concave f = rho - rho^3, crest at 1/sqrt(3)
        fe = FluxEntropyModel(quadratic_model())
        crest = 1.0 / np.sqrt(3.0)
        assert godunov_flux(0.9, 0.1, fe) == pytest.approx(crest - crest ** 3,
                                                           abs=1e-10)
        assert godunov_state(0.9, 0.1, fe) == pytest.approx(crest, abs=1e-6)


class TestConcaveFastPath:
    @pytest.mark.parametrize("name", sorted(CONCAVE_LAWS))
    @given(pairs=st.lists(st.one_of(st.tuples(unit, unit),
                                    unit.map(lambda r: (r, r))),
                          min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_godunov_flux(self, name, pairs):
        fe = FluxEntropyModel(CONCAVE_LAWS[name])
        left, right = np.array(pairs + EDGE_PAIRS).T
        fast = _pair_flux(fe, left, right, _critical_density(fe))
        slow = np.array([godunov_flux(a, b, fe) for a, b in zip(left, right)])
        assert np.all(np.abs(fast - slow)
                      <= FLUX_ULP_TOL * np.spacing(np.abs(slow)))

    @given(pairs=st.lists(st.tuples(unit, unit), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_affine_equals_affine_formula(self, pairs):
        fe = FluxEntropyModel(VelocityModel.affine(1.0, 1.0))
        left, right = np.array(pairs + EDGE_PAIRS).T
        assert np.array_equal(
            _pair_flux(fe, left, right, _critical_density(fe)),
            _affine_formula(fe, left, right))

    @pytest.mark.parametrize("name", sorted(CONCAVE_LAWS))
    def test_critical_density_is_the_crest(self, name):
        fe = FluxEntropyModel(CONCAVE_LAWS[name])
        crit = _critical_density(fe)
        assert abs(float(fe.df(crit))) < 1e-12
        assert crit == {"affine": 0.5, "quadratic": pytest.approx(3 ** -0.5),
                        "cubic": pytest.approx(4 ** (-1.0 / 3.0))}[name]

    # measured: at most 1.51 spacings over 20000 random draws
    @given(a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), p=st.floats(1.0, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_bisected_crest_of_power_laws(self, a, b, p):
        # f' = a - b (p + 1) rho^p vanishes at (a / (b (p + 1)))^(1/p)
        fe = FluxEntropyModel(_power_law(a, b, p))
        crit = _critical_density(fe)
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (Decimal(a) / (Decimal(b) * (Decimal(p) + 1))) ** (
                1 / Decimal(p))
            miss = float(abs(Decimal(crit) - exact))
        assert miss <= 4.0 * np.spacing(crit)
        # f' changes sign between crit and one of its neighbouring floats
        below, above = np.nextafter(crit, 0.0), np.nextafter(crit, np.inf)
        df = [float(fe.df(r)) for r in (below, crit, above)]
        assert df[0] > 0.0 >= df[1] or df[1] > 0.0 >= df[2]

    @pytest.mark.parametrize("v0, crest", [(2.0, 1.0), (3.0, 1.0),
                                           (0.0, 0.0), (-1.0, 0.0)])
    def test_monotone_concave_law_crest_at_range_end(self, v0, crest):
        # v = v0 - rho on [0, 1] (no such law is admissible): f' = v0 - 2 rho
        # keeps one sign, so f peaks at an end of the range
        law = VelocityModel.custom(
            v=lambda r: v0 - np.asarray(r, dtype=float),
            dv=lambda r: np.full_like(np.asarray(r, dtype=float), -1.0),
            d2v=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            v_inverse=lambda s: v0 - np.asarray(s, dtype=float),
            rho_jam=1.0)
        fe = FluxEntropyModel(law)
        assert _critical_density(fe) == crest
        left, right = np.array(EDGE_PAIRS).T
        slow = np.array([godunov_flux(a, b, fe) for a, b in zip(left, right)])
        fast = _pair_flux(fe, left, right, crest)
        assert np.all(np.abs(fast - slow)
                      <= FLUX_ULP_TOL * np.spacing(np.abs(slow)))

    @pytest.mark.parametrize("name", sorted(CONCAVE_LAWS))
    def test_solve_local_skips_scalar_path(self, name, monkeypatch):
        calls = _count_scalar_calls(monkeypatch)
        g = Grid(-1.0, 1.0, 64, "constant_extension")
        traj = solve_local(make_initial(g, Riemann(0.8, 0.2, 0.0)),
                           FluxEntropyModel(CONCAVE_LAWS[name]),
                           SolverConfig(t_final=0.1))
        assert traj.stats.steps > 0
        assert calls == []

    @pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
    @pytest.mark.parametrize("name", sorted(CONCAVE_LAWS))
    def test_step_flux_equals_pairwise_flux(self, name, boundary,
                                            monkeypatch):
        # every flux solve_local steps with, read from one f per cell,
        # equals the flux that evaluates f(L) and f(R) per interface; the
        # data cluster at the crest, where a rounding gap would show
        fe = FluxEntropyModel(CONCAVE_LAWS[name])
        crit = _critical_density(fe)
        real = local_lwr._interface_flux
        steps = []

        def checked(fe_, cells, crit_):
            left, right = cells[:-1], cells[1:]
            pairwise = np.where(left <= right,
                                np.minimum(fe.f(left), fe.f(right)),
                                fe.f(np.clip(crit, right, left)))
            flux = real(fe_, cells, crit_)
            assert np.array_equal(flux, pairwise)
            steps.append(cells.size)
            return flux

        monkeypatch.setattr(local_lwr, "_interface_flux", checked)
        rng = np.random.default_rng(3)
        values = rng.uniform(0.05, 0.95, 128)
        values[::2] = np.clip(crit + rng.choice([-1.0, 1.0], 64)
                              * 10.0 ** rng.uniform(-16, -2, 64), 0.0, 1.0)
        g = Grid(-1.0, 1.0, 128, boundary)
        traj = solve_local(DensityField(g, values), fe,
                           SolverConfig(t_final=0.05))
        assert steps == [130] * traj.stats.steps


class TestNonConcaveFlux:
    @pytest.mark.parametrize("name", sorted(NON_CONCAVE_LAWS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_godunov_flux(self, name, data):
        # densities drawn within ~1e-6 of an inflection or crest or trough,
        # where a missed or misplaced candidate would show, or anywhere
        fe = FluxEntropyModel(NON_CONCAVE_LAWS[name])
        _, (low, high) = _flux_shape(fe)
        near = st.tuples(st.sampled_from(low + high),
                         st.floats(-1e-6, 1e-6)).map(
            lambda pd: min(max(pd[0] + pd[1], 0.0), 1.0))
        density = st.one_of(near, unit)
        pairs = data.draw(st.lists(st.tuples(density, density),
                                   min_size=1, max_size=64))
        left, right = np.array(pairs + EDGE_PAIRS).T
        fast = _pair_flux(fe, left, right)
        slow = np.array([godunov_flux(a, b, fe) for a, b in zip(left, right)])
        assert np.all(np.abs(fast - slow)
                      <= FLUX_ULP_TOL * np.spacing(np.abs(slow)))

    def test_candidates_of_two_inflection_law(self):
        # f = rho - 2.8 rho^2 + 3 rho^3 - 1.2 rho^4: concave, convex, then
        # concave; f' < 0 from its crest at ~0.300 to rho_jam, so the convex
        # piece's trough and the last crest are both the inflection 2/3
        _, (low, high) = _flux_shape(FluxEntropyModel(_two_inflection_law()))
        assert low == pytest.approx((0.0, 7 / 12, 2 / 3, 1.0), abs=1e-15)
        assert high == pytest.approx((0.30026760364359506, 7 / 12, 2 / 3),
                                     abs=1e-15)

    # measured: at most 1.39 spacings over 20000 random draws
    @given(a=st.floats(0.5, 2.0), c=st.floats(-0.9, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_bisected_inflection(self, a, c):
        # v = a (1 - rho)^2 + b (1 - rho) with b = c a: f'' = 6 a rho - 4 a
        # - 2 b vanishes once, at 2/3 + c/3
        b = c * a
        law = VelocityModel.custom(
            v=lambda r: (1.0 - np.asarray(r, dtype=float)) * (
                a * (1.0 - np.asarray(r, dtype=float)) + b),
            dv=lambda r: -2.0 * a * (1.0 - np.asarray(r, dtype=float)) - b,
            d2v=lambda r: np.full_like(np.asarray(r, dtype=float), 2.0 * a),
            v_inverse=lambda s: s, rho_jam=1.0)
        fe = FluxEntropyModel(law)
        _, (low, high) = _flux_shape(fe)
        # the one state, range ends aside, where both min and max may lie
        (inflection,) = set(low) & set(high) - {0.0, 1.0}
        with localcontext() as ctx:
            ctx.prec = 50
            exact = Decimal(2) / 3 + Decimal(b) / (3 * Decimal(a))
            miss = float(abs(Decimal(inflection) - exact))
        assert miss <= 4.0 * np.spacing(inflection)
        # f'' (rising here) crosses from < 0 to >= 0 between the inflection
        # and one of its neighbours; the computed f'' can be 0 on a run of
        # floats, where f is linear and any of them splits the pieces
        below = np.nextafter(inflection, 0.0)
        above = np.nextafter(inflection, np.inf)
        d2f = [float(fe.d2f(r)) for r in (below, inflection, above)]
        assert d2f[0] < 0.0 <= d2f[1] or d2f[1] < 0.0 <= d2f[2]

    @pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
    @pytest.mark.parametrize("name", sorted(NON_CONCAVE_LAWS))
    def test_solve_steps_with_candidate_flux(self, name, boundary,
                                             monkeypatch):
        # no scalar godunov_flux call; the step equals the update from the
        # candidate flux of each (L, R) pair alone, which is within
        # FLUX_ULP_TOL of the scalar oracle
        fe = FluxEntropyModel(NON_CONCAVE_LAWS[name])
        g = Grid(-1.0, 1.0, 64, boundary)
        values = np.random.default_rng(11).uniform(0.0, 1.0, 64)
        dt = 0.5 * g.dx / _flux_shape(fe)[0]
        calls = _count_scalar_calls(monkeypatch)
        traj = solve_local(DensityField(g, values), fe,
                           SolverConfig(t_final=dt))
        assert traj.stats.steps == 1
        assert calls == []
        ghosts = ((values[-1], values[0]) if boundary == "periodic"
                  else (values[0], values[-1]))
        padded = np.concatenate([ghosts[:1], values, ghosts[1:]])
        left, right = padded[:-1], padded[1:]
        flux = np.array([_pair_flux(fe, [a], [b])[0]
                         for a, b in zip(left, right)])
        expected = values - (dt / g.dx) * (flux[1:] - flux[:-1])
        assert np.array_equal(traj.final.rho.values, expected)
        monkeypatch.undo()
        slow = np.array([godunov_flux(a, b, fe) for a, b in zip(left, right)])
        assert np.all(np.abs(flux - slow)
                      <= FLUX_ULP_TOL * np.spacing(np.abs(slow)))


class TestSolveLocal:
    def test_constant_forever(self, fe):
        g = Grid(-1.0, 1.0, 64, "periodic")
        ic = DensityField(g, np.full(64, 0.45))
        traj = solve_local(ic, fe, SolverConfig(t_final=0.8))
        assert np.array_equal(traj.final.rho.values, ic.values)

    def test_stationary_shock(self, fe):
        # f(0.2) = f(0.8): zero jump speed, the profile must not drift
        g = Grid(-1.0, 1.0, 256, "constant_extension")
        ic = make_initial(g, Riemann(0.2, 0.8, 0.0))
        traj = solve_local(ic, fe, SolverConfig(t_final=0.5))
        moved = np.abs(traj.final.rho.values - ic.values) > 0.05
        x = g.cell_centers()
        assert np.all(np.abs(x[moved]) < 5 * g.dx)

    def test_rarefaction_profile(self, fe):
        g = Grid(-1.0, 1.0, 1024, "constant_extension")
        ic = make_initial(g, Riemann(0.8, 0.2, 0.0))
        T = 0.5
        traj = solve_local(ic, fe, SolverConfig(t_final=T))
        x = g.cell_centers()
        inside = np.abs(x) < 0.6 * T - 10 * g.dx
        fan = (1.0 - x[inside] / T) / 2.0
        err = np.max(np.abs(traj.final.rho.values[inside] - fan))
        assert err < 30 * g.dx

    def test_tv_diminishing(self, fe):
        g = Grid(-1.0, 1.0, 256, "periodic")
        rng = np.random.default_rng(2)
        ic = DensityField(g, rng.uniform(0.1, 0.9, 256))
        snaps = tuple(np.linspace(0.0, 0.4, 9)[1:-1])
        traj = solve_local(ic, fe, SolverConfig(t_final=0.4,
                                                snapshot_times=snaps))
        tvs = [total_variation(s.rho) for s in traj.snapshots]
        assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))

    def test_max_principle(self, fe):
        g = Grid(-1.0, 1.0, 256, "periodic")
        rng = np.random.default_rng(4)
        ic = DensityField(g, rng.uniform(0.2, 0.7, 256))
        traj = solve_local(ic, fe, SolverConfig(t_final=0.5))
        assert traj.stats.low[0] >= float(np.min(ic.values)) - 1e-12
        assert traj.stats.high[0] <= float(np.max(ic.values)) + 1e-12

    def test_shock_speed_rankine_hugoniot(self, fe):
        # 0.2 -> 0.7 jump: speed (f(0.7) - f(0.2)) / 0.5 = 0.1
        g = Grid(-1.0, 1.0, 2048, "constant_extension")
        ic = make_initial(g, Riemann(0.2, 0.7, -0.25))
        snaps = (0.5,)
        traj = solve_local(ic, fe, SolverConfig(t_final=1.0,
                                                snapshot_times=snaps))
        x = g.cell_centers()

        def crossing(field):
            above = field.values >= 0.45
            i = int(np.argmax(above))
            f0, f1 = field.values[i - 1], field.values[i]
            return x[i - 1] + (0.45 - f0) / (f1 - f0) * g.dx

        x1 = crossing(traj.snapshots[traj.times.index(0.5)].rho)
        x2 = crossing(traj.snapshots[traj.times.index(1.0)].rho)
        speed = (x2 - x1) / 0.5
        assert speed == pytest.approx(0.1, abs=20 * g.dx)

    def test_cell_entropy_inequality(self, fe):
        # one explicit step: entropy decay plus entropy-flux differences
        # must be nonpositive cell by cell summed against the grid
        g = Grid(-1.0, 1.0, 128, "periodic")
        rng = np.random.default_rng(8)
        values = rng.uniform(0.1, 0.9, 128)
        dt = 0.5 * g.dx / _flux_shape(fe)[0]
        padded = np.concatenate([values[-1:], values, values[:1]])
        flux = np.array([godunov_flux(a, b, fe)
                         for a, b in zip(padded[:-1], padded[1:])])
        new_values = values - (dt / g.dx) * (flux[1:] - flux[:-1])
        states = np.array([godunov_state(a, b, fe)
                           for a, b in zip(padded[:-1], padded[1:])])
        num_psi = fe.psi(states)
        decay = (fe.eta(new_values) - fe.eta(values)) * g.dx \
            + dt * (num_psi[1:] - num_psi[:-1])
        assert float(np.sum(decay)) <= 1e-10
        assert float(np.max(decay)) <= 1e-10

    def test_initial_range_checked(self, fe):
        g = Grid(-1.0, 1.0, 16)
        bad = DensityField(g, np.full(16, 1.4))
        with pytest.raises(DomainError):
            solve_local(bad, fe, SolverConfig(t_final=0.1))

    def test_non_finite_wave_speed_raises(self):
        # f' is NaN above rho = 0.5; the CFL bound used to read a NaN speed
        # as no bound and step once with dt = t_final
        law = VelocityModel.custom(
            v=lambda r: np.where(np.asarray(r) > 0.5, np.nan,
                                 1.0 - np.asarray(r)),
            dv=lambda r: np.full_like(np.asarray(r, dtype=float), -1.0),
            d2v=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            v_inverse=lambda s: 1.0 - np.asarray(s), rho_jam=1.0)
        g = Grid(-1.0, 1.0, 32, "periodic")
        ic = DensityField(g, np.random.default_rng(1).uniform(0.1, 0.4, 32))
        with pytest.raises(ModelEvaluationError, match="rho = 0.50390625"):
            solve_local(ic, FluxEntropyModel(law), SolverConfig(t_final=0.1))

    def test_non_finite_curvature_raises(self):
        # f' finite everywhere, v'' NaN above rho = 0.75
        law = VelocityModel.custom(
            v=lambda r: 1.0 - np.asarray(r, dtype=float),
            dv=lambda r: np.full_like(np.asarray(r, dtype=float), -1.0),
            d2v=lambda r: np.where(np.asarray(r) > 0.75, np.nan, 0.0),
            v_inverse=lambda s: 1.0 - np.asarray(s), rho_jam=1.0)
        g = Grid(-1.0, 1.0, 32, "periodic")
        ic = DensityField(g, np.full(32, 0.3))
        with pytest.raises(ModelEvaluationError, match="rho = 0.75390625"):
            solve_local(ic, FluxEntropyModel(law), SolverConfig(t_final=0.1))

    def test_time_step_collapse(self):
        # free-flow speed so large that the stable step stagnates
        racing = FluxEntropyModel(VelocityModel.affine(1e16, 1e16))
        ic = DensityField(Grid(-1.0, 1.0, 16), np.full(16, 0.4))
        with pytest.raises(TimeStepCollapse):
            solve_local(ic, racing, SolverConfig(t_final=0.1))


class TestEntropyPair:
    def test_zero(self, fe):
        g = Grid(0.0, 1.0, 8)
        eta, psi = entropy_pair(DensityField(g, np.zeros(8)), fe)
        assert np.all(eta == 0.0)
        assert np.all(psi == 0.0)

    def test_half(self, fe):
        g = Grid(0.0, 1.0, 8)
        eta, psi = entropy_pair(DensityField(g, np.full(8, 0.5)), fe)
        assert eta[0] == pytest.approx(0.125)
        assert psi[0] == pytest.approx(0.125 - 2 * 0.125 / 3)

    def test_range_checked(self, fe):
        g = Grid(0.0, 1.0, 8)
        with pytest.raises(DomainError):
            entropy_pair(DensityField(g, np.full(8, 1.2)), fe)

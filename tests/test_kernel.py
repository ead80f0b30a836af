import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import lfilter

from nltraffic import (AveragedField, DensityField, DomainError, Grid,
                       KernelScale, Riemann, ShapeError, average,
                       edge_to_center, make_initial, ode_residual)
from nltraffic.kernel import (_quadrature, _recursion, _scan_plan,
                              _scan_weights, _scan_work)

from conftest import random_bv_field


def recursion_lfilter(rho: DensityField, eps: float) -> np.ndarray:
    """The recursion as one sequential IIR filter pass: the former
    evaluation of ``average``, kept as the oracle of the scan."""
    grid = rho.grid
    n = grid.n_cells
    h = grid.dx / eps
    beta = np.exp(-h)
    partial = lfilter([-np.expm1(-h)], [1.0, -beta], rho.values[::-1])[::-1]
    beta_pow = np.exp(-h * np.arange(n, 0, -1.0))  # beta^(N-i)
    if grid.periodic:
        return partial + beta_pow * partial[0] / (-np.expm1(-h * n))
    return partial + rho.values[-1] * beta_pow


def _scan(rho: DensityField, eps: float) -> np.ndarray:
    """The scan for a single member."""
    return _recursion(rho.values[None], (rho.grid.dx / eps,),
                      rho.grid.periodic)[0]


# |scan - lfilter| <= SCAN_TOL * u * (1 + eps/dx) * max rho; both sum terms
# damped by beta per cell, so each carries ~u/(1 - beta) of rounding.
# Measured <= 1.9 on 6000 random cases (N in [4, 4096], eps/dx in
# [1e-3, 1e3], both boundaries, random/jump/zero-run data).
SCAN_TOL = 8.0


def _scan_case_density(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.uniform(0.0, 1.0, n)
    if kind == "jumps":
        levels = rng.uniform(0.0, 1.0, 8)
        return np.repeat(levels, -(-n // 8))[:n]
    # runs of exact zeros between random stretches
    values = rng.uniform(0.0, 1.0, n)
    values[(np.arange(n) // max(1, n // 7)) % 2 == 0] = 0.0
    return values


@given(boundary=st.sampled_from(["periodic", "constant_extension"]),
       n=st.integers(4, 4096),
       log_ratio=st.floats(-3.0, 3.0),
       kind=st.sampled_from(["random", "jumps", "zeros"]),
       seed=st.integers(0, 2**16))
@example(boundary="constant_extension", n=4096, log_ratio=-3.0,
         kind="zeros", seed=0)   # width-1 rows: h = 1000 > cap
@example(boundary="periodic", n=4096, log_ratio=-1.0,
         kind="jumps", seed=1)   # 69 rows of width 60
@example(boundary="periodic", n=601, log_ratio=0.0,
         kind="random", seed=2)  # a 600-wide row and a 1-cell row
@example(boundary="constant_extension", n=4096, log_ratio=3.0,
         kind="random", seed=3)  # one row, wide kernel
@settings(max_examples=60, deadline=None)
def test_scan_matches_lfilter_oracle(boundary, n, log_ratio, kind, seed):
    g = Grid(-1.0, 1.0, n, boundary)
    ratio = 10.0 ** log_ratio
    values = _scan_case_density(kind, n, seed)
    rho = DensityField(g, values)
    eps = ratio * g.dx
    got = _scan(rho, eps)
    want = recursion_lfilter(rho, eps)
    tol = SCAN_TOL * np.finfo(float).eps * (1.0 + ratio) * np.max(values)
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("boundary,cell", [("periodic", 0),
                                           ("constant_extension", -1)])
@pytest.mark.parametrize("h", [50.0, 320.0])
def test_scan_carries_keep_relative_accuracy(boundary, cell, h):
    # a single unit cell: q decays like beta^k away from it, through later
    # rows (width 12 at h = 50, width 1 at h = 320) down to the smallest
    # doubles; every nonzero value must carry full relative accuracy
    n = 16
    g = Grid(-1.0, 1.0, n, boundary)
    values = np.zeros(n)
    values[cell] = 1.0
    rho = DensityField(g, values)
    got = _scan(rho, g.dx / h)
    want = recursion_lfilter(rho, g.dx / h)
    normal = want > 1e-300
    assert np.count_nonzero(normal[:-1] & (want[:-1] < np.exp(-h))) >= 1
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13)
    assert np.all(np.abs(got[~normal]) <= 1e-300)


def test_scan_carries_reach_three_rows_back():
    # at h = 320 a row is one cell and gamma = beta ~ 2.6e-139, so a spike
    # of 1e150 is seen three cells upstream only as ~1e-267, through the
    # gamma^2 term of the carry series, and four cells upstream not at all
    n = 16
    g = Grid(-1.0, 1.0, n, "constant_extension")
    values = np.zeros(n)
    values[8] = 1e150
    rho = DensityField(g, values)
    got = _scan(rho, g.dx / 320.0)
    want = recursion_lfilter(rho, g.dx / 320.0)
    assert 1e-300 < want[5] < 1e-250 and want[4] == 0.0
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("h, rows", [(0.01, 1), (2.0, 3), (50.0, 59),
                                     (300.0, 350)])
def test_negative_zero_tail_keeps_its_sign(h, rows):
    # under constant extension the sequential recursion seeds with the
    # last cell and gives q_i = (1 - beta) rho_i + beta q_{i+1} = -0.0 on
    # a -0.0 tail; every row of the scan must give the same zeros
    n, tail = 700, 100
    values = np.random.default_rng(0).uniform(0.0, 1.0, (1, n))
    values[0, -tail:] = -0.0
    assert _scan_plan(n, (h,))[0].rows == rows
    q = values[0, -1]
    for rho_i in values[0, -tail:][::-1]:
        q = -np.expm1(-h) * rho_i + np.exp(-h) * q
    assert q == 0.0 and np.signbit(q)
    got = _recursion(values, (h,), False)[0, -tail:]
    assert np.all(got == 0.0) and np.all(np.signbit(got))


@pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
@pytest.mark.parametrize("fill", [np.nan, np.finfo(float).max])
def test_scan_ignores_what_the_work_array_held(boundary, fill):
    # a work array comes from np.empty and is reused by every step, so
    # nothing left in it, the rows' padding included, may reach q or
    # raise; three scan groups of 1, 3 and 59 rows
    n, hs = 700, (0.01, 2.0, 50.0)
    periodic = boundary == "periodic"
    values = np.random.default_rng(1).uniform(0.0, 1.0, (len(hs), n))
    want = _recursion(values, hs, periodic, np.zeros_like(_scan_work(n, hs)))
    work = _scan_work(n, hs)
    work.fill(fill)
    got = _recursion(values, hs, periodic, work)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@given(boundary=st.sampled_from(["periodic", "constant_extension"]),
       n=st.integers(4, 2048),
       log_ratios=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
       seed=st.integers(0, 2**16))
@example(boundary="constant_extension", n=2048,
         log_ratios=[1.0, -0.7, 2.0, -0.7], seed=0)  # 1 and 18 rows
# four one-row members sharing one h, so one broadcast weight row
@example(boundary="periodic", n=1024, log_ratios=[0.7] * 4, seed=1)
@settings(max_examples=40, deadline=None)
def test_ensemble_rows_equal_lone_members(boundary, n, log_ratios, seed):
    # members that share a scan width share one cumsum; every row must
    # still round exactly as the member scanned alone
    g = Grid(-1.0, 1.0, n, boundary)
    values = np.random.default_rng(seed).uniform(0.0, 1.0,
                                                 (len(log_ratios), n))
    hs = tuple(10.0 ** -r for r in log_ratios)
    got = _recursion(values, hs, g.periodic)
    for m, h in enumerate(hs):
        assert np.array_equal(got[m], _recursion(values[m:m + 1], (h,),
                                                 g.periodic)[0])


def test_scan_weights_read_only():
    w = _scan_weights(16, 0.5)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 2.0
    assert _scan_weights(16, 0.5) is w
    np.testing.assert_allclose(w, np.exp(0.5 * np.arange(16)), rtol=4e-16)


def test_kernel_scale_positive():
    with pytest.raises(DomainError):
        KernelScale(0.0)
    with pytest.raises(DomainError):
        KernelScale(-0.1)


@pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
@pytest.mark.parametrize("evaluate", [
    lambda rho, eps: average(rho, KernelScale(eps)).values,
    lambda rho, eps: _quadrature(rho, eps, 1e-11)],
    ids=["exact_recursion", "quadrature"])
def test_constant_field_fixed_point(boundary, evaluate):
    g = Grid(-1.0, 1.0, 32, boundary)
    rho = DensityField(g, np.full(32, 0.37))
    assert np.max(np.abs(evaluate(rho, 0.2) - 0.37)) < 1e-12


def test_step_closed_form():
    # rho = 0.2 for x < 0, 0.8 beyond: ahead-looking average decays
    # exponentially on the low side and is flat on the high side
    eps = 0.1
    g = Grid(-1.0, 1.0, 256, "constant_extension")
    rho = make_initial(g, Riemann(0.2, 0.8, 0.0))
    q = average(rho, KernelScale(eps))
    edges = g.cell_edges()[:-1]
    expected = np.where(edges < 0.0,
                        0.2 + 0.6 * np.exp(edges / eps),
                        0.8)
    assert np.max(np.abs(q.values - expected)) < 1e-12


@pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
@pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
def test_recursion_matches_quadrature(boundary, eps):
    g = Grid(-1.0, 1.0, 256, boundary)
    rho = random_bv_field(g, np.random.default_rng(7))
    qa = average(rho, KernelScale(eps))
    qb = _quadrature(rho, eps, 1e-11)
    assert np.max(np.abs(qa.values - qb)) <= 1e-10


def test_unreachable_quadrature_tolerance():
    from nltraffic.core import QuadratureError
    g = Grid(-1.0, 1.0, 64)
    rho = DensityField(g, np.full(64, 0.5))
    with pytest.raises(QuadratureError, match="residual"):
        _quadrature(rho, 0.1, 1e-30)


def test_averaged_field_shape_checked():
    g = Grid(-1.0, 1.0, 8)
    with pytest.raises(ShapeError):
        AveragedField(g, np.zeros(5), KernelScale(0.1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_averaged_field_finite_and_frozen(bad):
    g = Grid(-1.0, 1.0, 8)
    values = np.full(8, 0.5)
    q = AveragedField(g, values, KernelScale(0.1))
    values[0] = 0.7
    assert q.values[0] == 0.5 and not q.values.flags.writeable
    values[3] = bad
    with pytest.raises(DomainError, match="AveragedField: non-finite"):
        AveragedField(g, values, KernelScale(0.1))


@given(alpha=st.floats(0.0, 1.0), seed=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_linearity(alpha, seed):
    g = Grid(-1.0, 1.0, 64, "periodic")
    rng = np.random.default_rng(seed)
    r1 = DensityField(g, rng.uniform(0.0, 1.0, 64))
    r2 = DensityField(g, rng.uniform(0.0, 1.0, 64))
    mix = DensityField(g, alpha * r1.values + (1 - alpha) * r2.values)
    ks = KernelScale(0.15)
    q_mix = average(mix, ks).values
    q_combo = alpha * average(r1, ks).values + (1 - alpha) * average(r2, ks).values
    assert np.max(np.abs(q_mix - q_combo)) < 1e-13


@pytest.mark.parametrize("boundary", ["periodic", "constant_extension"])
def test_monotonicity_and_bounds(boundary):
    g = Grid(-1.0, 1.0, 128, boundary)
    rng = np.random.default_rng(11)
    lo_field = random_bv_field(g, rng, 0.1, 0.5)
    hi_field = DensityField(g, lo_field.values + rng.uniform(0.0, 0.4, 128))
    ks = KernelScale(0.08)
    q_lo = average(lo_field, ks).values
    q_hi = average(hi_field, ks).values
    assert np.all(q_lo <= q_hi + 1e-14)
    for field, q in ((lo_field, q_lo), (hi_field, q_hi)):
        assert np.min(q) >= np.min(field.values) - 1e-13
        assert np.max(q) <= np.max(field.values) + 1e-13


def test_smoothing_vanishes_with_eps():
    g = Grid(-1.0, 1.0, 512, "periodic")
    x = g.cell_centers()
    rho = DensityField(g, 0.5 + 0.2 * np.sin(np.pi * x))
    slope_sup = 0.2 * np.pi
    prev = np.inf
    for eps in (0.2, 0.1, 0.05, 0.025):
        q = average(rho, KernelScale(eps))
        gap = float(np.max(np.abs(q.values - rho.values)))
        # left-edge anchoring adds a dx/2 offset to the eps-proportional lag
        assert gap <= slope_sup * (eps + g.dx) * 1.05
        assert gap < prev
        prev = gap


class TestOdeResidual:
    def test_recursion_is_exact(self):
        g = Grid(-1.0, 1.0, 256, "constant_extension")
        rho = random_bv_field(g, np.random.default_rng(3))
        for eps in (0.01, 0.1, 1.0):
            q = average(rho, KernelScale(eps))
            resid = ode_residual(rho, q)
            scale = max(np.max(np.abs(q.values - rho.values)) / eps, 1e-30)
            assert resid / scale <= 1e-8

    def test_constant_field_zero(self):
        g = Grid(-1.0, 1.0, 16)
        rho = DensityField(g, np.full(16, 0.4))
        q = average(rho, KernelScale(0.3))
        assert ode_residual(rho, q) <= 1e-14

    def test_single_cell_perturbation(self):
        eps, delta = 0.1, 1e-3
        g = Grid(-1.0, 1.0, 64, "constant_extension")
        rho = DensityField(g, np.full(64, 0.5))
        q = average(rho, KernelScale(eps))
        bumped = q.values.copy()
        bumped[30] += delta
        q_pert = AveragedField(g, bumped, KernelScale(eps))
        assert ode_residual(rho, q_pert) >= delta / g.dx - delta / eps

    def test_grid_mismatch(self):
        g1 = Grid(-1.0, 1.0, 16)
        g2 = Grid(-1.0, 1.0, 32)
        rho = DensityField(g1, np.full(16, 0.4))
        q = average(DensityField(g2, np.full(32, 0.4)), KernelScale(0.1))
        with pytest.raises(ShapeError):
            ode_residual(rho, q)


def test_edge_to_center_closed_form():
    eps = 0.1
    g = Grid(-1.0, 1.0, 256, "constant_extension")
    rho = make_initial(g, Riemann(0.2, 0.8, 0.0))
    q = average(rho, KernelScale(eps))
    centers = g.cell_centers()
    expected = np.where(centers < 0.0,
                        0.2 + 0.6 * np.exp(centers / eps),
                        0.8)
    assert np.max(np.abs(edge_to_center(rho, q) - expected)) < 1e-12

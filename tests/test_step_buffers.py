"""The march steps write into buffers made once per solve.

Each buffered step is held, bit for bit, to the allocating formulas it
replaced, which live on here as oracles: the nonlocal upwind step with
its kernel scan, and the Godunov step.  The allocation guards bound what
a whole solve allocates, and what one step or one Picard sweep does, so
per-step temporaries cannot come back.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nltraffic.local_lwr as local_lwr
import nltraffic.nonlocal_fv as nonlocal_fv
from nltraffic import (DensityField, FluxEntropyModel, Grid, KernelScale,
                       SolverConfig, VelocityModel, march_nonlocal,
                       picard_oracle, solve_local)
from nltraffic.kernel import _BoundScan, _scan_plan
from nltraffic.local_lwr import _flux_shape
from nltraffic.trajectory import march

from conftest import non_concave_model, traced_peak
from test_relaxation import LAWS

BOUNDARIES = ["periodic", "constant_extension"]
# a non-concave law reads several states per flux branch
GODUNOV_LAWS = {**LAWS, "non_concave": non_concave_model()}


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.int64)


def _assert_bits(got: np.ndarray, want: np.ndarray):
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# oracles: the allocating step formulas the buffered steps replaced
# ---------------------------------------------------------------------------

def _scan_group_oracle(values, g, periodic):
    m, n = values.shape
    b, width, rows = g.block, g.width, g.rows
    r = np.zeros((m, rows * width))
    r[:, :n] = values[:, ::-1]
    num = np.zeros((m, rows, g.stride))
    num[:, :, :width] = r.reshape(m, rows, width) * g.w
    if not periodic:
        num[:, 0, 0] += values[:, -1] * g.seed_lift[:, 0]
    blocks = num.reshape(m, -1, b)
    sums = np.cumsum((blocks @ g.ones).reshape(m, rows, -1), axis=-1)
    totals = sums[:, :, -1]
    # each block starts from the blocks before it in its row
    num[:, :, b::b] += sums[:, :, :-1]
    if rows > 1 or periodic:
        lift = np.zeros((m, rows))
        ends = g.gamma * totals[:, :-1]
        lift[:, 1:] += ends
        lift[:, 2:] += g.gamma * ends[:, :-1]
        lift[:, 3:] += g.gamma * g.gamma * ends[:, :-2]
        if periodic:
            seed = (totals[:, -1:] + lift[:, -1:]) * g.close
            lift[:, :g.seed_lift.shape[1]] += seed * g.seed_lift
        num[:, :, ::b] += lift[:, :, None]
    prefix = (blocks @ g.tri).reshape(m, rows, g.stride)[:, :, :width]
    q = (prefix / g.w).reshape(m, -1)[:, n - 1::-1]
    # a trailing run of -0.0 cells with a -0.0 seed keeps its sign
    for i in range(m):
        negative_zero = np.signbit(values[i]) & (values[i] == 0.0)
        run = n - len(np.trim_zeros(~negative_zero, "b"))
        if run and (run == n or not periodic):
            q[i, n - run:] = -0.0
    return q


def _scan_oracle(values, hs, periodic):
    m, n = values.shape
    q = np.empty((m, n))
    for g in _scan_plan(n, tuple(hs)):
        q[g.members] = _scan_group_oracle(values[g.members], g, periodic)
    return q


def _nonlocal_speeds(rho, model, hs, grid):
    q = _scan_oracle(rho, hs, grid.periodic)
    edge = q[:, :1] if grid.periodic else rho[:, -1:]
    q_iface = np.concatenate([q, edge], axis=1)
    return model.v(q_iface.reshape(-1)).reshape(q_iface.shape)


def _nonlocal_dt(rho, model, hs, grid, cfl):
    v_iface = _nonlocal_speeds(rho, model, hs, grid)
    return cfl * grid.dx / max(model.v_max, float(np.max(v_iface)))


def _nonlocal_step(rho, dt, model, hs, grid):
    v_iface = _nonlocal_speeds(rho, model, hs, grid)
    flux = np.empty(v_iface.shape)
    np.multiply(rho, v_iface[:, 1:], out=flux[:, 1:])
    flux[:, 0] = grid.ghosts(rho)[0] * v_iface[:, 0]
    update = flux[:, 1:] - flux[:, :-1]
    update *= dt / grid.dx
    return rho - update


def _godunov_flux_oracle(fe, cells, states):
    (low, high), left, right = states, cells[:-1], cells[1:]
    f_cells = fe.model.f(cells)
    f_left, f_right = f_cells[:-1], f_cells[1:]

    def extremum(pick, states, lo, hi, f_lo, f_hi):
        return reduce(pick, [f_lo if s <= 0.0
                             else f_hi if s >= fe.model.rho_jam
                             else fe.model.f(np.clip(s, lo, hi))
                             for s in states])

    return np.where(left <= right,
                    extremum(np.minimum, low, left, right, f_left, f_right),
                    extremum(np.maximum, high, right, left, f_right, f_left))


def _godunov_step(rho, dt, fe, states, grid):
    ghost_left, ghost_right = grid.ghosts(rho)
    padded = np.concatenate([[ghost_left], rho, [ghost_right]])
    flux = _godunov_flux_oracle(fe, padded, states)
    return rho - (dt / grid.dx) * (flux[1:] - flux[:-1])


def _checking_march(check_dt, check_step, dts):
    """``march`` whose every step is held to the oracles: stable_dt() to
    check_dt(state) and the stepped state to check_step(state, dt)."""
    def checked(emit, state, stable_dt, advance, observe):
        def dt_checked() -> float:
            dt = stable_dt()
            want = check_dt(state.copy())
            assert want is None or dt == want
            return dt

        def advance_checked(dt: float):
            want = check_step(state.copy(), dt)
            advance(dt)
            _assert_bits(state, want)
            dts.append(dt)

        return march(emit, state, dt_checked, advance_checked, observe)
    return checked


# ---------------------------------------------------------------------------
# the buffered steps equal the formulas they replace
# ---------------------------------------------------------------------------

@given(law=st.sampled_from(sorted(LAWS)),
       boundary=st.sampled_from(BOUNDARIES),
       n=st.integers(16, 320),
       members=st.lists(st.booleans(), min_size=1, max_size=4),
       long_h=st.floats(2.0, 12.0),
       seed=st.integers(0, 2**16))
@example(law="affine", boundary="periodic", n=320,
         members=[True, False, True], long_h=4.0, seed=0)
@example(law="cubic", boundary="constant_extension", n=240,
         members=[False, True, False, True], long_h=11.0, seed=1)
@settings(max_examples=40, deadline=None)
def test_nonlocal_steps_equal_allocating_step(law, boundary, n, members,
                                              long_h, seed):
    # a True member scans as rows of one width below N (h N > 600), a
    # False one as one row of N cells (h N <= 1.5), so an ensemble mixes
    # one-row and multi-row members of two scan widths; members of one
    # width differ in h, so each group stacks its own weights
    model = LAWS[law]
    g = Grid(-1.0, 1.0, n, boundary)
    rng = np.random.default_rng(seed)
    width = int(600.0 / max(long_h, 601.0 / n))
    eps = [KernelScale(g.dx * (width + rng.uniform(0.0, 0.99)) / 600.0
                       if multi else g.dx * n / rng.uniform(0.5, 1.5))
           for multi in members]
    hs = tuple(g.dx / e.epsilon for e in eps)   # as the march reads them
    assert sorted({group.width for group in _scan_plan(n, hs)}) == sorted(
        {width if multi else n for multi in members})
    initial = [DensityField(g, rng.uniform(0.0, model.rho_jam, n))
               for _ in hs]
    steps = 12
    t_final = steps * 0.5 * g.dx / model.v_max
    config = SolverConfig(t_final=t_final, snapshot_times=(t_final / 2,))
    seen, dts = [], []

    def observe(t, rho, q):
        _assert_bits(q, _scan_oracle(rho, hs, g.periodic))
        seen.append(t)

    checked = _checking_march(
        lambda rho: _nonlocal_dt(rho, model, hs, g, config.cfl),
        lambda rho, dt: _nonlocal_step(rho, dt, model, hs, g), dts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonlocal_fv, "march", checked)
        stats = march_nonlocal(initial, model, eps, config, observe)
    assert stats.steps == len(dts) >= steps
    assert seen == [0.0, t_final / 2, t_final]


@given(law=st.sampled_from(sorted(GODUNOV_LAWS)),
       boundary=st.sampled_from(BOUNDARIES),
       n=st.integers(4, 400),
       at_state_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
@example(law="quadratic", boundary="periodic", n=256, at_state_share=0.5,
         seed=0)
@example(law="non_concave", boundary="constant_extension", n=256,
         at_state_share=0.5, seed=1)
@settings(max_examples=40, deadline=None)
def test_godunov_steps_equal_allocating_step(law, boundary, n,
                                             at_state_share, seed):
    # cells at the law's states (its crests and troughs, vacuum and jam)
    # beside random ones, so both flux branches and every state are read
    fe = FluxEntropyModel(GODUNOV_LAWS[law])
    jam = fe.model.rho_jam
    _, states = _flux_shape(fe)
    g = Grid(-1.0, 1.0, n, boundary)
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, jam, n)
    at_state = rng.uniform(size=n) < at_state_share
    values[at_state] = rng.choice(states[0] + states[1],
                                  int(at_state.sum()))
    # ten steps of the fastest law (wide: max |f'| = 2, dt = dx / 4)
    config = SolverConfig(t_final=10 * g.dx / 4.0,
                          snapshot_times=(g.dx,))
    dts = []
    checked = _checking_march(
        lambda rho: None,
        lambda rho, dt: _godunov_step(rho[0], dt, fe, states, g)[None], dts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_lwr, "march", checked)
        traj = solve_local(DensityField(g, values), fe, config)
    assert traj.stats.steps == len(dts) > 0


# ---------------------------------------------------------------------------
# in-place speed and flux evaluation
# ---------------------------------------------------------------------------

def _assert_in_place(model, rho):
    for into, formula in ((model.v_into, model.v), (model.dv_into, model.dv),
                          (model.f_into, model.f)):
        out = np.full_like(rho, np.nan)
        assert into(rho, out) is out
        _assert_bits(out, formula(rho))


def _speed_samples(rng, rho_jam: float, extra) -> np.ndarray:
    return np.concatenate([rng.uniform(0.0, rho_jam, 200),
                           [0.0, -0.0, rho_jam, *extra]])


@given(a=st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**16))
@example(a=1.0, b=1.0, seed=0)
@example(a=0.1, b=3.0, seed=1)
@settings(max_examples=100, deadline=None)
def test_affine_speed_in_place_equals_v(a, b, seed):
    model = VelocityModel.affine(a, b)
    rho = _speed_samples(np.random.default_rng(seed), model.rho_jam,
                         [a / (2.0 * b)])
    _assert_in_place(model, rho)


def test_speed_in_place_may_alias_rho_flux_may_not():
    model = VelocityModel.affine(1.0, 2.0)
    rho = np.random.default_rng(3).uniform(0.0, model.rho_jam, 64)
    expected = model.v(rho)
    aliased = rho.copy()
    assert model.v_into(aliased, aliased) is aliased
    _assert_bits(aliased, expected)
    for law in (model, LAWS["quadratic"]):
        aliased = rho.copy()
        assert law.dv_into(aliased, aliased) is aliased
        _assert_bits(aliased, law.dv(rho))
    with pytest.raises(AssertionError, match="overlaps"):
        model.f_into(rho, rho)


@pytest.mark.parametrize("name", ["quadratic", "cubic", "non_concave"])
def test_custom_speed_in_place_equals_v(name):
    model = (non_concave_model() if name == "non_concave" else LAWS[name])
    _, (low, high) = _flux_shape(FluxEntropyModel(model))
    rho = _speed_samples(np.random.default_rng(7), model.rho_jam,
                         low + high)
    _assert_in_place(model, rho)


# ---------------------------------------------------------------------------
# allocation guards
# ---------------------------------------------------------------------------

GUARD_N = 65536
GUARD_STEPS = 50
ARRAY = 8 * GUARD_N   # bytes of one N-array of floats
# what one step may allocate: Python scalars, measured 1.2 kB (2.7 kB when
# the kernel scan made its per-row numbers on every step); any N-long
# temporary, even an N-byte mask, is far more
STEP_SLACK = ARRAY // 256
# what one Picard sweep may allocate besides its kernel scan: Python
# scalars and views, measured 2.9-3.2 kB at N = 65536
SWEEP_SLACK = ARRAY // 64


def _guard_grid() -> tuple[Grid, DensityField]:
    g = Grid(0.0, 1.0, GUARD_N, "periodic")
    x = g.cell_centers()
    return g, DensityField(g, 0.5 + 0.3 * np.sin(2.0 * np.pi * x))


def _traced_peaks(module, run) -> tuple[int, int]:
    """traced_peak of run(), the whole solve with its buffers, and the
    largest traced_peak of one step's stable_dt() or advance(dt) in the
    ``march`` that run() calls through ``module``.  One untraced run first
    fills the scan plan's cache, whose weights a solve builds only on its
    first call."""
    run()
    whole = traced_peak(run)
    steps = []

    def traced(fn):
        def call(*args):
            out = []
            steps.append(traced_peak(lambda: out.append(fn(*args))))
            return out[0]
        return call

    def traced_march(emit, state, stable_dt, advance, observe):
        return march(emit, state, traced(stable_dt), traced(advance),
                     observe)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "march", traced_march)
        run()
    return whole, max(steps)


def test_march_nonlocal_allocates_buffers_once(model):
    # 50 steps at dt = dx / 2: the affine law never exceeds v(0) = 1
    g, initial = _guard_grid()
    config = SolverConfig(t_final=GUARD_STEPS * 0.5 * g.dx)
    steps = []

    def run():
        steps.append(march_nonlocal((initial,), model, (KernelScale(0.05),),
                                    config, lambda t, rho, q: None).steps)

    whole, step = _traced_peaks(nonlocal_fv, run)
    assert steps == [GUARD_STEPS] * 3
    # the density, the bound scan's work array and its spare buffer, which
    # holds the update (N floats each, and N/8 block sums in the work array),
    # and the N + 1 interfaces' q, v(q) and flux in one array (measured
    # 4.14 N-arrays, 4.02 before the block sums; 8.0 when the steps
    # allocated their temporaries)
    buffers = 3 * ARRAY + (ARRAY + 8)
    assert whole <= buffers + ARRAY
    assert step <= STEP_SLACK


def test_solve_local_allocates_buffers_once(fe):
    # 50 steps at dt = dx / 2: max |f'| = 1 for v = 1 - rho
    g, initial = _guard_grid()
    config = SolverConfig(t_final=GUARD_STEPS * 0.5 * g.dx)
    trajs = []

    def run():
        trajs.append(solve_local(initial, fe, config))

    whole, step = _traced_peaks(local_lwr, run)
    assert [t.stats.steps for t in trajs] == [GUARD_STEPS] * 3
    # the density and f with their ghosts (N + 2 floats each); the flux,
    # the other branch, the clipped state and its f (N + 1 floats each)
    # and the mask (N + 1 bytes) at the interfaces; the update; and the
    # two snapshots the trajectory keeps (measured 9.14 N-arrays).  When
    # the steps allocated their temporaries, ~6 N each, the whole solve
    # peaked lower, at 7.1, so only the per-step bound sees them.
    buffers = (2 * (ARRAY + 16) + 4 * (ARRAY + 8) + (GUARD_N + 1)
               + ARRAY + 2 * ARRAY)
    assert whole <= buffers + ARRAY
    assert step <= STEP_SLACK


def test_picard_sweep_allocates_nothing(model):
    # every sweep of the oracle, its kernel scan called before the trace
    # and then frozen: the scan runs once per sweep, outside the trace
    # blocks, and its multi-member call buffers numpy operations of its
    # own.  Measured 2.9-3.2 kB per sweep; 526 kB when v'(q) was a fresh
    # block per trace block (one row of N cells here) and the q lerp
    # gathered from the scan's reversed view, which np.take copies
    g, initial = _guard_grid()
    real, peaks = nonlocal_fv._sweep, []

    def traced(*args):
        scan = next(a for a in args if isinstance(a, _BoundScan))
        q = scan()
        frozen = [(lambda: q) if a is scan else a for a in args]
        out = []
        peaks.append(traced_peak(lambda: out.append(real(*frozen))))
        return out[0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nonlocal_fv, "_sweep", traced)
        res = picard_oracle(initial, model, KernelScale(0.2),
                            4 * 0.35 * g.dx)
    assert len(peaks) == res.iterations >= 2
    assert max(peaks) <= SWEEP_SLACK

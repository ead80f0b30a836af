"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured margins (run with -s to see them).

The heavyweight sweeps are shared through module-scoped fixtures; the
whole suite is sized for a few minutes on one core.  Time bounds are on
this process's CPU time (``time.process_time``), so work that other
processes run on the same machine does not count against them.
"""

import dataclasses
import time

import numpy as np
import pytest

from nltraffic import (AveragedField, Bump, BumpTestFunction, DensityField,
                       FluxEntropyModel, Grid, KernelScale, MonotoneRamp,
                       RelaxationFrame, Riemann, Snapshot, SolverConfig,
                       Trajectory, VelocityModel, average,
                       check_subcharacteristic,
                       equilibrium_speed, kernel_deviation, l1_distance,
                       make_initial, march_nonlocal, ode_residual,
                       picard_oracle, shifted_product_check, solve_local,
                       solve_nonlocal, speeds, stability_gap,
                       symmetric_rearrangement, total_variation,
                       transformed_tv)
from nltraffic.diagnostics import (EntropyProjector, hardy_littlewood_gap,
                                   max_permuted_product)
from nltraffic.experiments import (parse_config, relaxation_roundtrip,
                                   run_sweep)
from nltraffic.kernel import _quadrature

from conftest import quadratic_model, random_bv_field

MODEL = VelocityModel.affine(1.0, 1.0)
FE = FluxEntropyModel(MODEL)


def _report(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion:>2} PASS  {detail}")


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

RANDOMIZED_CONFIG = SolverConfig(
    t_final=1.0, cfl=0.5, snapshot_times=tuple(np.linspace(0.0, 1.0, 9)[1:-1]))


@pytest.fixture(scope="module")
def randomized_runs():
    """Ten randomized positive-data runs: v = 1 - rho, N = 1024, T = 1.

    Five seeds times two kernel widths step together as one ensemble; each
    member's trajectory is rebuilt from the snapshots its observer copied
    and its row of the ensemble's record.
    """
    grid = Grid(-1.0, 1.0, 1024, "periodic")
    start = time.process_time()
    members = [(random_bv_field(grid, np.random.default_rng(seed),
                                lo=0.1, hi=0.9), eps)
               for seed in range(5) for eps in (0.05, 0.2)]
    scales = [KernelScale(eps) for _, eps in members]
    snapshots = []

    def record(t, rho, q):
        snapshots.append((t, rho.copy(), q.copy()))

    stats = march_nonlocal([initial for initial, _ in members], MODEL,
                           scales, RANDOMIZED_CONFIG, record)
    runs = []
    for m, ((initial, eps), scale) in enumerate(zip(members, scales)):
        traj = Trajectory(
            snapshots=tuple(Snapshot(t=t, rho=DensityField(grid, rho[m]),
                                     q=AveragedField(grid, q[m], scale))
                            for t, rho, q in snapshots),
            stats=dataclasses.replace(stats, low=stats.low[m:m + 1],
                                      high=stats.high[m:m + 1]))
        runs.append((initial, eps, traj))
    return runs, time.process_time() - start


def test_randomized_runs_member_equals_lone_run(randomized_runs):
    """The ensemble fixture's members are bit for bit their lone runs."""
    runs, _ = randomized_runs
    initial, eps, traj = runs[7]
    lone = solve_nonlocal(initial, MODEL, KernelScale(eps),
                          RANDOMIZED_CONFIG)
    assert len(traj.snapshots) == len(lone.snapshots)
    for snap, lone_snap in zip(traj.snapshots, lone.snapshots):
        assert snap.t == lone_snap.t
        assert np.array_equal(snap.rho.values, lone_snap.rho.values)
        assert np.array_equal(snap.q.values, lone_snap.q.values)
    assert np.array_equal(traj.stats.low, lone.stats.low)
    assert np.array_equal(traj.stats.high, lone.stats.high)
    assert traj.stats.steps == lone.stats.steps


@pytest.fixture(scope="module")
def convergence_sweep():
    """Both Riemann problems, N = 4096, T = 0.5, five kernel widths; the
    ten runs step together as one ensemble."""
    grid = Grid(-2.0, 2.0, 4096, "constant_extension")
    config = SolverConfig(t_final=0.5, cfl=0.5)
    eps_values = (0.2, 0.1, 0.05, 0.025, 0.0125)
    start = time.process_time()
    initials = {name: make_initial(grid, preset) for name, preset in
                (("shock", Riemann(0.2, 0.8, 0.0)),
                 ("rarefaction", Riemann(0.8, 0.2, 0.0)))}
    members = [(name, eps) for name in initials for eps in eps_values]
    final = np.empty((len(members), grid.n_cells))

    def keep_final(t, rho, q):
        if t == config.t_final:
            final[:] = rho

    march_nonlocal([initials[name] for name, _ in members], MODEL,
                   [KernelScale(eps) for _, eps in members], config,
                   keep_final)
    out = {}
    for name, initial in initials.items():
        reference = solve_local(initial, FE, config).final.rho
        out[name] = [l1_distance(DensityField(grid, final[m]), reference)
                     for m, (member, _) in enumerate(members)
                     if member == name]
    return grid, eps_values, out, time.process_time() - start


ENTROPY_EPS = (0.2, 0.1, 0.05, 0.025, 0.0125)
ENTROPY_PHIS = [
    BumpTestFunction(center_x=0.0, center_t=8.0, radius_x=2.0, radius_t=1.0),
    BumpTestFunction(center_x=1.0, center_t=7.5, radius_x=1.5, radius_t=0.8),
    BumpTestFunction(center_x=2.0, center_t=8.3, radius_x=1.2, radius_t=0.8),
]


def _entropy_positive_parts(n_cells: int, eps_values) -> np.ndarray:
    """Entropy production in the wide-fan window of the rarefying problem."""
    grid = Grid(-7.0, 7.0, n_cells, "constant_extension")
    snaps = tuple(np.linspace(0.0, 10.0, 321)[1:-1])
    config = SolverConfig(t_final=10.0, cfl=0.5, snapshot_times=snaps)
    initial = make_initial(grid, Riemann(0.8, 0.2, 0.0))
    # all widths step as one ensemble; at N = 4096 the narrowest kernel
    # (h N ~ 1120) scans as two rows beside the one-row members.  One
    # projector takes every member's snapshot at once and skips the 243 of
    # 321 snapshots, those outside [6.6875, 9.09375], that no bump weighs.
    projector = EntropyProjector(grid, config.emission_times(), FE,
                                 ENTROPY_PHIS)
    march_nonlocal([initial] * len(eps_values), MODEL,
                   [KernelScale(eps) for eps in eps_values], config,
                   lambda t, rho, q: projector.add(rho))
    return np.maximum(np.array(projector.finish()), 0.0)


@pytest.fixture(scope="module")
def entropy_sweep():
    start = time.process_time()
    pos = _entropy_positive_parts(4096, ENTROPY_EPS)
    pos_coarse = _entropy_positive_parts(2048, ENTROPY_EPS[:1])
    return pos, pos_coarse, time.process_time() - start


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_kernel_oracle_equivalence():
    start = time.process_time()
    grid = Grid(-1.0, 1.0, 512, "periodic")
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(50):
        rho = random_bv_field(grid, rng, lo=0.0, hi=1.0)
        for eps in (0.01, 0.1, 1.0):
            exact = average(rho, KernelScale(eps))
            quad = _quadrature(rho, eps, 1e-11)
            worst = max(worst, float(np.max(np.abs(exact.values - quad))))
    elapsed = time.process_time() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    _report(1, f"recursion vs quadrature max diff {worst:.2e} "
               f"(tolerance 1e-10) in {elapsed:.2f}s")


def test_criterion_02_ode_reduction_residual():
    start = time.process_time()
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for boundary in ("periodic", "constant_extension"):
        grid = Grid(-1.0, 1.0, 512, boundary)
        rho = random_bv_field(grid, rng)
        for eps in (0.01, 0.1, 1.0):
            q = average(rho, KernelScale(eps))
            resid = ode_residual(rho, q)
            scale = max(float(np.max(np.abs(q.values - rho.values))) / eps,
                        1e-30)
            worst_rel = max(worst_rel, resid / scale)
    elapsed = time.process_time() - start
    assert worst_rel <= 1e-8
    assert elapsed < 1.0
    _report(2, f"relative residual of q_x = (q - rho)/eps: {worst_rel:.2e} "
               f"in {elapsed:.2f}s")


def test_criterion_03_max_principle(randomized_runs):
    runs, elapsed = randomized_runs
    worst = np.inf
    for initial, eps, traj in runs:
        lo = float(np.min(initial.values))
        hi = float(np.max(initial.values))
        worst = min(worst, traj.stats.low[0] - lo, hi - traj.stats.high[0])
    assert worst >= -1e-12
    assert elapsed < 30.0
    _report(3, f"10 randomized runs stay in range, worst margin {worst:.2e} "
               f"(runs took {elapsed:.1f}s)")


def test_criterion_04_tv_bound_and_monotone_decay(randomized_runs):
    runs, _ = randomized_runs
    worst_ratio = 0.0
    for initial, eps, traj in runs:
        bound = (float(np.max(initial.values)) / float(np.min(initial.values))
                 ) * total_variation(initial)
        tv_final = total_variation(traj.final.rho)
        assert tv_final <= bound * (1 + 1e-8)
        worst_ratio = max(worst_ratio, tv_final / bound)

    grid = Grid(-1.0, 1.0, 1024, "constant_extension")
    initial = make_initial(grid, MonotoneRamp(0.8, 0.2, -0.3, 0.3))
    snaps = tuple(np.linspace(0.0, 1.0, 11)[1:-1])
    traj = solve_nonlocal(initial, MODEL, KernelScale(0.1),
                          SolverConfig(t_final=1.0, snapshot_times=snaps))
    tvs = np.array([total_variation(s.rho) for s in traj.snapshots])
    worst_rise = float(np.max(np.diff(tvs)))
    assert worst_rise <= 1e-10
    _report(4, f"TV respects (rho_max/rho_min) TV(initial), worst use "
               f"{worst_ratio:.3f} of the bound; monotone-data TV rise "
               f"{worst_rise:.2e}")


def test_criterion_05_kernel_deviation(randomized_runs):
    runs, _ = randomized_runs
    worst_excess = -np.inf
    for initial, eps, traj in runs:
        for snap in traj.snapshots:
            dev, bound = kernel_deviation(snap.rho, snap.q)
            if bound > 0:
                worst_excess = max(worst_excess, dev / bound - 1.0)
                assert dev <= bound * (1 + 1e-6)

    grid = Grid(-1.0, 1.0, 4096, "constant_extension")
    step = make_initial(grid, Riemann(0.2, 0.8, 0.0))
    worst_step_err = 0.0
    for eps in (0.025, 0.05, 0.1):
        dev, _ = kernel_deviation(step, average(step, KernelScale(eps)))
        worst_step_err = max(worst_step_err,
                             abs(dev - 0.6 * eps) / (0.6 * eps))
    assert worst_step_err <= 0.02
    _report(5, f"deviation within eps*TV everywhere (worst excess "
               f"{worst_excess:.2e}); step case matches 0.6 eps to "
               f"{100 * worst_step_err:.2f}%")


def test_criterion_06_nonlocal_to_local_convergence(convergence_sweep):
    grid, eps_values, distances, elapsed = convergence_sweep
    floor = 5.0 * grid.dx
    details = []
    for name, dist in distances.items():
        for d_coarse, d_fine in zip(dist, dist[1:]):
            if d_fine > floor:
                assert d_fine < d_coarse
                assert d_fine / d_coarse <= 0.9
        details.append(f"{name}: " + " ".join(f"{d:.2e}" for d in dist))
    assert elapsed < 180.0
    _report(6, f"L1 distance to Godunov reference decreasing with ratio "
               f"<= 0.9 above 5 dx ({'; '.join(details)}) in {elapsed:.0f}s")


@pytest.mark.parametrize("rho_left, rho_right", [(0.8, 0.2), (0.2, 0.8)])
def test_criterion_06_on_quadratic_law(rho_left, rho_right):
    """Criterion 06 through run_sweep on v = 1 - rho^2, N = 128.

    At this N every distance lies below the 5 dx floor (0.156), where the
    criterion asks nothing; the ratio is asserted on every halving
    instead, which implies the criterion's rule.
    """
    text = "\n".join([
        "experiment.kind = sweep", "model.kind = affine",
        "grid.x_min = -2.0", "grid.x_max = 2.0", "grid.n_cells = 128",
        "grid.boundary = constant_extension", "initial.preset = riemann",
        f"initial.rho_left = {rho_left}", f"initial.rho_right = {rho_right}",
        "initial.x0 = 0.0", "sweep.epsilons = 0.2, 0.1, 0.05",
        "solver.t_final = 0.5"]) + "\n"
    # config documents describe affine laws only; custom laws enter
    # through the library API
    config = dataclasses.replace(parse_config(text), model=quadratic_model())
    report = run_sweep(config)
    assert [r.error for r in report.rows] == [None] * 3
    dist = [r.l1_to_reference for r in report.rows]
    floor = 5.0 * config.grid.dx
    for d_coarse, d_fine in zip(dist, dist[1:]):
        assert d_fine / d_coarse <= 0.9
    _report(6, f"quadratic law, L1 distance "
               f"{' '.join(f'{d:.2e}' for d in dist)} (5 dx = {floor:.3f})")


def test_criterion_07_entropy_production_slope(entropy_sweep):
    pos, pos_coarse, elapsed = entropy_sweep
    log_eps = np.log(ENTROPY_EPS)
    slopes = [float(np.polyfit(log_eps,
                               np.log(np.maximum(pos[:, j], 1e-16)), 1)[0])
              for j in range(pos.shape[1])]
    max_slope = float(np.polyfit(log_eps,
                                 np.log(np.maximum(pos.max(axis=1), 1e-16)),
                                 1)[0])
    # dx floor: the same measurement at the largest eps on a grid twice as
    # coarse must agree to 20 percent before the slope is meaningful
    floor_frac = float(np.max(np.abs(pos_coarse[0] - pos[0])
                              / np.maximum(pos[0], 1e-16)))
    assert floor_frac < 0.20
    assert all(s >= 0.8 for s in slopes)
    assert max_slope >= 0.8
    _report(7, f"entropy positive part scales with eps: slopes "
               f"{[round(s, 3) for s in slopes]} (aggregate {max_slope:.3f}),"
               f" dx floor {100 * floor_frac:.1f}% of signal, {elapsed:.0f}s")


def test_criterion_08_subcharacteristic_condition():
    frame = RelaxationFrame(2.0 * MODEL.v_max, KernelScale(0.1), MODEL)
    report = check_subcharacteristic(frame)
    assert report.passed
    assert report.min_margin_lower > 0.0
    assert report.min_margin_upper > 0.0
    assert equilibrium_speed(0.5, frame) == pytest.approx(0.0, abs=1e-12)
    assert speeds(0.5, frame)[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    _report(8, f"lambda1 < lambda* < lambda2 at 1000 densities, margins "
               f"({report.min_margin_lower:.3e}, "
               f"{report.min_margin_upper:.3e}); spot values exact")


def test_criterion_09_relaxation_equivalence():
    start = time.process_time()
    distances = {}
    for n in (512, 1024, 2048):
        grid = Grid(-3.0, 3.0, n, "constant_extension")
        initial = make_initial(grid, Bump(0.3, 0.3, -1.9, 0.4))
        result = relaxation_roundtrip(initial, MODEL, KernelScale(0.1),
                                      K=2.0, delta_tau=0.3)
        distances[n] = result.l1_distance
    elapsed = time.process_time() - start
    ratios = [distances[1024] / distances[512],
              distances[2048] / distances[1024]]
    for ratio in ratios:
        assert 0.4 <= ratio <= 0.6
    assert elapsed < 60.0
    _report(9, f"tilted-system integration matches the physical solver, "
               f"L1 halving ratios {[round(r, 3) for r in ratios]} "
               f"in {elapsed:.1f}s")


def _monitor_violation(n_cells: int, n_snaps: int) -> float:
    frame = RelaxationFrame(4.0, KernelScale(0.05), MODEL)
    grid = Grid(-1.0, 1.0, n_cells, "constant_extension")
    initial = make_initial(grid, MonotoneRamp(0.8, 0.2, -0.4, 0.0))
    snaps = tuple(np.linspace(0.0, 0.5, n_snaps + 1)[1:-1])
    traj = solve_nonlocal(initial, MODEL, frame.eps,
                          SolverConfig(t_final=0.5, snapshot_times=snaps))
    _, series = transformed_tv(traj, frame)
    return max(0.0, float(np.max(np.diff(series)))) / series[0]


def test_criterion_10_tilted_variation_monitor():
    coarse = _monitor_violation(1024, 40)
    fine = _monitor_violation(2048, 80)
    assert fine <= 0.02
    if coarse > 1e-10:
        assert fine <= 0.7 * coarse
    else:
        assert fine <= 1e-10
    _report(10, f"tilted TV series nonincreasing within 2% "
                f"(violations: coarse {coarse:.2e}, fine {fine:.2e}, "
                f"ratio {fine / max(coarse, 1e-300):.2f})")


def test_criterion_11_rearrangement_inequalities():
    rng = np.random.default_rng(99)
    worst_gap = np.inf
    for _ in range(10_000):
        n = int(rng.integers(1, 64))
        g1 = rng.uniform(0.0, 10.0, n)
        g2 = rng.uniform(0.0, 10.0, n)
        worst_gap = min(worst_gap, hardy_littlewood_gap(g1, g2))
    assert worst_gap >= -1e-12

    for _ in range(600):
        n = int(rng.integers(2, 7))
        g1 = rng.uniform(0.0, 10.0, n)
        g2 = rng.uniform(0.0, 10.0, n)
        rearranged = float(np.dot(symmetric_rearrangement(g1),
                                  symmetric_rearrangement(g2)))
        assert rearranged == pytest.approx(max_permuted_product(g1, g2),
                                           abs=1e-9)

    worst_excess = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        h = rng.uniform(0.0, 5.0, n)
        for shift in range(n):
            lhs, rhs = shifted_product_check(h, shift)
            worst_excess = max(worst_excess, lhs - rhs)
    assert worst_excess <= 1e-12
    _report(11, f"rearranged product dominates: worst gap {worst_gap:.2e}, "
                f"exhaustive oracle matched on 600 short pairs, worst "
                f"shifted-product excess {worst_excess:.2e}")


def test_criterion_12_semigroup_stability():
    grid = Grid(-1.0, 1.0, 1024, "periodic")
    x = grid.cell_centers()
    base = DensityField(grid, 0.5 + 0.2 * np.sin(np.pi * x))
    pert = DensityField(grid, base.values + 0.01 * (x < 0.0))
    assert l1_distance(base, pert) == pytest.approx(1e-2, rel=1e-6)
    snaps = tuple(np.linspace(0.0, 1.0, 11)[1:-1])
    config = SolverConfig(t_final=1.0, snapshot_times=snaps)
    eps = KernelScale(0.1)
    sup, _, ratios = stability_gap(solve_nonlocal(base, MODEL, eps, config),
                                   solve_nonlocal(pert, MODEL, eps, config))
    assert ratios[0] == 1.0
    assert sup <= 10.0
    _report(12, f"L1 perturbation growth sup ratio {sup:.3f} <= 10, "
                f"ratio(0) = 1 exactly")


def test_criterion_13_characteristics_oracle():
    grid = Grid(-1.0, 1.0, 1024, "periodic")
    initial = make_initial(grid, Bump(0.4, 0.2, -0.2, 0.3))
    t0 = 0.05
    eps = KernelScale(0.2)
    result = picard_oracle(initial, MODEL, eps, t0, 1e-10)
    traj = solve_nonlocal(initial, MODEL, eps, SolverConfig(t_final=t0))
    distance = l1_distance(result.field, traj.final.rho)
    # constant frozen from the dx-refinement study (distance/dx ~ 0.045
    # at N = 256, 512, 1024); 0.1 leaves a factor-two safety margin
    assert distance <= 0.1 * grid.dx
    assert result.iterations <= 30
    _report(13, f"fixed-point oracle agrees with the solver: L1/dx = "
                f"{distance / grid.dx:.3f} <= 0.1, "
                f"{result.iterations} sweeps at tol 1e-10")

"""Smoke test of the benchmark's tracer, ``benchmarks/spans.py``, against
the package: the names it wraps still resolve, and one tiny traced pass
fills the counts of every layer it reaches.

The tracer is read from its file and executed here, so the test writes
nothing under ``benchmarks/``.
"""

import dataclasses
import types
from pathlib import Path

import pytest

import nltraffic.experiments as experiments
import nltraffic.nonlocal_fv as nonlocal_fv
import nltraffic.relaxation as relaxation
from nltraffic import (Bump, Grid, KernelScale, MonotoneRamp,
                       RelaxationFrame, SolverConfig, VelocityModel,
                       make_initial)

from conftest import quadratic_model

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"

#: wrapped names that no call path of the package goes through any more;
#: a traced run skips them and their layers read 0
KNOWN_BLIND = {"nltraffic.nonlocal_fv.average",
               "nltraffic.experiments.physical_slice",
               "nltraffic.experiments.entropy_residual",
               "nltraffic.experiments.kernel_deviation"}

#: the per-layer metrics that the pass below must make nonzero
REACHED = ("nonlocal_fv.solve.steps", "nonlocal_fv.step_us",
           "nonlocal_fv.picard.self_s", "nonlocal_fv.picard.sweeps",
           "nonlocal_fv.picard.contraction_max", "local_lwr.solve.steps",
           "local_lwr.psi.self_s", "local_lwr.psi.cells",
           "relaxation.solve.steps", "relaxation.newton_iter_max",
           "relaxation.transformed_tv.self_s", "experiments.self_s",
           "experiments.parse_config.self_s")

MODEL = VelocityModel.affine(1.0, 1.0)

SWEEP = """
experiment.kind = sweep
model.kind = affine
grid.x_min = -2.0
grid.x_max = 2.0
grid.n_cells = 32
grid.boundary = constant_extension
initial.preset = riemann
initial.rho_left = 0.2
initial.rho_right = 0.8
initial.x0 = 0.0
sweep.epsilons = 0.2, 0.1
solver.t_final = 0.1
"""


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH),
                 "exec"), module.__dict__)
    return module


def test_blind_targets_are_the_known_ones(spans):
    missing = set()
    for _, owner_path, attr, *_ in spans.TARGETS + spans.COUNTERS:
        try:
            getattr(spans._resolve(owner_path), attr)
        except (ImportError, AttributeError):
            missing.add(f"{owner_path}.{attr}")
    assert missing <= KNOWN_BLIND


def _tiny_pass():
    """Each traced entry point once, on small grids; calls go through the
    module attributes that the tracer replaces."""
    bump = make_initial(Grid(-1.0, 1.0, 64, "periodic"),
                        Bump(0.4, 0.2, -0.2, 0.3))
    nonlocal_fv.picard_oracle(bump, MODEL, KernelScale(0.2), 0.02)
    frame = RelaxationFrame(4.0, KernelScale(0.05), MODEL)
    ramp = make_initial(Grid(-1.0, 1.0, 64, "constant_extension"),
                        MonotoneRamp(0.8, 0.2, -0.4, 0.0))
    traj = nonlocal_fv.solve_nonlocal(
        ramp, MODEL, frame.eps,
        SolverConfig(t_final=0.1, snapshot_times=(0.025, 0.05, 0.075)))
    relaxation.transformed_tv(traj, frame)
    experiments.relaxation_roundtrip(
        make_initial(Grid(-3.0, 3.0, 128, "constant_extension"),
                     Bump(0.3, 0.3, -1.9, 0.4)),
        MODEL, KernelScale(0.1), 2.0, 0.3)
    config = experiments.parse_config(SWEEP)
    experiments.run_sweep(dataclasses.replace(config,
                                              model=quadratic_model()))


def test_traced_pass_counts_every_layer(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        _tiny_pass()
    finally:
        tracer.uninstall()
    assert not hasattr(nonlocal_fv.solve_nonlocal, "__wrapped__")
    metrics = spans.layer_metrics(tracer.spans, tracer.counters)
    assert [name for name in REACHED if not metrics[name] > 0] == []

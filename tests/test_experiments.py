import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nltraffic import (DensityField, FluxEntropyModel, Grid, KernelScale,
                       Riemann, SolverConfig, VelocityModel, make_initial,
                       solve_local, solve_nonlocal)
from nltraffic.cli import main
from nltraffic.core import NumericsError
from nltraffic.experiments import (ConfigError, SWEEP_CSV_COLUMNS, SweepReport,
                                   SweepRow, domain_coverage, parse_config,
                                   relaxation_roundtrip, run_experiment,
                                   run_sweep, sweep_csv, sweep_json)
import nltraffic.experiments as experiments

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MINIMAL = """
experiment.kind = run
model.kind = affine
model.a = 1.0
model.b = 1.0
grid.x_min = -1.0
grid.x_max = 1.0
grid.n_cells = 64
grid.boundary = periodic
initial.preset = riemann
initial.rho_left = 0.2
initial.rho_right = 0.8
initial.x0 = 0.0
kernel.epsilon = 0.1
solver.t_final = 0.1
"""

SWEEP = """
experiment.kind = sweep
model.kind = affine
model.a = 1.0
model.b = 1.0
grid.x_min = -1.0
grid.x_max = 1.0
grid.n_cells = 256
grid.boundary = constant_extension
initial.preset = riemann
initial.rho_left = 0.8
initial.rho_right = 0.2
initial.x0 = 0.0
sweep.epsilons = 0.2, 0.1
solver.t_final = 0.25
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        config = parse_config(MINIMAL)
        assert config.kind == "run"
        assert config.solver.cfl == 0.5
        assert config.relaxation_K == 2.0
        assert config.out_dir == "out"
        assert len(config.config_hash) == 64

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="solver.theta"):
            parse_config(MINIMAL + "solver.theta = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "kernel.epsilon = 0.2\n")

    def test_missing_required(self):
        broken = MINIMAL.replace("solver.t_final = 0.1", "")
        with pytest.raises(ConfigError, match="solver.t_final"):
            parse_config(broken)

    def test_epsilons_must_decrease(self):
        bad = SWEEP.replace("sweep.epsilons = 0.2, 0.1",
                            "sweep.epsilons = 0.1, 0.2")
        with pytest.raises(ConfigError, match="decreasing"):
            parse_config(bad)

    def test_sweep_needs_positive_horizon(self):
        bad = SWEEP.replace("solver.t_final = 0.25", "solver.t_final = 0")
        with pytest.raises(ConfigError, match="solver.t_final"):
            parse_config(bad)
        # a zero-horizon run is fine: it records the initial state
        parse_config(MINIMAL.replace("solver.t_final = 0.1",
                                     "solver.t_final = 0"))

    def test_relaxation_k_needs_headroom(self):
        bad = MINIMAL.replace("experiment.kind = run",
                              "experiment.kind = compare")
        bad += "compare.with_relaxation = true\nrelaxation.K = 0.5\n"
        with pytest.raises(ConfigError, match="v\\(0\\)"):
            parse_config(bad)

    def test_initial_range_checked(self):
        bad = MINIMAL.replace("initial.rho_right = 0.8",
                              "initial.rho_right = 1.5")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_bad_boolean(self):
        bad = MINIMAL + "compare.with_relaxation = maybe\n"
        with pytest.raises(ConfigError, match="boolean"):
            parse_config(bad)

    def test_comments_and_blanks_ignored(self):
        config = parse_config("# leading comment\n\n" + MINIMAL)
        assert config.kind == "run"

    @pytest.mark.parametrize("preset, given, first_missing", [
        ("riemann", "", "initial.rho_left"),
        ("bump", "initial.base = 0.3\n", "initial.amplitude"),
        ("sine", "initial.mean = 0.5\ninitial.amplitude = 0.1\n",
         "initial.wavelength"),
        ("monotone_ramp", "initial.rho_left = 0.2\ninitial.rho_right = 0.8"
                          "\ninitial.x0 = -0.5\n", "initial.x1")])
    def test_preset_first_missing_key(self, preset, given, first_missing):
        text = "".join(line + "\n" for line in MINIMAL.splitlines()
                       if not line.startswith("initial."))
        text += f"initial.preset = {preset}\n" + given
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == f"missing required key {first_missing!r}"


class TestEmitReport:
    """The sweep report writers, ``sweep_csv`` and ``sweep_json``."""

    def test_empty_sweep_header_only(self):
        report = SweepReport.from_rows([])
        text = sweep_csv(report)
        assert text == ",".join(SWEEP_CSV_COLUMNS) + "\n"

    def test_sweep_csv_bytes_equal_per_row_writer(self):
        # the per-row writer that the column writer replaced (test oracle)
        def per_row(report):
            lines = [",".join(SWEEP_CSV_COLUMNS)] + [
                ",".join(repr(float(getattr(row, name)))
                         for name in SWEEP_CSV_COLUMNS)
                for row in report.rows]
            return "\n".join(lines) + "\n"

        nan = float("nan")
        rows = [SweepRow(0.2, 0.1, 1.0 / 3.0, 0.4, -0.0, 1e-300, 0.0, 0.8),
                SweepRow(0.1, nan, nan, nan, nan, nan, nan, 0.9,
                         error="BlowupError: synthetic")]
        for report in (SweepReport.from_rows([]),
                       SweepReport.from_rows(rows)):
            assert (sweep_csv(report).encode()
                    == per_row(report).encode())

    def test_single_row_layout(self):
        row = SweepRow(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        text = sweep_csv(SweepReport.from_rows([row]))
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].split(",") == list(SWEEP_CSV_COLUMNS)
        assert lines[1].split(",")[0] == "0.1"

    def test_json_round_trip(self):
        row = SweepRow(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        report = SweepReport.from_rows([row])
        data = json.loads(sweep_json(report, parse_config(SWEEP)))
        assert data["rows"][0]["l1_to_reference"] == 0.2

    def test_json_rows_equal_sweep_json_rows(self):
        good = SweepRow(0.2, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                        entropy_pos_per_phi=(0.7, 0.0, 0.25))
        nan = float("nan")
        failed = SweepRow(0.1, nan, nan, nan, nan, nan, nan, 0.9,
                          error="BlowupError: synthetic")
        report = SweepReport.from_rows([good, failed])
        written = json.loads(sweep_json(report, parse_config(SWEEP)))
        assert [set(row) for row in written["rows"]] == [
            set(SweepRow.__dataclass_fields__)] * 2
        assert written["rows"][0]["entropy_pos_per_phi"] == [0.7, 0.0, 0.25]
        assert written["rows"][0]["error"] is None
        assert written["rows"][1]["error"] == "BlowupError: synthetic"
        assert written["rows"][1]["runtime_seconds"] == 0.9
        assert all(math.isnan(written["rows"][1][name])
                   for name in SWEEP_CSV_COLUMNS[1:-1])
        # one good row: no slope can be fitted
        assert all(math.isnan(v) for v in written["slopes"].values())


def _strip_runtime(csv_text: str) -> str:
    lines = []
    for line in csv_text.strip().split("\n"):
        cols = line.split(",")
        lines.append(",".join(cols[:-1]))
    return "\n".join(lines)


class TestSweep:
    def test_rows_ordered_and_deterministic(self):
        config = parse_config(SWEEP)
        a = run_sweep(config)
        b = run_sweep(config)
        assert [r.epsilon for r in a.rows] == [0.2, 0.1]
        assert _strip_runtime(sweep_csv(a)) == _strip_runtime(sweep_csv(b))

    def test_failed_row_recorded_not_fatal(self, monkeypatch):
        config = parse_config(SWEEP)
        real = experiments.march_nonlocal

        def flaky(initial, model, eps, cfg, observe):
            if any(e.epsilon == 0.1 for e in eps):
                raise NumericsError("synthetic failure")
            return real(initial, model, eps, cfg, observe)

        monkeypatch.setattr(experiments, "march_nonlocal", flaky)
        report = run_sweep(config)
        assert len(report.rows) == 2
        good, bad = report.rows
        assert good.error is None
        assert "synthetic failure" in bad.error
        assert np.isnan(bad.l1_to_reference)

    def test_requires_positive_data(self):
        config = parse_config(SWEEP.replace("initial.rho_right = 0.2",
                                            "initial.rho_right = 0.0"))
        with pytest.raises(ConfigError, match="positive"):
            run_sweep(config)


class TestDomainCoverage:
    def test_periodic_trivially_ok(self):
        g = Grid(-1.0, 1.0, 32, "periodic")
        f = DensityField(g, np.full(32, 0.5))
        assert domain_coverage(f, 0.1, 1.0, 1.0)["ok"]

    def test_margin_sign(self):
        g = Grid(-1.0, 1.0, 64, "constant_extension")
        values = np.full(64, 0.5)
        values[:8] = 0.7   # activity confined near the left edge
        f = DensityField(g, values)
        tight = domain_coverage(f, 0.02, 2.0, 1.0)
        roomy = domain_coverage(f, 0.001, 0.5, 1.0)
        assert not tight["ok"]
        assert roomy["ok"]


class TestRelaxationRoundtrip:
    def test_small_distance_on_smooth_bump(self):
        from nltraffic import Bump, make_initial
        model = VelocityModel.affine(1.0, 1.0)
        g = Grid(-3.0, 3.0, 512, "constant_extension")
        ic = make_initial(g, Bump(0.3, 0.3, -1.9, 0.4))
        result = relaxation_roundtrip(ic, model, KernelScale(0.1), 2.0, 0.3)
        assert result.l1_distance < 2e-3
        assert result.rho_relaxation.shape == (512,)
        assert result.newton_iterations_max >= 1
        assert result.midpoint_steps == 0


COMPARE = """
experiment.kind = compare
model.kind = affine
model.a = 1.0
model.b = 1.0
grid.x_min = -3.0
grid.x_max = 3.0
grid.n_cells = 256
grid.boundary = constant_extension
initial.preset = bump
initial.base = 0.3
initial.amplitude = 0.3
initial.center = -1.9
initial.width = 0.4
kernel.epsilon = 0.1
relaxation.K = 2.0
compare.with_relaxation = true
solver.t_final = 0.3
"""

CHECK = """
experiment.kind = check
model.kind = affine
model.a = 1.0
model.b = 1.0
grid.x_min = -1.0
grid.x_max = 1.0
grid.n_cells = 64
initial.preset = riemann
initial.rho_left = 0.2
initial.rho_right = 0.8
initial.x0 = 0.0
relaxation.K = 4.0
solver.t_final = 0.0
"""


def trajectory_csv_loop(traj, path):
    """The per-value ``t,x,rho,q`` writer the joined one replaced (test
    oracle)."""
    with open(path, "w") as fh:
        fh.write("t,x,rho,q\n")
        for snap in traj.snapshots:
            x = snap.rho.grid.cell_centers()
            q = snap.q.values if snap.q is not None else np.full(x.size,
                                                                 np.nan)
            t_repr = repr(float(snap.t))
            fh.write("".join(
                f"{t_repr},{float(xi)!r},{float(ri)!r},{float(qi)!r}\n"
                for xi, ri, qi in zip(x, snap.rho.values, q)))


def columns_csv_loop(columns) -> str:
    """The per-value ``fields.csv`` writer the joined one replaced (test
    oracle)."""
    n = len(next(iter(columns.values())))
    body = "\n".join(
        ",".join(repr(float(col[i])) for col in columns.values())
        for i in range(n))
    return ",".join(columns) + "\n" + body + "\n"


class TestCsvWriters:
    """The joined writers against the per-value ones, byte for byte."""

    @pytest.mark.parametrize("solver", ["nonlocal", "local"])
    def test_trajectory_csv(self, solver, tmp_path):
        model = VelocityModel.affine(1.0, 1.0)
        initial = make_initial(Grid(-1.0, 1.0, 96, "constant_extension"),
                               Riemann(0.2, 0.8, 0.1))
        config = SolverConfig(t_final=0.1, snapshot_times=(0.03, 0.07))
        if solver == "nonlocal":
            traj = solve_nonlocal(initial, model, KernelScale(0.05), config)
        else:   # local snapshots carry no q: a column of nan
            traj = solve_local(initial, FluxEntropyModel(model), config)
        experiments._write_trajectory_csv(traj, tmp_path / "joined.csv")
        trajectory_csv_loop(traj, tmp_path / "loop.csv")
        joined = (tmp_path / "joined.csv").read_bytes()
        assert joined == (tmp_path / "loop.csv").read_bytes()
        assert joined.count(b"\n") == 1 + 4 * 96
        if solver == "local":
            assert joined.endswith(b",nan\n")

    def test_columns_csv(self):
        rng = np.random.default_rng(7)
        odd = np.array([0.0, -0.0, 1e-300, -2.5e17, 1.0 / 3.0, np.nan,
                        np.inf, 5e-324])
        columns = {"x": np.linspace(-3.0, 3.0, odd.size),
                   "a": odd, "b": rng.standard_normal(odd.size)}
        assert ("".join(experiments._columns_csv(columns))
                == columns_csv_loop(columns))

    @pytest.mark.parametrize("block_rows", [1, 5, 96, 97])
    def test_blocks_split_between_rows(self, block_rows, tmp_path,
                                       monkeypatch):
        monkeypatch.setattr(experiments, "CSV_BLOCK_ROWS", block_rows)
        model = VelocityModel.affine(1.0, 1.0)
        initial = make_initial(Grid(-1.0, 1.0, 96, "constant_extension"),
                               Riemann(0.2, 0.8, 0.1))
        traj = solve_nonlocal(initial, model, KernelScale(0.05),
                              SolverConfig(t_final=0.1,
                                           snapshot_times=(0.05,)))
        experiments._write_trajectory_csv(traj, tmp_path / "joined.csv")
        trajectory_csv_loop(traj, tmp_path / "loop.csv")
        assert ((tmp_path / "joined.csv").read_bytes()
                == (tmp_path / "loop.csv").read_bytes())
        columns = {"x": initial.grid.cell_centers(),
                   "rho": traj.final.rho.values}
        blocks = list(experiments._columns_csv(columns))
        assert len(blocks) == 1 + -(-96 // block_rows)
        assert all(b.endswith("\n") for b in blocks)
        assert "".join(blocks) == columns_csv_loop(columns)


# bit patterns: +-0, +-inf, quiet and signalling NaNs with several payloads
# and signs, the extreme subnormals and the largest finite double
SPECIAL_BITS = (0x0, 0x8000000000000000, 0x7FF0000000000000,
                0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
                0x7FF0000000000001, 0x7FF8000000000ABC, 0xFFFFFFFFFFFFFFFF,
                0x1, 0x8000000000000001, 0x000FFFFFFFFFFFFF,
                0x7FEFFFFFFFFFFFFF)
bit_patterns = st.one_of(st.integers(0, 2 ** 64 - 1),
                         st.sampled_from(SPECIAL_BITS))


@st.composite
def float64_columns(draw):
    """1-d float64 arrays: distinct patterns or a few heavily repeated
    ones, possibly strided or reversed, possibly read-only."""
    if draw(st.booleans()):
        bits = draw(st.lists(bit_patterns, max_size=60))
    else:
        pool = draw(st.lists(bit_patterns, min_size=1, max_size=5))
        bits = draw(st.lists(st.sampled_from(pool), max_size=300))
    column = np.array(bits, dtype=np.uint64).view(np.float64)
    column = column[::draw(st.sampled_from((1, 2, -1, -3)))]
    if draw(st.booleans()):
        column.flags.writeable = False
    return column


class TestFloatReprs:
    """``_float_reprs`` against ``repr`` of every value."""

    @settings(max_examples=300, deadline=None)
    @given(float64_columns())
    @example(np.array(SPECIAL_BITS + SPECIAL_BITS[::-1],
                      dtype=np.uint64).view(np.float64))
    def test_equals_repr_of_every_value(self, column):
        assert (experiments._float_reprs(column)
                == list(map(repr, column.tolist())))

    @pytest.mark.parametrize("column", [
        np.arange(3), np.arange(3, dtype=np.int32), np.ones(3, np.float32),
        np.ones(3, np.complex128), np.ones(3, bool),
        np.array([1.0, 2.0], dtype=object), np.ones(3, ">f8"),
        np.ones((2, 2)), np.float64(3.0), [1.0, 2.0]],
        ids=["int64", "int32", "float32", "complex", "bool", "object",
             "big_endian", "2d", "scalar", "list"])
    def test_rejects_rather_than_coerces(self, column):
        with pytest.raises(TypeError, match="float64"):
            experiments._float_reprs(column)


def columns_csv_tolist(columns) -> str:
    """The ``fields.csv``/``sweep.csv`` writer that repr'd every value of
    ``tolist()`` (test oracle)."""
    return ",".join(columns) + "\n" + "\n".join(map(",".join, zip(
        *(map(repr, col.tolist()) for col in columns.values())))) + "\n"


def trajectory_csv_tolist(traj, path):
    """The ``trajectory.csv`` writer that repr'd every value of
    ``tolist()`` (test oracle)."""
    x = list(map(repr, traj.snapshots[0].rho.grid.cell_centers().tolist()))
    with open(path, "w") as fh:
        fh.write("t,x,rho,q\n")
        for snap in traj.snapshots:
            q = snap.q.values if snap.q is not None else np.full(len(x),
                                                                 np.nan)
            fh.write("\n".join(map(",".join, zip(
                [repr(float(snap.t))] * len(x), x,
                map(repr, snap.rho.values.tolist()),
                map(repr, q.tolist())))) + "\n")


def _shipped_config(name: str, n_cells: int) -> str:
    text = (Path(__file__).resolve().parents[1] / "configs"
            / f"{name}.cfg").read_text()
    return "\n".join(f"grid.n_cells = {n_cells}"
                     if line.startswith("grid.n_cells") else line
                     for line in text.splitlines()) + "\n"


def _with_value(text: str, key: str, value: str) -> str:
    """The config text with the line that sets key setting value."""
    return "".join(f"{key} = {value}\n"
                   if line.split("=")[0].strip() == key else line + "\n"
                   for line in text.splitlines())


def _record_calls(monkeypatch, name: str) -> list:
    """Wrap experiments.<name> so each call's arguments are kept."""
    calls = []
    real = getattr(experiments, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiments, name, recorded)
    return calls


class TestCsvWritersOnSolves:
    """Each CSV of the shipped configs (at a smaller N) against the writer
    that repr'd every value, on the very objects the writer was given."""

    def test_run_trajectory_csv(self, tmp_path, monkeypatch):
        calls = _record_calls(monkeypatch, "_write_trajectory_csv")
        run_experiment(parse_config(_shipped_config("run_shock", 128)),
                       out_dir=tmp_path / "run")
        (traj, path), = calls
        trajectory_csv_tolist(traj, tmp_path / "oracle.csv")
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        # the Riemann plateaus repeat values: the bytes above were built
        # from fewer reprs than values
        rho = traj.snapshots[0].rho.values
        assert np.unique(rho.view(np.int64)).size < rho.size / 2

    def test_compare_fields_csv_with_relaxation(self, tmp_path, monkeypatch):
        calls = _record_calls(monkeypatch, "_columns_csv")
        run_experiment(parse_config(_shipped_config("compare_bump", 128)),
                       out_dir=tmp_path)
        (columns,), = calls
        assert list(columns) == ["x", "rho_nonlocal", "rho_local",
                                 "rho_relaxation", "rho_nonlocal_slice"]
        assert ((tmp_path / "fields.csv").read_bytes()
                == columns_csv_tolist(columns).encode())

    def test_sweep_csv(self):
        report = run_sweep(parse_config(_shipped_config("sweep_rarefaction",
                                                        128)))
        columns = {name: np.array([getattr(row, name) for row in report.rows],
                                  dtype=float)
                   for name in SWEEP_CSV_COLUMNS}
        assert sweep_csv(report).encode() == columns_csv_tolist(
            columns).encode()


class TestRunExperiment:
    def test_compare_with_relaxation(self, tmp_path):
        run_experiment(parse_config(COMPARE), out_dir=tmp_path)
        header = (tmp_path / "fields.csv").read_text().split("\n")[0]
        assert header == ("x,rho_nonlocal,rho_local,rho_relaxation,"
                          "rho_nonlocal_slice")
        data = json.loads((tmp_path / "compare.json").read_text())
        assert data["distances"]["l1_relaxation_roundtrip"] < 5e-3
        assert data["relaxation"]["newton_iterations_max"] >= 1
        assert data["relaxation"]["midpoint_steps"] == 0

    def test_check_all_verdicts_pass(self, tmp_path):
        summary = run_experiment(parse_config(CHECK), out_dir=tmp_path)
        assert summary["passed"]
        data = json.loads((tmp_path / "check.json").read_text())
        assert data["model"]["passed"]
        assert data["subcharacteristic"]["passed"]
        assert data["bv_conditions"]["passed"]
        assert data["bv_conditions"]["min_K_affine"] == 2.0
        # f'' = -2 b for v = a - b rho; reported, not part of "passed"
        assert data["model"]["flux_curvature_sup"] == -2.0

    def test_run_writes_files(self, tmp_path):
        config = parse_config(MINIMAL)
        summary = run_experiment(config, out_dir=tmp_path)
        assert (tmp_path / "trajectory.csv").exists()
        data = json.loads((tmp_path / "run.json").read_text())
        assert abs(data["diagnostics"]["metrics"]["mass_drift"]) < 1e-12
        assert summary["config_hash"] == config.config_hash

    def test_sweep_csv_starts_with_contract(self, tmp_path):
        config = parse_config(SWEEP)
        run_experiment(config, out_dir=tmp_path)
        header = (tmp_path / "sweep.csv").read_text().split("\n")[0]
        assert header == ",".join(SWEEP_CSV_COLUMNS)

    def test_byte_identical_reruns(self, tmp_path):
        config = parse_config(SWEEP)
        run_experiment(config, out_dir=tmp_path / "a")
        run_experiment(config, out_dir=tmp_path / "b")
        csv_a = (tmp_path / "a" / "sweep.csv").read_text()
        csv_b = (tmp_path / "b" / "sweep.csv").read_text()
        assert _strip_runtime(csv_a) == _strip_runtime(csv_b)


class TestSweepSummary:
    def test_failed_rows_counted(self, tmp_path, capsys, monkeypatch):
        nan = float("nan")
        rows = [SweepRow(0.2, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
                SweepRow(0.1, nan, nan, nan, nan, nan, nan, 0.9,
                         error="BlowupError: synthetic")]
        monkeypatch.setattr(experiments, "run_sweep",
                            lambda config: SweepReport.from_rows(rows))
        summary = run_experiment(parse_config(SWEEP), out_dir=tmp_path / "a")
        assert (summary["rows"], summary["failed_rows"]) == (2, 1)
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP)
        # a failed row is reported, not an exit code
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "b")]) == 0
        assert json.loads(capsys.readouterr().out)["failed_rows"] == 1


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_run_exit_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL)
        code = main(["run", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config_hash"]

    def test_affine_run_imports_no_scipy_submodules(self, tmp_path):
        # importing the CLI loads no scipy at all (run.json reads its
        # version on demand); an affine CLI run and custom laws, concave or
        # not, stay on numpy; only the scalar Godunov oracle loads
        # scipy.optimize, which itself imports scipy.special
        path = self._write(tmp_path, MINIMAL)
        sweep = SWEEP.replace("grid.n_cells = 256", "grid.n_cells = 64")
        script = f"""
import dataclasses, json, sys
import nltraffic.cli
scipy_on_import = "scipy" in sys.modules
import numpy as np
from nltraffic import FluxEntropyModel, SolverConfig, make_initial
from nltraffic import Grid, Riemann, cli, solve_local
from nltraffic.experiments import parse_config, run_sweep
HEAVY = ("scipy.signal", "scipy.optimize", "scipy.special")
loaded = lambda: [m for m in HEAVY if m in sys.modules]
code = cli.main(["run", "--config", {path!r}, "--out", {str(tmp_path / "o")!r}])
after_run = loaded()
from conftest import non_concave_model, quadratic_model
fe = FluxEntropyModel(quadratic_model())
g = Grid(-1.0, 1.0, 64, "constant_extension")
initial = make_initial(g, Riemann(0.8, 0.2, 0.0))
traj = solve_local(initial, fe, SolverConfig(t_final=0.1))
psi = fe.psi(traj.final.rho.values)
after_local = loaded()
report = run_sweep(dataclasses.replace(parse_config({sweep!r}),
                                       model=quadratic_model()))
after_sweep = loaded()
other = solve_local(initial, FluxEntropyModel(non_concave_model()),
                    SolverConfig(t_final=0.1))
import scipy
with open({str(tmp_path / "o" / "run.json")!r}) as fh:
    scipy_in_run_json = json.load(fh)["versions"]["scipy"]
print(json.dumps({{"code": code, "scipy_on_import": scipy_on_import,
                  "scipy_version_ok": scipy_in_run_json == scipy.__version__,
                  "after_run": after_run,
                  "after_local": after_local, "after_sweep": after_sweep,
                  "after_non_concave": loaded(),
                  "steps": [traj.stats.steps, other.stats.steps],
                  "sweep_errors": [r.error for r in report.rows],
                  "finite": bool(np.all(np.isfinite(psi)))}}))
"""
        package_root = Path(experiments.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(package_root), str(Path(__file__).resolve().parent)]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        assert report["code"] == 0
        assert report["scipy_on_import"] is False
        assert report["scipy_version_ok"] is True
        assert report["after_run"] == []
        assert report["after_local"] == []
        assert report["after_sweep"] == []
        assert report["after_non_concave"] == []
        assert min(report["steps"]) > 0 and report["finite"]
        assert report["sweep_errors"] == [None, None]

    def test_config_file_closed(self, tmp_path, capsys):
        configs = Path(__file__).resolve().parents[1] / "configs"
        path = configs / "check_affine.cfg"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(["check", "--config", str(path),
                         "--out", str(tmp_path / "o")])
        assert code == 0
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def _check_flag_rejected(self, tmp_path, capsys, flag, value):
        # a removed flag is a usage error: exit 2, nothing written
        path = self._write(tmp_path, MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", path, flag, value,
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_jobs_flag_rejected(self, tmp_path, capsys):
        self._check_flag_rejected(tmp_path, capsys, "--jobs", "2")

    def test_seed_flag_rejected(self, tmp_path, capsys):
        self._check_flag_rejected(tmp_path, capsys, "--seed", "1")

    @pytest.mark.parametrize("name, key, value", [
        ("check_affine", "relaxation.K", "nan"),
        ("run_shock", "solver.t_final", "nan"),
        ("run_shock", "solver.t_final", "inf"),
        ("check_affine", "relaxation.K", "inf")])
    def test_non_finite_number_exit_two(self, name, key, value, tmp_path,
                                        capsys):
        text = _with_value(_shipped_config(name, 64), key, value)
        path = self._write(tmp_path, text)
        kind = parse_config(_shipped_config(name, 64)).kind
        assert main([kind, "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config", "type": "ConfigError",
            "message": f"key {key!r}: not a number: {value!r}"}
        assert not (tmp_path / "o").exists()

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_bad_config_exit_two(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL + "bogus.key = 1\n")
        assert main(["run", "--config", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_kind_mismatch_exit_two(self, tmp_path):
        path = self._write(tmp_path, MINIMAL)
        assert main(["sweep", "--config", path]) == 2

    def test_numerical_failure_exit_three(self, tmp_path, capsys,
                                          monkeypatch):
        path = self._write(tmp_path, MINIMAL)
        import nltraffic.cli as cli

        def boom(*args, **kwargs):
            raise NumericsError("synthetic blowup")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert main(["run", "--config", path]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numerical"


def _key_tree(node):
    """The keys of a JSON value, nested as in it, with None at the leaves;
    a list becomes the one tree that all its elements share."""
    if isinstance(node, dict):
        return {key: _key_tree(value) for key, value in node.items()}
    if isinstance(node, list):
        trees = [_key_tree(value) for value in node]
        assert all(tree == trees[0] for tree in trees)
        return trees[:1]
    return None


def _leaves(*keys) -> dict:
    return dict.fromkeys(keys)


METADATA_TREE = {
    "config_hash": None,
    "grid": _leaves("x_min", "x_max", "n_cells", "boundary_mode", "dx"),
    "versions": _leaves("nltraffic", "numpy", "scipy", "python")}
CHECK_TREE = [_leaves("name", "passed", "margin", "detail")]
RUN_METRICS = _leaves("mass_drift", "maxp_margin", "tv_final")

# config -> (subcommand, CSV headers, JSON document key tree)
SHIPPED_REPORTS = {
    "run_shock": ("run", {"trajectory.csv": "t,x,rho,q"}, {
        **METADATA_TREE,
        "diagnostics": {"metrics": RUN_METRICS, "provenance": RUN_METRICS},
        "domain_coverage": _leaves("applicable", "ok", "margin"),
        "step_count": None}),
    "sweep_rarefaction": (
        "sweep", {"sweep.csv": ",".join(SWEEP_CSV_COLUMNS)}, {
            **METADATA_TREE,
            "rows": [{**_leaves(*SWEEP_CSV_COLUMNS, "error"),
                      "entropy_pos_per_phi": [None]}],
            "slopes": _leaves("l1_vs_epsilon", "entropy_pos_vs_epsilon")}),
    "compare_bump": (
        "compare", {"fields.csv": "x,rho_nonlocal,rho_local,"
                                  "rho_relaxation,rho_nonlocal_slice"}, {
            **METADATA_TREE,
            "distances": _leaves("l1_nonlocal_local",
                                 "l1_relaxation_roundtrip"),
            "relaxation": _leaves("newton_iterations_max",
                                  "midpoint_steps")}),
    "check_affine": ("check", {}, {
        **METADATA_TREE,
        "model": {**_leaves("passed", "vjam_residual", "delta_star",
                            "d2v_sup", "inverse_roundtrip_error",
                            "flux_curvature_sup"), "checks": CHECK_TREE},
        "subcharacteristic": {**_leaves("passed", "min_margin_lower",
                                        "min_margin_upper"),
                              "checks": CHECK_TREE},
        "bv_conditions": {**_leaves("passed", "range_margin",
                                    "uniform_margin", "min_K_affine",
                                    "lambda_u_max", "lambda_z_min"),
                          "rho_range": [None], "checks": CHECK_TREE},
        "passed": None}),
}


class TestShippedConfigs:
    """Each shipped config (at a smaller N) through the CLI: the files it
    lists, each CSV header and the JSON document's whole key tree."""

    @pytest.mark.parametrize("name", sorted(SHIPPED_REPORTS))
    def test_reports_layout(self, name, tmp_path, capsys):
        kind, headers, tree = SHIPPED_REPORTS[name]
        path = tmp_path / f"{name}.cfg"
        path.write_text(_shipped_config(name, 128))
        out = tmp_path / "out"
        assert main([kind, "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["files"] == [*headers, f"{kind}.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            summary["files"])
        for csv_name, header in headers.items():
            with open(out / csv_name) as fh:
                assert fh.readline() == header + "\n"
        document = json.loads((out / f"{kind}.json").read_text())
        assert _key_tree(document) == tree

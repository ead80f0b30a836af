import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nltraffic import DensityField, Grid, KernelScale, VelocityModel
from nltraffic.cli import main
from nltraffic.core import NumericsError
from nltraffic.diagnostics import DiagnosticsReport
from nltraffic.experiments import (ConfigError, SWEEP_CSV_COLUMNS, SweepReport,
                                   SweepRow, domain_coverage, emit_report,
                                   parse_config, relaxation_roundtrip,
                                   run_experiment, run_sweep, sweep_csv,
                                   sweep_json)
import nltraffic.experiments as experiments

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


class TestEmitReport:
    def test_empty_sweep_header_only(self):
        report = SweepReport.from_rows([])
        text = emit_report(report, "csv")
        assert text == ",".join(SWEEP_CSV_COLUMNS) + "\n"

    def test_single_row_layout(self):
        row = SweepRow(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        text = emit_report(SweepReport.from_rows([row]), "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].split(",") == list(SWEEP_CSV_COLUMNS)
        assert lines[1].split(",")[0] == "0.1"

    def test_json_round_trip(self):
        row = SweepRow(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        report = SweepReport.from_rows([row])
        data = json.loads(emit_report(report, "json"))
        assert data["rows"][0]["l1_to_reference"] == 0.2

    def test_json_rows_equal_sweep_json_rows(self):
        good = SweepRow(0.2, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                        entropy_pos_per_phi=(0.7, 0.0, 0.25))
        nan = float("nan")
        failed = SweepRow(0.1, nan, nan, nan, nan, nan, nan, 0.9,
                          error="BlowupError: synthetic")
        report = SweepReport.from_rows([good, failed])
        emitted = json.loads(emit_report(report, "json"))
        written = json.loads(sweep_json(report, parse_config(SWEEP)))
        assert emitted["rows"][0]["entropy_pos_per_phi"] == [0.7, 0.0, 0.25]
        # compared as text: nan != nan would fail a dict comparison
        for key in ("rows", "slopes"):
            assert (json.dumps(emitted[key], sort_keys=True)
                    == json.dumps(written[key], sort_keys=True))

    def test_diagnostics_formats(self):
        report = DiagnosticsReport()
        report.add("mass", 1.0, "conservation, exact")
        assert "metric,value,provenance" in emit_report(report, "csv")
        assert json.loads(emit_report(report, "json"))["metrics"]["mass"] == 1.0

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit_report(SweepReport.from_rows([]), "yaml")


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
        assert result.bisection_cells == 0


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


class TestRunExperiment:
    def test_compare_with_relaxation(self, tmp_path):
        run_experiment(parse_config(COMPARE), out_dir=tmp_path)
        header = (tmp_path / "fields.csv").read_text().split("\n")[0]
        assert header == ("x,rho_nonlocal,rho_local,rho_relaxation,"
                          "rho_nonlocal_slice")
        data = json.loads((tmp_path / "compare.json").read_text())
        assert data["distances"]["l1_relaxation_roundtrip"] < 5e-3
        assert data["relaxation"]["newton_iterations_max"] >= 1
        assert data["relaxation"]["bisection_cells"] == 0

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
        # importing the package, an affine CLI run and concave custom laws
        # stay on numpy; only the scalar Godunov oracle of a non-concave law
        # loads scipy.optimize, which itself imports scipy.special
        path = self._write(tmp_path, MINIMAL)
        sweep = SWEEP.replace("grid.n_cells = 256", "grid.n_cells = 64")
        script = f"""
import dataclasses, json, sys
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
print(json.dumps({{"code": code, "after_run": after_run,
                  "after_local": after_local, "after_sweep": after_sweep,
                  "after_non_concave": loaded(),
                  "steps": [traj.step_count, other.step_count],
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
        assert report["after_run"] == []
        assert report["after_local"] == []
        assert report["after_sweep"] == []
        assert report["after_non_concave"] == ["scipy.optimize",
                                               "scipy.special"]
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

    def test_jobs_flag_still_accepted(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL)
        assert main(["run", "--config", path, "--jobs", "2",
                     "--out", str(tmp_path / "o")]) == 0

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

#!/usr/bin/env python3
"""Mutation check: every seeded defect must make its own tests fail.

Run from anywhere (it takes no options):

    python3 tools/mutants.py

Each entry of ``MUTANTS`` names a defect, the file under ``src/nltraffic``
it goes into, the exact text it replaces, the text it puts there, and the
tests that must fail with it.  For each mutant the package source is
copied to a temporary directory, the one edit is made in the copy, and
only that mutant's tests run, from this checkout's ``tests/`` against the
copy (pytest's ``pythonpath`` is pointed at it).  A mutant is

* ``killed`` when its tests fail,
* ``SURVIVED`` when they pass: the tests miss the defect, a finding,
* ``STALE`` when its old text no longer occurs exactly once: the code
  moved on and the entry must be rewritten.

The tests of every mutant first run once on an unmutated copy; a failure
there would make every verdict meaningless, so the tool stops.  Pytest
runs in the temporary directory, so the hypothesis example database of
the mutated runs is thrown away with it.  The exit status is 0 when every
mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/nltraffic"


class Mutant(NamedTuple):
    name: str
    file: str       # under PACKAGE
    old: str        # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the kernel scan
    Mutant("scan: drop the gamma^2 carry term", "kernel.py",
           "        carry[:, 3:] += g.gamma * g.gamma * ends[:, :-2]\n", "",
           ("tests/test_kernel.py::test_scan_carries_reach_three_rows_back",)),
    Mutant("scan: skip re-zeroing the padding", "kernel.py",
           "    padded[:, n:] = 0.0\n", "",
           ("tests/test_kernel.py::test_scan_ignores_what_the_work_array_held",
            )),
    Mutant("scan: seed periodic rows without the closure", "kernel.py",
           "            / g.w_rows[:, n - 1:n] / g.closure\n",
           "            / g.w_rows[:, n - 1:n]\n",
           ("tests/test_kernel.py::test_scan_matches_lfilter_oracle",)),
    Mutant("scan: start the carry at +0.0", "kernel.py",
           "carry = np.full((m, g.rows), -0.0)",
           "carry = np.zeros((m, g.rows))",
           ("tests/test_kernel.py::test_negative_zero_tail_keeps_its_sign",)),
    # the buffered march steps
    Mutant("nonlocal step: reorder the dt/dx update", "nonlocal_fv.py",
           "        np.multiply(update, dt / grid.dx, out=update)\n",
           "        np.multiply(update, dt, out=update)\n"
           "        np.divide(update, grid.dx, out=update)\n",
           ("tests/test_step_buffers.py::"
            "test_nonlocal_steps_equal_allocating_step",)),
    Mutant("Godunov step: np.where back in the step", "local_lwr.py",
           "    np.copyto(flux, other, where=shock)\n",
           "    flux[:] = np.where(shock, other, flux)\n",
           ("tests/test_step_buffers.py::"
            "test_solve_local_allocates_buffers_once",)),
    Mutant("nonlocal step: speeds by model.v", "nonlocal_fv.py",
           "        model.v_into(iface.reshape(-1), iface.reshape(-1))\n",
           "        iface[:] = model.v(iface)\n",
           ("tests/test_step_buffers.py::"
            "test_march_nonlocal_allocates_buffers_once",)),
    Mutant("Godunov step: one scratch buffer for every clipped state",
           "local_lwr.py",
           "f_s = fe.model.f_into(clipped, out if acc is None else f_clipped)",
           "f_s = fe.model.f_into(clipped, f_clipped)",
           ("tests/test_step_buffers.py::"
            "test_godunov_steps_equal_allocating_step",)),
    Mutant("affine v_into: perturb the intercept", "core.py",
           "            out += self.a\n",
           "            out += self.a * (1.0 + 2.0 ** -52)\n",
           ("tests/test_step_buffers.py::test_affine_speed_in_place_equals_v",
            )),
    # the tilted source solve, the slice gatherer and the Picard monitor
    Mutant("source solve: a shut bracket takes the larger |residual|",
           "relaxation.py",
           "np.where(np.abs(ra) < np.abs(rb), a[i], b[i])",
           "np.where(np.abs(ra) > np.abs(rb), a[i], b[i])",
           ("tests/test_relaxation.py::TestSourceSolve::"
            "test_stiff_regime_pinned",)),
    Mutant("source solve: report the bracket, not the band, residuals",
           "relaxation.py",
           "band = tot[j] - np.array([z_hi, z_lo])",
           "band = np.array([a[j], b[j]])",
           ("tests/test_relaxation.py::TestSourceSolve::"
            "test_no_sign_change_reports_band_residuals",)),
    Mutant("slice gatherer: close a run with (1 - w)", "relaxation.py",
           "            wr = self._w[a:b]\n",
           "            wr = 1.0 - self._w[a:b]\n",
           ("tests/test_relaxation.py::TestPhysicalSlice::"
            "test_matches_stacked_snapshots",)),
    Mutant("Picard: divergence on two growths", "nonlocal_fv.py",
           "len(deltas) >= 4 and deltas[-4] < deltas[-3] < deltas[-2] "
           "< delta",
           "len(deltas) >= 3 and deltas[-3] < deltas[-2] < delta",
           ("tests/test_nonlocal_fv.py::TestPicardOracle::"
            "test_divergence_streak_resets_on_decrease",)),
    Mutant("Picard: a growth streak that never resets", "nonlocal_fv.py",
           "len(deltas) >= 4 and deltas[-4] < deltas[-3] < deltas[-2] "
           "< delta",
           "sum(x < y for x, y in zip(deltas, deltas[1:])) >= 3",
           ("tests/test_nonlocal_fv.py::TestPicardOracle::"
            "test_divergence_streak_resets_on_decrease",)),
)


def _pytest(src: Path, tests, workdir: Path) -> subprocess.CompletedProcess:
    """The tests, run in ``workdir`` against the package in ``src``."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
         "-o", f"pythonpath={src}", *(str(ROOT / t) for t in tests)],
        cwd=workdir, capture_output=True, text=True, timeout=1800)


def _summary(done: subprocess.CompletedProcess, workdir: Path) -> str:
    """pytest's count line, and the first failing test if any."""
    lines = done.stdout.strip().splitlines()
    # node ids print relative to the working directory
    failed = [line.replace(f"{os.path.relpath(ROOT, workdir)}/", "")
              for line in lines if line.startswith("FAILED ")]
    last = lines[-1] if lines else done.stderr.strip()[-200:]
    return f"{last}\n         {failed[0][:160]}" if failed else last


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tmp = Path(tmp)
        src = tmp / "src"
        clean = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", src, ignore=clean)
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        base = _pytest(src, tests, tmp)
        if base.returncode != 0:
            print(f"unmutated tests fail: {_summary(base, tmp)}")
            print(base.stdout[-4000:])
            return 2
        print(f"unmutated: {_summary(base, tmp)}")

        verdicts = []
        for mutant in MUTANTS:
            path = src.parent / PACKAGE / mutant.file
            text = (ROOT / PACKAGE / mutant.file).read_text()
            if text.count(mutant.old) != 1:
                verdict, detail = "STALE", "old text not found exactly once"
            else:
                path.write_text(text.replace(mutant.old, mutant.new))
                done = _pytest(src, mutant.tests, tmp)
                path.write_text(text)
                verdict = "killed" if done.returncode != 0 else "SURVIVED"
                detail = _summary(done, tmp)
            verdicts.append(verdict)
            print(f"{verdict:8s} {mutant.name}: {detail}", flush=True)

    killed = verdicts.count("killed")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

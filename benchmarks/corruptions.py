"""Deliberately corrupted outputs, one list per workload.

``run.py --self-check`` runs every workload once at the default seed,
confirms that the clean outputs pass, then feeds each corruption below
through the same gate and requires it to be caught.  A corruption maps
``(state, results)`` to ``(results, undo)``; ``undo`` restores files a
corruption edited on disk, or is None.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np


def _replace(results, name: str, fn):
    return [(n, k, fn(r) if n == name else r) for n, k, r in results]


def _raise(name: str):
    def corrupt(state, results):
        return _replace(results, name,
                        lambda r: RuntimeError("injected failure")), None
    return corrupt


def _sweep_rows(index: int, **changes):
    """Replace fields of one row of the first sweep report."""
    def corrupt(state, results):
        def edit(report):
            rows = list(report.rows)
            row = rows[index]
            values = {k: (v(getattr(row, k)) if callable(v) else v)
                      for k, v in changes.items()}
            rows[index] = dataclasses.replace(row, **values)
            return dataclasses.replace(report, rows=tuple(rows))
        return _replace(results, results[0][0], edit), None
    return corrupt


def _edit_file(relative: str, edit):
    """Rewrite one output file of large_grid; undo restores its bytes."""
    def corrupt(state, results):
        path = state["scratch"] / relative
        original = path.read_bytes()
        path.write_bytes(edit(original))
        return results, lambda: path.write_bytes(original)
    return corrupt


def _scale_run_json(factor: float):
    def edit(data: bytes) -> bytes:
        doc = json.loads(data)
        doc["diagnostics"]["metrics"]["tv_final"] *= factor
        return json.dumps(doc).encode()
    return edit


_SWEEP = [
    ("kdev_margin negative", _sweep_rows(0, kdev_margin=-1e-6)),
    ("maxp_margin below -1e-12", _sweep_rows(1, maxp_margin=-1e-9)),
    ("row carries an error", _sweep_rows(2, error="BlowupError: injected")),
    ("tv_final above its bound",
     _sweep_rows(0, tv_final=lambda v: 10.0 * v + 10.0)),
    ("l1 stops decreasing", _sweep_rows(1, l1_to_reference=lambda v: 2 * v)),
    ("l1 off by 1e-8 relative",
     _sweep_rows(0, l1_to_reference=lambda v: v * (1 + 1e-8))),
    ("entropy off by 1e-8 relative",
     _sweep_rows(0, entropy_pos_part=lambda v: v * (1 + 1e-8))),
]


def _oracle(name: str, fn):
    def corrupt(state, results):
        return _replace(results, name, fn), None
    return corrupt


CORRUPTIONS = {
    "eps_sweep": _SWEEP + [("sweep raised", _raise("rarefaction"))],
    "custom_law": _SWEEP + [("sweep raised",
                             _raise("quadratic.rarefaction"))],
    "oracles": [
        ("roundtrip distance zero", _oracle(
            "roundtrip", lambda r: dataclasses.replace(r, l1_distance=0.0))),
        ("roundtrip off by 1e-8 relative", _oracle(
            "roundtrip", lambda r: dataclasses.replace(
                r, l1_distance=r.l1_distance * (1 + 1e-8)))),
        ("picard not converged", _oracle(
            "picard", lambda r: (dataclasses.replace(r[0], iterations=31),
                                 r[1]))),
        ("picard far from the solver", _oracle(
            "picard", lambda r: (r[0], r[1].with_values(
                np.roll(r[1].values, 50))))),
        ("tilted TV rises 3%", _oracle(
            "tilted_tv", lambda s: np.concatenate([s, [s[-1] + 0.03 * s[0]]]))),
        ("picard raised", _raise("picard")),
    ],
    "large_grid": [
        ("run exits 3", _oracle("run", lambda code: 3)),
        ("compare raised", _raise("compare")),
        ("tv_final above its bound",
         _edit_file("run/run.json", _scale_run_json(100.0))),
        ("tv_final off by 1e-8 relative",
         _edit_file("run/run.json", _scale_run_json(1 + 1e-8))),
        ("trajectory loses its last row",
         _edit_file("run/trajectory.csv",
                    lambda b: b.rstrip(b"\n").rsplit(b"\n", 1)[0] + b"\n")),
    ],
}

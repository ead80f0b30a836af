import tracemalloc

import numpy as np
import pytest

from nltraffic import DensityField, FluxEntropyModel, Grid, VelocityModel


@pytest.fixture
def model():
    return VelocityModel.affine(1.0, 1.0)


@pytest.fixture
def fe(model):
    return FluxEntropyModel(model)


def random_bv_field(grid: Grid, rng: np.random.Generator,
                    lo: float = 0.1, hi: float = 0.9,
                    n_blocks: int = 32) -> DensityField:
    """Piecewise-constant field with random levels: BV with known jumps."""
    levels = rng.uniform(lo, hi, n_blocks)
    edges = np.sort(rng.choice(np.arange(1, grid.n_cells), n_blocks - 1,
                               replace=False))
    values = np.empty(grid.n_cells)
    start = 0
    for level, end in zip(levels, list(edges) + [grid.n_cells]):
        values[start:end] = level
        start = end
    return DensityField(grid, values)


def traced_peak(fn) -> int:
    """Bytes that ``fn()``'s allocations add at their peak, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def quadratic_model() -> VelocityModel:
    """v(rho) = 1 - rho^2 on [0, 1]: admissible except v'(0) = 0."""
    return VelocityModel.custom(
        v=lambda r: 1.0 - np.asarray(r, dtype=float) ** 2,
        dv=lambda r: -2.0 * np.asarray(r, dtype=float),
        d2v=lambda r: np.full_like(np.asarray(r, dtype=float), -2.0),
        v_inverse=lambda s: np.sqrt(np.maximum(1.0 - np.asarray(s, dtype=float),
                                               0.0)),
        rho_jam=1.0)


def cubic_model() -> VelocityModel:
    """v(rho) = 1 - rho^3 on [0, 1]: f = rho - rho^4 is concave."""
    return VelocityModel.custom(
        v=lambda r: 1.0 - np.asarray(r, dtype=float) ** 3,
        dv=lambda r: -3.0 * np.asarray(r, dtype=float) ** 2,
        d2v=lambda r: -6.0 * np.asarray(r, dtype=float),
        v_inverse=lambda s: np.cbrt(1.0 - np.asarray(s, dtype=float)),
        rho_jam=1.0)


def non_concave_model() -> VelocityModel:
    """v(rho) = (1 - rho)^2 on [0, 1]: f'' = 6 rho - 4 > 0 for rho > 2/3."""
    return VelocityModel.custom(
        v=lambda r: (1.0 - np.asarray(r, dtype=float)) ** 2,
        dv=lambda r: -2.0 * (1.0 - np.asarray(r, dtype=float)),
        d2v=lambda r: np.full_like(np.asarray(r, dtype=float), 2.0),
        v_inverse=lambda s: 1.0 - np.sqrt(np.asarray(s, dtype=float)),
        rho_jam=1.0)

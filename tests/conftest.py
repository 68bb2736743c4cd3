import numpy as np
import pytest

from qmhd import TorusGrid
from qmhd.fields import ScalarField, VectorField


@pytest.fixture
def grid1d():
    return TorusGrid((64,))


@pytest.fixture
def grid2d():
    return TorusGrid((32, 32))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def band_limited_scalar(grid, rng, max_mode=4, amplitude=1.0):
    """Random real field with modes confined to |k|_inf <= max_mode."""
    keys = [tuple(i - max_mode for i in idx) for idx in np.ndindex(*([2 * max_mode + 1] * grid.dim))]
    f = ScalarField.from_modes(grid, [(k, rng.normal() + 1j * rng.normal()) for k in keys if any(k)])
    peak = np.max(np.abs(f.values))
    return ScalarField(grid, amplitude * f.values / max(peak, 1e-300))


def band_limited_vector(grid, rng, max_mode=4, amplitude=1.0):
    return VectorField(
        grid, [band_limited_scalar(grid, rng, max_mode, amplitude) for _ in range(3)]
    )

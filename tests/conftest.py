import numpy as np
import pytest

from autophagy_tumor.grid import Grid1D
from autophagy_tumor.solver import FieldState


def make_state(n1, n2, c=None, u=None, dx=0.1, x_min=None, t=0.0):
    """FieldState from plain arrays, converted to float64 here, with densities
    n1 then n2 and n = n1 + n2 formed here; c defaults to 1 and u to 0, and
    the grid is centered on x=0 unless x_min is given."""
    n1, n2 = np.asarray(n1, dtype=float), np.asarray(n2, dtype=float)
    m = n1.size
    if x_min is None:
        x_min = -0.5 * dx * (m - 1)
    grid = Grid1D(x_min=x_min, dx=dx, n_cells=m)
    c = np.ones(m) if c is None else np.asarray(c, dtype=float)
    u = np.zeros(m - 1) if u is None else np.asarray(u, dtype=float)
    return FieldState(grid, np.concatenate((n1, n2)), n1 + n2, c, u, t)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

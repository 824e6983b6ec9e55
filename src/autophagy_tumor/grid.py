"""Uniform 1D grid with a staggered companion, plus the pointwise pressure
law and the slope-limited reconstruction kernels used by the transport step.

Cell-centered ("regular") quantities live at x_i = x_min + i*dx for
i = 0..n_cells-1; face ("staggered") quantities live at the midpoints
x_{i+1/2}, of which there are n_cells - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid1D",
    "GridFunction",
    "REGULAR",
    "STAGGERED",
    "pressure_from_density",
    "density_from_pressure",
    "staggered_density",
    "limited_slope",
    "edge_values",
    "numerical_flux",
]

REGULAR = "regular"
STAGGERED = "staggered"


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    dx: float
    n_cells: int

    def __post_init__(self):
        if not self.dx > 0.0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if self.n_cells < 3:
            raise ValueError(f"need at least 3 cells, got {self.n_cells}")

    @cached_property
    def cell_x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_cells)

    @cached_property
    def face_x(self) -> np.ndarray:
        return self.x_min + self.dx * (np.arange(self.n_cells - 1) + 0.5)


@dataclass
class GridFunction:
    """An array of values tagged with its placement on the grid.

    The tag catches regular/staggered mixups at construction time instead of
    as an off-by-one deep inside the scheme.
    """

    grid: Grid1D
    values: np.ndarray
    placement: str

    def __post_init__(self):
        if self.placement not in (REGULAR, STAGGERED):
            raise ValueError(f"unknown placement {self.placement!r}")
        self.values = np.asarray(self.values, dtype=float)
        expected = self.grid.n_cells if self.placement == REGULAR else self.grid.n_cells - 1
        if self.values.shape != (expected,):
            raise ValueError(
                f"{self.placement} values must have shape ({expected},), got {self.values.shape}"
            )


# ---------------------------------------------------------------------------
# pressure law p = gamma/(gamma-1) * n^(gamma-1)


def pressure_from_density(n, gamma: float):
    if not gamma > 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    n = np.asarray(n, dtype=float) if np.ndim(n) else float(n)
    if np.any(np.asarray(n) < 0.0):
        raise ValueError("negative density passed to the pressure law")
    return gamma / (gamma - 1.0) * n ** (gamma - 1.0)


def density_from_pressure(p, gamma: float):
    if not gamma > 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    p = np.asarray(p, dtype=float) if np.ndim(p) else float(p)
    if np.any(np.asarray(p) < 0.0):
        raise ValueError("negative pressure passed to the density inversion")
    return ((gamma - 1.0) / gamma * p) ** (1.0 / (gamma - 1.0))


# ---------------------------------------------------------------------------
# reconstruction kernels (array level; GridFunction wrappers below)


def _staggered_avg(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values[:-1] + values[1:])


def limited_slope(n_prev, n_mid, n_next, dx: float):
    """Monotone slope from the three one-cell stencils.

    Takes the smallest of {upwind, centered, downwind} differences when all
    three agree in sign (positive or negative), else 0. Elementwise.
    """
    d_minus = (n_mid - n_prev) / dx
    d_plus = (n_next - n_mid) / dx
    d_center = (n_next - n_prev) / (2.0 * dx)
    smallest = np.minimum(np.minimum(d_minus, d_plus), d_center)
    largest = np.maximum(np.maximum(d_minus, d_plus), d_center)
    pos = (d_minus > 0) & (d_plus > 0) & (d_center > 0)
    neg = (d_minus < 0) & (d_plus < 0) & (d_center < 0)
    return np.where(pos, smallest, np.where(neg, largest, 0.0))


def _edge_arrays(values: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order left/right states at every interior face.

    Works along the last axis, so a (k, N) stack of fields is reconstructed
    in one call, row by row. Boundary cells get slope 0 (one-sided
    reconstruction degenerates to the cell value there).
    """
    s = np.zeros_like(values)
    if values.shape[-1] >= 3:
        s[..., 1:-1] = limited_slope(values[..., :-2], values[..., 1:-1], values[..., 2:], dx)
    left = values[..., :-1] + 0.5 * dx * s[..., :-1]
    right = values[..., 1:] - 0.5 * dx * s[..., 1:]
    return left, right


def numerical_flux(left, right, u):
    """Upwind face flux F = (1/2)[(left + right)*u - |u|*(right - left)].

    Reduces to left*u for u > 0, right*u for u < 0, and n*u when the two
    states agree.
    """
    return 0.5 * ((left + right) * u - np.abs(u) * (right - left))


def staggered_density(f: GridFunction) -> GridFunction:
    """Midpoint average of a cell-centered field onto the faces."""
    if f.placement != REGULAR:
        raise ValueError("staggered_density expects a regular-placement field")
    return GridFunction(f.grid, _staggered_avg(f.values), STAGGERED)


def edge_values(f: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Slope-limited (left, right) face states of a cell-centered field."""
    if f.placement != REGULAR:
        raise ValueError("edge_values expects a regular-placement field")
    left, right = _edge_arrays(f.values, f.grid.dx)
    return GridFunction(f.grid, left, STAGGERED), GridFunction(f.grid, right, STAGGERED)

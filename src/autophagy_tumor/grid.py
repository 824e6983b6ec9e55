"""Uniform 1D grid, the pointwise pressure law, and the slope-limited
reconstruction kernels used by the transport step.

Cell-centered quantities live at x_i = x_min + i*dx for i = 0..n_cells-1;
face quantities live at the interior midpoints x_{i+1/2}, of which there
are n_cells - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid1D",
    "pressure_from_density",
    "density_from_pressure",
    "numerical_flux",
]


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


# ---------------------------------------------------------------------------
# pressure law p = gamma/(gamma-1) * n^(gamma-1)


def pressure_from_density(n, gamma: float):
    if not gamma > 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    n = np.asarray(n, dtype=float) if np.ndim(n) else float(n)
    if (np.asarray(n) < 0.0).any():
        raise ValueError("negative density passed to the pressure law")
    p = n ** (gamma - 1.0)
    p *= gamma / (gamma - 1.0)
    return p


def density_from_pressure(p, gamma: float):
    if not gamma > 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    p = np.asarray(p, dtype=float) if np.ndim(p) else float(p)
    if np.any(np.asarray(p) < 0.0):
        raise ValueError("negative pressure passed to the density inversion")
    return ((gamma - 1.0) / gamma * p) ** (1.0 / (gamma - 1.0))


# ---------------------------------------------------------------------------
# reconstruction kernels


def _limit(d_minus, d_plus, d_center, out):
    """Write the limited slope of three differences into `out`, which holds
    zeros; returns `out`.

    The smallest difference where all three are positive, the largest where
    all three are negative, else the 0 already in `out`. All three are
    positive exactly when the smallest is, and all negative exactly when
    the largest is; a NaN propagates into both and leaves 0.
    """
    smallest = np.minimum(np.minimum(d_minus, d_plus), d_center)
    largest = np.maximum(np.maximum(d_minus, d_plus), d_center)
    np.copyto(out, largest, where=largest < 0)
    np.copyto(out, smallest, where=smallest > 0)
    return out


def _edge_arrays(values: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order left/right states at every interior face.

    Works along the last axis, so a (k, N) stack of fields is reconstructed
    in one call, row by row. Boundary cells get slope 0 (one-sided
    reconstruction degenerates to the cell value there). Each interior
    cell's slope is `_limit` of its upwind, downwind and centered
    differences; the first two are overlapping slices of one difference
    array.
    """
    s = np.zeros(values.shape)
    d = values[..., 1:] - values[..., :-1]
    d /= dx
    d_center = values[..., 2:] - values[..., :-2]
    d_center /= 2.0 * dx
    _limit(d[..., :-1], d[..., 1:], d_center, s[..., 1:-1])
    s *= 0.5 * dx
    left = values[..., :-1] + s[..., :-1]
    right = values[..., 1:] - s[..., 1:]
    return left, right


def numerical_flux(left, right, u):
    """Upwind face flux F = (1/2)[(left + right)*u - |u|*(right - left)].

    Reduces to left*u for u > 0, right*u for u < 0, and n*u when the two
    states agree.
    """
    flux = left + right
    flux *= u
    jump = right - left
    jump *= np.abs(u)
    flux -= jump
    flux *= 0.5
    return flux

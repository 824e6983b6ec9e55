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

from .kinetics import _HALF, _ZERO, _Finite

__all__ = ["Grid1D", "pressure_from_density", "density_from_pressure", "numerical_flux"]


@dataclass(frozen=True)
class Grid1D(_Finite):
    x_min: float
    dx: float
    n_cells: int
    _positive = ("dx",)

    def __post_init__(self):
        super().__post_init__()
        if self.n_cells < 3:
            raise ValueError(f"need at least 3 cells, got {self.n_cells}")

    @cached_property
    def cell_x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_cells)


# ---------------------------------------------------------------------------
# pressure law p = gamma/(gamma-1) * n^(gamma-1)


def _law_input(x, gamma: float, what: str):
    """x as a float or float array, after checking gamma > 1 and x >= 0."""
    if not gamma > 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    if np.count_nonzero(np.asarray(x) < 0.0):
        raise ValueError(f"negative {what}")
    return x


def pressure_from_density(n, gamma: float):
    """gamma/(gamma-1) * n^(gamma-1), checking gamma > 1 and n >= 0. The
    solver finishes its states with the bare `_pressure`: ModelParameters
    holds gamma >= 2, the clamp keeps n >= 0, and `step` tests u for a NaN."""
    n = _law_input(n, gamma, "density passed to the pressure law")
    return _pressure(n, gamma - 1.0, gamma / (gamma - 1.0))


def _pressure(n, exponent, factor):
    """n^exponent * factor, unchecked (exponent gamma - 1, factor gamma/(gamma - 1))."""
    p = n**exponent
    p *= factor
    return p


def density_from_pressure(p, gamma: float):
    p = _law_input(p, gamma, "pressure passed to the density inversion")
    return ((gamma - 1.0) / gamma * p) ** (1.0 / (gamma - 1.0))


# ---------------------------------------------------------------------------
# reconstruction kernels


def _limit(d_minus, d_plus, d_center, out):
    """Write the limited slope of three differences into `out`; returns `out`.

    fmin(fmax(smallest, 0), largest): the smallest where all three are
    positive, the largest where all three are negative, else 0. fmax and fmin
    drop the NaN a NaN difference gives both; adding +0.0 makes -0.0 +0.0.
    """
    smallest = np.minimum(np.minimum(d_minus, d_plus), d_center)
    largest = np.maximum(np.maximum(d_minus, d_plus), d_center)
    np.fmax(smallest, _ZERO, out=out)
    np.fmin(out, largest, out=out)
    out += _ZERO
    return out


class _FaceScratch:
    """`_edge_faces`' buffers for `size` values and their views, formed once;
    the slopes' two end values are never written and stay 0."""

    def __init__(self, size: int):
        self.d, self.left, self.right = np.empty((3, size - 1))
        self.d_center, self.s = np.empty(size - 2), np.zeros(size)
        self.d_minus, self.d_plus = self.d[:-1], self.d[1:]
        self.s_inner, self.s_left, self.s_right = self.s[1:-1], self.s[:-1], self.s[1:]


def _edge_faces(values: np.ndarray, n: int, dx, two_dx, half_dx,
                f: _FaceScratch) -> tuple[np.ndarray, np.ndarray]:
    """Second-order left/right states at the faces of `values`, a flat array
    of fields of n cells of width dx (two_dx = 2*dx, half_dx = dx/2) end to
    end: `f.left` and `f.right`, written into f, a `_FaceScratch` of its size.

    Face i lies between cells i and i + 1. Each field's two end cells get
    slope 0 (one-sided reconstruction degenerates to the cell value there);
    the faces between two fields join unrelated cells, and their states are
    junk for the caller to discard. Each other cell's slope is `_limit` of
    its upwind, downwind and centered differences; the first two are
    overlapping slices of one difference array."""
    lo, hi = values[:-1], values[1:]
    np.subtract(hi, lo, out=f.d)
    f.d /= dx
    np.subtract(values[2:], values[:-2], out=f.d_center)
    f.d_center /= two_dx
    _limit(f.d_minus, f.d_plus, f.d_center, f.s_inner)
    for i in range(n, values.size, n):  # the first and last cells keep their 0
        f.s[i - 1] = f.s[i] = 0.0
    f.s *= half_dx
    np.add(lo, f.s_left, out=f.left)
    np.subtract(hi, f.s_right, out=f.right)
    return f.left, f.right


def numerical_flux(left, right, u, out=None):
    """Upwind face flux F = (1/2)[(left + right)*u - |u|*(right - left)], into `out` if given.

    Reduces to left*u for u > 0, right*u for u < 0, and n*u when the two
    states agree.
    """
    flux = np.add(left, right, out=out)
    flux *= u
    jump = right - left
    jump *= np.abs(u)
    flux -= jump
    flux *= _HALF
    return flux

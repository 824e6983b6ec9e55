"""Closed-form sharp-interface solutions for constant cell composition.

In the stiff-pressure limit the occupied region is a slab (-R(t), R(t)) of
unit total density. If the normal fraction mu is constant in space and time,
growth is proportional (G = g*c), consumption is linear, and the autophagic
release satisfies a < c_B, then nutrient and pressure inside the slab have
explicit cosh profiles and the front radius solves a scalar ODE:

    c(x)  = (1-mu)*a + (c_B - (1-mu)*a) * cosh(x)/cosh(R)
    p(x)  = g*(c_B - (1-mu)*a)*(1 - cosh(x)/cosh(R))
            + (1/2)*(1-mu)*(g*a - D)*(R^2 - x^2)
    R'(t) = g*(c_B - (1-mu)*a)*tanh(R) + (1-mu)*(g*a - D)*R

For mu = 1 the radius ODE separates: sinh(R(t)) = sinh(R0)*exp(g*c_B*t).
The sign of g*a - D splits the long-time behavior: exponential spread for
g*a > D versus a pressure-starved interior core for g*a < D (the profile
formulas assume nonneg net growth, which fails at the center beyond a
critical radius in the latter case).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .kinetics import _Finite

__all__ = [
    "AnalyticSetup",
    "RadiusTrajectory",
    "analytic_nutrient",
    "analytic_pressure",
    "integrate_radius",
    "exp_growth_lower_bound",
    "assumption_violation_radius",
]


@dataclass(frozen=True)
class AnalyticSetup(_Finite):
    """Constant-composition slab setup: fraction mu, growth gain g, release a,
    autophagic death D, ambient nutrient c_B, initial front radius R0."""

    mu: float
    g: float
    a: float
    D: float
    c_B: float
    R0: float
    _positive = ("g", "R0")
    _nonnegative = ("D",)

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")
        if not 0.0 <= self.a < self.c_B:
            raise ValueError(f"need 0 <= a < c_B, got a={self.a}, c_B={self.c_B}")


def cosh_ratio(x, R: float):
    """cosh(x)/cosh(R) evaluated as exp(|x|-R)*(1+e^(-2|x|))/(1+e^(-2R)).

    Algebraically identical to the direct quotient but immune to cosh
    overflow for radii beyond ~350.
    """
    ax = np.abs(x)
    return np.exp(ax - R) * (1.0 + np.exp(-2.0 * ax)) / (1.0 + np.exp(-2.0 * R))


def _check_inside(x, R: float):
    if np.any(np.abs(x) > R * (1.0 + 1e-12) + 1e-300):
        raise ValueError(f"position outside the occupied slab [-{R}, {R}]")


def analytic_nutrient(x, R: float, s: AnalyticSetup):
    """Nutrient profile on |x| <= R; raises out-of-domain otherwise."""
    _check_inside(x, R)
    base = (1.0 - s.mu) * s.a
    return base + (s.c_B - base) * cosh_ratio(x, R)


def analytic_pressure(x, R: float, s: AnalyticSetup):
    """Pressure profile on |x| <= R, exactly 0 at the interface."""
    _check_inside(x, R)
    k = s.g * (s.c_B - (1.0 - s.mu) * s.a)
    q = 0.5 * (1.0 - s.mu) * (s.g * s.a - s.D)
    x = np.asarray(x, dtype=float) if np.ndim(x) else x
    return k * (1.0 - cosh_ratio(x, R)) + q * (R * R - x * x)


def boundary_speed(R: float, s: AnalyticSetup) -> float:
    """Front speed R'(t); equals -dp/dx evaluated at the interface."""
    k = s.g * (s.c_B - (1.0 - s.mu) * s.a)
    return k * math.tanh(R) + (1.0 - s.mu) * (s.g * s.a - s.D) * R


@dataclass(frozen=True)
class RadiusTrajectory:
    times: np.ndarray
    radii: np.ndarray
    speeds: np.ndarray


def integrate_radius(s: AnalyticSetup, t_end: float, dt: float = 1e-3) -> RadiusTrajectory:
    """Fixed-step RK4 for the front-radius ODE, from R0 at t=0 to t_end.

    The step is adjusted to divide t_end exactly; the trajectory includes
    both endpoints. Raises ValueError unless t_end >= 0 and dt > 0 are
    finite, and ArithmeticError when the radius leaves (0, inf).
    """
    if not 0.0 <= t_end <= sys.float_info.max:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    if not 0.0 < dt <= sys.float_info.max:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    n = max(1, int(round(t_end / dt))) if t_end > 0.0 else 0
    h = t_end / n if n else 0.0
    radii = np.empty(n + 1)
    R = s.R0
    radii[0] = R
    for j in range(n):
        k1 = boundary_speed(R, s)
        k2 = boundary_speed(R + 0.5 * h * k1, s)
        k3 = boundary_speed(R + 0.5 * h * k2, s)
        k4 = boundary_speed(R + h * k3, s)
        R = R + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (R > 0.0 and math.isfinite(R)):
            raise ArithmeticError(f"front radius left (0, inf) at t={(j + 1) * h}")
        radii[j + 1] = R
    speeds = np.array([boundary_speed(r, s) for r in radii])
    return RadiusTrajectory(times=h * np.arange(n + 1), radii=radii, speeds=speeds)


def exp_growth_lower_bound(t, s: AnalyticSetup):
    """Lower envelope R0*exp((1-mu)*(g*a - D)*t) for the front radius.

    Informative only when g*a >= D; otherwise the exponent is negative and a
    warning flags the bound as not applicable.
    """
    rate = (1.0 - s.mu) * (s.g * s.a - s.D)
    if rate < 0.0:
        warnings.warn(
            "exp_growth_lower_bound is not applicable: g*a < D shrinks the exponent",
            stacklevel=2,
        )
    return s.R0 * np.exp(rate * np.asarray(t, dtype=float))


def assumption_violation_radius(s: AnalyticSetup) -> float:
    """Radius beyond which the nonneg-net-growth assumption fails at x = 0.

    The profile formulas need g*c - (1-mu)*D >= 0 throughout the slab; the
    minimum sits at the center. Returns inf when the assumption holds for
    every radius (in particular whenever g*a >= D).
    """
    base = (1.0 - s.mu) * s.a
    deficit = (1.0 - s.mu) * s.D - s.g * base
    if deficit <= 0.0:
        return math.inf
    arg = s.g * (s.c_B - base) / deficit
    if arg < 1.0:
        return 0.0
    return math.acosh(arg)

"""Reaction kinetics of the two-population growth model.

Cell mass comes in two states: a normal population n1 that proliferates at a
nutrient-dependent rate G(c), and an autophagic population n2 that
proliferates at G(c) - D (self-digestion carries a fixed extra death rate D)
while releasing nutrient back at rate a per unit mass. Cells switch state at
nutrient-dependent rates K1(c) (normal -> autophagic) and K2(c) (autophagic
-> normal).

This module owns the pointwise rate laws and the equilibrium analysis of
the normal-cell fraction mu = n1/(n1+n2) for constant switch rates.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import asdict, astuple, dataclass, fields
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "Proportional", "AffineDeath", "Logistic", "GrowthSpec", "ConstantTransitions",
    "HullTransitions", "RationalPairTransitions", "TransitionSpec", "ConstantFlux", "PeriodicFlux",
    "FluxSchedule", "QUASISTATIC", "NEUMANN", "ModelParameters", "ReactionEquilibrium",
    "eval_growth", "eval_transitions", "eval_flux", "equilibrium_roots",
]
# 0-d operands, which numpy need not convert per call
_ZERO, _TENTH, _ONE, _TWO, _FOUR = (np.array(v) for v in (0.0, 0.1, 1.0, 2.0, 4.0))


# ---------------------------------------------------------------------------
# rate-law variants

class _Finite:
    """Refuses a NaN, inf or huge int in a field annotated `float` or `tuple[float, ...]`."""

    _positive: tuple[str, ...] = ()  # the `float` fields that must also be > 0

    def __post_init__(self):  # names the first bad field, in field order
        for f in fields(self):
            value = getattr(self, f.name)
            values = {"float": (value,), "tuple[float, ...]": value}.get(f.type, ())
            positive = f.name in self._positive
            if not all((v > 0.0 or not positive) and abs(v) <= sys.float_info.max for v in values):
                raise ValueError(f"{f.name} must be {'positive and ' * positive}finite, got {value}")


class _Bound(_Finite):
    """A rate law whose `_operands`, its fields as read-only float64 0-d arrays formed
    once per spec, spare numpy the conversion of a Python float operand per call."""

    @cached_property
    def _operands(self) -> tuple[np.ndarray, ...]:
        return tuple(np.broadcast_to(float(value), ()) for value in astuple(self))  # read-only

    def __getstate__(self):  # the fields alone: unpickled, the spec forms its operands afresh
        return asdict(self)


@dataclass(frozen=True)
class Proportional(_Bound):
    """Growth proportional to nutrient: G(c) = g*c."""

    g: float


@dataclass(frozen=True)
class AffineDeath(_Bound):
    """Growth with a constant maintenance cost: G(c) = c - delta."""

    delta: float


@dataclass(frozen=True)
class Logistic(_Bound):
    """Crowding-limited growth: G(c, n) = g*(M - n)*c - delta."""

    g: float
    M: float
    delta: float


GrowthSpec = Union[Proportional, AffineDeath, Logistic]


@dataclass(frozen=True)
class ConstantTransitions(_Bound):
    K1: float
    K2: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.K1 >= 0.0 and self.K2 >= 0.0):
            raise ValueError(f"switch rates must be >= 0, got K1={self.K1}, K2={self.K2}")


@dataclass(frozen=True)
class HullTransitions(_Bound):
    """Sharp starvation switch around the threshold omega.

    K1(c) = k1max * omega^4 / (omega^4 + c^4)   (activates when starved)
    K2(c) = k2max * c^4 / (omega^4 + c^4)       (activates when fed)
    """

    k1max: float
    k2max: float
    omega: float

    def __post_init__(self):  # omega = 0 would give K = 0/0 at c = 0
        super().__post_init__()
        if not (self.k1max >= 0.0 and self.k2max >= 0.0 and self.omega > 0.0):
            raise ValueError(f"hull switch needs k1max, k2max >= 0 and omega > 0, got {self}")


@dataclass(frozen=True)
class RationalPairTransitions:
    """Fixed rational pair K1(c) = max(0, (1-c)/(c+0.1)), K2(c) = 2c/(c+1)."""


TransitionSpec = Union[ConstantTransitions, HullTransitions, RationalPairTransitions]


@dataclass(frozen=True)
class ConstantFlux(_Finite):
    value: float


@dataclass(frozen=True)
class PeriodicFlux(_Finite):
    """On/off wall flux: `high` on the first half of each period, 0 after."""

    high: float
    period: float
    _positive = ("period",)


FluxSchedule = Union[ConstantFlux, PeriodicFlux]


def eval_growth(spec: GrowthSpec, c, n=0.0):
    """Pointwise normal-cell growth rate; `c` and `n` may be scalars or arrays."""
    if isinstance(spec, Proportional):
        return spec._operands[0] * c
    if isinstance(spec, AffineDeath):
        return c - spec._operands[0]
    if isinstance(spec, Logistic):  # g, M, delta
        return spec._operands[0] * (spec._operands[1] - n) * c - spec._operands[2]
    raise TypeError(f"unknown growth spec {spec!r}")


def eval_transitions(spec: TransitionSpec, c):
    """Return the switch-rate pair (K1(c), K2(c)), elementwise in c; constant
    rates come back as read-only float64 0-d arrays, formed once per spec,
    which broadcast against c."""
    if isinstance(spec, ConstantTransitions):
        return spec._operands
    if isinstance(spec, HullTransitions):
        c4 = np.asarray(c, dtype=float) ** _FOUR
        frac = c4 / (spec.omega**4 + c4)
        return spec._operands[0] * (_ONE - frac), spec._operands[1] * frac  # k1max, k2max
    if isinstance(spec, RationalPairTransitions):
        ca = np.asarray(c, dtype=float)
        k1 = np.maximum(_ZERO, (_ONE - ca) / (ca + _TENTH))
        k2 = _TWO * ca / (ca + _ONE)
        return k1, k2
    raise TypeError(f"unknown transition spec {spec!r}")


def eval_flux(schedule: FluxSchedule, t: float) -> float:
    if isinstance(schedule, ConstantFlux):
        return schedule.value
    if isinstance(schedule, PeriodicFlux):
        phase = t % schedule.period
        return schedule.high if phase < 0.5 * schedule.period else 0.0
    raise TypeError(f"unknown flux schedule {schedule!r}")


# ---------------------------------------------------------------------------
# model parameter bundle

QUASISTATIC = "quasistatic_dirichlet"
NEUMANN = "dynamic_neumann"


@dataclass(frozen=True)
class ModelParameters(_Finite):
    """All model constants and rate-law choices for one setup.

    nutrient_mode selects the instantaneous-diffusion closure (Dirichlet
    value c_B outside the occupied region, on a domain that grows with it,
    and no lambda_schedule) or the flux-driven nutrient equation on a fixed
    box (which needs a lambda_schedule for the wall flux), and so the
    boundary treatment.
    """

    gamma: float
    D: float
    a: float
    c_B: float
    growth: GrowthSpec
    transitions: TransitionSpec
    nutrient_mode: str = QUASISTATIC
    lambda_schedule: FluxSchedule | None = None
    _positive = ("c_B",)

    def __post_init__(self):
        super().__post_init__()
        if not self.gamma >= 2.0:
            raise ValueError(f"velocity prediction requires gamma >= 2, got {self.gamma:g}")
        if self.D < 0.0:
            raise ValueError(f"death-rate offset D must be >= 0, got {self.D}")
        if self.a < 0.0:
            raise ValueError(f"nutrient release rate a must be >= 0, got {self.a}")
        if self.nutrient_mode not in (QUASISTATIC, NEUMANN):
            raise ValueError(f"unknown nutrient_mode {self.nutrient_mode!r}")
        if self.nutrient_mode == NEUMANN and self.lambda_schedule is None:
            raise ValueError("dynamic_neumann mode needs a lambda_schedule")
        if self.nutrient_mode == QUASISTATIC and self.lambda_schedule is not None:
            raise ValueError("quasi-static nutrient mode takes no lambda_schedule (no wall flux)")


# ---------------------------------------------------------------------------
# constant-rate equilibrium analysis of the fraction equation
#
# The normal fraction obeys d(mu)/dt = f(mu) with
#   f(mu) = -mu*K1 + (1-mu)*K2 + D*mu*(1-mu)
#         = -D*mu^2 + (D - K1 - K2)*mu + K2,
# a downward parabola with f(0) = K2 > 0 and f(1) = -K1 < 0, hence one root
# nu* < 0 and one stable root mu* in (0, 1).


@dataclass(frozen=True)
class ReactionEquilibrium:
    nu_star: float  # negative root of f
    mu_star: float  # stable normal fraction, in (0, 1]
    decay_rate: float  # D*(mu_star - nu_star) = sqrt((D - K1 - K2)^2 + 4*D*K2); may be inf
    uniform_A: float  # (mu_star - nu_star)/(-nu_star), prefactor of the sup bound


def equilibrium_roots(D: float, K1: float, K2: float) -> ReactionEquilibrium:
    """Roots and decay constants of the fraction equation for constant rates.

    Requires D, K1, K2 all strictly positive: D = 0 degenerates the parabola
    to a line, and the root ordering nu* < 0 < mu* < 1 needs f(0) = K2 > 0
    and f(1) = -K1 < 0. Raises ValueError naming the rates when nu*, mu* or
    uniform_A leaves the float range; the decay rate alone may overflow to inf.
    """
    if D <= 0.0:
        raise ValueError(f"degenerate: need D > 0, got D={D}")
    if K1 <= 0.0 or K2 <= 0.0:
        raise ValueError(f"root ordering needs K1, K2 > 0, got K1={K1}, K2={K2}")
    # the rates over 2**e, the power of two at or above the largest, have the
    # same roots, and b*b + 4*d*k2 neither overflows nor underflows
    e = math.frexp(max(D, K1, K2))[1]
    d, k1, k2 = (math.ldexp(rate, -e) for rate in (D, K1, K2))
    b = d - k1 - k2
    s = math.sqrt(b * b + 4.0 * d * k2)  # b*b + 4*d*k2 == d^2 + (k1+k2)^2 - 2*d*k1 + 2*d*k2
    # evaluate the non-cancelling root directly, recover the other via Vieta
    # (product of roots = -k2/d); far-apart rates underflow d or k2 to 0
    with contextlib.suppress(ZeroDivisionError):
        if b <= 0.0:
            nu = (b - s) / (2.0 * d)
            mu = -k2 / (d * nu)
        else:
            mu = (b + s) / (2.0 * d)
            nu = -k2 / (d * mu)
        mu = min(mu, 1.0)  # mu* < 1, but a quotient can round one ulp above it
        uniform_A = (mu - nu) / (-nu)
        if nu < 0.0 < mu and math.isfinite(uniform_A):  # nu* = -inf gives mu* = 0
            # s * 2**e, inf when it leaves the float range (2.0 ** 1024 raises)
            return ReactionEquilibrium(nu, mu, s * 2.0 ** (e - 1) * 2.0, uniform_A)
    raise ValueError(f"the roots for D={D}, K1={K1}, K2={K2} leave the float range")


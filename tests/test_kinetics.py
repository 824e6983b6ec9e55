import math
import pickle
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from autophagy_tumor.kinetics import (
    NEUMANN,
    AffineDeath,
    ConstantFlux,
    ConstantTransitions,
    HullTransitions,
    Logistic,
    ModelParameters,
    PeriodicFlux,
    Proportional,
    RationalPairTransitions,
    equilibrium_roots,
    eval_flux,
    eval_growth,
    eval_transitions,
)

from reference import mu_ode_closed_form, reaction_rate_f, wellmixed_pointwise_bound

# reference equilibrium used throughout: D=0.3, K1=K2=1
EQ = equilibrium_roots(0.3, 1.0, 1.0)


# ---------------------------------------------------------------------------
# rate laws


def test_growth_laws():
    assert eval_growth(Proportional(1.0), 0.0) == 0.0
    assert eval_growth(Proportional(1.0), 0.7) == pytest.approx(0.7, abs=1e-15)
    assert eval_growth(AffineDeath(0.5), 0.5) == pytest.approx(0.0, abs=1e-15)
    assert eval_growth(Logistic(g=2.0, M=1.2, delta=0.5), 1.0, n=1.2) == pytest.approx(-0.5)
    # crowding term really reads the density
    assert eval_growth(Logistic(g=2.0, M=1.2, delta=0.5), 1.0, n=0.2) == pytest.approx(1.5)
    c = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(eval_growth(Proportional(2.0), c), 2.0 * c)


def test_rate_laws_keep_the_bits_of_their_python_float_formulas():
    # the specs bind their coefficients as 0-d arrays, formed once per spec
    # and formed afresh by a copy sent to a worker process
    rng = np.random.default_rng(7)
    c, n = 2.0 * rng.random(251), 1.5 * rng.random(251)
    cases = [
        (Proportional(1.3), 1.3 * c),
        (AffineDeath(0.2), c - 0.2),
        (Logistic(g=2.0, M=1.2, delta=0.5), 2.0 * (1.2 - n) * c - 0.5),
    ]
    for spec, want in cases:
        for s in (spec, pickle.loads(pickle.dumps(spec))):
            assert s == spec and eval_growth(s, c, n).tobytes() == want.tobytes()
    frac = c**4 / (0.7**4 + c**4)
    cases = [
        (HullTransitions(3.0, 0.5, 0.7), 3.0 * (1.0 - frac), 0.5 * frac),
        (RationalPairTransitions(), np.maximum(0.0, (1.0 - c) / (c + 0.1)), 2.0 * c / (c + 1.0)),
    ]
    for spec, want1, want2 in cases:
        for s in (spec, pickle.loads(pickle.dumps(spec))):
            k1, k2 = eval_transitions(s, c)
            assert k1.tobytes() == want1.tobytes() and k2.tobytes() == want2.tobytes()
    spec = cases[0][0]
    assert spec._operands is spec._operands
    assert not any(op.flags.writeable for op in spec._operands)


def test_transition_laws():
    k1, k2 = eval_transitions(HullTransitions(3.0, 3.0, 0.5), 0.5)
    assert k1 == pytest.approx(1.5, abs=1e-14)
    assert k2 == pytest.approx(1.5, abs=1e-14)
    k1, k2 = eval_transitions(HullTransitions(3.0, 3.0, 0.5), 0.0)
    assert (k1, k2) == (3.0, 0.0)
    assert eval_transitions(ConstantTransitions(1.0, 1.0), 7.3) == (1.0, 1.0)
    # constant rates: the same read-only float64 0-d arrays on every call
    spec = ConstantTransitions(0.25, 3.0)
    k1, k2 = eval_transitions(spec, np.zeros(4))
    assert (k1.shape, k1.dtype, k2.shape, float(k1), float(k2)) == ((), np.float64, (), 0.25, 3.0)
    assert not (k1.flags.writeable or k2.flags.writeable)
    assert all(a is b for a, b in zip(eval_transitions(spec, 1.0), (k1, k2)))
    # a spec sent to a worker process forms its own, read-only too
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and not any(k.flags.writeable for k in eval_transitions(copy, 0.0))
    k1, k2 = eval_transitions(RationalPairTransitions(), 1.0)
    assert k1 == 0.0
    assert k2 == pytest.approx(1.0)
    k1, k2 = eval_transitions(RationalPairTransitions(), 0.0)
    assert k1 == pytest.approx(10.0)
    assert k2 == 0.0
    # array evaluation broadcasts to c.shape (constant rates stay scalars)
    c = np.linspace(0.0, 2.0, 7)
    for spec in (ConstantTransitions(0.3, 0.7), HullTransitions(2.0, 1.0, 0.5), RationalPairTransitions()):
        k1, k2 = eval_transitions(spec, c)
        assert np.broadcast_shapes(np.shape(k1), c.shape) == c.shape
        assert np.broadcast_shapes(np.shape(k2), c.shape) == c.shape


@settings(max_examples=60, deadline=None)
@given(
    k1max=st.floats(0.01, 10.0),
    k2max=st.floats(0.01, 10.0),
    omega=st.floats(0.05, 5.0),
)
def test_hull_transitions_monotone_in_nutrient(k1max, k2max, omega):
    c = np.linspace(0.0, 4.0 * omega, 200)
    k1, k2 = eval_transitions(HullTransitions(k1max, k2max, omega), c)
    assert np.all(np.diff(k1) <= 1e-12)
    assert np.all(np.diff(k2) >= -1e-12)
    assert np.all(k1 >= 0) and np.all(k1 <= k1max)
    assert np.all(k2 >= 0) and np.all(k2 <= k2max)


def test_flux_schedules():
    assert eval_flux(ConstantFlux(0.2), 17.3) == 0.2
    sched = PeriodicFlux(high=0.5, period=20.0)
    assert eval_flux(sched, 0.0) == 0.5
    assert eval_flux(sched, 9.99) == 0.5
    assert eval_flux(sched, 10.0) == 0.0
    assert eval_flux(sched, 19.99) == 0.0
    assert eval_flux(sched, 20.0) == 0.5
    assert eval_flux(sched, 45.0) == 0.5


def test_model_parameters_validation():
    rates = ConstantTransitions(1.0, 1.0)  # required: configs must name the switch rates
    ModelParameters(gamma=2.0, D=0.3, a=0.5, c_B=1.0, growth=Proportional(1.0), transitions=rates)
    ModelParameters(
        gamma=2.0, D=0.3, a=0.5, c_B=1.0, growth=Proportional(1.0), transitions=rates,
        nutrient_mode=NEUMANN, lambda_schedule=ConstantFlux(0.2),
    )
    with pytest.raises(TypeError, match="transitions"):
        ModelParameters(gamma=2.0, D=0.3, a=0.5, c_B=1.0, growth=Proportional(1.0))
    with pytest.raises(ValueError):
        ModelParameters(gamma=1.0, D=0.3, a=0.5, c_B=1.0, growth=Proportional(1.0),
                        transitions=rates)
    # the velocity prediction's weights n^(gamma-2) need gamma >= 2
    with pytest.raises(ValueError, match="gamma >= 2"):
        ModelParameters(gamma=1.5, D=0.3, a=0.5, c_B=1.0, growth=Proportional(1.0),
                        transitions=rates)
    with pytest.raises(ValueError):
        ModelParameters(gamma=2.0, D=-0.1, a=0.5, c_B=1.0, growth=Proportional(1.0),
                        transitions=rates)
    with pytest.raises(ValueError):
        ModelParameters(gamma=2.0, D=0.3, a=-0.5, c_B=1.0, growth=Proportional(1.0),
                        transitions=rates)
    with pytest.raises(ValueError):
        ModelParameters(gamma=2.0, D=0.3, a=0.5, c_B=0.0, growth=Proportional(1.0),
                        transitions=rates)
    with pytest.raises(ValueError):
        ModelParameters(gamma=2.0, D=0.3, a=0.5, c_B=1.0, growth=Proportional(1.0),
                        transitions=rates, nutrient_mode="bogus")
    with pytest.raises(ValueError):
        ModelParameters(gamma=2.0, D=0.3, a=0.5, c_B=1.0, growth=Proportional(1.0),
                        transitions=rates, nutrient_mode=NEUMANN)  # no schedule


# ---------------------------------------------------------------------------
# fraction kinetics and its equilibrium


def test_reaction_rate_endpoints():
    for K1, K2 in ((1.0, 1.0), (0.1, 1.0), (2.0, 0.01)):
        assert reaction_rate_f(0.0, 0.3, K1, K2) == K2
        assert reaction_rate_f(1.0, 0.3, K1, K2) == -K1
    # quadratic form agrees with the rate-sum definition
    mu = np.linspace(-0.5, 1.5, 11)
    D, K1, K2 = 0.7, 0.4, 1.3
    expected = -D * mu**2 + (D - K1 - K2) * mu + K2
    np.testing.assert_allclose(reaction_rate_f(mu, D, K1, K2), expected, atol=1e-14)


FROZEN_ROOTS = {
    # (D, K1, K2): (nu_star, mu_star)
    (0.3, 1.0, 1.0): (-6.2039581, 0.5372914),
    (0.1, 0.1, 1.0): (-10.9160798, 0.9160798),
    (0.5, 1.0, 1.0): (None, 0.5615528),
    (0.1, 0.1, 0.01): (-0.3701562, 0.2701562),
    (0.7, 1.0, 1.0): (None, 0.5849729),
}


def test_equilibrium_roots_frozen_values():
    for (D, K1, K2), (nu, mu) in FROZEN_ROOTS.items():
        eq = equilibrium_roots(D, K1, K2)
        assert eq.mu_star == pytest.approx(mu, abs=1e-6)
        if nu is not None:
            assert eq.nu_star == pytest.approx(nu, abs=1e-6)
    eq = equilibrium_roots(0.3, 1.0, 1.0)
    assert eq.decay_rate == pytest.approx(2.0223748416156684, abs=1e-12)
    assert eq.uniform_A == pytest.approx(1.0866046154222728, abs=1e-12)


def test_equilibrium_roots_identities():
    for D, K1, K2 in FROZEN_ROOTS:
        eq = equilibrium_roots(D, K1, K2)
        assert eq.nu_star < 0.0 < eq.mu_star < 1.0
        assert reaction_rate_f(eq.mu_star, D, K1, K2) == pytest.approx(0.0, abs=1e-12)
        assert reaction_rate_f(eq.nu_star, D, K1, K2) == pytest.approx(0.0, abs=1e-10)
        assert eq.decay_rate == pytest.approx(D * (eq.mu_star - eq.nu_star), rel=1e-13)
        assert eq.decay_rate == pytest.approx(math.sqrt((D - K1 - K2) ** 2 + 4 * D * K2), rel=1e-13)
        assert eq.uniform_A >= 1.0


@settings(max_examples=80, deadline=None)
@given(
    D=st.floats(1e-3, 10.0),
    K1=st.floats(1e-3, 10.0),
    K2=st.floats(1e-3, 10.0),
)
def test_equilibrium_roots_match_polynomial_solver(D, K1, K2):
    eq = equilibrium_roots(D, K1, K2)
    roots = np.sort(np.roots([-D, D - K1 - K2, K2]))
    assert eq.nu_star == pytest.approx(roots[0], rel=1e-9)
    assert eq.mu_star == pytest.approx(roots[1], rel=1e-9)


def test_equilibrium_roots_rejects_degenerate_rates():
    with pytest.raises(ValueError):
        equilibrium_roots(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        equilibrium_roots(0.3, 0.0, 1.0)
    with pytest.raises(ValueError):
        equilibrium_roots(0.3, 1.0, 0.0)
    # positive rates whose roots leave the float range: K2/D underflows to
    # -0.0 (this used to raise ZeroDivisionError), nu* is about -1e310 (this
    # gave mu* = 0 and nu* = -inf), and uniform_A about 1e309 (this gave inf)
    for D, K1, K2 in ((2.0, 1e-300, 5e-324), (1e-300, 1e-300, 1e10), (1.0, 1e-10, 1e-309)):
        with pytest.raises(ValueError, match=re.escape(
                f"the roots for D={D}, K1={K1}, K2={K2} leave the float range")):
            equilibrium_roots(D, K1, K2)


def test_equilibrium_roots_of_far_apart_rates():
    # b*b + 4*D*K2 underflowed to 0 and gave mu* = 2.0
    eq = equilibrium_roots(1e-300, 1e-300, 1e-300)
    assert eq.mu_star == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)
    assert eq.nu_star == pytest.approx(-(math.sqrt(5.0) + 1.0) / 2.0, rel=1e-15)
    assert eq.decay_rate == pytest.approx(math.sqrt(5.0) * 1e-300, rel=1e-15)
    # mu* = 1 - 1e-300 rounds to 1.0; the quotient gave 1.0000000000000002
    eq = equilibrium_roots(1e-300, 1e-300, 1.0)
    assert (eq.mu_star, eq.uniform_A) == (1.0, 1.0)
    assert eq.nu_star == pytest.approx(-1e300, rel=1e-15)
    # D^2 and E overflow, but the roots fit: these used to be refused
    eq = equilibrium_roots(1e300, 0.3, 1.0)
    assert eq.mu_star == 1.0
    assert eq.nu_star == pytest.approx(-1e-300, rel=1e-15)
    assert eq.uniform_A == pytest.approx(1e300, rel=1e-15)
    eq = equilibrium_roots(1.0, 1.0, 2.0**512)
    assert (eq.mu_star, eq.nu_star, eq.decay_rate) == (1.0, -(2.0**512), 2.0**512)
    # only the decay rate, sqrt(5) times the rates, leaves the float range
    eq = equilibrium_roots(1.7e308, 1.7e308, 1.7e308)
    assert eq.decay_rate == math.inf
    assert eq.mu_star == equilibrium_roots(1.0, 1.0, 1.0).mu_star


_NORMAL_RATE = st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max)


@settings(max_examples=300, deadline=None)
@given(rates=st.tuples(_NORMAL_RATE, _NORMAL_RATE, _NORMAL_RATE), k=st.integers(-2100, 2100))
@example(rates=(1e-300, 1e-300, 1e-300), k=600)
@example(rates=(1e-300, 1e-300, 1e10), k=-20)
@example(rates=(1e-300, 1e-300, 1.0), k=1000)
@example(rates=(1.0, 1.0, 2.0**512), k=-600)
@example(rates=(1.7e308, 1.7e308, 1.7e308), k=-1)
@example(rates=(0.3, 1.0, 1.0), k=-1021)
def test_equilibrium_roots_do_not_change_when_the_rates_scale_by_a_power_of_two(rates, k):
    # k clipped to the powers of two that keep all three rates normal floats
    k = min(max(k, -1021 - math.frexp(min(rates))[1]), 1024 - math.frexp(max(rates))[1])

    def roots(D, K1, K2):
        try:
            eq = equilibrium_roots(D, K1, K2)
        except ValueError:
            return "refused"
        return eq.mu_star.hex(), eq.nu_star.hex(), eq.uniform_A.hex()

    scaled = tuple(math.ldexp(r, k) for r in rates)
    assert all(sys.float_info.min <= r <= sys.float_info.max for r in scaled)
    assert roots(*scaled) == roots(*rates)


# ---------------------------------------------------------------------------
# closed-form fraction solution


def test_mu_ode_fixed_point_and_initial_value():
    for t in (0.0, 0.5, 5.0):
        assert mu_ode_closed_form(EQ.mu_star, t, EQ, 0.3) == pytest.approx(
            EQ.mu_star, abs=1e-14
        )
    for z0 in (0.0, 0.2, 0.9, 1.0):
        assert mu_ode_closed_form(z0, 0.0, EQ, 0.3) == pytest.approx(z0, abs=1e-14)


def test_mu_ode_matches_adaptive_integrator(rng):
    D, K1, K2 = 0.3, 1.0, 1.0
    for _ in range(20):
        z0 = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 10.0))
        sol = solve_ivp(
            lambda _t, y: reaction_rate_f(y, D, K1, K2),
            (0.0, max(t, 1e-12)),
            [z0],
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        assert mu_ode_closed_form(z0, t, EQ, D) == pytest.approx(
            float(sol.sol(t)[0]), abs=1e-8
        )


def test_mu_ode_monotone_without_overshoot():
    t = np.linspace(0.0, 8.0, 200)
    above = mu_ode_closed_form(1.0, t, EQ, 0.3)
    assert np.all(np.diff(above) <= 1e-14)
    assert np.all(above >= EQ.mu_star - 1e-12)
    below = mu_ode_closed_form(0.0, t, EQ, 0.3)
    assert np.all(np.diff(below) >= -1e-14)
    assert np.all(below <= EQ.mu_star + 1e-12)
    for z0 in np.linspace(0.0, 1.0, 9):
        z = mu_ode_closed_form(float(z0), t, EQ, 0.3)
        assert np.all(z >= -1e-12) and np.all(z <= 1.0 + 1e-12)


def test_mu_ode_rejects_start_below_negative_root():
    with pytest.raises(ValueError):
        mu_ode_closed_form(EQ.nu_star - 0.1, 1.0, EQ, 0.3)


def test_pointwise_bound_basics():
    assert wellmixed_pointwise_bound(EQ.mu_star, 3.0, EQ, 0.3) == pytest.approx(0.0, abs=1e-15)
    # starting above the equilibrium the coefficient is exactly 1
    assert wellmixed_pointwise_bound(1.0, 0.0, EQ, 0.3) == pytest.approx(
        abs(1.0 - EQ.mu_star), abs=1e-15
    )
    # starting below, the prefactor exceeds 1
    b0 = wellmixed_pointwise_bound(0.0, 0.0, EQ, 0.3)
    assert b0 >= EQ.mu_star
    with pytest.raises(ValueError):
        wellmixed_pointwise_bound(EQ.nu_star - 1.0, 0.0, EQ, 0.3)


@settings(max_examples=100, deadline=None)
@given(z0=st.floats(0.0, 1.0), t=st.floats(0.0, 10.0))
def test_pointwise_bound_dominates_closed_form(z0, t):
    z = mu_ode_closed_form(z0, t, EQ, 0.3)
    bound = wellmixed_pointwise_bound(z0, t, EQ, 0.3)
    assert abs(z - EQ.mu_star) <= bound * (1.0 + 1e-12) + 1e-15


def test_pointwise_bound_dominates_on_grid():
    z0s = np.linspace(0.0, 1.0, 10)
    ts = np.linspace(0.0, 10.0, 10)
    for z0 in z0s:
        z = mu_ode_closed_form(float(z0), ts, EQ, 0.3)
        bound = wellmixed_pointwise_bound(float(z0), ts, EQ, 0.3)
        assert np.all(np.abs(z - EQ.mu_star) <= bound * (1.0 + 1e-12) + 1e-15)

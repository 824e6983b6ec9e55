import math

import numpy as np
import pytest

from autophagy_tumor.analytic import (
    AnalyticSetup,
    analytic_nutrient,
    analytic_pressure,
    assumption_violation_radius,
    boundary_speed,
    cosh_ratio,
    exp_growth_lower_bound,
    integrate_radius,
)
from autophagy_tumor.kinetics import equilibrium_roots

MU_STAR = equilibrium_roots(0.3, 1.0, 1.0).mu_star


def mixed_setup(R0=1.0):
    # stationary composition for the (0.3, 1, 1) transition rates
    return AnalyticSetup(mu=MU_STAR, g=1.0, a=0.5, D=0.3, c_B=1.0, R0=R0)


def pure_setup(R0=1.0):
    return AnalyticSetup(mu=1.0, g=1.0, a=0.5, D=0.3, c_B=1.0, R0=R0)


def test_setup_validation():
    AnalyticSetup(mu=0.0, g=1.0, a=0.0, D=0.0, c_B=1.0, R0=1.0)
    with pytest.raises(ValueError):
        AnalyticSetup(mu=-0.1, g=1.0, a=0.5, D=0.3, c_B=1.0, R0=1.0)
    with pytest.raises(ValueError):
        AnalyticSetup(mu=1.1, g=1.0, a=0.5, D=0.3, c_B=1.0, R0=1.0)
    with pytest.raises(ValueError):
        AnalyticSetup(mu=1.0, g=0.0, a=0.5, D=0.3, c_B=1.0, R0=1.0)
    with pytest.raises(ValueError):
        AnalyticSetup(mu=1.0, g=1.0, a=0.5, D=-0.1, c_B=1.0, R0=1.0)
    with pytest.raises(ValueError):
        AnalyticSetup(mu=1.0, g=1.0, a=1.0, D=0.3, c_B=1.0, R0=1.0)
    with pytest.raises(ValueError):
        AnalyticSetup(mu=1.0, g=1.0, a=0.5, D=0.3, c_B=1.0, R0=0.0)


def test_cosh_ratio_matches_direct_formula():
    xs = np.linspace(-2.0, 2.0, 41)
    direct = np.cosh(xs) / np.cosh(2.0)
    np.testing.assert_allclose(cosh_ratio(xs, 2.0), direct, rtol=1e-14)
    assert cosh_ratio(2.0, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert cosh_ratio(-2.0, 2.0) == pytest.approx(1.0, rel=1e-15)


def test_cosh_ratio_survives_huge_radius():
    # naive cosh overflows beyond ~710
    v = cosh_ratio(999.0, 1000.0)
    assert np.isfinite(v)
    assert v == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert cosh_ratio(0.0, 1000.0) < 1e-300 or cosh_ratio(0.0, 1000.0) >= 0.0
    assert np.isfinite(cosh_ratio(0.0, 1000.0))


def test_nutrient_profile_values():
    s1 = pure_setup()
    assert analytic_nutrient(1.0, 1.0, s1) == pytest.approx(1.0, rel=1e-14)
    assert analytic_nutrient(-1.0, 1.0, s1) == pytest.approx(1.0, rel=1e-14)
    assert analytic_nutrient(0.0, 1.0, s1) == pytest.approx(0.6480542736638855, rel=1e-13)
    s2 = AnalyticSetup(mu=0.5, g=1.0, a=0.5, D=0.3, c_B=1.0, R0=1.0)
    assert analytic_nutrient(0.0, 1.0, s2) == pytest.approx(0.7360407052479141, rel=1e-13)


def test_nutrient_profile_bounds_and_domain():
    s = mixed_setup()
    xs = np.linspace(-1.0, 1.0, 201)
    c = analytic_nutrient(xs, 1.0, s)
    floor = min(s.c_B, (1.0 - s.mu) * s.a)
    assert np.all(c >= floor - 1e-14)
    assert np.all(c <= s.c_B + 1e-14)
    with pytest.raises(ValueError):
        analytic_nutrient(1.5, 1.0, s)
    with pytest.raises(ValueError):
        analytic_pressure(np.array([0.0, 2.0]), 1.0, s)


def test_pressure_profile_values():
    s = pure_setup()
    assert analytic_pressure(1.0, 1.0, s) == pytest.approx(0.0, abs=1e-14)
    assert analytic_pressure(-1.0, 1.0, s) == pytest.approx(0.0, abs=1e-14)
    assert analytic_pressure(0.0, 1.0, s) == pytest.approx(0.35194572633611454, rel=1e-13)
    xs = np.linspace(-0.99, 0.99, 101)
    assert np.all(analytic_pressure(xs, 1.0, s) > 0.0)
    # even symmetry makes the centred difference at x=0 vanish
    h = 1e-6
    dp = (analytic_pressure(h, 1.0, s) - analytic_pressure(-h, 1.0, s)) / (2 * h)
    assert abs(dp) < 1e-9


@pytest.mark.parametrize("setup_fn", [mixed_setup, pure_setup])
def test_profiles_satisfy_stationary_balances(setup_fn):
    # second differences of the closed forms reproduce the source terms
    s = setup_fn()
    R = 1.0
    for dx in (1e-3, 5e-4):
        xs = np.linspace(-0.9, 0.9, int(1.8 / dx) + 1)
        c = analytic_nutrient(xs, R, s)
        p = analytic_pressure(xs, R, s)
        lap_c = (c[2:] - 2 * c[1:-1] + c[:-2]) / dx**2
        lap_p = (p[2:] - 2 * p[1:-1] + p[:-2]) / dx**2
        res_c = -lap_c + c[1:-1] - (1.0 - s.mu) * s.a
        res_p = -lap_p - (s.g * c[1:-1] - (1.0 - s.mu) * s.D)
        assert np.max(np.abs(res_c)) < 5 * dx**2
        assert np.max(np.abs(res_p)) < 5 * dx**2


def test_boundary_speed_values():
    assert boundary_speed(1.0, mixed_setup()) == pytest.approx(0.6779377936073749, rel=1e-13)
    # for a pure normal-cell slab the speed saturates at g*c_B as R grows
    assert boundary_speed(500.0, pure_setup()) == pytest.approx(1.0, rel=1e-12)
    # balanced growth and death leaves only the boundary-layer term
    s = AnalyticSetup(mu=0.5, g=1.0, a=0.3, D=0.3, c_B=1.0, R0=1.0)
    speeds = [boundary_speed(R, s) for R in (1.0, 10.0, 100.0, 700.0)]
    assert all(np.isfinite(v) for v in speeds)
    assert max(speeds) <= s.g * s.c_B + 1e-12


def test_boundary_speed_matches_pressure_gradient():
    # the front moves with -dp/dx evaluated at the edge (one-sided difference)
    s = mixed_setup()
    R = 1.3
    h = 1e-7
    grad = (analytic_pressure(R, R, s) - analytic_pressure(R - h, R, s)) / h
    assert boundary_speed(R, s) == pytest.approx(-grad, rel=1e-5)


def test_boundary_speed_equals_interior_source_integral():
    # speed identity: R' = (1/2) * integral of (g c - (1-mu) D) over the slab
    s = mixed_setup()
    R = 1.7
    xs = np.linspace(-R, R, 20001)
    src = s.g * analytic_nutrient(xs, R, s) - (1.0 - s.mu) * s.D
    assert boundary_speed(R, s) == pytest.approx(0.5 * np.trapezoid(src, xs), rel=1e-8)


def test_integrate_radius_pure_slab_closed_form():
    # with mu=1 the radius obeys sinh R(t) = sinh(R0) * exp(g c_B t)
    s = pure_setup(R0=1.0)
    traj = integrate_radius(s, t_end=1.0, dt=1e-3)
    assert traj.times[0] == 0.0
    assert traj.radii[0] == pytest.approx(1.0)
    assert traj.times[-1] == pytest.approx(1.0)
    assert traj.radii[-1] == pytest.approx(1.8782301658116511, rel=1e-10)
    expected = np.arcsinh(np.sinh(1.0) * np.exp(traj.times))
    np.testing.assert_allclose(traj.radii, expected, rtol=1e-9)


def test_integrate_radius_bookkeeping():
    s = mixed_setup()
    single = integrate_radius(s, t_end=0.0)
    assert len(single.times) == 1
    assert single.radii[0] == s.R0
    traj = integrate_radius(s, t_end=2.0, dt=1e-3)
    assert np.all(np.diff(traj.radii) > 0)
    for i in (0, len(traj.times) // 2, -1):
        assert traj.speeds[i] == pytest.approx(boundary_speed(traj.radii[i], s), rel=1e-12)
    with pytest.raises(ValueError):
        integrate_radius(s, t_end=-1.0)
    with pytest.raises(ValueError):
        integrate_radius(s, t_end=1.0, dt=0.0)


@pytest.mark.parametrize("field", ["mu", "g", "a", "D", "c_B", "R0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_setup_refuses_non_finite_fields(field, value):
    fields = {"mu": 0.5, "g": 1.0, "a": 0.5, "D": 0.3, "c_B": 1.0, "R0": 1.0, field: value}
    positive = "positive and " if field in ("g", "R0") else ""
    with pytest.raises(ValueError, match=f"^{field} must be {positive}finite"):
        AnalyticSetup(**fields)


@pytest.mark.parametrize("t_end, dt, message", [
    (math.inf, 1e-3, "t_end must be finite and >= 0"),
    (math.nan, 1e-3, "t_end must be finite and >= 0"),
    (1.0, math.nan, "dt must be finite and positive"),
    (1.0, math.inf, "dt must be finite and positive"),
])
def test_integrate_radius_refuses_non_finite_times(t_end, dt, message):
    with pytest.raises(ValueError, match=message):
        integrate_radius(mixed_setup(), t_end, dt)


def test_integrate_radius_raises_arithmetic_error_when_the_radius_leaves_its_range():
    # mu = 0 and g*a > D: R grows like exp(0.9 t) and overflows before t = 2000
    s = AnalyticSetup(mu=0.0, g=1.0, a=0.9, D=0.0, c_B=1.0, R0=1.0)
    with pytest.raises(ArithmeticError, match=r"front radius left \(0, inf\) at t="):
        integrate_radius(s, t_end=2000.0, dt=1.0)


def test_exp_growth_lower_bound_values():
    s = mixed_setup(R0=1.0)
    assert exp_growth_lower_bound(0.0, s) == pytest.approx(1.0)
    assert exp_growth_lower_bound(10.0, s) == pytest.approx(2.5229205897124993, rel=1e-13)
    # pure normal slab has no bulk death term, bound degenerates to R0
    assert exp_growth_lower_bound(7.0, pure_setup()) == pytest.approx(1.0)


def test_exp_growth_lower_bound_is_a_lower_bound():
    s = mixed_setup(R0=1.0)
    traj = integrate_radius(s, t_end=3.0, dt=1e-3)
    bounds = exp_growth_lower_bound(traj.times, s)
    assert np.all(traj.radii >= bounds - 1e-9)


def test_exp_growth_lower_bound_warns_on_decay():
    s = AnalyticSetup(mu=0.5, g=1.0, a=0.2, D=0.5, c_B=1.0, R0=1.0)
    with pytest.warns(UserWarning):
        v = exp_growth_lower_bound(1.0, s)
    assert v < 1.0


def test_assumption_violation_radius():
    # net growth positive everywhere when bulk death never dominates
    s_growing = mixed_setup()
    assert assumption_violation_radius(s_growing) == math.inf
    # death-dominated mixture: the critical radius satisfies
    # g * c(0; R_crit) = (1 - mu) * D exactly
    s = AnalyticSetup(mu=0.5, g=1.0, a=0.4, D=0.7, c_B=1.0, R0=1.0)
    r_crit = assumption_violation_radius(s)
    assert np.isfinite(r_crit) and r_crit > 0
    center = analytic_nutrient(0.0, r_crit, s)
    assert s.g * center - (1.0 - s.mu) * s.D == pytest.approx(0.0, abs=1e-12)
    # below the critical radius the centre still grows, above it decays
    below = analytic_nutrient(0.0, 0.9 * r_crit, s)
    above = analytic_nutrient(0.0, 1.1 * r_crit, s)
    assert s.g * below - (1.0 - s.mu) * s.D > 0
    assert s.g * above - (1.0 - s.mu) * s.D < 0

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_banded

from autophagy_tumor.grid import Grid1D, _edge_arrays, numerical_flux, pressure_from_density
from autophagy_tumor.diagnostics import support_components
from autophagy_tumor.kinetics import (
    AffineDeath,
    ConstantFlux,
    ConstantTransitions,
    HullTransitions,
    ModelParameters,
    NEUMANN,
    PeriodicFlux,
    Proportional,
    QUASISTATIC,
    equilibrium_roots,
    eval_flux,
    eval_growth,
    eval_transitions,
)
from autophagy_tumor.solver import (
    FieldState,
    SolverConfig,
    SolverError,
    StepDiagnostics,
    TridiagonalSystem,
    correct_densities,
    enlarge_domain_if_needed,
    predict_velocity,
    read_checkpoint,
    run,
    solve_nutrient_quasistatic,
    step,
    step_nutrient_neumann,
    write_checkpoint,
)

from conftest import make_state


def predict(state, params, dt):
    """predict_velocity with the growth rate that `step` computes once and
    passes on."""
    return predict_velocity(state, params, dt, eval_growth(params.growth, state.c, state.n))


def correct(state, u_star, params, dt):
    """correct_densities with the growth rate that `step` passes on."""
    growth = eval_growth(params.growth, state.c, state.n)
    return correct_densities(state, u_star, params, dt, growth)


def basic_params(gamma=2.0, g=1.0, D=0.0, K1=0.0, K2=0.0, a=0.5, c_B=1.0, **kw):
    return ModelParameters(
        gamma=gamma,
        growth=Proportional(g),
        D=D,
        transitions=ConstantTransitions(K1=K1, K2=K2),
        a=a,
        c_B=c_B,
        **kw,
    )


def neumann_params(**kw):
    kw.setdefault("nutrient_mode", NEUMANN)
    kw.setdefault("lambda_schedule", ConstantFlux(0.0))
    return basic_params(**kw)


# ---------------------------------------------------------------------------
# configuration and state containers


def test_solver_config_validation():
    SolverConfig(dt=0.01)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.01, support_threshold=0.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.01, enlargement_margin=2)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.01, sample_interval=0.0)


def test_field_state_shape_checks():
    g = Grid1D(x_min=0.0, dx=0.1, n_cells=5)
    FieldState(grid=g, n1=np.zeros(5), n2=np.zeros(5), c=np.ones(5), u=np.zeros(4), t=0.0)
    with pytest.raises(ValueError):
        FieldState(grid=g, n1=np.zeros(4), n2=np.zeros(5), c=np.ones(5), u=np.zeros(4), t=0.0)
    with pytest.raises(ValueError):
        FieldState(grid=g, n1=np.zeros(5), n2=np.zeros(5), c=np.ones(5), u=np.zeros(5), t=0.0)


def test_field_state_copy_is_deep():
    state = make_state(np.ones(5), np.zeros(5))
    dup = state.copy()
    dup.n1[0] = 7.0
    assert state.n1[0] == 1.0
    np.testing.assert_array_equal(state.n, np.ones(5))


def test_tridiagonal_matches_dense_solve(rng):
    m = 12
    lower = rng.random(m - 1) - 0.5
    upper = rng.random(m - 1) - 0.5
    diag = 3.0 + rng.random(m)
    rhs = rng.random(m)
    x = TridiagonalSystem(lower, diag, upper, rhs).solve()
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12)


def test_tridiagonal_matches_solve_banded_bit_for_bit(rng):
    # solve_banded uses the same LAPACK gtsv for (1, 1) bands
    for m in (2, 3, 12, 251):
        lower = rng.random(m - 1) - 0.5
        upper = rng.random(m - 1) - 0.5
        diag = 1.0 + rng.random(m)
        rhs = rng.random(m) - 0.5
        ab = np.zeros((3, m))
        ab[0, 1:] = upper
        ab[1, :] = diag
        ab[2, :-1] = lower
        x = TridiagonalSystem(lower, diag, upper, rhs).solve()
        np.testing.assert_array_equal(x, solve_banded((1, 1), ab, rhs))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["lower", "diag", "upper", "rhs"])
def test_tridiagonal_rejects_non_finite_entries(which, bad):
    arrays = {
        "lower": np.full(4, -1.0),
        "diag": np.full(5, 4.0),
        "upper": np.full(4, -1.0),
        "rhs": np.ones(5),
    }
    arrays[which][1] = bad
    with pytest.raises(SolverError):
        TridiagonalSystem(**arrays).solve()


def test_tridiagonal_singular_matrix_raises():
    # rows (1, 1) and (1, 1): elimination leaves a zero pivot
    system = TridiagonalSystem(np.ones(1), np.ones(2), np.ones(1), np.array([1.0, 2.0]))
    with pytest.raises(SolverError, match="singular"):
        system.solve()
    zero = TridiagonalSystem(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))
    with pytest.raises(SolverError, match="singular"):
        zero.solve()


def test_tridiagonal_non_finite_solution_raises():
    # finite entries whose solution overflows: x[0] = 1e300 / 1e-300
    system = TridiagonalSystem(
        np.zeros(1), np.array([1e-300, 1.0]), np.zeros(1), np.array([1e300, 1.0])
    )
    with np.errstate(over="ignore"), pytest.raises(SolverError, match="non-finite values"):
        system.solve()


def test_tridiagonal_reports_bad_gtsv_argument(monkeypatch):
    import autophagy_tumor.solver as solver

    def rejecting_gtsv(dl, d, du, b):
        return dl, d, du, b, -3

    monkeypatch.setattr(solver, "dgtsv", rejecting_gtsv)
    system = TridiagonalSystem(np.zeros(2), np.ones(3), np.zeros(2), np.ones(3))
    with pytest.raises(SolverError, match="bad argument 3 to gtsv"):
        system.solve()


def test_tridiagonal_one_by_one_divides():
    x = TridiagonalSystem(np.empty(0), np.array([4.0]), np.empty(0), np.array([3.0])).solve()
    np.testing.assert_array_equal(x, np.array([0.75]))


def test_quasistatic_single_cell_component_matches_dense():
    # a one-cell occupied component makes a 1x1 system
    dx = 0.1
    n1 = np.zeros(9)
    n2 = np.zeros(9)
    n1[4] = 0.7
    n2[4] = 0.2
    state = make_state(n1, n2, dx=dx)
    params = basic_params(a=0.5, c_B=1.5)
    c = solve_nutrient_quasistatic(state, params, 1e-8)
    dense = np.array([[2.0 / dx**2 + 0.9]])
    rhs = np.array([0.5 * 0.2 + 2.0 * 1.5 / dx**2])
    np.testing.assert_allclose(c[4:5], np.linalg.solve(dense, rhs), rtol=1e-14)
    np.testing.assert_array_equal(np.delete(c, 4), 1.5)


# ---------------------------------------------------------------------------
# velocity prediction


def test_predict_velocity_rejects_small_gamma():
    # the prediction needs gamma >= 2; ModelParameters refuses anything less,
    # so such a gamma never reaches predict_velocity
    state = make_state(np.ones(9), np.zeros(9))
    with pytest.raises(ValueError, match="requires gamma >= 2"):
        predict(state, basic_params(gamma=1.5), dt=0.01)


def test_predict_velocity_rest_state_stays_at_rest():
    # uniform density, uniform source, zero velocity: nothing moves
    state = make_state(0.4 * np.ones(15), 0.3 * np.ones(15))
    u = predict(state, basic_params(gamma=3.0, g=0.7, D=0.2), dt=0.02)
    np.testing.assert_array_equal(u, np.zeros(14))


def test_predict_velocity_vacuum_passes_input_through(rng):
    # with gamma > 2 the density weights vanish on vacuum, so away from the
    # pinned end faces the prediction is the identity
    m = 11
    state = make_state(np.zeros(m), np.zeros(m), u=rng.random(m - 1))
    u = predict(state, basic_params(gamma=3.0, g=0.0), dt=0.05)
    assert u[0] == 0.0 and u[-1] == 0.0
    np.testing.assert_array_equal(u[1:-1], state.u[1:-1])


def test_predict_velocity_sine_mode_exact():
    # gamma = 2 on a uniform slab makes the implicit operator I + A*n0*L with
    # L the discrete Laplacian pinned at both end faces; discrete sine modes
    # are its eigenvectors, so the solve divides by the known eigenvalue.
    N, dx, dt, n0 = 23, 0.1, 0.01, 0.7
    theta = math.pi / (N - 2)
    k = np.arange(N - 1)
    u_in = np.sin(theta * k)
    state = make_state(
        n0 * np.ones(N), np.zeros(N), u=u_in, dx=dx
    )
    params = basic_params(gamma=2.0, g=0.0)
    A = params.gamma * dt / dx**2
    expected = u_in / (1.0 + 4.0 * A * n0 * math.sin(theta / 2.0) ** 2)
    u = predict(state, params, dt)
    np.testing.assert_allclose(u, expected, rtol=1e-12, atol=1e-14)


def test_predict_velocity_mirror_antisymmetry():
    # even density profile: the predicted face field is odd about the center
    m = 21
    x = (np.arange(m) - (m - 1) / 2) * 0.1
    n = np.exp(-x**2)
    state = make_state(0.6 * n, 0.4 * n, dx=0.1)
    u = predict(state, basic_params(gamma=2.0, g=1.0, D=0.3), dt=0.01)
    np.testing.assert_allclose(u, -u[::-1], atol=1e-12)
    assert np.max(np.abs(u)) > 1e-4  # the test is not vacuous


# ---------------------------------------------------------------------------
# transport + reaction correction


def test_correct_densities_pure_transport_is_identity(rng):
    # no velocity, no reaction: the implicit 2x2 solve reduces to exact
    # scaling by powers of two when dt is one
    dt = 1.0 / 512.0
    n1 = rng.random(13)
    n2 = rng.random(13)
    state = make_state(n1, n2)
    params = basic_params(g=0.0)
    out1, out2, clamped = correct(state, np.zeros(12), params, dt)
    assert clamped == 0.0
    np.testing.assert_array_equal(out1, n1)
    np.testing.assert_array_equal(out2, n2)


def test_correct_densities_growth_only_backward_euler():
    # K = 0, D = 0: each species obeys n' = n/(1 - G*dt)
    dt = 0.05
    c0 = 0.8
    n1 = np.array([0.0, 0.2, 0.5, 0.2, 0.0])
    n2 = np.array([0.0, 0.1, 0.1, 0.1, 0.0])
    state = make_state(n1, n2, c=np.full(5, c0))
    params = basic_params(g=1.25)
    out1, out2, clamped = correct(state, np.zeros(4), params, dt)
    G = 1.25 * c0
    np.testing.assert_allclose(out1, n1 / (1.0 - G * dt), rtol=1e-14)
    np.testing.assert_allclose(out2, n2 / (1.0 - G * dt), rtol=1e-14)
    assert clamped == 0.0


def test_correct_densities_exchange_splits_mass():
    # start all normal; one implicit step with K1 = K2 = 1, dt = 0.1 moves
    # exactly 1/12 of the mass across
    dt = 0.1
    state = make_state(np.ones(5), np.zeros(5))
    params = basic_params(g=0.0, K1=1.0, K2=1.0)
    out1, out2, _ = correct(state, np.zeros(4), params, dt)
    np.testing.assert_allclose(out1, 11.0 / 12.0, rtol=1e-14)
    np.testing.assert_allclose(out2, 1.0 / 12.0, rtol=1e-14)
    np.testing.assert_allclose(out1 + out2, 1.0, rtol=1e-14)


def test_correct_densities_transports_with_given_velocity():
    # uniform rightward velocity advects a step profile: donor cells lose
    # mass, receiving cells gain it, total is conserved
    dt = 0.01
    dx = 0.1
    n1 = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    state = make_state(n1, np.zeros(7), dx=dx)
    u_star = np.full(6, 0.5)
    params = basic_params(g=0.0)
    out1, out2, clamped = correct(state, u_star, params, dt)
    assert clamped == 0.0
    np.testing.assert_array_equal(out2, np.zeros(7))
    assert np.sum(out1) == pytest.approx(np.sum(n1), rel=1e-14)
    assert out1[5] > 0.0  # downstream cell received mass
    assert out1[2] < 1.0  # upstream edge cell drained


def test_correct_densities_singular_reaction_raises():
    # growth tuned to 1/dt makes the implicit matrix singular
    dt = 0.1
    state = make_state(0.5 * np.ones(5), np.zeros(5), c=np.full(5, 10.0))
    params = basic_params(g=1.0)  # G = c = 10 = 1/dt
    with pytest.raises(SolverError):
        correct(state, np.zeros(4), params, dt)


def test_correct_densities_clamps_negative_mass():
    # G = 20 with dt = 0.1 flips the sign: n' = n/(1 - 2) = -n, all clamped
    dt = 0.1
    n1 = np.array([0.0, 0.3, 0.6, 0.3, 0.0])
    state = make_state(n1, np.zeros(5), c=np.full(5, 10.0), dx=0.1)
    params = basic_params(g=2.0)
    out1, out2, clamped = correct(state, np.zeros(4), params, dt)
    np.testing.assert_array_equal(out1, np.zeros(5))
    assert clamped == pytest.approx(0.1 * np.sum(n1), rel=1e-13)


def correct_densities_per_species(state, u_star, params, dt):
    """Reference: the transport half of correct_densities run once per
    species on 1-D arrays, followed by the same reaction solve."""
    dx = state.grid.dx
    growth = eval_growth(params.growth, state.c, state.n)
    K1, K2 = eval_transitions(params.transitions, state.c)
    div = []
    for ns in (state.n1, state.n2):
        left, right = _edge_arrays(ns, dx)
        flux = numerical_flux(left, right, u_star)
        div.append(np.diff(np.concatenate(([0.0], flux, [0.0]))) / dx)
    a11 = 1.0 / dt - growth + K1
    a22 = 1.0 / dt - (growth - params.D) + K2
    det = a11 * a22 - K1 * K2
    r1 = state.n1 / dt - div[0]
    r2 = state.n2 / dt - div[1]
    n1_new = (a22 * r1 + K2 * r2) / det
    n2_new = (K1 * r1 + a11 * r2) / det
    clamped = 0.0
    for arr in (n1_new, n2_new):
        neg = arr < 0.0
        if neg.any():
            clamped -= dx * float(np.sum(arr[neg]))
            arr[neg] = 0.0
    return n1_new, n2_new, clamped


@pytest.mark.parametrize("m, dt", [(3, 0.01), (4, 0.01), (41, 0.01), (41, 0.2)])
def test_correct_densities_matches_per_species_reference(rng, m, dt):
    # dt = 0.2 puts the CFL number near 8 and drives cells negative
    n1 = rng.random(m) * (rng.random(m) > 0.3)
    n2 = rng.random(m) * (rng.random(m) > 0.3)
    state = make_state(n1, n2, c=0.2 + rng.random(m), dx=0.05)
    u_star = 4.0 * (rng.random(m - 1) - 0.5)
    params = basic_params(g=1.3, D=0.4, K1=0.7, K2=1.1)
    got = correct(state, u_star, params, dt)
    want = correct_densities_per_species(state, u_star, params, dt)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert (want[2] > 0.0) == (dt > 0.1)


# ---------------------------------------------------------------------------
# nutrient field, instantaneous closure


def quasistatic_case(mu, a, R, dx, pad=6):
    # occupied cells strictly inside (-R, R); the first vacuum cells sit at
    # exactly +-R where the ambient value is imposed
    n_side = int(round(R / dx))
    m = 2 * (n_side + pad) + 1
    x = (np.arange(m) - (m - 1) / 2) * dx
    n = np.where(np.abs(x) <= R - dx / 2, 1.0, 0.0)
    state = make_state(mu * n, (1 - mu) * n, dx=dx)
    return state, x


def test_quasistatic_vacuum_gives_ambient():
    state = make_state(np.zeros(9), np.zeros(9))
    c = solve_nutrient_quasistatic(state, basic_params(c_B=1.25), 1e-8)
    np.testing.assert_array_equal(c, np.full(9, 1.25))


def test_quasistatic_matches_closed_form_and_converges():
    # mixed slab with mu = 0.5, a = 0.5, c_B = 1 on [-1, 1]:
    # c(x) = 0.25 + 0.75*cosh(x)/cosh(1), c(0) = 0.7360407052479141
    mu, a, R = 0.5, 0.5, 1.0
    params = basic_params(a=a, c_B=1.0)
    errors = []
    for dx in (R / 20, R / 40, R / 80):
        state, x = quasistatic_case(mu, a, R, dx)
        c = solve_nutrient_quasistatic(state, params, 1e-8)
        exact = 0.25 + 0.75 * np.cosh(x) / np.cosh(1.0)
        inside = np.abs(x) <= R + dx / 2
        errors.append(np.max(np.abs(c[inside] - exact[inside])))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.9)
    state, x = quasistatic_case(mu, a, R, R / 80)
    c = solve_nutrient_quasistatic(state, params, 1e-8)
    center = c[np.argmin(np.abs(x))]
    assert center == pytest.approx(0.7360407052479141, abs=2e-4)


def test_quasistatic_pure_normal_center_value():
    # mu = 1 slab: c(0) -> 1/cosh(1)
    state, x = quasistatic_case(1.0, 0.5, 1.0, 1.0 / 80)
    c = solve_nutrient_quasistatic(state, basic_params(a=0.5, c_B=1.0), 1e-8)
    center = c[np.argmin(np.abs(x))]
    assert center == pytest.approx(0.6480542736638855, abs=2e-4)


def test_quasistatic_components_solved_independently():
    dx = 0.1
    n = np.zeros(41)
    n[8:12] = 1.0
    n[28:33] = 1.0
    state = make_state(n, np.zeros(41), dx=dx)
    c = solve_nutrient_quasistatic(state, basic_params(a=0.0, c_B=2.0), 1e-8)
    # gap and exterior hold the ambient level exactly
    np.testing.assert_array_equal(c[:8], 2.0)
    np.testing.assert_array_equal(c[12:28], 2.0)
    np.testing.assert_array_equal(c[33:], 2.0)
    # consumption without release depresses the level inside each bump
    assert np.all(c[8:12] < 2.0)
    assert np.all(c[28:33] < 2.0)
    assert np.all(c > 0.0)


def test_quasistatic_edge_contact_raises():
    n = np.zeros(9)
    n[0:3] = 1.0
    state = make_state(n, np.zeros(9))
    with pytest.raises(SolverError):
        solve_nutrient_quasistatic(state, basic_params(), 1e-8)


# ---------------------------------------------------------------------------
# nutrient field, flux-driven box


def test_neumann_uniform_fixed_point():
    # c with c*n = a*n2 uniform and zero wall flux is a steady state
    m = 25
    n1 = np.full(m, 0.3)
    n2 = np.full(m, 0.5)
    params = neumann_params(a=0.5)
    c0 = params.a * n2[0] / (n1[0] + n2[0])
    state = make_state(n1, n2, c=np.full(m, c0))
    c, clamped = step_nutrient_neumann(state, params, dt=0.01, t_new=0.01)
    assert clamped == 0
    np.testing.assert_allclose(c, c0, rtol=1e-12)


def test_neumann_wall_rows_hold_exactly():
    m = 31
    lam = 0.3
    state = make_state(np.full(m, 0.4), np.full(m, 0.2), c=np.ones(m), dx=0.1)
    params = neumann_params(a=0.5, lambda_schedule=ConstantFlux(lam))
    c, clamped = step_nutrient_neumann(state, params, dt=0.01, t_new=0.01)
    assert clamped == 0
    assert c[1] - c[0] == pytest.approx(lam * 0.1, rel=1e-12)
    assert c[-2] - c[-1] == pytest.approx(lam * 0.1, rel=1e-12)


def test_neumann_interior_balance_identity():
    # summing the interior rows telescopes diffusion against the wall rows:
    # dx * sum_int[(c' - c)/dt + c'*n - a*n2] = -2*lambda exactly
    m = 41
    dx = 0.1
    dt = 0.01
    lam = 0.3
    x = (np.arange(m) - (m - 1) / 2) * dx
    n1 = 0.4 * np.exp(-x**2)
    n2 = 0.3 * np.exp(-(x - 0.2) ** 2)
    c_old = 1.0 + 0.1 * np.cos(x)
    state = make_state(n1, n2, c=c_old, dx=dx)
    params = neumann_params(a=0.5, lambda_schedule=ConstantFlux(lam))
    c, clamped = step_nutrient_neumann(state, params, dt=dt, t_new=dt)
    assert clamped == 0
    n = n1 + n2
    interior = slice(1, m - 1)
    budget = dx * np.sum(
        (c[interior] - c_old[interior]) / dt
        + c[interior] * n[interior]
        - params.a * n2[interior]
    )
    assert budget == pytest.approx(-2.0 * lam, abs=1e-9)


def test_neumann_positive_flux_drains_the_box():
    m = 25
    state = make_state(np.zeros(m), np.zeros(m), c=np.ones(m), dx=0.1)
    params = neumann_params(a=0.0, lambda_schedule=ConstantFlux(0.4))
    c, _ = step_nutrient_neumann(state, params, dt=0.05, t_new=0.05)
    assert np.sum(c[1:-1]) < np.sum(np.ones(m)[1:-1])
    # and an inward (negative) flux replenishes it
    params_in = neumann_params(a=0.0, lambda_schedule=ConstantFlux(-0.4))
    c_in, _ = step_nutrient_neumann(state, params_in, dt=0.05, t_new=0.05)
    assert np.sum(c_in[1:-1]) > np.sum(c[1:-1])


def test_neumann_clamps_negative_cells():
    m = 25
    state = make_state(np.zeros(m), np.zeros(m), c=np.zeros(m), dx=0.1)
    params = neumann_params(a=0.0, lambda_schedule=ConstantFlux(2.0))
    c, clamped = step_nutrient_neumann(state, params, dt=0.05, t_new=0.05)
    assert clamped > 0
    assert np.all(c >= 0.0)


# ---------------------------------------------------------------------------
# adaptive domain


def test_enlarge_noop_when_gap_is_wide():
    n = np.zeros(31)
    n[14:17] = 1.0
    state = make_state(n, np.zeros(31))
    cfg = SolverConfig(dt=0.01, enlargement_margin=5)
    out, changed = enlarge_domain_if_needed(state, basic_params(), cfg)
    assert not changed
    assert out is state


def test_enlarge_pads_to_double_margin():
    dx = 0.1
    n = np.zeros(21)
    n[3:18] = 1.0  # gaps of 3 cells on both sides, margin 5
    c = np.linspace(0.5, 1.5, 21)
    u = np.linspace(-1.0, 1.0, 20)
    state = make_state(n, 0.5 * n, c=c, u=u, dx=dx)
    cfg = SolverConfig(dt=0.01, enlargement_margin=5)
    params = basic_params(c_B=2.0)
    out, changed = enlarge_domain_if_needed(state, params, cfg)
    assert changed
    pad_left = 2 * 5 - 3
    idx = np.flatnonzero(out.n > cfg.support_threshold)
    assert idx[0] == 10 and out.grid.n_cells - 1 - idx[-1] == 10
    # geometry shifts, physical coordinates are preserved
    assert out.grid.x_min == pytest.approx(state.grid.x_min - pad_left * dx)
    np.testing.assert_array_equal(out.n1[pad_left:pad_left + 21], state.n1)
    np.testing.assert_array_equal(out.c[pad_left:pad_left + 21], c)
    np.testing.assert_array_equal(out.u[pad_left:pad_left + 20], u)
    assert np.all(out.c[:pad_left] == 2.0)
    assert np.all(out.u[:pad_left] == 0.0)
    assert out.t == state.t


def enlargement_pads_by_scan(n, threshold, margin):
    """The enlargement decision from a scan of the whole support."""
    idx = np.flatnonzero(n > threshold)
    if idx.size == 0:
        return 0, 0
    left_gap = int(idx[0])
    right_gap = int(n.size - 1 - idx[-1])
    pad_left = 2 * margin - left_gap if left_gap <= margin else 0
    pad_right = 2 * margin - right_gap if right_gap <= margin else 0
    return pad_left, pad_right


_THRESHOLD = 1e-8


@settings(max_examples=300, deadline=None)
@given(
    margin=st.integers(3, 9),
    cells=st.lists(st.sampled_from([0.0, _THRESHOLD, 2 * _THRESHOLD, 0.5]), min_size=3, max_size=40),
)
@example(margin=3, cells=[0.0] * 12)  # empty support
@example(margin=3, cells=[0.0] * 3 + [0.5] + [0.0] * 12)  # inside the left window only
@example(margin=3, cells=[0.0] * 12 + [0.5] + [0.0] * 3)  # inside the right window only
@example(margin=3, cells=[0.0] * 8 + [0.5] + [0.0] * 8)  # between the windows
@example(margin=3, cells=[0.0, 0.5, 0.0])  # grid shorter than the margin
@example(margin=5, cells=[0.0] * 4 + [0.5] + [0.0] * 4)  # windows overlap
@example(margin=3, cells=[0.0, 0.0, 0.0, _THRESHOLD, 0.0])  # at the threshold is vacuum
def test_enlarge_edge_windows_match_support_scan(margin, cells):
    n = np.array(cells)
    state = make_state(0.5 * n, 0.5 * n, dx=0.1)
    cfg = SolverConfig(dt=0.01, support_threshold=_THRESHOLD, enlargement_margin=margin)
    pad_left, pad_right = enlargement_pads_by_scan(n, _THRESHOLD, margin)
    out, changed = enlarge_domain_if_needed(state, basic_params(), cfg)
    assert changed == (pad_left > 0 or pad_right > 0)
    assert out.grid.n_cells == n.size + pad_left + pad_right
    assert out.grid.x_min == state.grid.x_min - pad_left * 0.1
    assert np.array_equal(out.n1[pad_left : pad_left + n.size], state.n1)


def test_enlarge_ignores_empty_state():
    state = make_state(np.zeros(9), np.zeros(9))
    cfg = SolverConfig(dt=0.01, enlargement_margin=4)
    out, changed = enlarge_domain_if_needed(state, basic_params(), cfg)
    assert not changed and out is state


# ---------------------------------------------------------------------------
# full step and time loop


def bump_state(m=61, dx=0.1, amp=0.8, width=1.0, frac=0.6):
    x = (np.arange(m) - (m - 1) / 2) * dx
    n = amp * np.clip(1.0 - (x / width) ** 2, 0.0, None)
    return make_state(frac * n, (1 - frac) * n, dx=dx)


def test_step_zero_state_is_fixed_point():
    state = make_state(np.zeros(15), np.zeros(15), c=np.ones(15))
    params = basic_params(g=1.0, K1=1.0, K2=1.0, c_B=1.0)
    cfg = SolverConfig(dt=0.01)
    new, diag = step(state, params, cfg)
    np.testing.assert_array_equal(new.n1, np.zeros(15))
    np.testing.assert_array_equal(new.n2, np.zeros(15))
    np.testing.assert_array_equal(new.c, np.ones(15))
    np.testing.assert_array_equal(new.u, np.zeros(14))
    assert diag.clamped_mass == 0.0
    assert new.t == pytest.approx(0.01)


def test_step_preserves_mirror_symmetry():
    state = bump_state()
    params = basic_params(g=1.0, D=0.3, K1=1.0, K2=1.0)
    cfg = SolverConfig(dt=0.005)
    new, _ = step(state, params, cfg)
    assert np.max(np.abs(new.n1 - new.n1[::-1])) < 1e-12
    assert np.max(np.abs(new.n2 - new.n2[::-1])) < 1e-12
    assert np.max(np.abs(new.c - new.c[::-1])) < 1e-12
    assert np.max(np.abs(new.u + new.u[::-1])) < 1e-12


def test_step_updates_velocity_from_new_pressure():
    state = bump_state()
    params = basic_params(g=1.0, D=0.3, K1=1.0, K2=1.0)
    cfg = SolverConfig(dt=0.005)
    new, _ = step(state, params, cfg)
    p = pressure_from_density(new.n, params.gamma)
    np.testing.assert_allclose(new.u, -np.diff(p) / new.grid.dx, atol=1e-15)


def test_step_discrete_mass_balance():
    # without clamping the implicit reaction makes the mass budget exact:
    # (mass' - mass)/dt = dx * sum(G*n1' + (G - D)*n2') with G from the old
    # nutrient field
    from autophagy_tumor.kinetics import eval_growth

    state = bump_state()
    state.c = solve_nutrient_quasistatic(
        state, basic_params(a=0.5, D=0.3), 1e-8
    )
    params = basic_params(g=1.0, D=0.3, K1=1.0, K2=1.0, a=0.5)
    cfg = SolverConfig(dt=0.002, enlargement_margin=5)
    new, diag = step(state, params, cfg)
    assert new.grid.n_cells == state.grid.n_cells
    assert diag.clamped_mass == 0.0
    dx = state.grid.dx
    mass_old = dx * np.sum(state.n)
    mass_new = dx * np.sum(new.n)
    G = eval_growth(params.growth, state.c, state.n)
    source = dx * np.sum(G * new.n1 + (G - params.D) * new.n2)
    assert (mass_new - mass_old) / cfg.dt == pytest.approx(source, abs=1e-10)


@pytest.mark.parametrize(
    "bad, named",
    [
        (("n1",), "n1"),
        (("n2",), "n2"),
        (("c",), "c"),
        (("u",), "u"),
        (("n1", "n2"), "n1"),
        (("n2", "c"), "n2"),
        (("c", "u"), "c"),
    ],
)
def test_step_names_the_first_non_finite_field(monkeypatch, bad, named):
    # one non-finite cell injected where `step` gets each bad field; the
    # error names the first bad field in the order n1, n2, c, u
    import autophagy_tumor.solver as solver

    def poisoned(func, *rows):
        def wrapper(*args, **kwargs):
            out = func(*args, **kwargs)
            for row in rows:
                (out if row is None else out[row])[3] = np.inf
            return out

        return wrapper

    rows = [("n1", "n2").index(f) for f in bad if f in ("n1", "n2")]
    if rows:
        monkeypatch.setattr(solver, "correct_densities", poisoned(solver.correct_densities, *rows))
    if "c" in bad:
        monkeypatch.setattr(
            solver, "step_nutrient_neumann", poisoned(solver.step_nutrient_neumann, 0)
        )
    if "u" in bad:
        monkeypatch.setattr(
            solver, "pressure_from_density", poisoned(solver.pressure_from_density, None)
        )
    # the fixed box: no enlargement, and the nutrient step reads the old state
    state = bump_state()
    params = neumann_params(g=1.0, D=0.3, K1=1.0, K2=1.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(SolverError, match=f"non-finite values in {named} at t=0.005$") as err:
            step(state, params, SolverConfig(dt=0.005))
    assert err.value.state is state
    assert err.value.t == 0.005


def test_run_zero_steps_returns_empty_series():
    state = bump_state()
    res = run(state, basic_params(), SolverConfig(dt=0.01), t_end=0.0)
    assert res.series.data.shape[0] == 0
    assert res.log.steps == 0
    np.testing.assert_array_equal(res.final_state.n1, state.n1)


def test_run_rejects_t_end_before_the_initial_time():
    # it used to run 0 steps and warn that t_end was not a whole number of steps
    state = bump_state()
    state.t = 1.0
    with pytest.raises(ValueError, match="t_end 0.01 precedes the initial time 1"):
        run(state, basic_params(), SolverConfig(dt=0.01), t_end=0.01)


def test_run_is_deterministic():
    state = bump_state()
    params = basic_params(g=1.0, D=0.3, K1=1.0, K2=1.0, a=0.5)
    cfg = SolverConfig(dt=0.005, sample_interval=0.05)
    r1 = run(state.copy(), params, cfg, t_end=0.2)
    r2 = run(state.copy(), params, cfg, t_end=0.2)
    np.testing.assert_array_equal(r1.final_state.n1, r2.final_state.n1)
    np.testing.assert_array_equal(r1.final_state.n2, r2.final_state.n2)
    np.testing.assert_array_equal(r1.final_state.c, r2.final_state.c)
    np.testing.assert_array_equal(r1.series.data, r2.series.data)


def test_run_front_expands_and_series_is_sampled():
    state = bump_state(amp=0.9)
    params = basic_params(g=1.0, K1=1.0, K2=1.0, a=0.5)
    cfg = SolverConfig(dt=0.005, sample_interval=0.1)
    res = run(state, params, cfg, t_end=1.0)
    assert res.log.steps == 200
    radius = res.series.column("radius")
    assert res.series.times[0] == 0.0
    assert res.series.times[-1] == pytest.approx(1.0)
    assert len(res.series.times) == 11
    assert radius[-1] > radius[0]
    mass = res.series.column("mass_total")
    assert np.all(np.diff(mass) > 0)  # pure growth, no death
    assert not res.log.violations


def test_run_snapshots_at_requested_times():
    state = bump_state()
    params = basic_params(g=1.0, K1=1.0, K2=1.0)
    cfg = SolverConfig(dt=0.01)
    res = run(state, params, cfg, t_end=0.1, snapshot_times=(0.0, 0.05))
    assert set(res.snapshots) == {0.0, 0.05}
    np.testing.assert_array_equal(res.snapshots[0.0].n1, state.n1)
    assert res.snapshots[0.05].t == pytest.approx(0.05)


def test_run_grows_domain_before_the_front_arrives():
    # start with the support close to the edge; the padded mode must extend
    # the grid rather than fail
    m = 31
    x = (np.arange(m) - (m - 1) / 2) * 0.1
    n = 0.8 * np.clip(1.0 - (x / 1.2) ** 2, 0.0, None)
    state = make_state(0.5 * n, 0.5 * n, dx=0.1)
    params = basic_params(g=1.0, K1=1.0, K2=1.0, a=0.5)
    cfg = SolverConfig(dt=0.005, enlargement_margin=4)
    res = run(state, params, cfg, t_end=0.5)
    assert res.final_state.grid.n_cells > m
    assert not res.log.violations


def test_run_composition_relaxes_toward_equilibrium():
    state = bump_state(frac=1.0)  # all normal cells initially
    params = basic_params(g=1.0, D=0.3, K1=1.0, K2=1.0, a=0.5)
    cfg = SolverConfig(dt=0.005, sample_interval=0.1)
    res = run(state, params, cfg, t_end=2.0)
    dev = res.series.column("sup_dev")
    eq = equilibrium_roots(0.3, 1.0, 1.0)
    assert dev[0] == pytest.approx(1.0 - eq.mu_star, abs=1e-12)
    assert dev[-1] < 0.1 * dev[0]
    assert np.all(np.diff(dev) < 0)


# ---------------------------------------------------------------------------
# reference step: the scheme written without shared intermediates, each
# helper rebuilding n1 + n2, the growth rate and the support itself with the
# numpy wrapper functions. `step` must match it bit for bit.


def reference_components(n, threshold):
    idx = np.flatnonzero(n > threshold)
    if idx.size == 0:
        return ()
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return tuple((int(idx[s]), int(idx[e])) for s, e in zip(starts, ends))


def reference_enlarge(state, params, cfg):
    """Returns (state, enlarged)."""
    idx = np.flatnonzero(state.n > cfg.support_threshold)
    if idx.size == 0:
        return state, False
    n_cells = state.grid.n_cells
    margin = cfg.enlargement_margin
    left_gap = int(idx[0])
    right_gap = int(n_cells - 1 - idx[-1])
    pad_left = 2 * margin - left_gap if left_gap <= margin else 0
    pad_right = 2 * margin - right_gap if right_gap <= margin else 0
    if pad_left == 0 and pad_right == 0:
        return state, False
    grid = Grid1D(
        x_min=state.grid.x_min - pad_left * state.grid.dx,
        dx=state.grid.dx,
        n_cells=n_cells + pad_left + pad_right,
    )
    zl = np.zeros(pad_left)
    zr = np.zeros(pad_right)
    cl = np.full(pad_left, params.c_B)
    cr = np.full(pad_right, params.c_B)
    return FieldState(
        grid=grid,
        n1=np.concatenate((zl, state.n1, zr)),
        n2=np.concatenate((zl, state.n2, zr)),
        c=np.concatenate((cl, state.c, cr)),
        u=np.concatenate((zl, state.u, zr)),
        t=state.t,
    ), True


def reference_predict(state, params, dt):
    gamma = params.gamma
    dx = state.grid.dx
    n = state.n
    w = n ** (gamma - 2.0)
    growth = eval_growth(params.growth, state.c, n)
    source = state.n1 * growth + state.n2 * (growth - params.D)
    A = gamma * dt / dx**2
    B = gamma * dt / dx
    m = 0.5 * (n[:-1] + n[1:])
    diag = 1.0 + A * m * (w[:-1] + w[1:])
    upper = -A * w[1:-1] * m[1:]
    lower = -A * w[1:-1] * m[:-1]
    rhs = state.u - B * (w[1:] * source[1:] - w[:-1] * source[:-1])
    diag[0] = diag[-1] = 1.0
    rhs[0] = rhs[-1] = 0.0
    upper[0] = lower[-1] = 0.0
    return TridiagonalSystem(lower, diag, upper, rhs).solve()


def reference_quasistatic(state, params, threshold):
    dx = state.grid.dx
    c = np.full(state.grid.n_cells, params.c_B)
    n = state.n
    for s, e in reference_components(n, threshold):
        assert 0 < s and e < state.grid.n_cells - 1
        off = np.full(e - s, -1.0 / dx**2)
        rhs = params.a * state.n2[s : e + 1].copy()
        rhs[0] += params.c_B / dx**2
        rhs[-1] += params.c_B / dx**2
        diag = 2.0 / dx**2 + n[s : e + 1]
        c[s : e + 1] = TridiagonalSystem(off, diag, off.copy(), rhs).solve()
    return c


def reference_neumann(state, params, dt, t_new):
    """Returns (c, number of clamped cells)."""
    dx = state.grid.dx
    m = state.grid.n_cells
    lam = eval_flux(params.lambda_schedule, t_new)
    diag = 1.0 / dt + 2.0 / dx**2 + state.n
    lower = np.full(m - 1, -1.0 / dx**2)
    upper = np.full(m - 1, -1.0 / dx**2)
    rhs = state.c / dt + params.a * state.n2
    diag[0] = diag[-1] = -1.0
    upper[0] = lower[-1] = 1.0
    rhs[0] = rhs[-1] = lam * dx
    c = TridiagonalSystem(lower, diag, upper, rhs).solve()
    clamped = int(np.count_nonzero(c < 0.0))
    c[c < 0.0] = 0.0
    return c, clamped


def reference_step(state, params, cfg):
    """Returns (new state, StepDiagnostics) with the clamped density mass,
    the CFL number, the clamped nutrient cells and the enlarged flag."""
    dt = cfg.dt
    enlarged = False
    if params.nutrient_mode == QUASISTATIC:
        state, enlarged = reference_enlarge(state, params, cfg)
    u_star = reference_predict(state, params, dt)
    cfl = float(np.max(np.abs(u_star)) * dt / state.grid.dx) if len(u_star) else 0.0
    n1, n2, clamped = correct_densities_per_species(state, u_star, params, dt)
    new = FieldState(grid=state.grid, n1=n1, n2=n2, c=state.c, u=state.u, t=state.t + dt)
    p = pressure_from_density(new.n, params.gamma)
    new.u = -np.diff(p) / state.grid.dx
    nutrient_clamped = 0
    if params.nutrient_mode == QUASISTATIC:
        new.c = reference_quasistatic(new, params, cfg.support_threshold)
    else:
        new.c, nutrient_clamped = reference_neumann(state, params, dt, new.t)
    return new, StepDiagnostics(
        cfl=cfl, clamped_mass=clamped, nutrient_cells_clamped=nutrient_clamped, enlarged=enlarged
    )


def two_bump_state(m=121, dx=0.1):
    x = (np.arange(m) - (m - 1) / 2) * dx
    n = 0.8 * np.clip(1.0 - ((np.abs(x) - 2.5) / 0.8) ** 2, 0.0, None)
    return make_state(0.7 * n, 0.3 * n, dx=dx)


def hull_box_state(m=101, dx=0.08):
    x = (np.arange(m) - (m - 1) / 2) * dx
    n = np.clip(1.0 - np.cosh(x) / np.cosh(2.5), 0.0, None) ** (1.0 / 39.0)
    return make_state(n, np.zeros(m), c=0.5 + 0.1 * np.cos(x), dx=dx)


def edge_bump_state():
    m = 31
    x = (np.arange(m) - (m - 1) / 2) * 0.1
    n = 0.8 * np.clip(1.0 - (x / 1.2) ** 2, 0.0, None)
    return make_state(0.5 * n, 0.5 * n, dx=0.1)


REFERENCE_CASES = {
    # support within the margin of both edges: the grid grows on step one
    "padded-enlarges": (
        edge_bump_state,
        basic_params(g=1.0, K1=1.0, K2=1.0, a=0.5),
        SolverConfig(dt=0.005, enlargement_margin=4),
    ),
    "two-components": (
        two_bump_state,
        basic_params(gamma=3.0, g=1.0, D=0.3, K1=1.0, K2=0.5, a=0.5),
        SolverConfig(dt=0.005, enlargement_margin=5),
    ),
    # stiff pressure, starvation-switching rates, a periodic wall flux
    "neumann-hull": (
        hull_box_state,
        ModelParameters(
            gamma=40.0,
            D=0.1,
            a=0.5,
            c_B=1.0,
            growth=AffineDeath(delta=0.5),
            transitions=HullTransitions(k1max=2.0, k2max=1.0, omega=0.5),
            nutrient_mode=NEUMANN,
            lambda_schedule=PeriodicFlux(high=0.3, period=0.1),
        ),
        SolverConfig(dt=0.002),
    ),
    # an outward wall flux larger than the supply: the nutrient step clamps
    # negative cells on most steps
    "neumann-nutrient-clamps": (
        hull_box_state,
        ModelParameters(
            gamma=40.0,
            D=0.1,
            a=0.5,
            c_B=1.0,
            growth=AffineDeath(delta=0.5),
            transitions=HullTransitions(k1max=2.0, k2max=1.0, omega=0.5),
            nutrient_mode=NEUMANN,
            lambda_schedule=ConstantFlux(2.0),
        ),
        SolverConfig(dt=0.002),
    ),
    # too large a step: the CFL number climbs past one and the transport
    # drives cells negative on most steps
    "clamps": (
        bump_state,
        basic_params(g=1.0, D=0.3, K1=1.0, K2=1.0, a=0.5),
        SolverConfig(dt=0.08, enlargement_margin=5),
    ),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_step_matches_reference_bit_for_bit(case):
    make, params, cfg = REFERENCE_CASES[case]
    state = ref = make()
    n_cells0 = state.grid.n_cells
    clamped = 0.0
    enlargements = nutrient_clamps = 0
    for j in range(50):
        state, diag = step(state, params, cfg)
        ref, ref_diag = reference_step(ref, params, cfg)
        # every per-step diagnostic, not only their sums
        assert diag == ref_diag, j
        clamped += diag.clamped_mass
        enlargements += diag.enlarged
        nutrient_clamps += diag.nutrient_cells_clamped
    for name in ("n1", "n2", "c", "u"):
        assert np.array_equal(getattr(state, name), getattr(ref, name)), name
    assert state.grid == ref.grid
    # each case exercises what it is named for
    if case == "padded-enlarges":
        assert state.grid.n_cells > n_cells0
        assert enlargements > 0
    elif case == "two-components":
        assert len(support_components(state.n > cfg.support_threshold)) == 2
    elif case == "neumann-hull":
        # cells on both sides of the switch threshold
        assert state.c.min() < params.transitions.omega < state.c.max()
    elif case == "neumann-nutrient-clamps":
        assert nutrient_clamps > 0
    else:
        assert clamped > 0.0


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path, rng):
    state = make_state(rng.random(9), rng.random(9), c=rng.random(9), u=rng.random(8),
                       dx=0.125, t=1.7)
    path = tmp_path / "chk.txt"
    write_checkpoint(path, state, gamma=4.0)
    back, gamma = read_checkpoint(path)
    assert gamma == 4.0
    assert back.t == 1.7
    assert back.grid.x_min == state.grid.x_min
    assert back.grid.dx == state.grid.dx
    assert back.grid.n_cells == 9
    np.testing.assert_array_equal(back.n1, state.n1)
    np.testing.assert_array_equal(back.n2, state.n2)
    np.testing.assert_array_equal(back.c, state.c)
    np.testing.assert_array_equal(back.u, state.u)


def test_checkpoint_rejects_malformed_files(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("x_min = 0\ndx = 0.1\nn_cells = 3\nt = 0\n1 2 3 4\n1 2 3 4\n1 2 3 4\n")
    with pytest.raises(ValueError):
        read_checkpoint(p)  # gamma missing
    p.write_text("x_min = 0\ndx = 0.1\nn_cells = 3\nt = 0\ngamma = 2\n1 2 3 4\n")
    with pytest.raises(ValueError):
        read_checkpoint(p)  # row count mismatch
    p.write_text("x_min = 0\ndx = 0.1\nn_cells = 2\nt = 0\ngamma = 2\n1 2 3\n1 2 3\n")
    with pytest.raises(ValueError):
        read_checkpoint(p)  # wrong column count


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dx", "inf", "checkpoint header dx = inf is not finite"),
        ("x_min", "nan", "checkpoint header x_min = nan is not finite"),
        ("t", "-inf", "checkpoint header t = -inf is not finite"),
        ("gamma", "inf", "checkpoint header gamma = inf is not finite"),
        ("n1", "nan", "checkpoint column n1 must be finite and >= 0; data row 3 holds nan"),
        ("n1", "-0.5", "checkpoint column n1 must be finite and >= 0; data row 3 holds -0.5"),
        ("n2", "inf", "checkpoint column n2 must be finite and >= 0; data row 3 holds inf"),
        ("c", "-3", "checkpoint column c must be finite and >= 0; data row 3 holds -3"),
        ("u", "-inf", "checkpoint column u must be finite; data row 3 holds -inf"),
    ],
)
def test_checkpoint_rejects_values_no_state_holds(tmp_path, key, value, message):
    # a header key is replaced, or the column's entry in the third data row
    p = tmp_path / "chk.txt"
    write_checkpoint(p, make_state(np.full(5, 0.5), np.full(5, 0.25), dx=0.1), gamma=4.0)
    lines = p.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.partition(" = ")[0] == key:
            lines[i] = f"{key} = {value}"
    if key in ("n1", "n2", "c", "u"):
        row = lines[-5 + 2].split()
        row[("n1", "n2", "c", "u").index(key)] = value
        lines[-5 + 2] = " ".join(row)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_checkpoint(p)
    assert str(info.value) == message


def test_checkpoint_accepts_negative_zero_and_ignores_the_u_pad(tmp_path):
    p = tmp_path / "chk.txt"
    p.write_text("x_min = 0\ndx = 0.1\nn_cells = 3\nt = 0\ngamma = 2\n"
                 "-0 0 1 0\n0.5 -0 -0 0\n0 0 1 nan\n")
    state, _ = read_checkpoint(p)
    np.testing.assert_array_equal(state.n1, [0.0, 0.5, 0.0])
    np.testing.assert_array_equal(state.u, [0.0, 0.0])

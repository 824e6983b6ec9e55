import dataclasses
import dis
import gc
import importlib
import itertools
import math
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_banded

from autophagy_tumor.grid import (
    Grid1D, _edge_faces, _FaceScratch, numerical_flux, pressure_from_density,
)
import autophagy_tumor.solver as solver_module
from autophagy_tumor.diagnostics import SERIES_CHANNELS, deviation_norms, support_components
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
from autophagy_tumor.scenarios import PRESETS, build_initial_state
from autophagy_tumor.solver import (
    RunLog,
    SolverConfig,
    SolverError,
    StepDiagnostics,
    _Coefficients,
    _clock,
    _solve_packed,
    _views,
    _sample,
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
from reference import mu_ode_closed_form


def coefficients(state, params, dt=0.01):
    """The coefficients `run` forms for (params, a step of dt) on `state`'s grid."""
    return _Coefficients(params, SolverConfig(dt=dt), state.grid.dx)


def quasistatic(state, params):
    """The quasi-static nutrient on the support of `state`, as `_settle` solves it."""
    k = coefficients(state, params)
    return solve_nutrient_quasistatic(state.grid, state.n, state.n2, k, state.support(1e-8))


def enlarge(state, params, cfg):
    """`enlarge_domain_if_needed` with the coefficients `run` forms."""
    return enlarge_domain_if_needed(state, _Coefficients(params, cfg, state.grid.dx))


def predict(state, params, dt):
    """predict_velocity with the growth rate that `step` computes once and
    passes on."""
    k = coefficients(state, params, dt)
    return predict_velocity(state, k, eval_growth(params.growth, state.c, state.n))


def correct(state, u_star, params, dt):
    """correct_densities with the growth rate that `step` passes on, as
    (n1, n2, clamped mass)."""
    growth = eval_growth(params.growth, state.c, state.n)
    densities, clamped = correct_densities(state, u_star, coefficients(state, params, dt), growth)
    m = state.grid.n_cells
    return densities[:m], densities[m:], clamped


def packed_solve(lower, diag, upper, rhs):
    """`_solve_packed` of the four arrays packed end to end into one new buffer."""
    return _solve_packed(*_views(np.concatenate((lower, upper, diag, rhs)), len(diag)))


def solve_banded_tridiagonal(lower, diag, upper, rhs):
    """scipy's `solve_banded` on the three bands: LAPACK gtsv as in the
    solver, and a division for one unknown; a reference independent of
    `_solve_packed`."""
    ab = np.zeros((3, len(diag)))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    return solve_banded((1, 1), ab, rhs)


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


def test_field_state_densities_are_one_read_only_buffer():
    state = make_state(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    np.testing.assert_array_equal(state.densities, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert np.shares_memory(state.n1, state.densities)
    assert np.shares_memory(state.n2, state.densities)
    # rebinding a half would leave `densities` and n describing other cells
    for name in ("densities", "n1", "n2", "n"):
        with pytest.raises(AttributeError):
            setattr(state, name, np.zeros(3))


def test_tridiagonal_matches_dense_solve(rng):
    m = 12
    lower = rng.random(m - 1) - 0.5
    upper = rng.random(m - 1) - 0.5
    diag = 3.0 + rng.random(m)
    rhs = rng.random(m)
    x = packed_solve(lower, diag, upper, rhs)
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12)


def test_tridiagonal_matches_solve_banded_bit_for_bit(rng):
    # solve_banded uses the same LAPACK gtsv for (1, 1) bands
    for m in (2, 3, 12, 251):
        lower = rng.random(m - 1) - 0.5
        upper = rng.random(m - 1) - 0.5
        diag = 1.0 + rng.random(m)
        rhs = rng.random(m) - 0.5
        x = packed_solve(lower, diag, upper, rhs)
        np.testing.assert_array_equal(x, solve_banded_tridiagonal(lower, diag, upper, rhs))


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
    with pytest.raises(SolverError, match="tridiagonal system has non-finite entries"):
        packed_solve(**arrays)
    # named first also when the rest of the system is singular
    for name in ("lower", "diag", "upper"):
        if name != which:
            arrays[name][:] = 0.0
    with pytest.raises(SolverError, match="tridiagonal system has non-finite entries"):
        packed_solve(**arrays)


def test_tridiagonal_singular_matrix_raises():
    # rows (1, 1) and (1, 1): elimination leaves a zero pivot
    with pytest.raises(SolverError, match="singular matrix"):
        packed_solve(np.ones(1), np.ones(2), np.ones(1), np.array([1.0, 2.0]))
    with pytest.raises(SolverError, match="singular matrix"):
        packed_solve(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))


def test_tridiagonal_non_finite_solution_raises():
    # finite entries whose solution overflows: x[0] = 1e300 / 1e-300
    with np.errstate(over="ignore"), pytest.raises(SolverError, match="non-finite values"):
        packed_solve(
            np.zeros(1), np.array([1e-300, 1.0]), np.zeros(1), np.array([1e300, 1.0])
        )


def test_tridiagonal_reports_bad_gtsv_argument(monkeypatch):
    import autophagy_tumor.solver as solver

    def rejecting_gtsv(dl, d, du, b, *overwrite_flags):
        return dl, d, du, b, -3

    monkeypatch.setattr(solver, "dgtsv", rejecting_gtsv)
    with pytest.raises(SolverError, match="bad argument 3 to gtsv"):
        packed_solve(np.zeros(2), np.ones(3), np.zeros(2), np.ones(3))


def scratch_arrays(scratch):
    """Every array a `_Scratch` holds, its views and its reconstruction's included."""
    held = [*vars(scratch).values(), *scratch.predict, *scratch.neumann, *vars(scratch.faces).values()]
    return [a for a in held if isinstance(a, np.ndarray)]


def test_packed_solves_write_neither_their_state_nor_the_coefficients():
    # gtsv overwrites the bundle's scratch alone, and each solve writes every
    # entry of the packed buffer it reads, the -1/dx^2 off-diagonals
    # included: the state keeps its bits, and each solve gives the same bits
    # when the packed buffer holds NaN before it. The velocity is a view of
    # the scratch; each nutrient c, which a state keeps, shares memory with
    # no state array, no scratch array and no other solution; a one-cell
    # component takes the 1x1 path
    n1 = np.zeros(21)
    n1[4], n1[8:15] = 0.7, np.linspace(0.2, 0.9, 7)
    state = make_state(n1, 0.5 * n1, c=np.linspace(0.5, 1.0, 21), u=np.linspace(-0.1, 0.1, 20))
    params = neumann_params(gamma=3.0, D=0.2, K1=0.5, K2=0.3)
    dt = 0.01
    k = coefficients(state, params, dt)
    kept = frozen_copy(state)
    growth = eval_growth(params.growth, state.c, state.n)
    solves = [
        lambda: predict_velocity(state, k, growth),
        lambda: step_nutrient_neumann(state, k, state.t + dt)[0],
        lambda: solve_nutrient_quasistatic(state.grid, state.n, state.n2, k, ((4, 4), (8, 14))),
    ]
    u_star = solves[0]()
    solutions = [u_star.copy()] + [solve() for solve in solves[1:]]  # they reuse u*'s buffer
    for name, arr in kept.items():
        assert getattr(state, name).tobytes() == arr.tobytes(), name
    scratch = scratch_arrays(k.scratch(21))
    assert any(u_star.base is a for a in scratch)
    arrays = [getattr(state, name) for name in ("densities", "n", "c", "u")]
    for i, c in enumerate(solutions[1:], start=1):
        assert not any(np.shares_memory(c, a) for a in arrays + scratch + solutions[:i])
    for solve, x in zip(solves, solutions, strict=True):
        k.scratch(21).system.fill(np.nan)
        assert solve().tobytes() == x.tobytes()


def test_tridiagonal_one_by_one_divides():
    x = packed_solve(np.empty(0), np.array([4.0]), np.empty(0), np.array([3.0]))
    np.testing.assert_array_equal(x, np.array([0.75]))
    # tested before the division, which would raise here (inf / inf)
    with np.errstate(invalid="raise"), pytest.raises(SolverError, match="non-finite entries"):
        packed_solve(np.empty(0), np.array([np.inf]), np.empty(0), np.array([np.inf]))


def test_quasistatic_single_cell_component_matches_dense():
    # a one-cell occupied component makes a 1x1 system
    dx = 0.1
    n1 = np.zeros(9)
    n2 = np.zeros(9)
    n1[4] = 0.7
    n2[4] = 0.2
    state = make_state(n1, n2, dx=dx)
    params = basic_params(a=0.5, c_B=1.5)
    c = quasistatic(state, params)
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
        left, right = _edge_faces(ns, ns.size, dx, 2.0 * dx, 0.5 * dx, _FaceScratch(ns.size))
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
    c = quasistatic(state, basic_params(c_B=1.25))
    np.testing.assert_array_equal(c, np.full(9, 1.25))


def test_quasistatic_matches_closed_form_and_converges():
    # mixed slab with mu = 0.5, a = 0.5, c_B = 1 on [-1, 1]:
    # c(x) = 0.25 + 0.75*cosh(x)/cosh(1), c(0) = 0.7360407052479141
    mu, a, R = 0.5, 0.5, 1.0
    params = basic_params(a=a, c_B=1.0)
    errors = []
    for dx in (R / 20, R / 40, R / 80):
        state, x = quasistatic_case(mu, a, R, dx)
        c = quasistatic(state, params)
        exact = 0.25 + 0.75 * np.cosh(x) / np.cosh(1.0)
        inside = np.abs(x) <= R + dx / 2
        errors.append(np.max(np.abs(c[inside] - exact[inside])))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.9)
    state, x = quasistatic_case(mu, a, R, R / 80)
    c = quasistatic(state, params)
    center = c[np.argmin(np.abs(x))]
    assert center == pytest.approx(0.7360407052479141, abs=2e-4)


def test_quasistatic_pure_normal_center_value():
    # mu = 1 slab: c(0) -> 1/cosh(1); an int c_B, as Python code may pass,
    # still gives a float nutrient
    state, x = quasistatic_case(1.0, 0.5, 1.0, 1.0 / 80)
    c = quasistatic(state, basic_params(a=0.5, c_B=1))
    center = c[np.argmin(np.abs(x))]
    assert center == pytest.approx(0.6480542736638855, abs=2e-4)


def test_quasistatic_components_solved_independently():
    dx = 0.1
    n = np.zeros(41)
    n[8:12] = 1.0
    n[28:33] = 1.0
    state = make_state(n, np.zeros(41), dx=dx)
    c = quasistatic(state, basic_params(a=0.0, c_B=2.0))
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
        quasistatic(state, basic_params())


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
    c, clamped = step_nutrient_neumann(state, coefficients(state, params, 0.01), 0.01)
    assert clamped == 0
    np.testing.assert_allclose(c, c0, rtol=1e-12)


def test_neumann_wall_rows_hold_exactly():
    m = 31
    lam = 0.3
    state = make_state(np.full(m, 0.4), np.full(m, 0.2), c=np.ones(m), dx=0.1)
    params = neumann_params(a=0.5, lambda_schedule=ConstantFlux(lam))
    c, clamped = step_nutrient_neumann(state, coefficients(state, params, 0.01), 0.01)
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
    c, clamped = step_nutrient_neumann(state, coefficients(state, params, dt), dt)
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
    c, _ = step_nutrient_neumann(state, coefficients(state, params, 0.05), 0.05)
    assert np.sum(c[1:-1]) < np.sum(np.ones(m)[1:-1])
    # and an inward (negative) flux replenishes it
    params_in = neumann_params(a=0.0, lambda_schedule=ConstantFlux(-0.4))
    c_in, _ = step_nutrient_neumann(state, coefficients(state, params_in, 0.05), 0.05)
    assert np.sum(c_in[1:-1]) > np.sum(c[1:-1])


def test_neumann_clamps_negative_cells():
    m = 25
    state = make_state(np.zeros(m), np.zeros(m), c=np.zeros(m), dx=0.1)
    params = neumann_params(a=0.0, lambda_schedule=ConstantFlux(2.0))
    c, clamped = step_nutrient_neumann(state, coefficients(state, params, 0.05), 0.05)
    assert clamped > 0
    assert np.all(c >= 0.0)


# ---------------------------------------------------------------------------
# adaptive domain


def test_enlarge_noop_when_gap_is_wide():
    n = np.zeros(31)
    n[14:17] = 1.0
    state = make_state(n, np.zeros(31))
    cfg = SolverConfig(dt=0.01, enlargement_margin=5)
    out, changed = enlarge(state, basic_params(), cfg)
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
    out, changed = enlarge(state, params, cfg)
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
    out, changed = enlarge(state, basic_params(), cfg)
    assert changed == (pad_left > 0 or pad_right > 0)
    assert out.grid.n_cells == n.size + pad_left + pad_right
    assert out.grid.x_min == state.grid.x_min - pad_left * 0.1
    assert np.array_equal(out.n1[pad_left : pad_left + n.size], state.n1)


def test_enlarge_ignores_empty_state():
    state = make_state(np.zeros(9), np.zeros(9))
    cfg = SolverConfig(dt=0.01, enlargement_margin=4)
    out, changed = enlarge(state, basic_params(), cfg)
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
    new, diag = step(state, _Coefficients(params, cfg, state.grid.dx), state.t + cfg.dt)
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
    new, _ = step(state, _Coefficients(params, cfg, state.grid.dx), state.t + cfg.dt)
    assert np.max(np.abs(new.n1 - new.n1[::-1])) < 1e-12
    assert np.max(np.abs(new.n2 - new.n2[::-1])) < 1e-12
    assert np.max(np.abs(new.c - new.c[::-1])) < 1e-12
    assert np.max(np.abs(new.u + new.u[::-1])) < 1e-12


def test_step_updates_velocity_from_new_pressure():
    state = bump_state()
    params = basic_params(g=1.0, D=0.3, K1=1.0, K2=1.0)
    cfg = SolverConfig(dt=0.005)
    new, _ = step(state, _Coefficients(params, cfg, state.grid.dx), state.t + cfg.dt)
    p = pressure_from_density(new.n, params.gamma)
    np.testing.assert_allclose(new.u, -np.diff(p) / new.grid.dx, atol=1e-15)


def test_step_discrete_mass_balance():
    # without clamping the implicit reaction makes the mass budget exact:
    # (mass' - mass)/dt = dx * sum(G*n1' + (G - D)*n2') with G from the old
    # nutrient field
    from autophagy_tumor.kinetics import eval_growth

    state = bump_state()
    state.c = quasistatic(state, basic_params(a=0.5, D=0.3))
    params = basic_params(g=1.0, D=0.3, K1=1.0, K2=1.0, a=0.5)
    cfg = SolverConfig(dt=0.002, enlargement_margin=5)
    new, diag = step(state, _Coefficients(params, cfg, state.grid.dx), state.t + cfg.dt)
    assert new.grid.n_cells == state.grid.n_cells
    assert diag.clamped_mass == 0.0
    dx = state.grid.dx
    mass_old = dx * np.sum(state.n)
    mass_new = dx * np.sum(new.n)
    G = eval_growth(params.growth, state.c, state.n)
    source = dx * np.sum(G * new.n1 + (G - params.D) * new.n2)
    assert (mass_new - mass_old) / cfg.dt == pytest.approx(source, abs=1e-10)


# ---------------------------------------------------------------------------
# time order against exact references: on a uniform state in a box with no
# wall flux nothing moves or diffuses, so every cell follows the space-free
# reaction; the scheme is first order in time (semi-implicit reaction,
# backward Euler nutrient), and each halving of dt should halve the error


def uniform_final_states(params, n1, n2, c):
    """The 21-cell uniform state (n1, n2, c) run to t = 1 at each dt of the ladder."""
    ones = np.ones(21)
    state = make_state(n1 * ones, n2 * ones, c * ones)
    return [run(state, params, SolverConfig(dt=dt), t_end=1.0).final_state
            for dt in (0.008, 0.004, 0.002, 0.001)]


def assert_first_order(errors, finest_bound):
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    print(f"errors {np.array(errors)}, observed orders {orders}")
    assert np.all((0.95 <= orders) & (orders <= 1.05)), orders
    assert errors[-1] < finest_bound


def test_fraction_has_first_order_in_time_against_the_closed_form():
    # the fraction equation mu' = f(mu) does not involve the growth rate
    params = neumann_params(g=1.0, D=0.3, K1=1.0, K2=1.0)
    exact = mu_ode_closed_form(0.05, 1.0, equilibrium_roots(0.3, 1.0, 1.0), 0.3)
    errors = []
    for state in uniform_final_states(params, 0.05, 0.95, 1.0):
        mu = state.n1 / state.n
        assert np.ptp(mu) < 1e-14  # stays uniform
        errors.append(np.abs(mu - exact).max())
    assert_first_order(errors, 1e-4)


def test_state_has_first_order_in_time_against_a_fine_rk4_reference():
    params = dataclasses.replace(neumann_params(D=0.3, a=0.5), growth=AffineDeath(0.5),
                                 transitions=HullTransitions(2.0, 0.5, 1.0))

    def reaction(y):  # (n1, n2, c)' of one cell with no transport and lambda = 0
        n1, n2, c = y
        G = eval_growth(params.growth, c)
        K1, K2 = eval_transitions(params.transitions, c)
        return np.array([G * n1 - K1 * n1 + K2 * n2, (G - params.D) * n2 + K1 * n1 - K2 * n2,
                         params.a * n2 - c * (n1 + n2)])

    y, h = np.array([0.6, 0.4, 0.8]), 1e-3  # RK4 error ~h^4, far below the scheme's
    for _ in range(1000):
        k1 = reaction(y)
        k2 = reaction(y + 0.5 * h * k1)
        k3 = reaction(y + 0.5 * h * k2)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + reaction(y + h * k3))
    errors = [max(np.abs(field - ref).max() for field, ref in zip((s.n1, s.n2, s.c), y))
              for s in uniform_final_states(params, 0.6, 0.4, 0.8)]
    assert_first_order(errors, 3e-4)


# ---------------------------------------------------------------------------
# properties of `step` on random small states


@st.composite
def small_cases(draw):
    """(state, params, cfg, reacting): at most 40 cells with vacuum patches, either
    nutrient mode, a time step from gentle to one that drives cells negative;
    reacting=False sets the growth and death rates to 0."""
    m = draw(st.integers(5, 40))

    def cells(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=m, max_size=m)))

    n1, n2 = cells(0.0, 1.0), cells(0.0, 1.0)
    n1[n1 < 0.3] = 0.0
    n2[n2 < 0.3] = 0.0
    dx = draw(st.sampled_from([0.05, 0.1, 0.2]))
    gamma = draw(st.sampled_from([2.0, 3.0]))
    p = pressure_from_density(n1 + n2, gamma)
    state = make_state(n1, n2, c=cells(0.1, 1.5), u=-np.diff(p) / dx, dx=dx)
    reacting = draw(st.booleans())
    rate = st.floats(0.0, 2.0)
    mode = draw(st.sampled_from([NEUMANN, QUASISTATIC]))
    params = basic_params(
        gamma=gamma,
        g=draw(rate) if reacting else 0.0,
        D=draw(st.floats(0.0, 0.5)) if reacting else 0.0,
        K1=draw(rate),
        K2=draw(rate),
        nutrient_mode=mode,
        lambda_schedule=ConstantFlux(draw(st.floats(-0.5, 0.5))) if mode == NEUMANN else None,
    )
    cfg = SolverConfig(dt=draw(st.sampled_from([0.002, 0.02])), enlargement_margin=5)
    return state, params, cfg, reacting


def mirrored(state):
    # on the same grid, centered on x = 0 as make_state builds it
    return make_state(state.n1[::-1], state.n2[::-1], c=state.c[::-1], u=-state.u[::-1],
                      dx=state.grid.dx)


@settings(max_examples=60, deadline=None)
@given(case=small_cases())
def test_step_keeps_densities_non_negative_and_balances_mass(case):
    state, params, cfg, reacting = case
    new, diag = step(state, _Coefficients(params, cfg, state.grid.dx), state.t + cfg.dt)
    assert np.all(new.densities >= 0.0)
    assert diag.clamped_mass >= 0.0
    # without growth and death, transport and exchange conserve mass, so it
    # changes by what the clamp added; with them and no clamping, by dt times
    # the source on the (possibly enlarged) state the step transports
    old = state
    if params.nutrient_mode == QUASISTATIC:
        old = enlarge(state, params, cfg)[0]
    dx = state.grid.dx
    change = dx * np.sum(new.n) - dx * np.sum(old.n)
    if not reacting:
        assert change == pytest.approx(diag.clamped_mass, abs=1e-11)
    elif diag.clamped_mass == 0.0:
        G = eval_growth(params.growth, old.c, old.n)
        source = dx * np.sum(G * new.n1 + (G - params.D) * new.n2)
        assert change / cfg.dt == pytest.approx(source, abs=1e-8 * (1.0 + abs(source)))


@settings(max_examples=60, deadline=None)
@given(case=small_cases())
def test_step_of_a_mirrored_state_is_the_mirrored_step(case):
    state, params, cfg, _ = case
    k = _Coefficients(params, cfg, state.grid.dx)
    new, diag = step(state, k, state.t + cfg.dt)
    flip, flip_diag = step(mirrored(state), k, state.t + cfg.dt)
    assert flip.grid.n_cells == new.grid.n_cells
    for name, sign in (("n1", 1.0), ("n2", 1.0), ("c", 1.0), ("u", -1.0)):
        want = getattr(new, name)
        scale = 1.0 + np.abs(want).max()
        np.testing.assert_allclose(sign * getattr(flip, name)[::-1], want,
                                   rtol=1e-9, atol=1e-12 * scale, err_msg=name)
    assert flip_diag.clamped_mass == pytest.approx(diag.clamped_mass, rel=1e-9, abs=1e-12)
    assert flip_diag.cfl == pytest.approx(diag.cfl, rel=1e-9)


def frozen_copy(state):
    """Every array the state holds, copied; the state's own arrays are made
    read-only, so that a write into them raises."""
    arrays = {name: getattr(state, name) for name in ("densities", "n1", "n2", "n", "c", "u")}
    for arr in arrays.values():
        arr.flags.writeable = False
    return {name: arr.copy() for name, arr in arrays.items()}


@pytest.mark.parametrize("case", ["padded-enlarges", "neumann-nutrient-clamps", "clamps"])
def test_step_and_enlargement_never_write_into_their_input(case):
    # n1 and n2 are views of one buffer: a write through any of them, or
    # an output that shares memory with the input, would alter the input
    make, params, cfg = REFERENCE_CASES[case]
    state = make()
    for _ in range(3):
        before = frozen_copy(state)
        grown, _ = enlarge(state, params, cfg)
        new, _ = step(state, _Coefficients(params, cfg, state.grid.dx), state.t + cfg.dt)
        for name, arr in before.items():
            assert np.array_equal(getattr(state, name), arr), name
            for out in (grown, new):
                if out is not state:
                    assert not np.shares_memory(getattr(out, name), getattr(state, name)), name
        state = new


@pytest.mark.parametrize(
    "bad, named",
    [
        ({"n1": np.inf}, "n1"),
        ({"n2": np.inf}, "n2"),
        ({"n1": np.nan}, "n1"),
        ({"u": np.inf}, "u"),
        ({"n1": np.inf, "n2": np.inf}, "n1"),
        ({"n2": np.inf, "c": np.inf}, "n2"),
        ({"c": np.inf, "u": np.inf}, "u"),
        ({"n2": np.nan}, "n2"),
        ({"n1": np.nan, "n2": np.nan}, "n1"),
    ],
)
def test_step_names_the_first_non_finite_field(monkeypatch, bad, named):
    # bad[f] injected into one cell where `step` gets field f; the error
    # names the first bad field in the order n1, n2, u. `step` tests u
    # alone: a bad density reaches u through n and the pressure, and a
    # non-finite c cannot leave a nutrient solve (`_solve_packed` refuses
    # it), so the c injected here goes unnamed
    import autophagy_tumor.solver as solver

    def poisoned(func, cells):
        # each {index: value} of cells into the array func returns first (or alone)
        def wrapper(*args, **kwargs):
            out = func(*args, **kwargs)
            for cell, value in cells.items():
                (out[0] if isinstance(out, tuple) else out)[cell] = value
            return out

        return wrapper

    # the fixed box: no enlargement, and the nutrient step reads the old state
    state = bump_state()
    # n1 then n2 in the one array correct_densities returns
    cells = {3 + state.grid.n_cells * ("n1", "n2").index(f): value
             for f, value in bad.items() if f in ("n1", "n2")}
    if cells:
        monkeypatch.setattr(solver, "correct_densities", poisoned(solver.correct_densities, cells))
    if "c" in bad:
        monkeypatch.setattr(
            solver, "step_nutrient_neumann", poisoned(solver.step_nutrient_neumann, {3: bad["c"]})
        )
    if "u" in bad:
        # the pressure kernel that finishes the state (bare, without pressure_from_density's checks)
        monkeypatch.setattr(solver, "_pressure", poisoned(solver._pressure, {3: bad["u"]}))
    params = neumann_params(g=1.0, D=0.3, K1=1.0, K2=1.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(SolverError, match=f"non-finite values in {named} at t=0.005$") as err:
            step(state, _Coefficients(params, SolverConfig(dt=0.005), state.grid.dx),
                 state.t + 0.005)
    assert err.value.state is state
    assert err.value.t == 0.005


# zeros, subnormals, ordinary values and values whose power overflows
_PRESSURE_DENSITIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e300, 1.7976931348623157e308]),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(0.0, 10.0),
    st.floats(0.0, 1.7976931348623157e308),
)


@settings(max_examples=200, deadline=None)
@given(gamma=st.sampled_from([2.0, 5.0, 40.0, 80.0]),
       n=st.lists(_PRESSURE_DENSITIES, min_size=3, max_size=40))
def test_step_pressure_kernel_matches_pressure_from_density(gamma, n):
    # the bare law step calls, with the run's bound operands, against the
    # checked public law, bit for bit
    n = np.array(n)
    k = _Coefficients(basic_params(gamma=gamma), SolverConfig(dt=0.01), 0.1)
    with np.errstate(over="ignore"):
        got, want = solver_module._pressure(n, k.g1, k.p_factor), pressure_from_density(n, gamma)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


# each class built with one field replaced
_BUILD = {
    "SolverConfig": lambda **kw: SolverConfig(**{"dt": 0.01, **kw}),
    "ModelParameters": basic_params,
    "Grid1D": lambda **kw: Grid1D(**{"x_min": 0.0, "dx": 0.1, "n_cells": 5, **kw}),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
@pytest.mark.parametrize("cls, name", [
    *(("SolverConfig", name) for name in ("dt", "support_threshold", "sample_interval")),
    *(("ModelParameters", name) for name in ("gamma", "D", "a", "c_B")),
    *(("Grid1D", name) for name in ("x_min", "dx")),
])
def test_constructors_reject_non_finite_numbers(cls, name, value):
    # every float field of SolverConfig, ModelParameters and Grid1D; the
    # error names the field (an int beyond the float range would overflow)
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        _BUILD[cls](**{name: value})


def singular_reaction_case():
    # G = c = 10 = 1/dt makes the reaction matrix singular; the support sits
    # within the margin of both edges, so the grid grows first
    state = edge_bump_state()
    state = make_state(state.n1, state.n2, c=np.full(31, 10.0), dx=0.1, t=0.5)
    return state, basic_params(g=1.0), SolverConfig(dt=0.1, enlargement_margin=4)


def non_finite_result_case():
    # densities near the float limit: the transport overflows them
    n1 = np.zeros(21)
    n1[8:13] = 1e307
    return make_state(n1, np.zeros(21), t=0.25), neumann_params(g=1.0), SolverConfig(dt=0.01)


def tridiagonal_failure_case():
    # a NaN face velocity enters the velocity prediction's system
    state = edge_bump_state()
    u = state.u.copy()
    u[10] = np.nan
    state = make_state(state.n1, state.n2, u=u, dx=0.1, t=0.125)
    _, params, cfg = REFERENCE_CASES["padded-enlarges"]
    return state, params, cfg


@pytest.mark.parametrize(
    "case, message",
    [
        (singular_reaction_case, "reaction solve is singular"),
        (non_finite_result_case, "non-finite values in n1 at t=0.26$"),
        (tridiagonal_failure_case, "tridiagonal system has non-finite entries"),
    ],
)
def test_step_failure_carries_the_state_it_advanced_and_the_time_it_failed_at(case, message):
    state, params, cfg = case()
    # the state the step was advancing: in quasi-static mode the grid grows
    # first, and the enlarged state is the one carried
    want = state
    if params.nutrient_mode == QUASISTATIC:
        want = enlarge(state, params, cfg)[0]
        assert want.grid.n_cells > state.grid.n_cells
    with np.errstate(all="ignore"), pytest.raises(SolverError, match=message) as err:
        step(state, _Coefficients(params, cfg, state.grid.dx), state.t + cfg.dt)
    assert err.value.t == state.t + cfg.dt
    if want is state:
        assert err.value.state is state
    assert err.value.state.grid == want.grid
    assert err.value.state.t == state.t
    for name in ("n1", "n2", "c", "u"):
        assert np.array_equal(getattr(err.value.state, name), getattr(want, name), equal_nan=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", ["padded-enlarges", "neumann-hull"])
def test_a_non_finite_velocity_prediction_stops_the_step(monkeypatch, case, bad):
    # `_solve_packed` leaves the prediction's u* to `step`, which reads its
    # finiteness from the CFL maximum: a u* that gtsv returns with one bad
    # face, the first, a middle or the last, raises the solve's message
    # before the transport runs, with the state the step advanced (in
    # quasi-static mode, enlarged first) and the t it failed at; `run` names
    # the step
    make, params, cfg = REFERENCE_CASES[case]
    state = make()
    want = enlarge(state, params, cfg)[0] if params.nutrient_mode == QUASISTATIC else state
    solves, transports, bad_face = [], [], []
    real_gtsv, real_correct = solver_module.dgtsv, solver_module.correct_densities

    def poisoned_gtsv(*args):
        out = real_gtsv(*args)
        if not solves:  # a step's first solve is the velocity prediction's
            u_star = out[3]
            u_star[{"first": 0, "middle": len(u_star) // 2, "last": -1}[bad_face[-1]]] = bad
        solves.append(len(out[3]))
        return out

    monkeypatch.setattr(solver_module, "dgtsv", poisoned_gtsv)
    monkeypatch.setattr(solver_module, "correct_densities",
                        lambda *args: transports.append(1) or real_correct(*args))
    message = "tridiagonal solve produced non-finite values"
    for face in ("first", "middle", "last"):
        bad_face.append(face)
        solves.clear()
        with np.errstate(all="ignore"), pytest.raises(SolverError, match=f"^{message}$") as err:
            step(state, _Coefficients(params, cfg, state.grid.dx), state.t + cfg.dt)
        assert solves == [want.grid.n_cells - 1] and transports == [], face
        assert err.value.t == state.t + cfg.dt
        assert err.value.state.grid == want.grid and err.value.state.t == state.t
        if want is state:
            assert err.value.state is state
        for name in ("n1", "n2", "c", "u"):
            assert np.array_equal(getattr(err.value.state, name), getattr(want, name))
        solves.clear()
        with np.errstate(all="ignore"), pytest.raises(SolverError, match=f"^step 1: {message}$"):
            run(state, params, cfg, t_end=state.t + 3 * cfg.dt)
        assert transports == [], face


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
    r1 = run(state, params, cfg, t_end=0.2)
    r2 = run(state, params, cfg, t_end=0.2)
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
    times = res.series.column("t")
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)
    assert len(times) == 11
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


def test_run_refuses_a_snapshot_time_no_step_ends_at():
    # a snapshot used to be the state nearest its time: 0.015, 1.5 steps of
    # 0.01, gave the state at 0.02; a time within 1e-9 (of t_end) of a step
    # is that step's, and one outside the run, which used to be skipped with
    # a warning, is refused too
    state = bump_state()
    params, cfg = basic_params(g=1.0, K1=1.0, K2=1.0), SolverConfig(dt=0.01)
    for ts in (0.015, 0.2, -0.01):
        with pytest.raises(ValueError, match=rf"^no step of this run ends at the snapshot time "
                                             rf"{ts:g} \(its steps run from t=0 to 0\.1 in "
                                             rf"steps of 0\.01\)$"):
            run(state, params, cfg, t_end=0.1, snapshot_times=(0.05, ts))
    res = run(state, params, cfg, t_end=0.1, snapshot_times=(0.05 + 5e-10, 0.1))
    assert list(res.snapshots) == [0.05 + 5e-10, 0.1]
    assert res.snapshots[0.05 + 5e-10].t == 5 * 0.01
    assert res.log.warnings == []


@pytest.mark.parametrize("t_end, stop, warned", [
    (0.005, 0.004, True),  # 2.5 steps of 0.002: a tie goes to the earlier step
    (0.007, 0.006, True),  # 3.5 steps: so does this one, which round() sent to 0.008
    (0.0071, 0.008, True),  # 3.55 steps: the nearest step, past t_end
    (0.006 + 5e-10, 0.006, False),  # within 1e-9 of a step
])
def test_run_stops_on_the_step_nearest_t_end(t_end, stop, warned):
    res = run(bump_state(), basic_params(g=1.0, K1=1.0, K2=1.0), SolverConfig(dt=0.002), t_end)
    assert res.final_state.t == pytest.approx(stop, abs=1e-15)
    assert res.series.column("t")[-1] == res.final_state.t
    assert res.log.warnings == ([f"t_end {t_end:g} is not a whole number of steps; "
                                 f"stopping at {stop:g}"] if warned else [])


def test_clock_keeps_its_tolerance_below_half_a_step():
    # at dt 1e-9 a tolerance of 1e-9 of t_end would make every time a tie or a step:
    # t_end 1 lost a step and 0.5 + 4e-10 passed as a snapshot time
    warnings = []
    cfg = SolverConfig(dt=1e-9, sample_interval=0.1)
    assert _clock(0.0, cfg, 1.0, (0.5,), warnings) == (10**9, 10**8, {5 * 10**8: [0.5]})
    assert warnings == []
    with pytest.raises(ValueError, match="^no step of this run ends at the snapshot time 0.5"):
        _clock(0.0, cfg, 1.0, (0.5 + 4e-10,), warnings)


@pytest.mark.parametrize("interval, dt, every", [
    (0.003, 0.002, 1),  # 1.5 steps: a tie goes to the earlier whole number, as ...
    (0.005, 0.002, 2),  # ... at 2.5 steps, where round() agreed by parity
    (0.25, 0.004, 62),  # 62.5 steps
    (0.0031, 0.002, 2),  # 1.55 steps: the nearest
    (0.001, 0.002, 1),  # half a step: at least one
])
def test_clock_samples_every_nearest_whole_number_of_steps(interval, dt, every):
    warnings = []
    cfg = SolverConfig(dt=dt, sample_interval=interval)
    assert _clock(0.0, cfg, 1.0, (), warnings)[1] == every
    assert warnings == [f"sample_interval {interval:g} is not a whole number of steps; "
                        f"sampling every {every * dt:g}"]


@pytest.mark.parametrize("case", ["padded-enlarges", "neumann-hull"])
def test_run_shares_read_only_states(case):
    # run keeps the states step returns instead of copying them, no step
    # writes into its input, and no step temporary (the bundle's scratch)
    # reaches a state: with every array of the initial state read-only
    # nothing raises, the states kept at each step of a run across an
    # enlargement or a dynamic nutrient step share no memory, and each is
    # what a run stopped at its time ends with
    make, params, cfg = REFERENCE_CASES[case]
    state = make()
    frozen_copy(state)
    times = tuple(j * cfg.dt for j in range(21))
    res = run(state, params, cfg, t_end=times[-1], snapshot_times=times)
    assert res.snapshots[0.0] is state
    held = [[getattr(res.snapshots[ts], name) for name in ("densities", "n", "c", "u")]
            for ts in times]
    for i, j in itertools.combinations(range(len(times)), 2):
        assert not any(np.shares_memory(a, b) for a in held[i] for b in held[j]), (i, j)
    for ts in times:
        snap, want = res.snapshots[ts], run(state, params, cfg, t_end=ts).final_state
        assert (snap.t, snap.grid) == (want.t, want.grid), ts
        for name in ("n1", "n2", "c", "u"):
            assert np.array_equal(getattr(snap, name), getattr(want, name)), (ts, name)


def preset_run_recording_steps(monkeypatch, name, n_steps):
    """`run` of a preset's first n_steps steps, with each (state, its t) that
    `step` returned, in order, recorded as step returned it."""
    cfg = PRESETS[name]
    initial = build_initial_state(cfg.initial, cfg.params, cfg.solver)
    returned, real_step = [], solver_module.step

    def recording(*args):
        new, diag = real_step(*args)
        returned.append((new, new.t))
        return new, diag

    monkeypatch.setattr(solver_module, "step", recording)
    res = run(initial, cfg.params, cfg.solver, t_end=initial.t + n_steps * cfg.solver.dt)
    assert len(returned) == n_steps and res.final_state is returned[-1][0]
    return initial, cfg.solver.dt, returned


def test_a_step_evaluates_the_wall_flux_at_the_time_of_the_state_it_returns(monkeypatch):
    # step 10 of neumann-periodic-T20 used to evaluate the flux at
    # 0.018 + 0.002 = 0.020000000000000004 and end at t = 10 * 0.002 = 0.02
    flux_times, real_flux = [], solver_module.eval_flux
    monkeypatch.setattr(solver_module, "eval_flux",
                        lambda schedule, t: flux_times.append(t) or real_flux(schedule, t))
    _, _, returned = preset_run_recording_steps(monkeypatch, "neumann-periodic-T20", 20)
    assert flux_times == [new.t for new, _ in returned]


@pytest.mark.parametrize("name", ["neumann-periodic-T20", "fig-s4f2-D0.5"])
def test_no_state_is_written_after_step_returns_it(monkeypatch, name):
    # run used to restamp t on each state step returned
    initial, dt, returned = preset_run_recording_steps(monkeypatch, name, 20)
    for j, (new, t_returned) in enumerate(returned, 1):
        assert new.t == t_returned == initial.t + j * dt, j


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
    zl = np.zeros(pad_left)
    zr = np.zeros(pad_right)
    cl = np.full(pad_left, params.c_B)
    cr = np.full(pad_right, params.c_B)
    return make_state(
        np.concatenate((zl, state.n1, zr)),
        np.concatenate((zl, state.n2, zr)),
        c=np.concatenate((cl, state.c, cr)),
        u=np.concatenate((zl, state.u, zr)),
        dx=state.grid.dx,
        x_min=state.grid.x_min - pad_left * state.grid.dx,
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
    return solve_banded_tridiagonal(lower, diag, upper, rhs)


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
        c[s : e + 1] = solve_banded_tridiagonal(off, diag, off.copy(), rhs)
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
    c = solve_banded_tridiagonal(lower, diag, upper, rhs)
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
    new = make_state(n1, n2, c=state.c, u=state.u, dx=state.grid.dx, x_min=state.grid.x_min,
                     t=state.t + dt)
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
    k = _Coefficients(params, cfg, state.grid.dx)  # one for the run, as `run` forms it
    for j in range(50):
        state, diag = step(state, k, state.t + cfg.dt)
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


def test_run_reports_clamped_mass_beyond_its_bound():
    # 5 steps of the clamping case clamp nothing; by 10 the clamped mass is
    # far past 1e-6 of the final total mass
    make, params, cfg = REFERENCE_CASES["clamps"]
    assert run(make(), params, cfg, t_end=5 * cfg.dt).log.violations == []
    log = run(make(), params, cfg, t_end=10 * cfg.dt).log
    assert log.violations == ["clamped negative mass 1.071e-01 exceeds 1e-6 of the final "
                              "total mass 2.04243"]


def reference_sample(state, t, params, threshold, mu_star, c0, clamped_cum):
    """The series row and bound violations as `run` formed them before one
    sample became one pass: a boolean support mask, c gathered once for
    c_max and again for the ceiling check, the radius over every support
    cell, one `mu - mu*` per norm and the even powers through `**`."""
    dx = state.grid.dx
    mass_total, mass_auto = float(dx * state.n.sum()), float(dx * state.n2.sum())
    mask = state.n > threshold
    mu = state.n1[mask] / state.n[mask] if mask.any() else None
    radius = 0.0
    sup_dev = l2 = l4 = l8 = c_max = math.nan
    violations = []
    if mu is not None:
        radius = float(np.abs(state.grid.cell_x[mask]).max())
        c_max = float(state.c[mask].max())
        if mu_star is not None:
            sup_dev = float(np.abs(mu - mu_star).max())
            l2, l4, l8 = (
                float((dx * ((mu - mu_star) ** (2 * n)).sum()) ** (1.0 / (2 * n)))
                for n in (1, 2, 4)
            )
        if mu.min() < -1e-8 or mu.max() > 1.0 + 1e-8:
            violations.append(
                f"composition fraction left [0, 1] at t={t:.6g} "
                f"(range [{mu.min():.3e}, {mu.max():.3e}])"
            )
        if params.nutrient_mode == QUASISTATIC:
            worst = float(state.c[mask].max() - max(params.c_B, c0))
            if not worst <= 1e-6:
                violations.append(
                    f"nutrient exceeded its maximum-principle bound by {max(worst, 0.0):.3e} "
                    f"at t={t:.6g}"
                )
    row = [t, radius, mass_total, mass_auto, sup_dev, l2, l4, l8, c_max, clamped_cum]
    return row, violations


def assert_sample_matches_reference(state, params, mu_star, c0, clamped_cum=0.0):
    """Every channel bit for bit and the same violations, except l4_dev and
    l8_dev (within 2 ulp: squaring rounds differently from `pow`). Returns
    the violations."""
    threshold = SolverConfig(dt=1.0).support_threshold
    c_ceiling = max(params.c_B, c0) if params.nutrient_mode == QUASISTATIC else None
    log = RunLog(clamped_neg_mass=clamped_cum)
    row = _sample(state, threshold, mu_star, c_ceiling, log)
    want, want_violations = reference_sample(
        state, state.t, params, threshold, mu_star, c0, clamped_cum
    )
    assert log.violations == want_violations
    for name, got, ref in zip(SERIES_CHANNELS, row, want, strict=True):
        if name in ("l4_dev", "l8_dev") and not math.isnan(ref):
            assert abs(got - ref) <= 2 * math.ulp(ref), name
        else:
            assert np.float64(got).tobytes() == np.float64(ref).tobytes(), name
    return log.violations


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_sample_matches_reference_on_stepped_states(case):
    make, params, cfg = REFERENCE_CASES[case]
    state = make()
    mask0 = state.n > cfg.support_threshold
    c0 = float(state.c[mask0].max()) if mask0.any() else params.c_B
    # the equilibrium fraction where the rates define one, else a fixed value,
    # so every case exercises the norms
    mu_star = 0.4
    if isinstance(params.transitions, ConstantTransitions) and params.D > 0:
        mu_star = equilibrium_roots(params.D, params.transitions.K1, params.transitions.K2).mu_star
    clamped = 0.0
    k = _Coefficients(params, cfg, state.grid.dx)
    for _ in range(30):
        assert_sample_matches_reference(state, params, mu_star, c0, clamped)
        state, diag = step(state, k, state.t + cfg.dt)
        clamped += diag.clamped_mass
    assert_sample_matches_reference(state, params, None, c0, clamped)


def test_sample_matches_reference_on_built_states():
    params = basic_params(g=1.0, D=0.3, K1=1.0, K2=1.0)
    # an empty support: radius 0, NaN norms and c_max, no checks
    empty = make_state(np.zeros(9), np.zeros(9))
    assert assert_sample_matches_reference(empty, params, 0.4, c0=1.0) == []
    # the fraction below 0 and above 1
    n1 = np.array([0.0, 0.3, -0.1, 0.3, 0.0])
    n2 = np.array([0.0, 0.2, 0.5, -0.05, 0.0])
    violations = assert_sample_matches_reference(make_state(n1, n2), params, 0.4, c0=1.0)
    assert len(violations) == 1 and violations[0].startswith("composition fraction left [0, 1]")
    # the tolerance is 1e-8: mu = -5e-9 passes, mu = -5e-8 does not
    for eps, flagged in ((5e-9, False), (5e-8, True)):
        n1 = np.array([0.0, -eps, 0.5, 0.0])
        n2 = np.array([0.0, 1.0 + eps, 0.5, 0.0])
        violations = assert_sample_matches_reference(make_state(n1, n2), params, 0.4, c0=1.0)
        assert bool(violations) == flagged
    # the nutrient above its ceiling max(c_B, c0) on the support
    c = np.array([1.0, 1.5, 1.2, 1.5, 1.0])
    bump = make_state([0.0, 0.3, 0.4, 0.3, 0.0], [0.0, 0.2, 0.1, 0.2, 0.0], c=c)
    violations = assert_sample_matches_reference(bump, params, 0.4, c0=1.2)
    assert violations == ["nutrient exceeded its maximum-principle bound by 3.000e-01 at t=0"]


@st.composite
def sampled_states(draw):
    """(state, mu_star, c0): a 40-cell state whose support has 0, 1 or 3
    components of 1 to 8 cells, with fractions drawn from 0, 1 and [0, 1],
    and mu_star None, 0, 1, drawn, or one support cell's fraction exactly."""
    n1, n2, c = np.zeros(40), np.zeros(40), np.ones(40)
    for start in (2, 14, 26)[: draw(st.sampled_from([0, 1, 3]))]:
        for i in range(start, start + draw(st.integers(1, 8))):
            n = draw(st.floats(1e-6, 5.0))
            mu = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
            n1[i] = mu * n
            n2[i] = n - n1[i]  # 0 for mu = 1, so that n1/n is exactly 1
            c[i] = draw(st.floats(0.5, 1.5))
    state = make_state(n1, n2, c=c, t=draw(st.floats(0.0, 10.0)))
    support = state.n > 1e-8
    fractions = state.n1[support] / state.n[support]
    mu_star = draw(st.one_of(st.none(), st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0),
                             *([st.sampled_from(fractions.tolist())] if fractions.size else [])))
    return state, mu_star, draw(st.floats(1.0, 1.3))


@settings(max_examples=300, deadline=None)
@given(drawn=sampled_states())
def test_sample_matches_reference_on_drawn_states(drawn):
    # the sup deviation from the fraction's range, max(hi - mu*, mu* - lo),
    # equals max |mu - mu*| bit for bit, with mu at 0, 1 and mu* itself
    state, mu_star, c0 = drawn
    assert_sample_matches_reference(state, basic_params(), mu_star, c0)


# float64 values with the edge cases of an extremum: NaN, both infinities,
# both zeros, subnormals and the largest finite values
_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max]),
)


@settings(max_examples=300, deadline=None)
@given(x=st.lists(_EDGE_FLOATS, min_size=1, max_size=300))
@example(x=[0.0, -0.0])
@example(x=[-0.0, 0.0, math.nan, math.inf])
def test_an_indexed_extremum_has_the_reductions_value(x):
    # step, correct_densities and _sample read an extremum as x[x.argmax()]
    # or x[x.argmin()], cheaper than np.maximum.reduce or np.minimum.reduce:
    # both NaN when any entry is NaN (argmax and argmin return the first
    # NaN), else equal, infinities included; only a zero's sign may differ
    x = np.array(x)
    for got, want in ((x[x.argmax()], np.maximum.reduce(x)), (x[x.argmin()], np.minimum.reduce(x))):
        assert (math.isnan(got) and math.isnan(want)) or got == want, (got, want)


# ---------------------------------------------------------------------------
# the coefficients bound per run and the support carried by each state


def test_coefficients_are_0d_float64_with_the_bits_of_their_formulas():
    params = basic_params(gamma=3.0, D=0.3, a=0.45)
    dx, dt = 0.1, 0.005
    gamma = params.gamma
    k = _Coefficients(params, SolverConfig(dt=dt), dx)
    formulas = {
        "dx": dx, "D": params.D, "a": params.a, "zero": 0.0, "half": 0.5, "one": 1.0,
        "two_dx2": 2.0 / dx**2, "dt": dt, "inv_dt": 1.0 / dt, "A": gamma * dt / dx**2,
        "neg_A": -(gamma * dt / dx**2), "B": gamma * dt / dx,
        "inv_dt_two_dx2": 1.0 / dt + 2.0 / dx**2, "neg_dx": -dx, "two_dx": 2.0 * dx,
        "half_dx": 0.5 * dx, "g1": gamma - 1.0, "p_factor": gamma / (gamma - 1.0),
        "g2": gamma - 2.0, "threshold": SolverConfig(dt=dt).support_threshold,
    }
    for name, value in formulas.items():
        got = getattr(k, name)
        assert type(got) is np.ndarray and got.shape == () and got.dtype == np.float64, name
        assert got.tobytes() == np.float64(value).tobytes(), name
    # added to single elements only, where a Python float is the faster
    # operand, or filled into the nutrient systems' off-diagonals
    assert type(k.c_B_dx2) is float and k.c_B_dx2 == params.c_B / dx**2
    assert k.singular == 1e-14 * (1.0 / dt**2)
    assert type(k.off_diag) is float and k.off_diag == -1.0 / dx**2
    # the scratch: one per bundle, kept while the grid size holds, formed
    # again for another size; another bundle (equal parameters in another
    # object, another dt, the same dx) shares none of its memory, so setups
    # stepped in turn cannot write into each other's temporaries
    scratch = k.scratch(21)
    assert k.scratch(21) is scratch
    other = _Coefficients(dataclasses.replace(params), SolverConfig(dt=0.0025), dx)
    for a, b in itertools.product(scratch_arrays(scratch), scratch_arrays(other.scratch(21))):
        assert not np.shares_memory(a, b)
    assert k.scratch(25) is not scratch and k.scratch(25).system.size == 4 * 25 - 2


def lopsided_two_bump_state(m=121, dx=0.1):
    # a wide bump left of x = 0 and a narrow one right of it
    x = (np.arange(m) - (m - 1) / 2) * dx
    n = 0.8 * np.clip(1.0 - ((x + 2.5) / 1.2) ** 2, 0.0, None)
    n += 0.6 * np.clip(1.0 - ((x - 2.5) / 0.5) ** 2, 0.0, None)
    return make_state(0.7 * n, 0.3 * n, dx=dx)


@pytest.mark.parametrize("case", ["padded-enlarges", "two-components", "lopsided"])
def test_quasistatic_nutrient_from_kept_views_matches_freshly_sliced_views(case):
    # the scratch keeps the packed views of the last quasi-static component
    # length and slices them again only when that length changes: each
    # step's c equals a solve over views sliced afresh from a new buffer,
    # bit for bit, while one component grows, while two components of one
    # length share the kept entry, and while two of different lengths take
    # turns with it
    make, params, cfg = REFERENCE_CASES[case if case != "lopsided" else "two-components"]
    state = make() if case != "lopsided" else lopsided_two_bump_state()
    k = _Coefficients(params, cfg, state.grid.dx)
    lengths = []
    for _ in range(60):
        state, _ = step(state, k, state.t + cfg.dt)
        components = state.support(cfg.support_threshold)
        want = np.full(state.grid.n_cells, params.c_B)
        for s, e in components:
            off = np.full(e - s, k.off_diag)
            rhs = np.multiply(k.a, state.n2[s : e + 1])
            rhs[0] += k.c_B_dx2
            rhs[-1] += k.c_B_dx2
            want[s : e + 1] = packed_solve(off, np.add(k.two_dx2, state.n[s : e + 1]), off.copy(),
                                           rhs)
        assert state.c.tobytes() == want.tobytes()
        lengths.append(tuple(e - s + 1 for s, e in components))
        assert k.scratch(state.grid.n_cells).component_views[0] == lengths[-1][-1]
    if case == "padded-enlarges":
        assert {len(ls) for ls in lengths} == {1} and len(set(lengths)) > 3
    else:
        assert {len(ls) for ls in lengths} == {2}
        assert all((a == b) == (case == "two-components") for a, b in lengths)


def test_step_matches_reference_when_setups_alternate():
    # each setup steps with its own coefficients, formed once as `run` forms
    # them, between steps of the other setups. The first four start from one
    # state, so they share its grid object, and each differs from the one
    # before in one way only: another gamma, then equal parameters in a
    # distinct object, then another dt. Then another grid under the same
    # parameters and config, a grid that grows, a Neumann box
    base = basic_params(g=1.0, D=0.3, K1=1.0, K2=1.0, a=0.5)
    cfg = SolverConfig(dt=0.005, enlargement_margin=5)
    shared, equal = bump_state(), dataclasses.replace(base)
    setups = [
        (shared, base, cfg),
        (shared, dataclasses.replace(base, gamma=3.0), cfg),
        (shared, equal, cfg),
        (shared, equal, SolverConfig(dt=0.0025, enlargement_margin=5)),
        (bump_state(m=81, dx=0.05), base, cfg),
        (edge_bump_state(), base, SolverConfig(dt=0.005, enlargement_margin=4)),
        (REFERENCE_CASES["neumann-hull"][0](), *REFERENCE_CASES["neumann-hull"][1:]),
    ]
    states = [state for state, _, _ in setups]
    refs = list(states)
    bundles = [_Coefficients(params, cfg_i, state.grid.dx) for state, params, cfg_i in setups]
    for j in range(20):
        for i, (_, params, cfg_i) in enumerate(setups):
            states[i], diag = step(states[i], bundles[i], states[i].t + cfg_i.dt)
            refs[i], ref_diag = reference_step(refs[i], params, cfg_i)
            assert diag == ref_diag, (i, j)
            for name in ("n1", "n2", "c", "u"):
                assert np.array_equal(getattr(states[i], name), getattr(refs[i], name)), (i, name)
            assert states[i].grid == refs[i].grid
    assert all(state.grid is shared.grid for state in states[:4])
    assert states[5].grid.n_cells > edge_bump_state().grid.n_cells
    # equal parameters step equally, whichever object holds them
    for name in ("n1", "n2", "c", "u"):
        assert np.array_equal(getattr(states[0], name), getattr(states[2], name))


def test_a_run_holds_the_scratch_of_its_current_grid_size_only(monkeypatch):
    # a grid that grows five times in 60 steps: each size forms its own
    # scratch, and the run's bundle lets the last one go, so a run that
    # enlarges dozens of times holds one size's temporaries, not every size's
    state = edge_bump_state()
    params = basic_params(g=2.0, K1=1.0, K2=1.0, a=0.5)
    cfg = SolverConfig(dt=0.01, enlargement_margin=3)
    bundles, sizes, scratches, real_step = set(), [], [], solver_module.step

    def recording(state, k, t_new):
        new, diag = real_step(state, k, t_new)
        bundles.add(k)
        sizes.append(new.grid.n_cells)
        current = k.scratch(new.grid.n_cells)
        if not scratches or scratches[-1]() is not current:
            scratches.append(weakref.ref(current))
        return new, diag

    monkeypatch.setattr(solver_module, "step", recording)
    final = run(state, params, cfg, t_end=0.6).final_state
    (k,) = bundles
    assert len(sizes) == 60 and len(set(sizes)) == len(scratches) == 6
    gc.collect()
    assert [ref() for ref in scratches if ref() is not None] == [k.scratch(final.grid.n_cells)]
    assert k.scratch(final.grid.n_cells).system.size == 4 * final.grid.n_cells - 2


# each function a profiler may wrap by replacing its name in every module of
# the package that holds it, with its calls per step of a run
_PROBED = {
    "solver": ("run", "step", "enlarge_domain_if_needed", "predict_velocity", "correct_densities",
               "solve_nutrient_quasistatic", "step_nutrient_neumann"),
    "grid": ("numerical_flux", "_pressure"),
    "kinetics": ("eval_growth", "eval_transitions", "eval_flux"),
}
_EACH_STEP = {"step": 1, "predict_velocity": 1, "correct_densities": 1, "numerical_flux": 1,
              "_pressure": 1, "eval_growth": 1, "eval_transitions": 1}


@pytest.mark.parametrize("case, per_step", [
    ("padded-enlarges", {"enlarge_domain_if_needed": 1, "solve_nutrient_quasistatic": 1}),
    ("neumann-hull", {"step_nutrient_neumann": 1, "eval_flux": 1}),
])
def test_each_phase_is_called_through_its_module_global(monkeypatch, case, per_step):
    # a wrapper put in place of a name, wherever the package holds it, sees
    # every call: no phase is reached through a bound method, a closure or a
    # reference taken at import
    calls = Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "autophagy_tumor"]
    for module_name, names in _PROBED.items():
        module = importlib.import_module(f"autophagy_tumor.{module_name}")
        for name in names:
            func = getattr(module, name)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is func:
                        monkeypatch.setattr(holder, key, counting(name, func))
    make, params, cfg = REFERENCE_CASES[case]
    solver_module.run(make(), params, cfg, t_end=5 * cfg.dt)
    assert calls == Counter({"run": 1, **{name: 5 * n for name, n in (_EACH_STEP | per_step).items()}})


_CALL_OPS = {dis.opmap[name] for name in ("CALL", "CALL_FUNCTION_EX")}
_PACKAGE = str(Path(solver_module.__file__).parent)


def package_calls(call):
    """The CALL and CALL_FUNCTION_EX instructions `call()` executes in the
    package's own frames (a call into numpy counts once, whatever numpy does
    below it)."""
    calls = 0

    def opcodes(frame, event, arg):
        nonlocal calls
        if event == "opcode" and frame.f_code.co_code[frame.f_lasti] in _CALL_OPS:
            calls += 1
        return opcodes

    def frames(frame, event, arg):
        if not frame.f_code.co_filename.startswith(_PACKAGE):
            return None
        frame.f_trace_opcodes = True
        return opcodes

    previous = sys.gettrace()
    sys.settrace(frames)
    try:
        call()
    finally:
        sys.settrace(previous)
    return calls


def calls_of_a_warm_step(state, params, cfg):
    """`package_calls` of one `step` of `state`, once a first step of the same
    state has formed the run's scratch; with the step's diagnostics."""
    k = _Coefficients(params, cfg, state.grid.dx)
    diag = step(state, k, state.t + cfg.dt)[1]
    return package_calls(lambda: step(state, k, state.t + cfg.dt)), diag


def repeated(state, times=4):
    """`state` with each cell repeated `times` times at the same dx: the same
    components and clamps on `times` times the cells."""
    return make_state(np.repeat(state.n1, times), np.repeat(state.n2, times),
                      c=np.repeat(state.c, times), dx=state.grid.dx)


def starved_box_state():
    state = hull_box_state()
    return make_state(state.n1, state.n2, c=np.full(state.grid.n_cells, 0.05), dx=state.grid.dx)


# (make, params, cfg, the quasi-static components or whether the nutrient
# clamps, the budget: the calls one warm step made before the run's time became
# step's argument, with CPython 3.11)
_CALL_CASES = {
    "one-component": (bump_state, basic_params(g=1.0, D=0.3, K1=1.0, K2=1.0, a=0.5),
                      SolverConfig(dt=0.005, enlargement_margin=5), 1, 88),
    "two-components": (*REFERENCE_CASES["two-components"], 2, 105),
    "neumann": (*REFERENCE_CASES["neumann-hull"], False, 89),
    # a wall flux larger than a starved box holds: the nutrient step clamps
    "neumann-clamps": (starved_box_state, *REFERENCE_CASES["neumann-nutrient-clamps"][1:],
                       True, 88),
}


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="the budgets count CPython 3.11's CALL and CALL_FUNCTION_EX opcodes")
@pytest.mark.parametrize("case", sorted(_CALL_CASES))
def test_a_warm_step_makes_a_budgeted_number_of_calls_at_any_grid_size(case):
    # at a few hundred cells a step costs mostly its calls; a count is exact,
    # where the wall clock is not, and the same at 4x the cells (no per-cell
    # Python work). A change that lowers a count lowers its budget.
    make, params, cfg, shape, budget = _CALL_CASES[case]
    counts = []
    for state in (make(), repeated(make())):
        calls, diag = calls_of_a_warm_step(state, params, cfg)
        assert not diag.enlarged
        if params.nutrient_mode == QUASISTATIC:
            assert len(state.support(cfg.support_threshold)) == shape
        else:
            assert bool(diag.nutrient_cells_clamped) == shape
        counts.append(calls)
    assert counts[0] == counts[1] <= budget, counts


# (make, the support components, the budgets with and without mu*: the calls
# one warm sample made with CPython 3.11)
_SAMPLE_CASES = {"one-component": (bump_state, 1, 24, 15),
                 "two-components": (two_bump_state, 2, 27, 18)}


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="the budgets count CPython 3.11's CALL and CALL_FUNCTION_EX opcodes")
@pytest.mark.parametrize("case", sorted(_SAMPLE_CASES))
@pytest.mark.parametrize("with_mu_star", [True, False])
def test_a_warm_sample_makes_a_budgeted_number_of_calls_at_any_grid_size(case, with_mu_star):
    # as a step's budget: a sample of a state whose support is already found
    # (as every state `step` returns carries it), the same at 4x the cells
    make, shape, with_budget, without_budget = _SAMPLE_CASES[case]
    mu_star = equilibrium_roots(0.3, 1.0, 1.0).mu_star if with_mu_star else None
    counts = []
    for state in (make(), repeated(make())):
        assert len(state.support(_THRESHOLD)) == shape
        log = RunLog()
        counts.append(package_calls(lambda: _sample(state, _THRESHOLD, mu_star, 1.0, log)))
        assert log.violations == []
    assert counts[0] == counts[1] <= (with_budget if with_mu_star else without_budget), counts


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(st.sampled_from([0.0, _THRESHOLD, 2 * _THRESHOLD, 0.5]),
                   min_size=3, max_size=40),
    other=st.sampled_from([0.0, 1e-9, 0.25]),
)
@example(cells=[0.0] * 12, other=0.25)  # an empty support
@example(cells=[0.0, 0.5, 0.5, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0], other=0.0)  # several runs
@example(cells=[0.0] * 4 + [0.5] + [0.0] * 4, other=1e-9)  # enlarges on both sides
def test_state_carries_its_support(cells, other):
    n = np.array(cells)
    state = make_state(0.5 * n, 0.5 * n)
    cfg = SolverConfig(dt=0.01, support_threshold=_THRESHOLD, enlargement_margin=3)
    scans = []

    def counted(mask):
        scans.append(mask.size)
        return support_components(mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "support_components", counted)
        assert state.support(_THRESHOLD) == support_components(n > _THRESHOLD)
        assert state.support(_THRESHOLD) == support_components(n > _THRESHOLD)
        assert len(scans) == 1  # found once per state and threshold
        # another threshold finds the support again
        assert state.support(other) == support_components(n > other)
        assert len(scans) == 2
        # an enlarged state carries the components of its source, shifted
        out, changed = enlarge(state, basic_params(), cfg)
        assert out.support(_THRESHOLD) == support_components(out.n > _THRESHOLD)
        assert len(scans) == 3
    if changed:
        assert out.grid.n_cells > n.size
    else:
        assert out is state


def test_step_hands_its_quasistatic_support_to_the_new_state(monkeypatch):
    make, params, cfg = REFERENCE_CASES["two-components"]
    state = make()
    scans = []
    monkeypatch.setattr(solver_module, "support_components",
                        lambda mask: scans.append(1) or support_components(mask))
    k = _Coefficients(params, cfg, state.grid.dx)
    for _ in range(5):
        state, _ = step(state, k, state.t + cfg.dt)
    # one scan for the built state (the first enlargement check), then one
    # per step, the nutrient solve's; enlargement and sampling reuse it
    _sample(state, cfg.support_threshold, 0.4, None, RunLog())
    assert len(scans) == 1 + 5
    assert state.support(cfg.support_threshold) == support_components(
        state.n > cfg.support_threshold)
    assert len(state.support(cfg.support_threshold)) == 2


def flatnonzero_sample(state, t, threshold, mu_star):
    """The series row as `_sample` formed it before the state carried its
    support: one flatnonzero scan, and every support cell gathered."""
    support = np.flatnonzero(state.n > threshold)
    dx = state.grid.dx
    mass_total, mass_auto = float(dx * state.n.sum()), float(dx * state.n2.sum())
    if not support.size:
        return [t, 0.0, mass_total, mass_auto, *(math.nan,) * 5, 0.0]
    radius = float(np.abs(state.grid.cell_x[support[[0, -1]]]).max())
    mu = state.n1[support] / state.n[support]
    norms = deviation_norms(mu - mu_star, dx)
    return [t, radius, mass_total, mass_auto, *norms, float(state.c[support].max()), 0.0]


@pytest.mark.parametrize("make", [two_bump_state, bump_state])
def test_sample_matches_a_flatnonzero_gather(make):
    _, params, cfg = REFERENCE_CASES["two-components"]
    state = make()
    k = _Coefficients(params, cfg, state.grid.dx)
    for _ in range(10):
        for fresh in (False, True):
            # the support the step carried, and one found afresh
            sampled = state if not fresh else make_state(
                state.n1, state.n2, c=state.c, u=state.u, dx=state.grid.dx,
                x_min=state.grid.x_min, t=state.t)
            row = _sample(sampled, cfg.support_threshold, 0.4, None, RunLog())
            want = flatnonzero_sample(state, state.t, cfg.support_threshold, 0.4)
            assert np.array(row).tobytes() == np.array(want).tobytes()
        state, _ = step(state, k, state.t + cfg.dt)
    if make is two_bump_state:
        assert len(state.support(cfg.support_threshold)) == 2


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
        ("x_min", "--1", "checkpoint header x_min = --1 is not finite"),
        ("dx", "abc", "checkpoint header dx = abc is not finite"),
        ("t", "0x1", "checkpoint header t = 0x1 is not finite"),
        ("gamma", "four", "checkpoint header gamma = four is not finite"),
        ("n1", "nan", "checkpoint column n1 must be finite and >= 0; data row 3 holds nan"),
        ("n1", "-0.5", "checkpoint column n1 must be finite and >= 0; data row 3 holds -0.5"),
        ("n2", "inf", "checkpoint column n2 must be finite and >= 0; data row 3 holds inf"),
        ("c", "-3", "checkpoint column c must be finite and >= 0; data row 3 holds -3"),
        ("u", "-inf", "checkpoint column u must be finite; data row 3 holds -inf"),
        ("t", "0\nt = 99", "checkpoint repeats header key 't'"),
        ("n_cells", "1e253", "checkpoint header n_cells = 1e253 is not a cell count"),
        ("c", "x", "checkpoint data row 3 is not 4 numbers: '0.5 0.25 x 0'"),
        ("u", "", "checkpoint data row 3 is not 4 numbers: '0.5 0.25 1'"),
    ],
)
def test_checkpoint_rejects_values_no_state_holds(tmp_path, key, value, message):
    # a header key is replaced (a value with a second line appends a key), or
    # the column's entry in the third data row (an empty one drops a value)
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
    # the second body has a blank line and a comment between data rows: both are skipped
    p = tmp_path / "chk.txt"
    for body in ("-0 0 1 0\n0.5 -0 -0 0\n0 0 1 nan\n",
                 "-0 0 1 0\n\n0.5 -0 -0 0\n# a comment\n0 0 1 nan\n"):
        p.write_text("x_min = 0\ndx = 0.1\nn_cells = 3\nt = 0\ngamma = 2\n" + body)
        state, _ = read_checkpoint(p)
        np.testing.assert_array_equal(state.n1, [0.0, 0.5, 0.0])
        np.testing.assert_array_equal(state.u, [0.0, 0.0])

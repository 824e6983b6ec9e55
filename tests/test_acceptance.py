"""End-to-end acceptance checks.

Each test exercises one advertised behavior of the package on the built-in
scenario presets and prints a single summary line on success. Preset runs
are cached at module scope so the invariant sweep reuses them.
"""

import math

import numpy as np
import pytest

from autophagy_tumor.analytic import AnalyticSetup, integrate_radius
from autophagy_tumor.diagnostics import uniform_bound_at
from autophagy_tumor.grid import pressure_from_density
from autophagy_tumor.kinetics import eval_growth, equilibrium_roots
from autophagy_tumor.scenarios import (
    PRESETS,
    CustomCoshInit,
    build_initial_state,
)
from autophagy_tumor.solver import (
    SolverConfig,
    _Coefficients,
    run,
    solve_nutrient_quasistatic,
    step,
)

from conftest import make_state
from reference import mu_ode_closed_form, reaction_rate_f

_RUNS = {}

ACCEPTANCE_PRESETS = (
    "fig-s4limit-gamma5",
    "fig-s4limit-gamma20",
    "fig-s4limit-gamma80",
    "fig-s4f2-D0.3",
    "fig-s4f2-D0.5",
    "fig-s3unicon",
    "fig-s3l2n-a",
    "fig-s3l2n-b",
    "neumann-autohelp-k0",
    "neumann-autohelp-k2",
    "neumann-autohelp-k8",
    "fig-necrotic",
)


def preset_run(name):
    if name not in _RUNS:
        cfg = PRESETS[name]
        initial = build_initial_state(cfg.initial, cfg.params, cfg.solver)
        _RUNS[name] = run(initial, cfg.params, cfg.solver, cfg.t_end, cfg.snapshot_times())
    return _RUNS[name]


def slab_setup(D, R0=1.0, mu=None, g=1.0, a=0.5, c_B=1.0):
    if mu is None:
        mu = equilibrium_roots(D, 1.0, 1.0).mu_star
    return AnalyticSetup(mu=mu, g=g, a=a, D=D, c_B=c_B, R0=R0)


def test_acceptance_1_stiff_limit_approaches_free_boundary():
    # pressure converges to the moving-slab closed form as the pressure law
    # stiffens, and the density plateaus at the packing level
    setup = slab_setup(D=0.3)
    R1 = integrate_radius(setup, t_end=1.0).radii[-1]
    errors = {}
    for gamma in (5, 20, 80):
        res = preset_run(f"fig-s4limit-gamma{gamma}")
        snap = res.snapshots[1.0]
        x = snap.grid.cell_x
        p = pressure_from_density(snap.n, float(gamma))
        inside = np.abs(x) <= R1
        exact = np.zeros(x.shape)
        from autophagy_tumor.analytic import analytic_pressure

        exact[inside] = analytic_pressure(x[inside], R1, setup)
        errors[gamma] = float(np.max(np.abs(p[inside] - exact[inside])))
    assert errors[5] > errors[20] > errors[80]

    res80 = preset_run("fig-s4limit-gamma80")
    snap = res80.snapshots[1.0]
    thresh = PRESETS["fig-s4limit-gamma80"].solver.support_threshold
    n = snap.n
    radius = res80.series.column("radius")[-1]
    inner = (np.abs(snap.grid.cell_x) <= 0.8 * radius) & (n > thresh)
    assert inner.any()
    worst = float(np.max(np.abs(n[inner] - 1.0)))
    assert worst <= 0.05

    # the measured front also tracks the moving-boundary radius
    assert abs(radius - R1) / R1 <= 0.05
    print(
        "ACCEPTANCE 1: PASS - p errors %.5f > %.5f > %.5f; max|n-1| %.4f on "
        "inner 80%%; radius %.4f vs %.4f"
        % (errors[5], errors[20], errors[80], worst, radius, R1)
    )


def test_acceptance_2_radius_dichotomy():
    # balanced release (g*a = D): the radius saturates with the slab ODE;
    # surplus release (g*a > D): exponential growth at the predicted rate
    res_eq = preset_run("fig-s4f2-D0.5")
    setup_eq = slab_setup(D=0.5)
    R_ode = integrate_radius(setup_eq, t_end=20.0).radii[-1]
    R_sim = res_eq.series.column("radius")[-1]
    rel = abs(R_sim - R_ode) / R_ode
    assert rel <= 0.05

    res_gr = preset_run("fig-s4f2-D0.3")
    t = res_gr.series.column("t")
    r = res_gr.series.column("radius")
    late = t >= 10.0 - 1e-9
    slope_sim = np.polyfit(t[late], np.log(r[late]), 1)[0]

    setup_gr = slab_setup(D=0.3)
    traj = integrate_radius(setup_gr, t_end=20.0)
    r_ode = np.interp(t[late], traj.times, traj.radii)
    slope_ode = np.polyfit(t[late], np.log(r_ode), 1)[0]

    floor = (1.0 - setup_gr.mu) * (setup_gr.g * setup_gr.a - setup_gr.D)
    assert floor == pytest.approx(0.0925417, abs=1e-6)
    assert slope_sim >= 0.0925 - 0.01
    assert abs(slope_sim - slope_ode) / slope_ode <= 0.10
    print(
        "ACCEPTANCE 2: PASS - saturating radius off by %.2f%%; growth slope "
        "%.5f vs ODE %.5f (floor %.5f)" % (100 * rel, slope_sim, slope_ode, floor)
    )


def test_acceptance_3_uniform_composition_convergence():
    # heterogeneous start: the composition fraction converges to mu*
    # uniformly, under the theoretical exponential envelope
    res = preset_run("fig-s3unicon")
    eq = equilibrium_roots(0.3, 1.0, 1.0)
    assert eq.decay_rate == pytest.approx(math.sqrt(4.09), rel=1e-12)
    t = res.series.column("t")
    dev = res.series.column("sup_dev")
    assert np.all(np.isfinite(dev))
    bound = uniform_bound_at(t, dev[0], eq)
    margin = float(np.max(dev - bound))
    assert margin <= 5e-3
    assert dev[-1] < 0.05
    assert t[-1] == pytest.approx(3.0)
    print(
        "ACCEPTANCE 3: PASS - sup deviation under envelope (worst margin "
        "%.2e), final deviation %.6f" % (margin, dev[-1])
    )


def test_acceptance_4_composition_norm_regimes():
    # fast switching back: all deviation norms decay; slow switching back:
    # the L2 norm keeps growing while the higher norms still decay
    res_a = preset_run("fig-s3l2n-a")
    t = res_a.series.column("t")
    window = t >= 1.0 - 1e-9
    for channel in ("l2_dev", "l4_dev", "l8_dev"):
        vals = res_a.series.column(channel)[window]
        assert np.all(np.diff(vals) < 0), channel

    res_b = preset_run("fig-s3l2n-b")
    t = res_b.series.column("t")
    window = t >= 1.0 - 1e-9
    l2 = res_b.series.column("l2_dev")[window]
    assert np.all(np.diff(l2) >= 0)
    for channel in ("l4_dev", "l8_dev"):
        vals = res_b.series.column(channel)[window]
        assert np.all(np.diff(vals) < 0), channel
    print(
        "ACCEPTANCE 4: PASS - fast regime: L2/L4/L8 all decay; slow regime: "
        "L2 grows by %.4f while L4/L8 decay" % (l2[-1] - l2[0])
    )


def test_acceptance_5_closed_form_oracles():
    # (i) composition relaxation formula against direct RK4 integration
    rng = np.random.default_rng(20240819)
    D, K1, K2 = 0.3, 1.0, 1.0
    eq = equilibrium_roots(D, K1, K2)
    z0 = rng.random(100)
    t_steps = rng.integers(1, 101, size=100) * 300  # t in (0, 3], dt = 1e-4
    dt = 1e-4
    z = z0.copy()
    rk4 = np.empty(100)
    for k in range(1, int(t_steps.max()) + 1):
        k1 = reaction_rate_f(z, D, K1, K2)
        k2_ = reaction_rate_f(z + 0.5 * dt * k1, D, K1, K2)
        k3 = reaction_rate_f(z + 0.5 * dt * k2_, D, K1, K2)
        k4 = reaction_rate_f(z + dt * k3, D, K1, K2)
        z = z + (dt / 6.0) * (k1 + 2 * k2_ + 2 * k3 + k4)
        hit = t_steps == k
        if hit.any():
            rk4[hit] = z[hit]
    closed = np.array(
        [mu_ode_closed_form(z0[i], t_steps[i] * dt, eq, D) for i in range(100)]
    )
    worst_ode = float(np.max(np.abs(closed - rk4)))
    assert worst_ode <= 1e-8

    # (ii) instantaneous nutrient solve converges at second order to the
    # mixed-slab profile
    def nutrient_error(dx):
        n_side = int(round(1.0 / dx))
        m = 2 * (n_side + 6) + 1
        x = (np.arange(m) - (m - 1) / 2) * dx
        n = np.where(np.abs(x) <= 1.0 - dx / 2, 1.0, 0.0)
        state = make_state(0.5 * n, 0.5 * n, dx=dx)
        from autophagy_tumor.kinetics import ConstantTransitions, ModelParameters, Proportional

        params = ModelParameters(
            gamma=2.0, D=0.3, a=0.5, c_B=1.0, growth=Proportional(1.0),
            transitions=ConstantTransitions(1.0, 1.0),
        )
        k = _Coefficients(params, SolverConfig(dt=0.01), state.grid.dx)
        c = solve_nutrient_quasistatic(state.grid, state.n, state.n2, k, state.support(1e-8))
        exact = 0.25 + 0.75 * np.cosh(x) / np.cosh(1.0)
        inside = np.abs(x) <= 1.0 + dx / 2
        return float(np.max(np.abs(c[inside] - exact[inside])))

    errs = [nutrient_error(dx) for dx in (0.05, 0.025, 0.0125)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9)

    # (iii) pure-slab radius against the hyperbolic-sine closed form
    setup = AnalyticSetup(mu=1.0, g=1.0, a=0.5, D=0.3, c_B=1.0, R0=1.0)
    R1 = integrate_radius(setup, t_end=1.0).radii[-1]
    exact = math.asinh(math.sinh(1.0) * math.e)
    assert abs(R1 - exact) <= 1e-6
    assert exact == pytest.approx(1.87823, abs=1e-5)
    print(
        "ACCEPTANCE 5: PASS - ODE oracle max err %.2e; nutrient orders %s; "
        "radius err %.2e" % (worst_ode, np.round(orders, 3).tolist(), abs(R1 - exact))
    )


def test_acceptance_6_starvation_switch_rescues_population():
    # under wall-limited nutrient supply, a faster switch into the
    # self-degrading phase leaves more tissue alive at the horizon, while
    # early on (nutrient still plentiful) the rate barely matters
    masses = {}
    series = {}
    for k in (0, 2, 8):
        res = preset_run(f"neumann-autohelp-k{k}")
        masses[k] = res.series.column("mass_total")[-1]
        series[k] = res.series
    assert masses[0] < masses[2] < masses[8]

    t = series[0].column("t")
    early = (t > 0) & (t <= 0.5 + 1e-9)
    assert early.any()
    spreads = []
    for idx in np.flatnonzero(early):
        vals = np.array([series[k].column("mass_total")[idx] for k in (0, 2, 8)])
        spreads.append((vals.max() - vals.min()) / vals.mean())
    worst_spread = float(np.max(spreads))
    assert worst_spread <= 0.02
    print(
        "ACCEPTANCE 6: PASS - final masses %.4f < %.4f < %.4f; early spread "
        "%.3f%%" % (masses[0], masses[2], masses[8], 100 * worst_spread)
    )


def test_acceptance_7_invariants_on_all_runs():
    # every cached acceptance run must finish without bound violations, and
    # the fixed-box scheme conserves the discrete mass budget to roundoff
    # at two resolutions
    for name in ACCEPTANCE_PRESETS:
        res = preset_run(name)
        assert res.log.violations == [], f"{name}: {res.log.violations}"
        total = res.series.column("mass_total")[-1]
        assert res.log.clamped_neg_mass <= 1e-6 * total, name
        cfg = PRESETS[name]
        if cfg.params.nutrient_mode == "quasistatic_dirichlet":
            c_max = res.series.column("c_max")
            finite = np.isfinite(c_max)
            assert np.all(c_max[finite] <= cfg.params.c_B + 1e-6), name

    def box_balance_residual(dx, dt, n_steps):
        base = PRESETS["neumann-autohelp-k2"]
        params = base.params
        cfg = SolverConfig(
            dt=dt,
            sample_interval=base.solver.sample_interval,
        )
        init = CustomCoshInit(R=4.0, dx=dx, halfwidth=5.0)
        state = build_initial_state(init, params, cfg)
        worst = 0.0
        k = _Coefficients(params, cfg, state.grid.dx)
        for _ in range(n_steps):
            old = state
            state, diag = step(state, k)
            assert diag.clamped_mass == 0.0
            G = eval_growth(params.growth, old.c, old.n)
            lhs = dx * np.sum(state.n - old.n) / dt
            rhs = dx * np.sum(G * state.n1 + (G - params.D) * state.n2)
            worst = max(worst, abs(lhs - rhs))
        return worst

    coarse = box_balance_residual(0.04, 0.002, 250)
    fine = box_balance_residual(0.02, 0.001, 500)
    assert coarse < 1e-10
    assert fine < 1e-10
    assert fine <= 1.5 * max(coarse, 1e-13)
    print(
        "ACCEPTANCE 7: PASS - no violations on %d runs; box mass-balance "
        "residual %.2e -> %.2e under refinement" % (len(ACCEPTANCE_PRESETS), coarse, fine)
    )


def test_acceptance_8_starved_interior_stalls():
    # death-dominated mixture: the interior ends up at near-zero pressure
    # while still occupied, with the pressure peaks out near the rim
    res = preset_run("fig-necrotic")
    state = res.final_state
    thresh = PRESETS["fig-necrotic"].solver.support_threshold
    n = state.n
    p = pressure_from_density(n, PRESETS["fig-necrotic"].params.gamma)
    x = state.grid.cell_x
    radius = res.series.column("radius")[-1]

    core = (n > thresh) & (p < 0.01 * p.max())
    center = int(np.argmin(np.abs(x)))
    assert core[center], "the central cell is not part of the stalled region"
    assert (core & (np.abs(x) <= 0.5 * radius)).any()
    # the pressure peak sits outside the stalled middle
    assert abs(x[int(np.argmax(p))]) > 0.5 * radius
    core_x = x[core & (np.abs(x) <= 0.5 * radius)]
    print(
        "ACCEPTANCE 8: PASS - stalled core spans [%.2f, %.2f] (p(0)=%.2e, "
        "n(0)=%.3f, radius %.2f)" % (core_x.min(), core_x.max(), p[center], n[center], radius)
    )

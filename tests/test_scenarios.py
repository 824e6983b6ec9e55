import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autophagy_tumor import scenarios, solver
from autophagy_tumor.analytic import AnalyticSetup
from autophagy_tumor.diagnostics import SERIES_CHANNELS, support_components
from autophagy_tumor.grid import Grid1D, pressure_from_density
from autophagy_tumor.kinetics import (
    NEUMANN,
    QUASISTATIC,
    AffineDeath,
    ConstantFlux,
    ConstantTransitions,
    HullTransitions,
    Logistic,
    ModelParameters,
    PeriodicFlux,
    Proportional,
    RationalPairTransitions,
    _Finite,
    equilibrium_roots,
)
from autophagy_tumor.scenarios import (
    PRESETS,
    PROFILE_COLUMNS,
    AnalyticPressureInit,
    CheckpointInit,
    ConstantComposition,
    CustomCoshInit,
    ProfileComposition,
    ScenarioConfig,
    TableComposition,
    build_initial_state,
    config_from_dict,
    config_to_dict,
    load_config,
    run_scenario,
    write_profile_csv,
)
from autophagy_tumor.solver import (
    SolverConfig,
    SolverError,
    read_checkpoint,
    run,
    step,
    write_checkpoint,
)

from conftest import make_state


# ---------------------------------------------------------------------------
# recipe validation


def test_composition_validation():
    ConstantComposition(0.0)
    ConstantComposition(1.0)
    with pytest.raises(ValueError):
        ConstantComposition(-0.1)
    with pytest.raises(ValueError):
        ConstantComposition(1.1)
    with pytest.raises(ValueError):
        ProfileComposition("hetero-sin")
    with pytest.raises(ValueError):
        TableComposition(x=(0.0, 0.0, 1.0), mu=(1.0, 0.5, 0.0))
    with pytest.raises(ValueError):
        TableComposition(x=(0.0, 1.0), mu=(1.0, 0.5, 0.0))


def test_initializer_validation():
    with pytest.raises(ValueError):
        AnalyticPressureInit(R0=0.0, dx=0.1, composition=ConstantComposition(1.0))
    with pytest.raises(ValueError):
        AnalyticPressureInit(R0=1.0, dx=0.0, composition=ConstantComposition(1.0))
    with pytest.raises(ValueError):
        CustomCoshInit(R=5.0, dx=0.1, halfwidth=5.0)
    with pytest.raises(ValueError):
        CustomCoshInit(R=0.0, dx=0.1, halfwidth=5.0)
    # a non-finite size is refused when the recipe is built, not in set-up
    with pytest.raises(ValueError, match="halfwidth"):
        CustomCoshInit(R=1.0, dx=0.04, halfwidth=float("inf"))
    with pytest.raises(ValueError, match="dx must be positive and finite"):
        CustomCoshInit(R=1.0, dx=float("inf"), halfwidth=5.0)
    with pytest.raises(ValueError, match="dx must be positive and finite"):
        AnalyticPressureInit(R0=1.0, dx=float("inf"), composition=ConstantComposition(1.0))
    # finite sizes whose cell count overflows: a ValueError, not round(inf)'s OverflowError
    with pytest.raises(ValueError, match=r"halfwidth 1e\+300 / dx 1e-10 overflows"):
        CustomCoshInit(R=1.0, dx=1e-10, halfwidth=1e300)


def test_scenario_config_output_entries():
    base = PRESETS["fig-s4limit-gamma5"]
    cfg = dataclasses.replace(
        base, t_end=3.0, outputs=("timeseries", "profiles@1", "profiles@2.5")
    )
    assert cfg.snapshot_times() == (1.0, 2.5)
    with pytest.raises(ValueError):
        dataclasses.replace(base, outputs=("movies",))
    with pytest.raises(ValueError):
        dataclasses.replace(base, outputs=("profiles@soon",))
    # profile times must be finite and within [0, t_end]
    assert dataclasses.replace(base, outputs=("profiles@0", "profiles@1")).snapshot_times() == (
        0.0,
        1.0,
    )
    for entry in ("profiles@2.5", "profiles@inf", "profiles@nan", "profiles@-0.5"):
        with pytest.raises(ValueError, match="profile time"):
            dataclasses.replace(base, outputs=(entry,))
    for entry in ("profiles@abc", "profiles@"):
        with pytest.raises(ValueError, match=f"output '{entry}': the profile time must be a number"):
            dataclasses.replace(base, outputs=(entry,))


# ---------------------------------------------------------------------------
# grids and initial states


def test_build_grid_analytic_slab():
    cfg = SolverConfig(dt=0.002, enlargement_margin=25)
    init = AnalyticPressureInit(R0=1.0, dx=0.04, composition=ConstantComposition(1.0))
    g = build_initial_state(init, stiff_params(), cfg).grid
    # 25 cells cover the unit radius, plus 50 vacuum cells per side
    assert g.n_cells == 2 * 75 + 1
    assert g.x_min == pytest.approx(-3.0)
    center = (g.n_cells - 1) // 2
    assert g.cell_x[center] == pytest.approx(0.0, abs=1e-15)
    assert g.cell_x[-1] == pytest.approx(3.0)


def test_build_grid_fixed_box():
    cfg = SolverConfig(dt=0.002)
    g = build_initial_state(CustomCoshInit(R=4.0, dx=0.04, halfwidth=5.0), stiff_params(), cfg).grid
    assert g.n_cells == 251
    assert g.x_min == pytest.approx(-5.0)
    with pytest.raises(ValueError):
        build_initial_state(CustomCoshInit(R=0.2, dx=0.3, halfwidth=1.0), stiff_params(), cfg)


def stiff_params(gamma=80.0, D=0.3, K1=1.0, K2=1.0, a=0.5):
    return ModelParameters(
        gamma=gamma,
        D=D,
        a=a,
        c_B=1.0,
        growth=Proportional(1.0),
        transitions=ConstantTransitions(K1, K2),
    )


def test_initial_state_constant_split_is_exact():
    params = stiff_params()
    mu_star = equilibrium_roots(0.3, 1.0, 1.0).mu_star
    init = AnalyticPressureInit(R0=1.0, dx=0.04, composition=ConstantComposition(mu_star))
    cfg = SolverConfig(dt=0.002)
    state = build_initial_state(init, params, cfg)
    n = state.n
    np.testing.assert_array_equal(state.n1, mu_star * n)
    mask = n > 0
    np.testing.assert_allclose(state.n1[mask] / n[mask], mu_star, rtol=1e-14)


def test_initial_state_stiff_slab_stays_below_one():
    # near the stiff limit the initial density approaches but never exceeds
    # the unit packing level
    cfg = PRESETS["fig-s4limit-gamma80"]
    state = build_initial_state(cfg.initial, cfg.params, cfg.solver)
    peak = float(np.max(state.n))
    assert peak <= 1.0 + 1e-6
    assert peak == pytest.approx(0.9853976971882005, rel=1e-12)


def test_initial_state_velocity_matches_pressure_gradient():
    cfg = PRESETS["fig-s4limit-gamma5"]
    state = build_initial_state(cfg.initial, cfg.params, cfg.solver)
    p = pressure_from_density(state.n, cfg.params.gamma)
    np.testing.assert_array_equal(state.u, -np.diff(p) / state.grid.dx)
    # instantaneous nutrient closure: ambient outside, depressed inside
    assert np.max(state.c) == pytest.approx(1.0)
    center = (state.grid.n_cells - 1) // 2
    assert state.c[center] < 1.0


def test_initial_state_hetero_profile_spans_both_species():
    cfg = PRESETS["fig-s3unicon"]
    state = build_initial_state(cfg.initial, cfg.params, cfg.solver)
    assert np.max(state.n1) > 0
    assert np.max(state.n2) > 0
    x = state.grid.cell_x
    center = (state.grid.n_cells - 1) // 2
    # cos profile: all normal at the center, all autophagic at |x| = R0/2
    assert state.n2[center] == 0.0
    # near |x| = R0/2 the cosine profile is almost fully autophagic
    n = state.n
    mask = n > 1e-8
    mu = state.n1[mask] / n[mask]
    assert np.min(mu) < 0.01
    assert np.max(mu) == pytest.approx(1.0, abs=1e-12)
    half = center + int(round(0.5 / state.grid.dx))
    expect = np.clip(0.5 + 0.5 * np.cos(2.0 * np.pi * x[half]), 0.0, 1.0)
    assert state.n1[half] / n[half] == pytest.approx(expect, rel=1e-10)


def test_initial_state_cosh_box():
    cfg = PRESETS["neumann-autohelp-k2"]
    state = build_initial_state(cfg.initial, cfg.params, cfg.solver)
    center = (state.grid.n_cells - 1) // 2
    p = pressure_from_density(state.n, cfg.params.gamma)
    assert p[center] == pytest.approx(0.9633810065263134, rel=1e-12)
    np.testing.assert_array_equal(state.n2, np.zeros(state.grid.n_cells))
    np.testing.assert_array_equal(state.c, np.ones(state.grid.n_cells))
    # support fills |x| < 4 inside the [-5, 5] box
    assert state.n[0] == 0.0
    assert state.n[center] > 0.9


@pytest.mark.parametrize("preset", ["fig-s4limit-gamma5", "neumann-autohelp-k2"])
def test_the_first_step_reuses_what_set_up_formed(monkeypatch, preset):
    # the initial state is finished as a step's is, carrying its support, so
    # the first step's enlargement check does not scan it again; a
    # quasi-static step then scans once, for its own nutrient solve
    cfg = PRESETS[preset]
    scans = []

    def counting(mask):
        scans.append(mask.size)
        return support_components(mask)

    for module in (scenarios, solver):
        if hasattr(module, "support_components"):
            monkeypatch.setattr(module, "support_components", counting)
    state = build_initial_state(cfg.initial, cfg.params, cfg.solver)
    new, diag = step(state, solver._Coefficients(cfg.params, cfg.solver, state.grid.dx),
                     state.t + cfg.solver.dt)
    assert not diag.enlarged and new.grid is state.grid
    assert len(scans) == (2 if cfg.params.nutrient_mode == QUASISTATIC else 0)


def test_a_run_forms_its_coefficients_once_while_its_grid_grows(monkeypatch):
    # set-up forms one bundle and `run` one more, which serves every step:
    # an enlargement keeps dx, and the bundle forms its scratch again per size
    cfg = PRESETS["fig-s3unicon"]
    assert cfg.params.nutrient_mode == QUASISTATIC
    formed = []
    init = solver._Coefficients.__init__
    monkeypatch.setattr(solver._Coefficients, "__init__",
                        lambda self, *args: formed.append(args) or init(self, *args))
    state = build_initial_state(cfg.initial, cfg.params, cfg.solver)
    assert len(formed) == 1
    result = run(state, cfg.params, cfg.solver, cfg.t_end)
    assert result.final_state.grid.n_cells > state.grid.n_cells  # it enlarged
    assert len(formed) == 2


def test_initial_state_from_checkpoint(tmp_path):
    state = make_state(np.full(9, 0.25), np.full(9, 0.25), dx=0.2, t=3.5)
    path = tmp_path / "chk.txt"
    write_checkpoint(path, state, gamma=80.0)
    cfg = SolverConfig(dt=0.002)
    back = build_initial_state(CheckpointInit(str(path)), stiff_params(gamma=80.0), cfg)
    assert back.t == 3.5
    np.testing.assert_array_equal(back.n1, state.n1)
    with pytest.raises(ValueError):
        build_initial_state(CheckpointInit(str(path)), stiff_params(gamma=40.0), cfg)


def test_initial_recipe_must_fit_the_model():
    # the same rules for a ScenarioConfig and for a direct build_initial_state
    cfg = SolverConfig(dt=0.002)
    slab = AnalyticPressureInit(R0=1.0, dx=0.04, composition=ProfileComposition("hetero-cos"))
    for params, message in [
        (dataclasses.replace(stiff_params(), growth=AffineDeath(delta=0.5)),
         "needs nutrient-proportional growth"),
        (dataclasses.replace(stiff_params(), transitions=HullTransitions(2.0, 1.0, 0.5)),
         "needs constant switch rates"),
    ]:
        with pytest.raises(ValueError, match=message):
            build_initial_state(slab, params, cfg)
        with pytest.raises(ValueError, match=message):
            ScenarioConfig("misfit", params, cfg, slab, t_end=1.0)
    # a constant composition needs no equilibrium, so any switch rates do
    constant = dataclasses.replace(slab, composition=ConstantComposition(0.5))
    hull = dataclasses.replace(stiff_params(), transitions=HullTransitions(2.0, 1.0, 0.5))
    assert build_initial_state(constant, hull, cfg).n.max() > 0.0


# rate constants at the edges of the closed-form slab's range (c_B = 1): zero,
# negative, tiny, subnormal, c_B and above, huge
_EDGE_RATES = st.sampled_from([0.0, -1.0, -1e-300, 1e-300, 5e-324, 0.3, 1.0, 1.5, 1e300])
_HETERO = {"type": "profile", "name": "hetero-cos"}


@settings(max_examples=300, deadline=None)
@given(D=_EDGE_RATES, a=_EDGE_RATES, g=_EDGE_RATES, K1=_EDGE_RATES, K2=_EDGE_RATES,
       composition=st.sampled_from([{"type": "constant", "value": 0.5},
                                    {"type": "constant", "value": 1.0}, _HETERO,
                                    {"type": "table", "x": [-1.0, 1.0], "mu": [0.2, 0.8]}]))
# the cases that used to load and then fail when the state was built
@example(D=0.3, a=1.5, g=1.0, K1=1.0, K2=1.0, composition=_HETERO)
@example(D=0.3, a=0.4, g=-1.0, K1=1.0, K2=1.0, composition=_HETERO)
@example(D=0.0, a=0.4, g=1.0, K1=1.0, K2=1.0, composition=_HETERO)
@example(D=0.3, a=0.4, g=1.0, K1=0.0, K2=1.0, composition=_HETERO)
@example(D=1e300, a=0.4, g=1.0, K1=0.3, K2=1.0, composition=_HETERO)
def test_a_slab_config_that_loads_can_build_its_state(D, a, g, K1, K2, composition):
    data = config_to_dict(PRESETS["fig-s3unicon"])
    data["model"].update(D=D, a=a, growth={"type": "proportional", "g": g},
                         transitions={"type": "constant", "K1": K1, "K2": K2})
    data["initial"]["composition"] = composition
    try:
        cfg = config_from_dict(data)
    except ValueError:
        return
    state = build_initial_state(cfg.initial, cfg.params, cfg.solver)
    assert np.isfinite(state.densities).all() and np.isfinite(state.c).all()


def test_a_run_without_a_float_equilibrium_has_no_deviation_norms(tmp_path):
    # a constant composition needs no mu*, so these rates load and build;
    # the run used to fail on the first with ZeroDivisionError, and sampled
    # the second against a wrong mu* (0.0, with nu* = -inf)
    for D, K1, K2 in ((2.0, 1e-300, 5e-324), (1e-300, 1e-300, 1e10)):
        data = config_to_dict(PRESETS["fig-s4f2-D0.3"])
        data["model"].update(D=D, transitions={"type": "constant", "K1": K1, "K2": K2})
        data["t_end"] = 0.01
        result = run_scenario(config_from_dict(data), tmp_path / f"run-{K2}")
        assert result.log.steps == 5
        for channel in ("sup_dev", "l2_dev", "l4_dev", "l8_dev"):
            assert np.isnan(result.series.column(channel)).all(), (K2, channel)
        assert np.isfinite(result.series.column("mass_total")).all()


# ---------------------------------------------------------------------------
# strict JSON configs


def minimal_config_dict():
    return {
        "name": "tiny",
        "model": {
            "gamma": 5.0,
            "D": 0.3,
            "a": 0.5,
            "c_B": 1.0,
            "growth": {"type": "proportional", "g": 1.0},
            "transitions": {"type": "constant", "K1": 1.0, "K2": 1.0},
        },
        "solver": {"dt": 0.002, "sample_interval": 0.1},
        "initial": {
            "type": "analytic_pressure",
            "R0": 1.0,
            "dx": 0.04,
            "composition": {"type": "constant", "value": 0.5},
        },
        "t_end": 0.01,
        "outputs": ["timeseries", "checkpoint"],
    }


def test_config_from_dict_minimal():
    cfg = config_from_dict(minimal_config_dict())
    assert cfg.name == "tiny"
    assert cfg.params.gamma == 5.0
    assert isinstance(cfg.params.growth, Proportional)
    assert cfg.solver.dt == 0.002
    assert isinstance(cfg.initial, AnalyticPressureInit)
    assert cfg.t_end == 0.01


@pytest.mark.parametrize("value", [[], "fig-necrotic", None, 1.0])
def test_config_must_be_an_object(value):
    with pytest.raises(ValueError, match=r"^a config must be a JSON object$"):
        config_from_dict(value)


def test_config_rejects_unknown_keys_with_location():
    d = minimal_config_dict()
    d["model"]["gamm"] = 2.0
    with pytest.raises(ValueError, match=r"config\.model.*gamm"):
        config_from_dict(d)
    d = minimal_config_dict()
    d["extra"] = 1
    with pytest.raises(ValueError, match="extra"):
        config_from_dict(d)
    d = minimal_config_dict()
    d["initial"]["composition"]["vaule"] = 0.5
    with pytest.raises(ValueError, match=r"config\.initial\.composition.*vaule"):
        config_from_dict(d)
    d = minimal_config_dict()
    del d["model"]["gamma"]
    with pytest.raises(ValueError, match=r"config\.model\.gamma"):
        config_from_dict(d)


def test_boundary_mode_follows_the_nutrient_mode():
    # written as the mode implies, optional when read, and checked if named
    for name, implied, other, mismatch in [
        ("fig-s4f2-D0.3", "padded_dirichlet", "neumann_box",
         "quasi-static nutrient mode requires the padded boundary mode"),
        ("neumann-autohelp-k2", "neumann_box", "padded_dirichlet",
         "dynamic nutrient mode requires the fixed-box boundary mode"),
    ]:
        data = config_to_dict(PRESETS[name])
        assert data["solver"].pop("boundary_mode") == implied
        assert config_from_dict(data) == PRESETS[name]
        for value, message in [
            (other, mismatch),
            ("reflecting", "unknown boundary_mode 'reflecting'"),
            (7, "config.solver.boundary_mode must be a string, got 7"),
        ]:
            data["solver"]["boundary_mode"] = value
            with pytest.raises(ValueError) as info:
                config_from_dict(data)
            assert str(info.value) == message


def test_config_values_keep_their_accepted_forms():
    # integers where numbers are expected, a whole-number float margin and
    # a null lambda_schedule load as before
    d = minimal_config_dict()
    d["model"].update(gamma=5, lambda_schedule=None)
    d["solver"]["enlargement_margin"] = 30.0
    d["initial"]["composition"] = {"type": "table", "x": [-1, 1], "mu": [0, 1]}
    cfg = config_from_dict(d)
    assert type(cfg.params.gamma) is float and cfg.params.gamma == 5.0
    assert cfg.params.lambda_schedule is None
    assert type(cfg.solver.enlargement_margin) is int and cfg.solver.enlargement_margin == 30
    assert cfg.initial.composition == TableComposition(x=(-1.0, 1.0), mu=(0.0, 1.0))
    assert cfg.outputs == ("timeseries", "checkpoint")
    with pytest.raises(ValueError, match=r"config\.t_end must be a number, got True"):
        config_from_dict(dict(minimal_config_dict(), t_end=True))


def test_config_preset_reference():
    cfg = config_from_dict({"preset": "fig-necrotic"})
    assert cfg == PRESETS["fig-necrotic"]
    with pytest.raises(ValueError, match="preset"):
        config_from_dict({"preset": "fig-necrotic", "t_end": 1.0})
    with pytest.raises(ValueError):
        config_from_dict({"preset": "no-such-preset"})


def test_config_round_trip_for_every_preset():
    for name, preset in PRESETS.items():
        back = config_from_dict(config_to_dict(preset))
        assert back == preset, name


def _codec_cases():
    """One config per variant of every tagged section, with its exact JSON."""
    qs = ModelParameters(
        gamma=5.0, D=0.3, a=0.5, c_B=1.0,
        growth=Proportional(g=1.5), transitions=ConstantTransitions(K1=1.0, K2=0.5),
    )
    box = ModelParameters(
        gamma=40.0, D=0.1, a=0.5, c_B=1.0,
        growth=AffineDeath(delta=0.5),
        transitions=HullTransitions(k1max=2.0, k2max=1.0, omega=0.5),
        nutrient_mode=NEUMANN, lambda_schedule=ConstantFlux(value=0.2),
    )
    crowded = dataclasses.replace(
        box,
        growth=Logistic(g=2.0, M=1.2, delta=0.5),
        transitions=RationalPairTransitions(),
        lambda_schedule=PeriodicFlux(high=0.5, period=20.0),
    )
    padded = SolverConfig(dt=0.002, sample_interval=0.05)
    fixed = SolverConfig(dt=0.002, sample_interval=0.2)
    qs_json = (
        '"model": {"gamma": 5.0, "D": 0.3, "a": 0.5, "c_B": 1.0, '
        '"growth": {"type": "proportional", "g": 1.5}, "consumption": {"type": "linear"}, '
        '"transitions": {"type": "constant", "K1": 1.0, "K2": 0.5}, '
        '"nutrient_mode": "quasistatic_dirichlet"}, '
        '"solver": {"dt": 0.002, "support_threshold": 1e-08, "enlargement_margin": 25, '
        '"boundary_mode": "padded_dirichlet", "sample_interval": 0.05}, '
    )
    fixed_json = (
        '"solver": {"dt": 0.002, "support_threshold": 1e-08, "enlargement_margin": 25, '
        '"boundary_mode": "neumann_box", "sample_interval": 0.2}, '
    )
    return [
        (
            ScenarioConfig("constant", qs, padded, AnalyticPressureInit(
                R0=1.0, dx=0.04, composition=ConstantComposition(0.25)), 2.0,
                ("timeseries", "profiles@1")),
            '{"name": "constant", ' + qs_json
            + '"initial": {"type": "analytic_pressure", "R0": 1.0, "dx": 0.04, '
            '"composition": {"type": "constant", "value": 0.25}}, '
            '"t_end": 2.0, "outputs": ["timeseries", "profiles@1"]}',
        ),
        (
            ScenarioConfig("profile", qs, padded, AnalyticPressureInit(
                R0=1.0, dx=0.04, composition=ProfileComposition("hetero-cos")), 2.0),
            '{"name": "profile", ' + qs_json
            + '"initial": {"type": "analytic_pressure", "R0": 1.0, "dx": 0.04, '
            '"composition": {"type": "profile", "name": "hetero-cos"}}, '
            '"t_end": 2.0, "outputs": ["timeseries", "checkpoint"]}',
        ),
        (
            ScenarioConfig("table", qs, padded, AnalyticPressureInit(
                R0=1.0, dx=0.04, composition=TableComposition(
                    x=(-1.0, 0.0, 1.0), mu=(0.25, 1.0, 0.75))), 2.0),
            '{"name": "table", ' + qs_json
            + '"initial": {"type": "analytic_pressure", "R0": 1.0, "dx": 0.04, '
            '"composition": {"type": "table", "x": [-1.0, 0.0, 1.0], "mu": [0.25, 1.0, 0.75]}}, '
            '"t_end": 2.0, "outputs": ["timeseries", "checkpoint"]}',
        ),
        (
            ScenarioConfig("box", box, fixed, CustomCoshInit(R=4.0, dx=0.04, halfwidth=5.0), 20.0),
            '{"name": "box", "model": {"gamma": 40.0, "D": 0.1, "a": 0.5, "c_B": 1.0, '
            '"growth": {"type": "affine_death", "delta": 0.5}, "consumption": {"type": "linear"}, '
            '"transitions": {"type": "hull", "k1max": 2.0, "k2max": 1.0, "omega": 0.5}, '
            '"nutrient_mode": "dynamic_neumann", '
            '"lambda_schedule": {"type": "constant", "value": 0.2}}, ' + fixed_json
            + '"initial": {"type": "custom_cosh", "R": 4.0, "dx": 0.04, "halfwidth": 5.0}, '
            '"t_end": 20.0, "outputs": ["timeseries", "checkpoint"]}',
        ),
        (
            ScenarioConfig("restart", crowded, fixed,
                           CheckpointInit("runs/box/checkpoint_final.txt"), 40.0),
            '{"name": "restart", "model": {"gamma": 40.0, "D": 0.1, "a": 0.5, "c_B": 1.0, '
            '"growth": {"type": "logistic", "g": 2.0, "M": 1.2, "delta": 0.5}, '
            '"consumption": {"type": "linear"}, "transitions": {"type": "rational_pair"}, '
            '"nutrient_mode": "dynamic_neumann", '
            '"lambda_schedule": {"type": "periodic", "high": 0.5, "period": 20.0}}, '
            + fixed_json
            + '"initial": {"type": "checkpoint", "path": "runs/box/checkpoint_final.txt"}, '
            '"t_end": 40.0, "outputs": ["timeseries", "checkpoint"]}',
        ),
    ]


def test_config_codec_text_and_round_trip_for_every_variant():
    for cfg, text in _codec_cases():
        assert json.dumps(config_to_dict(cfg)) == text, cfg.name
        assert config_from_dict(json.loads(text)) == cfg, cfg.name


# (family, case holding the section, keys down to it, one required key)
_CODEC_FAMILIES = [
    ("growth", "constant", ("model", "growth"), "g"),
    ("transitions", "constant", ("model", "transitions"), "K2"),
    ("flux schedule", "restart", ("model", "lambda_schedule"), "period"),
    ("composition", "table", ("initial", "composition"), "mu"),
    ("initial", "box", ("initial",), "halfwidth"),
    ("consumption", "constant", ("model", "consumption"), None),
]


@pytest.mark.parametrize("family, case, keys, required", _CODEC_FAMILIES)
def test_config_codec_errors_name_the_family_and_path(family, case, keys, required):
    text = dict((cfg.name, text) for cfg, text in _codec_cases())[case]
    path = ".".join(("config",) + keys)

    def rejects(edit, message):
        data = json.loads(text)
        section = data
        for key in keys:
            section = section[key]
        edit(section)
        with pytest.raises(ValueError) as info:
            config_from_dict(data)
        assert str(info.value) == message

    rejects(lambda s: s.update(type="bogus"), f"unknown {family} type 'bogus' at {path}")
    rejects(lambda s: s.pop("type"), f"missing required key {path}.type")
    rejects(lambda s: s.update(extra=1.0), f"unknown keys at {path}: ['extra']")
    if required is not None:
        rejects(lambda s: s.pop(required), f"missing required key {path}.{required}")


def test_load_config_reads_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_config_dict()))
    cfg = load_config(path)
    assert cfg.name == "tiny"


_SLAB = PRESETS["fig-s4limit-gamma5"]
# a valid instance of each class with fields that must be > 0, and those fields
_POSITIVE = [
    (SolverConfig(dt=0.002), ("dt", "support_threshold", "sample_interval")),
    (Grid1D(x_min=-1.0, dx=0.04, n_cells=51), ("dx",)),
    (_SLAB.initial, ("R0", "dx")),
    (CustomCoshInit(R=4.0, dx=0.04, halfwidth=5.0), ("dx",)),
    (_SLAB, ("t_end",)),
    (AnalyticSetup(mu=0.5, g=1.0, a=0.5, D=0.3, c_B=1.0, R0=1.0), ("g", "R0")),
    (_SLAB.params, ("c_B",)),
    (PeriodicFlux(high=0.5, period=20.0), ("period",)),
    (HullTransitions(k1max=2.0, k2max=1.0, omega=0.5), ("omega",)),
]
_NON_POSITIVE = [(valid, field, value) for valid, names in _POSITIVE for field in names
                 for value in (0.0, -1.0)]
# and of each class with fields that must be >= 0, and those fields
_NON_NEGATIVE = [
    (AnalyticSetup(mu=0.5, g=1.0, a=0.5, D=0.3, c_B=1.0, R0=1.0), ("D",)),
    (_SLAB.params, ("D", "a")),
    (ConstantTransitions(K1=1.0, K2=1.0), ("K1", "K2")),
    (HullTransitions(k1max=2.0, k2max=1.0, omega=0.5), ("k1max", "k2max")),
]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Proportional(g=np.inf), "g must be finite, got inf"),
        (lambda: AffineDeath(delta=np.nan), "delta must be finite, got nan"),
        (lambda: Logistic(g=1.0, M=np.nan, delta=0.1), "M must be finite, got nan"),
        (lambda: HullTransitions(k1max=np.inf, k2max=1.0, omega=0.5),
         "k1max must be non-negative and finite, got inf"),
        (lambda: HullTransitions(k1max=2.0, k2max=1.0, omega=np.inf),
         "omega must be positive and finite, got inf"),
        (lambda: ConstantTransitions(K1=np.inf, K2=1.0),
         "K1 must be non-negative and finite, got inf"),
        (lambda: ConstantFlux(np.nan), "value must be finite, got nan"),
        (lambda: PeriodicFlux(high=np.inf, period=20.0), "high must be finite, got inf"),
        (lambda: PeriodicFlux(high=0.5, period=np.inf),
         "period must be positive and finite, got inf"),
        (lambda: TableComposition(x=(-1.0, np.nan), mu=(0.5, 0.5)),
         "x must be finite, got (-1.0, nan)"),
        (lambda: TableComposition(x=(-1.0, 1.0), mu=(0.5, np.inf)),
         "mu must be finite, got (0.5, inf)"),
        (lambda: ConstantComposition(np.nan), "value must be finite, got nan"),
        (lambda: Grid1D(x_min=np.inf, dx=0.04, n_cells=51), "x_min must be finite, got inf"),
        (lambda: SolverConfig(dt=np.nan), "dt must be positive and finite, got nan"),
        (lambda: dataclasses.replace(_SLAB.initial, dx=np.inf),
         "dx must be positive and finite, got inf"),
        (lambda: CustomCoshInit(R=4.0, dx=np.nan, halfwidth=5.0),
         "dx must be positive and finite, got nan"),
        (lambda: dataclasses.replace(_SLAB, t_end=np.inf),
         "t_end must be positive and finite, got inf"),
        *((lambda valid=valid, field=field, value=value:
           dataclasses.replace(valid, **{field: value}),
           f"{field} must be positive and finite, got {value}")
          for valid, field, value in _NON_POSITIVE),
    ],
    ids=["Proportional", "AffineDeath", "Logistic", "HullTransitions-k1max",
         "HullTransitions-omega", "ConstantTransitions", "ConstantFlux", "PeriodicFlux-high",
         "PeriodicFlux-period", "TableComposition-x", "TableComposition-mu",
         "ConstantComposition", "Grid1D-x_min", "SolverConfig-dt", "AnalyticPressureInit-dx",
         "CustomCoshInit-dx", "ScenarioConfig-t_end",
         *(f"{type(valid).__name__}-{field}={value:g}" for valid, field, value in _NON_POSITIVE)],
)
def test_recipes_built_in_python_refuse_non_finite_fields(build, message):
    # JSON configs never reach the non-finite values: the loader refuses them first
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("valid, field", [(valid, field) for valid, names in _NON_NEGATIVE
                                          for field in names],
                         ids=[f"{type(valid).__name__}-{field}" for valid, names in _NON_NEGATIVE
                              for field in names])
def test_a_non_negative_field_takes_zero_and_refuses_a_negative_value(valid, field):
    assert getattr(dataclasses.replace(valid, **{field: 0.0}), field) == 0.0
    with pytest.raises(ValueError) as err:
        dataclasses.replace(valid, **{field: -0.5})
    assert str(err.value) == f"{field} must be non-negative and finite, got -0.5"


def test_every_config_class_with_a_float_field_has_the_one_check():
    # every class the loader builds, and Grid1D, checks its float fields
    # through kinetics._Finite, and each `_positive` or `_nonnegative` name is
    # a float field
    variants = (cls for _, tagged in scenarios._VARIANTS.values() for cls in tagged.values())
    for cls in {ScenarioConfig, Grid1D, *scenarios._SECTIONS.values(), *variants}:
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}
        if {"float", "tuple[float, ...]"} & set(kinds.values()):
            assert issubclass(cls, _Finite), cls.__name__
        for name in (*getattr(cls, "_positive", ()), *getattr(cls, "_nonnegative", ())):
            assert kinds.get(name) == "float", (cls.__name__, name)


# ---------------------------------------------------------------------------
# preset catalogue


def test_preset_catalogue_shape():
    assert len(PRESETS) >= 12
    for name, cfg in PRESETS.items():
        assert cfg.name == name
        assert cfg.t_end > 0
        assert "timeseries" in cfg.outputs


def test_preset_parameter_spot_checks():
    assert PRESETS["fig-s4limit-gamma80"].params.gamma == 80.0
    assert PRESETS["fig-s4limit-gamma5"].params.gamma == 5.0
    assert PRESETS["fig-s4f2-D0.5"].params.D == 0.5
    assert PRESETS["fig-s3unicon"].params.a == 0.4
    assert PRESETS["fig-s3unicon"].initial.composition == ProfileComposition("hetero-cos")
    tr_a = PRESETS["fig-s3l2n-a"].params.transitions
    assert (PRESETS["fig-s3l2n-a"].params.D, tr_a.K1, tr_a.K2) == (0.1, 0.1, 1.0)
    assert PRESETS["fig-s3l2n-a"].initial.composition == ConstantComposition(1.0)
    tr_b = PRESETS["fig-s3l2n-b"].params.transitions
    assert tr_b.K2 == 0.01
    assert PRESETS["fig-s3l2n-b"].initial.R0 == 2.0
    assert isinstance(PRESETS["fig-s4fin"].params.transitions, RationalPairTransitions)
    assert PRESETS["fig-necrotic"].params.D == 0.7
    hull = PRESETS["neumann-autohelp-k8"].params.transitions
    assert hull == HullTransitions(k1max=8.0, k2max=1.0, omega=0.5)
    box = PRESETS["neumann-periodic-T20"]
    assert box.params.gamma == 40.0
    assert box.params.lambda_schedule == PeriodicFlux(high=0.5, period=20.0)
    assert box.t_end == 40.0
    assert box.initial == CustomCoshInit(R=4.0, dx=0.04, halfwidth=5.0)
    assert isinstance(PRESETS["neumann-logistic"].params.growth, Logistic)


# ---------------------------------------------------------------------------
# scenario driver


def tiny_scenario():
    return dataclasses.replace(
        PRESETS["fig-s4limit-gamma5"],
        name="tiny-run",
        t_end=0.02,
        outputs=("timeseries", "checkpoint", "profiles@0.02"),
    )


def test_run_scenario_writes_outputs(tmp_path):
    out = tmp_path / "run1"
    result = run_scenario(tiny_scenario(), out)
    assert result.log.steps == 10

    series_lines = (out / "timeseries.csv").read_text().splitlines()
    assert series_lines[0] == ",".join(SERIES_CHANNELS)
    assert len(series_lines) >= 2

    profile_lines = (out / "profile_t0.02.csv").read_text().splitlines()
    assert profile_lines[0] == ",".join(PROFILE_COLUMNS)

    state, gamma = read_checkpoint(out / "checkpoint_final.txt")
    assert gamma == 5.0
    assert state.t == pytest.approx(0.02)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["name"] == "tiny-run"
    assert manifest["failed"] is False
    assert manifest["steps"] == 10
    assert manifest["wall_time_s"] > 0
    assert manifest["outputs"]["timeseries"] == "timeseries.csv"
    assert manifest["outputs"]["checkpoint"] == "checkpoint_final.txt"
    assert manifest["outputs"]["profiles"] == {"0.02": "profile_t0.02.csv"}
    assert config_from_dict(manifest["config"]) == tiny_scenario()


def test_run_scenario_is_reproducible(tmp_path):
    run_scenario(tiny_scenario(), tmp_path / "a")
    run_scenario(tiny_scenario(), tmp_path / "b")
    for fname in ("timeseries.csv", "checkpoint_final.txt", "profile_t0.02.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_run_scenario_failure_leaves_manifest(tmp_path):
    # densities far beyond any physical level overflow the stiff pressure
    # weights; the driver must record the failure before propagating it
    m = 61
    n1 = np.zeros(m)
    n1[25:36] = 1e200
    state = make_state(n1, np.zeros(m), dx=0.1)
    chk = tmp_path / "huge.txt"
    write_checkpoint(chk, state, gamma=5.0)
    cfg = dataclasses.replace(
        tiny_scenario(), name="doomed", initial=CheckpointInit(str(chk))
    )
    out = tmp_path / "doomed"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverError):
        run_scenario(cfg, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed"] is True
    assert manifest["error"]


def test_run_scenario_interrupt_leaves_failed_manifest(tmp_path, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(scenarios, "run", interrupted)
    out = tmp_path / "stopped"
    with pytest.raises(KeyboardInterrupt):
        run_scenario(tiny_scenario(), out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed"] is True
    assert "steps" not in manifest
    # the interrupt has no message, so the manifest names its class
    assert manifest["error"] == "KeyboardInterrupt"


_RESTART_CASES = {
    # a slab that grows past its padding: the domain is enlarged in both halves
    "quasistatic": (
        stiff_params(gamma=5.0),
        SolverConfig(dt=0.002, enlargement_margin=3, sample_interval=0.02),
        AnalyticPressureInit(R0=0.5, dx=0.04, composition=ProfileComposition("hetero-cos")),
    ),
    "neumann": (
        ModelParameters(
            gamma=40.0, D=0.1, a=0.5, c_B=1.0, growth=AffineDeath(delta=0.5),
            transitions=HullTransitions(k1max=2.0, k2max=1.0, omega=0.5),
            nutrient_mode=NEUMANN, lambda_schedule=ConstantFlux(value=0.2),
        ),
        SolverConfig(dt=0.002, sample_interval=0.02),
        CustomCoshInit(R=1.0, dx=0.1, halfwidth=2.0),
    ),
}


@pytest.mark.parametrize("case", sorted(_RESTART_CASES))
def test_restart_from_checkpoint_is_bit_identical(tmp_path, case):
    # 0 -> 2T in one run equals 0 -> T, a checkpoint written and read back,
    # then T -> 2T; only t may differ, by the rounding of t0 + j*dt
    params, solver_cfg, recipe = _RESTART_CASES[case]
    T = 0.3
    initial = build_initial_state(recipe, params, solver_cfg)
    whole = run(initial, params, solver_cfg, 2 * T).final_state
    half = run(initial, params, solver_cfg, T).final_state
    path = tmp_path / "chk.txt"
    write_checkpoint(path, half, params.gamma)
    restart, _ = read_checkpoint(path)
    second = run(restart, params, solver_cfg, 2 * T).final_state
    if case == "quasistatic":
        assert initial.grid.n_cells < half.grid.n_cells < whole.grid.n_cells
    assert second.grid == whole.grid
    for name in ("n1", "n2", "c", "u"):
        assert np.array_equal(getattr(second, name), getattr(whole, name)), name
    assert abs(second.t - whole.t) <= 1e-12


def test_write_profile_csv_round_trip(tmp_path, rng):
    state = make_state(rng.random(7), rng.random(7), c=rng.random(7), u=rng.random(6))
    path = tmp_path / "profile.csv"
    write_profile_csv(path, state, gamma=2.0)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (7, len(PROFILE_COLUMNS))
    np.testing.assert_array_equal(data[:, 0], state.grid.cell_x)
    np.testing.assert_array_equal(data[:, 1], state.n1)
    np.testing.assert_array_equal(data[:, 3], state.n1 + state.n2)
    np.testing.assert_array_equal(
        data[:, 5], pressure_from_density(state.n1 + state.n2, 2.0)
    )
    np.testing.assert_array_equal(data[:-1, 6], state.u)
    assert data[-1, 6] == 0.0

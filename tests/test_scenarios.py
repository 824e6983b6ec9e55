import dataclasses
import json

import numpy as np
import pytest

from autophagy_tumor import scenarios
from autophagy_tumor.diagnostics import SERIES_CHANNELS
from autophagy_tumor.grid import pressure_from_density
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
    build_grid,
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


# ---------------------------------------------------------------------------
# grids and initial states


def test_build_grid_analytic_slab():
    cfg = SolverConfig(dt=0.002, enlargement_margin=25)
    init = AnalyticPressureInit(R0=1.0, dx=0.04, composition=ConstantComposition(1.0))
    g = build_grid(init, cfg)
    # 25 cells cover the unit radius, plus 50 vacuum cells per side
    assert g.n_cells == 2 * 75 + 1
    assert g.x_min == pytest.approx(-3.0)
    center = (g.n_cells - 1) // 2
    assert g.cell_x[center] == pytest.approx(0.0, abs=1e-15)
    assert g.cell_x[-1] == pytest.approx(3.0)


def test_build_grid_fixed_box():
    cfg = SolverConfig(dt=0.002)
    g = build_grid(CustomCoshInit(R=4.0, dx=0.04, halfwidth=5.0), cfg)
    assert g.n_cells == 251
    assert g.x_min == pytest.approx(-5.0)
    with pytest.raises(ValueError):
        build_grid(CustomCoshInit(R=0.2, dx=0.3, halfwidth=1.0), cfg)


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
    with pytest.raises(ValueError, match=r"config\.t_end must be finite and positive, got True"):
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

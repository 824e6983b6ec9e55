import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from autophagy_tumor.analytic import (
    AnalyticSetup,
    analytic_nutrient,
    analytic_pressure,
    integrate_radius,
)
from autophagy_tumor.cli import main, set_config_value
from autophagy_tumor.scenarios import (
    PRESETS,
    ProfileComposition,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
)
from autophagy_tumor.solver import RunLog, RunResult, read_checkpoint, write_checkpoint

from conftest import make_state


def tiny_config_dict(t_end=0.01):
    return {
        "name": "cli-tiny",
        "model": {
            "gamma": 5.0,
            "D": 0.3,
            "a": 0.5,
            "c_B": 1.0,
            "growth": {"type": "proportional", "g": 1.0},
            "transitions": {"type": "constant", "K1": 1.0, "K2": 1.0},
        },
        "solver": {"dt": 0.002, "sample_interval": 0.01},
        "initial": {
            "type": "analytic_pressure",
            "R0": 1.0,
            "dx": 0.04,
            "composition": {"type": "constant", "value": 0.5},
        },
        "t_end": t_end,
        "outputs": ["timeseries", "checkpoint"],
    }


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# informational commands


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert set(out) == set(PRESETS)
    assert len(out) >= 12


def test_analytic_radius_trajectory(capsys):
    rc = main(
        ["analytic", "radius", "--mu", "1", "--g", "1", "--cB", "1",
         "--R0", "1", "--t-end", "1"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,radius,speed"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1.0)
    assert float(last[1]) == pytest.approx(1.87823, abs=1e-4)


def test_analytic_nutrient_profile(capsys):
    rc = main(
        ["analytic", "nutrient", "--mu", "0.5", "--a", "0.5", "--R0", "1",
         "--points", "11"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 12
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert xs[0] == -1.0 and xs[-1] == 1.0
    assert vals[0] == pytest.approx(1.0, rel=1e-9)
    assert vals[5] == pytest.approx(0.736041, abs=1e-5)  # x = 0


def test_analytic_pressure_profile(capsys):
    rc = main(["analytic", "pressure", "--mu", "1", "--points", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 6
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[-1] == pytest.approx(0.0, abs=1e-9)
    assert vals[2] == pytest.approx(0.351946, abs=1e-5)


@pytest.mark.parametrize("quantity", ["radius", "nutrient", "pressure"])
def test_analytic_prints_every_value_exactly(capsys, quantity):
    # each printed value parses back to the bits the closed form computed
    argv = ["analytic", quantity, "--mu", "0.5", "--g", "1", "--a", "0.5", "--D", "0.3",
            "--cB", "1", "--R0", "1.5", "--t-end", "0.5", "--dt", "0.01", "--points", "11"]
    assert main(argv) == 0
    _, *lines = capsys.readouterr().out.splitlines()
    printed = np.array([[float(tok) for tok in line.split(",")] for line in lines])
    setup = AnalyticSetup(mu=0.5, g=1.0, a=0.5, D=0.3, c_B=1.0, R0=1.5)
    if quantity == "radius":
        traj = integrate_radius(setup, 0.5, 0.01)
        expected = np.column_stack((traj.times, traj.radii, traj.speeds))
    else:
        x = np.linspace(-1.5, 1.5, 11)
        profile = analytic_nutrient if quantity == "nutrient" else analytic_pressure
        expected = np.column_stack((x, profile(x, 1.5, setup)))
    assert printed.shape == expected.shape
    assert printed.tobytes() == expected.tobytes()


def test_analytic_rejects_bad_parameters(capsys):
    rc = main(["analytic", "radius", "--mu", "2"])
    assert rc == 2
    assert "bad parameters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["radius", "--dt", "nan"], "dt must be finite and positive, got nan"),
        (["radius", "--t-end", "inf"], "t_end must be finite and >= 0, got inf"),
        (["nutrient", "--points", "-3"], "--points must be at least 1, got -3"),
        (["pressure", "--cB", "inf"], "c_B must be finite, got inf"),
    ],
)
def test_analytic_rejects_bad_flags_in_one_line(capsys, flags, message):
    # each used to end in a traceback (exit 1) or, for --cB inf, in rows of inf
    assert main(["analytic", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bad parameters: {message}\n"


def test_analytic_fails_in_one_line_on_a_radius_that_leaves_its_range(capsys):
    # mu = 0 and g*a > D: the front grows like exp(0.9 t) and overflows
    argv = ["analytic", "radius", "--mu", "0", "--a", "0.9", "--D", "0",
            "--t-end", "2000", "--dt", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("integration failed: front radius left (0, inf) at t=")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# run


def test_run_with_config_file(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config_dict())
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", cfg_path, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 0
    assert f"wrote {out_dir}" in captured.out
    assert "(5 steps)" in captured.out
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "timeseries.csv").exists()
    assert (out_dir / "checkpoint_final.txt").exists()


def test_run_rejects_unknown_preset(tmp_path, capsys):
    rc = main(["run", "--preset", "no-such", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


def test_run_rejects_missing_config(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "bad config" in capsys.readouterr().err


def test_run_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "bad config" in capsys.readouterr().err


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    data = tiny_config_dict()
    data["model"]["gamm"] = 2.0
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "gamm" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["profiles@inf", "profiles@nan", "profiles@5"])
def test_run_rejects_bad_profile_time_at_load(tmp_path, capsys, entry):
    # t_end = 1: an infinite, NaN or later-than-t_end profile time exits 2
    # before the output directory is created
    data = tiny_config_dict(t_end=1.0)
    data["outputs"] = ["timeseries", entry]
    out_dir = tmp_path / "never"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    assert entry in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "entries", [["profiles@0.5000001", "profiles@0.5000002"], ["profiles@0.5", "profiles@0.5"]]
)
def test_run_rejects_profiles_that_share_a_file_at_load(tmp_path, capsys, entries):
    # both entries would write profile_t0.5.csv: exit 2 before the output
    # directory is created
    data = tiny_config_dict(t_end=1.0)
    data["outputs"] = ["timeseries", *entries]
    out_dir = tmp_path / "never"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    assert f"{entries[1]!r}: an earlier profiles@ entry writes profile_t0.5.csv" in (
        capsys.readouterr().err
    )
    assert not out_dir.exists()


@pytest.mark.parametrize("t_end", [float("inf"), float("nan"), -1.0, 0.0, None])
def test_run_rejects_bad_t_end_at_load(tmp_path, capsys, t_end):
    # checked before the profile times, which are bounded by t_end: what is
    # not a finite number is refused as in every number field, and the
    # config refuses a number that is not positive
    data = tiny_config_dict(t_end=t_end)
    data["outputs"] = ["timeseries", "profiles@1"]
    out_dir = tmp_path / "never"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    expected = (f"t_end must be positive and finite, got {t_end!r}" if t_end in (-1.0, 0.0)
                else f"config.t_end must be a number, got {t_end!r}")
    assert expected in capsys.readouterr().err
    assert not out_dir.exists()


def test_restart_refuses_a_profile_before_its_start(tmp_path, capsys):
    # a time before the checkpoint's is no step of the restart: it used to be
    # skipped with a warning, and `check` then let the profile go missing
    first = tmp_path / "first"
    assert main(["run", "--config", write_config(tmp_path, tiny_config_dict()),
                 "--out", str(first)]) == 0
    data = tiny_config_dict(t_end=0.02)
    data["initial"] = {"type": "checkpoint", "path": str(first / "checkpoint_final.txt")}
    data["outputs"] = ["timeseries", "profiles@0.004", "profiles@0.02"]
    out_dir = tmp_path / "restart"
    capsys.readouterr()
    assert main(["run", "--config", write_config(tmp_path, data, "restart.json"),
                 "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        f"bad config {out_dir}: no step of this run ends at the snapshot time 0.004 (its "
        f"steps run from t=0.01 to 0.02 in steps of 0.002)\n")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "section, entries, message",
    [
        ("model", {"gamma": 1.5}, "gamma >= 2"),
        (
            "model",
            {"nutrient_mode": "dynamic_neumann", "lambda_schedule": {"type": "constant", "value": 0.0}},
            "fixed-box boundary",
        ),
        ("solver", {"boundary_mode": "neumann_box"}, "padded boundary"),
    ],
)
def test_run_rejects_unrunnable_model_at_load(tmp_path, capsys, section, entries, message):
    # caught when the config is loaded: exit 2 and no output directory; a
    # boundary mode named in the config must be the one the nutrient mode implies
    data = tiny_config_dict()
    data["solver"]["boundary_mode"] = "padded_dirichlet"
    data[section].update(entries)
    out_dir = tmp_path / "x"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad config" in err and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("first, repeated, key", [('"dt": 0.002', '"dt": 0.004', "dt"),
                                                  ('"D": 0.3', '"D": 0.6', "D")])
def test_run_refuses_a_config_that_repeats_a_key(tmp_path, capsys, first, repeated, key):
    # json.load alone keeps the last value: these configs used to run with it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config_dict()).replace(first, f"{first}, {repeated}"))
    out_dir = tmp_path / "never"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"bad config: repeated key {key!r} in a JSON object\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "preset, model, message",
    [
        # fig-s4limit-gamma5 with K1 = -50 used to fail at step 46 (singular matrix)
        ("fig-s4limit-gamma5", {"transitions": {"type": "constant", "K1": -50.0, "K2": 1.0}},
         "K1 must be non-negative and finite, got -50.0"),
        ("fig-s4limit-gamma5", {"transitions": {"type": "constant", "K1": 1.0, "K2": -0.5}},
         "K2 must be non-negative and finite, got -0.5"),
        ("neumann-autohelp-k2", {"transitions": {"type": "hull", "k1max": -2.0, "k2max": 1.0,
                                                 "omega": 0.5}},
         "k1max must be non-negative and finite, got -2.0"),
        ("neumann-autohelp-k2", {"transitions": {"type": "hull", "k1max": 2.0, "k2max": -1.0,
                                                 "omega": 0.5}},
         "k2max must be non-negative and finite, got -1.0"),
        ("neumann-autohelp-k2", {"transitions": {"type": "hull", "k1max": 2.0, "k2max": 1.0,
                                                 "omega": 0.0}},
         "omega must be positive and finite, got 0.0"),
        ("neumann-autohelp-k2", {"transitions": {"type": "hull", "k1max": 2.0, "k2max": 1.0,
                                                 "omega": -0.5}},
         "omega must be positive and finite, got -0.5"),
        # it used to be ignored
        ("fig-s4limit-gamma5", {"lambda_schedule": {"type": "constant", "value": 0.2}},
         "quasi-static nutrient mode takes no lambda_schedule (no wall flux)"),
    ],
)
def test_run_rejects_rates_and_fluxes_the_model_cannot_use_at_load(tmp_path, capsys, preset,
                                                                   model, message):
    data = config_to_dict(PRESETS[preset])
    data["model"].update(model)
    out_dir = tmp_path / "never"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == f"bad config: {message}\n"
    assert not out_dir.exists()


def test_run_refuses_an_out_that_holds_an_earlier_run(tmp_path, capsys):
    # the files of the first run would stay beside the second's, unlisted
    data = tiny_config_dict()
    data["outputs"] = ["timeseries", "profiles@0.004", "checkpoint"]
    out_dir = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)]) == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    data["outputs"] = ["timeseries"]
    capsys.readouterr()
    rc = main(["run", "--config", write_config(tmp_path, data, "second.json"),
               "--out", str(out_dir)])
    assert rc == 2
    assert f"bad --out: output directory {out_dir} is not empty" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_run_refuses_an_out_that_is_not_a_directory(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config_dict())
    taken = tmp_path / "taken"
    taken.write_text("not a run\n")
    for out_dir in (taken, taken / "below"):
        rc = main(["run", "--config", cfg_path, "--out", str(out_dir)])
        assert rc == 2
        assert f"bad --out: output path {taken} is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "not a run\n"


def test_run_accepts_an_empty_out_directory(tmp_path, capsys):
    out_dir = tmp_path / "empty"
    out_dir.mkdir()
    assert main(["run", "--config", write_config(tmp_path, tiny_config_dict()),
                 "--out", str(out_dir)]) == 0
    assert main(["check", str(out_dir)]) == 0


def put(data, key, value):
    """Set a dotted config path, creating the last key."""
    *parents, last = key.split(".")
    for part in parents:
        data = data[part]
    data[last] = value


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("model.growth.g", None, "a number"),
        ("model.growth.g", [1], "a number"),
        ("model.growth.g", {}, "a number"),
        ("model.growth.g", True, "a number"),
        ("model.gamma", None, "a number"),
        ("model.gamma", "5", "a number"),
        ("solver.dt", None, "a number"),
        ("solver.enlargement_margin", None, "an integer"),
        ("solver.enlargement_margin", 30.7, "an integer"),
        ("solver.enlargement_margin", float("inf"), "an integer"),
        ("initial.composition", None, "an object"),
        ("initial.composition.x", None, "a list of numbers"),
        ("initial.composition.x", [-1, "1"], "a list of numbers"),
        ("outputs", "timeseries", "a list of strings"),
        ("outputs", ["timeseries", 1], "a list of strings"),
        ("name", None, "a string"),
        ("model.growth", [], "an object"),
        # non-finite numbers, and an int a float cannot hold
        pytest.param("solver.enlargement_margin", 10**400, "an integer",
                     id="solver.enlargement_margin-10**400-an integer"),
        ("solver.dt", math.nan, "a number"),
        ("model.D", math.nan, "a number"),
        ("model.gamma", -math.inf, "a number"),
        ("initial.composition.mu", [0.5, math.nan], "a list of numbers"),
    ],
)
def test_run_rejects_mistyped_value_at_load(tmp_path, capsys, key, value, kind):
    # every value is checked against its JSON type when the config is
    # loaded: exit 2, an error naming the path, and no output directory
    data = tiny_config_dict()
    data["initial"]["composition"] = {"type": "table", "x": [-1.0, 1.0], "mu": [0.5, 0.5]}
    put(data, key, value)
    out_dir = tmp_path / "never"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    assert f"config.{key} must be {kind}, got {value!r}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_refuses_a_grid_it_cannot_allocate(tmp_path, capsys):
    # a margin of 10**17 cells per side needs over 1 EiB per array, more than
    # any address space; set-up used to die with a MemoryError traceback
    data = tiny_config_dict()
    data["solver"]["enlargement_margin"] = 10**17
    out_dir = tmp_path / "never"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    n_cells = 2 * (25 + 2 * 10**17) + 1  # R0 / dx = 25 slab cells per side, and the margins
    assert capsys.readouterr().err == (
        f"bad config {out_dir}: a grid of {n_cells} cells cannot be allocated\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("period", [0, -20.0])
def test_run_rejects_a_non_positive_flux_period_at_load(tmp_path, capsys, period):
    # it used to fail at the first step with a ZeroDivisionError traceback
    data = tiny_config_dict()
    data["model"].update(growth={"type": "affine_death", "delta": 0.5},
                         transitions={"type": "hull", "k1max": 2.0, "k2max": 1.0, "omega": 0.5},
                         nutrient_mode="dynamic_neumann",
                         lambda_schedule={"type": "periodic", "high": 0.5, "period": period})
    data["initial"] = {"type": "custom_cosh", "R": 4.0, "dx": 0.04, "halfwidth": 5.0}
    out_dir = tmp_path / "never"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    assert f"period must be positive and finite, got {float(period)}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"model.growth": {"type": "affine_death", "delta": 0.5}},
         "needs nutrient-proportional growth"),
        ({"model.transitions": {"type": "hull", "k1max": 2.0, "k2max": 1.0, "omega": 0.5},
          "initial.composition": {"type": "profile", "name": "hetero-cos"}},
         "needs constant switch rates"),
        ({"initial": {"type": "custom_cosh", "R": 4.0, "dx": 0.04, "halfwidth": 5.01}},
         "halfwidth 5.01 is not a whole number of cells of size 0.04"),
    ],
)
def test_run_rejects_initial_recipe_the_model_cannot_use(tmp_path, capsys, edits, message):
    # found when the config is loaded, not after the run directory exists
    data = tiny_config_dict()
    for key, value in edits.items():
        put(data, key, value)
    out_dir = tmp_path / "never"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("a", 1.5, "need 0 <= a < c_B, got a=1.5, c_B=1.0"),
        ("g", -1, "g must be positive and finite, got -1.0"),
        ("D", 0, "degenerate: need D > 0, got D=0.0"),
        ("K1", 0, "root ordering needs K1, K2 > 0, got K1=0.0, K2=1.0"),
    ],
)
def test_a_slab_the_model_cannot_start_is_refused_at_load(tmp_path, capsys, key, value, message):
    # these used to load, and each sweep member then failed when its state was built
    data = config_to_dict(PRESETS["fig-s3unicon"])
    set_config_value(data, key, value)
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict(data)
    out_dir = tmp_path / "never"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"bad config: {message}\n"
    assert not out_dir.exists()
    sweep_dir = tmp_path / "sweep"
    assert main(["sweep", "--preset", "fig-s3unicon", "--vary", f"{key}={value}",
                 "--out", str(sweep_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"bad sweep: {message}\n"
    assert captured.out == ""
    assert not sweep_dir.exists()


def test_a_profile_slab_without_float_roots_is_refused_at_load(tmp_path, capsys):
    # nu* is about -1e310; this used to load with mu* = 0 and nu* = -inf
    data = config_to_dict(PRESETS["fig-s3unicon"])
    data["model"].update(D=1e-300, transitions={"type": "constant", "K1": 1e-300, "K2": 1e10})
    message = "the roots for D=1e-300, K1=1e-300, K2=10000000000.0 leave the float range"
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict(data)
    out_dir = tmp_path / "never"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"bad config: {message}\n"
    assert not out_dir.exists()


def test_run_reports_solver_failure(tmp_path, capsys):
    n1 = np.zeros(61)
    n1[25:36] = 1e200
    state = make_state(n1, np.zeros(61), dx=0.1)
    chk = tmp_path / "huge.txt"
    write_checkpoint(chk, state, gamma=5.0)
    data = tiny_config_dict()
    data["initial"] = {"type": "checkpoint", "path": str(chk)}
    out_dir = tmp_path / "doomed"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"FAILED {out_dir}: step 1: tridiagonal system has non-finite entries\n"
    assert captured.out == ""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["failed"] is True
    assert manifest["error"] == "step 1: tridiagonal system has non-finite entries"


def test_run_rejects_checkpoint_with_other_gamma(tmp_path, capsys):
    # the config loads, but its initial state cannot be built: exit 2, found
    # before the run directory is created
    n1 = np.zeros(61)
    n1[25:36] = 0.5
    chk = tmp_path / "gamma4.txt"
    write_checkpoint(chk, make_state(n1, np.zeros(61), dx=0.1), gamma=4.0)
    data = tiny_config_dict()
    data["initial"] = {"type": "checkpoint", "path": str(chk)}
    out_dir = tmp_path / "mismatch"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"bad config {out_dir}: ")
    assert captured.err.count("\n") == 1
    assert "gamma=4" in captured.err and "gamma=5" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "n1_entry, message",
    [
        (None, "No such file or directory"),  # no checkpoint file at all
        (-0.5, "checkpoint column n1 must be finite and >= 0; data row 31 holds -0.5"),
    ],
)
def test_run_rejects_unreadable_checkpoint_before_creating_the_directory(
    tmp_path, capsys, n1_entry, message
):
    chk = tmp_path / "chk.txt"
    if n1_entry is not None:
        n1 = np.zeros(61)
        n1[25:36] = 0.5
        n1[30] = n1_entry
        write_checkpoint(chk, make_state(n1, np.zeros(61), dx=0.1), gamma=5.0)
    data = tiny_config_dict()
    data["initial"] = {"type": "checkpoint", "path": str(chk)}
    out_dir = tmp_path / "never"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"bad config {out_dir}: ")
    assert message in captured.err and captured.err.count("\n") == 1
    if n1_entry is None:
        assert f"cannot read checkpoint {chk}" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_run_rejects_t_end_before_the_checkpoint_time(tmp_path, capsys):
    first = tmp_path / "first"
    assert main(["run", "--config", write_config(tmp_path, tiny_config_dict(t_end=0.02)),
                 "--out", str(first)]) == 0
    data = tiny_config_dict(t_end=0.01)
    data["initial"] = {"type": "checkpoint", "path": str(first / "checkpoint_final.txt")}
    out_dir = tmp_path / "restart"
    capsys.readouterr()
    rc = main(["run", "--config", write_config(tmp_path, data, "restart.json"),
               "--out", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == (f"bad config {out_dir}: t_end 0.01 precedes the initial "
                                       f"time 0.02 of the state\n")
    assert not out_dir.exists()


def test_run_refuses_a_profile_time_no_step_ends_at(tmp_path, capsys):
    # it used to write profile_t0.003.csv holding the state at t = 0.004
    # (0.003 is 1.5 steps of 0.002, and round(1.5) = 2), with no warning
    data = config_to_dict(PRESETS["fig-s4limit-gamma80"])
    data["t_end"], data["outputs"] = 0.01, ["timeseries", "profiles@0.003"]
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"bad config {out_dir}: no step of this run ends at the snapshot time 0.003 (its "
        f"steps run from t=0 to 0.01 in steps of 0.002)\n")
    assert not out_dir.exists()


def test_a_restart_takes_profile_times_on_the_steps_from_its_checkpoint(tmp_path, capsys):
    # the steps of a restart run from the checkpoint's time: 0.016 is one,
    # 0.017 is not
    first = tmp_path / "first"
    assert main(["run", "--config", write_config(tmp_path, tiny_config_dict()),
                 "--out", str(first)]) == 0
    data = tiny_config_dict(t_end=0.02)
    data["initial"] = {"type": "checkpoint", "path": str(first / "checkpoint_final.txt")}
    capsys.readouterr()
    for profile, rc in (("profiles@0.017", 2), ("profiles@0.016", 0)):
        data["outputs"] = ["timeseries", profile]
        out_dir = tmp_path / profile
        assert main(["run", "--config", write_config(tmp_path, data, "restart.json"),
                     "--out", str(out_dir)]) == rc
        assert out_dir.exists() == (rc == 0)
        refused = "time 0.017 (its steps run from t=0.01 to 0.02" in capsys.readouterr().err
        assert refused == (rc == 2)
    manifest = json.loads((tmp_path / "profiles@0.016" / "manifest.json").read_text())
    assert manifest["outputs"]["profiles"] == {"0.016": "profile_t0.016.csv"}
    assert manifest["warnings"] == []
    assert main(["check", str(tmp_path / "profiles@0.016")]) == 0


def test_run_warns_about_a_sample_interval_off_the_steps(tmp_path, capsys):
    # 0.003 is 1.5 steps of 0.002, a tie: the series is sampled every step (the
    # earlier of the two), and says so; it was every 2 steps, by round(1.5) = 2
    data = config_to_dict(PRESETS["fig-s4limit-gamma80"])
    data["t_end"], data["outputs"] = 0.01, ["timeseries", "checkpoint"]
    data["solver"]["sample_interval"] = 0.003
    out_dir = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)]) == 0
    warning = "sample_interval 0.003 is not a whole number of steps; sampling every 0.002"
    assert f"warning {out_dir}: {warning}\n" in capsys.readouterr().err
    assert json.loads((out_dir / "manifest.json").read_text())["warnings"] == [warning]
    times = np.loadtxt(out_dir / "timeseries.csv", delimiter=",", skiprows=1)[:, 0]
    assert times == pytest.approx([0.0, 0.002, 0.004, 0.006, 0.008, 0.01])
    assert main(["check", str(out_dir)]) == 0


# ---------------------------------------------------------------------------
# check


def finished_run(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config_dict())
    out_dir = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    return out_dir


def test_check_accepts_good_run(tmp_path, capsys):
    out_dir = finished_run(tmp_path, capsys)
    rc = main(["check", str(out_dir)])
    assert rc == 0
    assert "OK" in capsys.readouterr().out


def test_check_fails_a_failed_run_with_its_error(tmp_path, capsys):
    # dt = 0.1 makes the velocity system singular at step 2: the manifest
    # alone is written, and check reports the run's error in one line
    data = config_to_dict(PRESETS["fig-s4f2-D0.5"])
    data["solver"]["dt"] = 0.1
    out_dir = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)]) == 1
    assert [path.name for path in out_dir.iterdir()] == ["manifest.json"]
    capsys.readouterr()
    assert main(["check", str(out_dir)]) == 1
    assert capsys.readouterr().err == ("check failed: run failed: step 2: tridiagonal solve "
                                       "failed: singular matrix (zero pivot 101)\n")


@pytest.mark.parametrize("case", ["semicolon", "blank line", "header", "bad token"])
def test_check_flags_corrupted_csv(tmp_path, capsys, case):
    # the series of the tiny run: a header and two data rows, t = 0 and t = 0.01
    out_dir = finished_run(tmp_path, capsys)
    series = out_dir / "timeseries.csv"
    header, row1, row2 = series.read_text().splitlines()
    semicolon, bad_token = row1.replace(",", ";", 1), "x" + row2[row2.index(","):]
    wrong_header = header.replace("radius", "r", 1)
    lines, message = {
        "semicolon": ([header, semicolon, row2], f"data row 1 is not 10 numbers: {semicolon!r}"),
        "blank line": ([header, row1, "", row2], "data row 2 is not 10 numbers: ''"),
        "header": ([wrong_header, row1, row2], f"unexpected header {wrong_header!r}"),
        "bad token": ([header, row1, bad_token], f"data row 2 is not 10 numbers: {bad_token!r}"),
    }[case]
    series.write_text("\n".join(lines) + "\n")
    assert main(["check", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"check failed: timeseries.csv: {message}\n"


def test_check_flags_truncated_checkpoint(tmp_path, capsys):
    out_dir = finished_run(tmp_path, capsys)
    chk = out_dir / "checkpoint_final.txt"
    content = chk.read_text().splitlines()
    chk.write_text("\n".join(content[:-3]) + "\n")
    rc = main(["check", str(out_dir)])
    assert rc == 1
    assert "check failed" in capsys.readouterr().err


def test_check_flags_a_file_the_manifest_does_not_list(tmp_path, capsys):
    out_dir = finished_run(tmp_path, capsys)
    (out_dir / "profile_t0.004.csv").write_text("x,n1,n2,n,c,p,u\n")
    rc = main(["check", str(out_dir)])
    assert rc == 1
    assert "profile_t0.004.csv: not listed in the manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("steps", 4, "manifest steps 4 but the series spans 5"),
        ("clamped_neg_mass", 1e-9, "manifest clamped_neg_mass 1e-09 but the series ends at 0.0"),
    ],
)
def test_check_cross_checks_the_manifest_against_the_series(tmp_path, capsys, key, value,
                                                            message):
    out_dir = finished_run(tmp_path, capsys)
    assert main(["check", str(out_dir)]) == 0
    capsys.readouterr()
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    assert main(["check", str(out_dir)]) == 1
    assert message in capsys.readouterr().err


def test_check_tests_the_profile_times_against_the_config(tmp_path, capsys):
    # a profile listed under a time the config never asks for used to pass
    data = tiny_config_dict()
    data["outputs"] = ["timeseries", "profiles@0.01", "checkpoint"]
    out_dir = tmp_path / "run"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)]) == 0
    assert main(["check", str(out_dir)]) == 0
    capsys.readouterr()
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["outputs"]["profiles"] == {"0.01": "profile_t0.01.csv"}
    manifest["outputs"]["profiles"] = {"0.5": "profile_t0.01.csv"}
    manifest_path.write_text(json.dumps(manifest))
    assert main(["check", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "check failed: outputs.profiles.0.01 is missing, but the manifest config asks for it\n"
        "check failed: outputs.profiles.0.5: the manifest config asks for no profile at t=0.5\n")


def test_check_tests_each_profile_name_against_its_time(tmp_path, capsys):
    # two profiles listed under each other's times used to pass
    data = tiny_config_dict()
    data["outputs"] = ["timeseries", "profiles@0.004", "profiles@0.01", "checkpoint"]
    out_dir = tmp_path / "run"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)]) == 0
    assert main(["check", str(out_dir)]) == 0
    capsys.readouterr()
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["outputs"]["profiles"] == {"0.004": "profile_t0.004.csv",
                                               "0.01": "profile_t0.01.csv"}
    manifest["outputs"]["profiles"] = {"0.004": "profile_t0.01.csv", "0.01": "profile_t0.004.csv"}
    manifest_path.write_text(json.dumps(manifest))
    assert main(["check", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "check failed: outputs.profiles.0.004 is 'profile_t0.01.csv', not 'profile_t0.004.csv'\n"
        "check failed: outputs.profiles.0.01 is 'profile_t0.004.csv', not 'profile_t0.01.csv'\n")


def test_check_tests_the_series_and_checkpoint_names(tmp_path, capsys):
    # a series and a checkpoint listed and renamed alike used to pass
    out_dir = finished_run(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["outputs"] == {"timeseries": "timeseries.csv",
                                   "checkpoint": "checkpoint_final.txt"}
    manifest["outputs"] = {"timeseries": "series.csv", "checkpoint": "state.txt"}
    manifest_path.write_text(json.dumps(manifest))
    (out_dir / "timeseries.csv").rename(out_dir / "series.csv")
    (out_dir / "checkpoint_final.txt").rename(out_dir / "state.txt")
    assert main(["check", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "check failed: outputs.timeseries is 'series.csv', not 'timeseries.csv'\n"
        "check failed: outputs.checkpoint is 'state.txt', not 'checkpoint_final.txt'\n")


@pytest.mark.parametrize("key, asked", [("timeseries", ["checkpoint"]),
                                        ("checkpoint", ["timeseries"])])
def test_check_refuses_an_output_the_config_does_not_ask_for(tmp_path, capsys, key, asked):
    # a timeseries.csv listed but never asked for used to pass
    out_dir = finished_run(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["outputs"] = asked
    manifest_path.write_text(json.dumps(manifest))
    assert main(["check", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"check failed: outputs.{key}: the manifest config asks for no {key}\n")


def test_check_tests_the_last_sample_time_against_t_end(tmp_path, capsys):
    # the tiny run ends at t_end = 0.01 after five steps of 0.002
    out_dir = finished_run(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for t_end, rc in ((0.0109, 0), (0.012, 1), (0.008, 1)):
        manifest["config"]["t_end"] = t_end
        manifest_path.write_text(json.dumps(manifest))
        assert main(["check", str(out_dir)]) == rc, t_end
        err = capsys.readouterr().err
        assert (f"the series ends at t=0.01, not at t_end {t_end:g}" in err) == bool(rc)


def test_check_refuses_a_manifest_that_repeats_a_key(tmp_path, capsys):
    # json.load alone kept the last value, and check passed
    out_dir = finished_run(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    text = manifest_path.read_text()
    manifest_path.write_text(text.replace('"steps": 5,', '"steps": 1, "steps": 5,', 1))
    assert main(["check", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "check failed: manifest.json: repeated key 'steps' in a JSON object\n")


@pytest.mark.parametrize("key, file_name", [("timeseries", "timeseries.csv"),
                                            ("checkpoint", "checkpoint_final.txt")])
def test_check_requires_the_outputs_the_config_asks_for(tmp_path, capsys, key, file_name):
    out_dir = finished_run(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["outputs"][key]
    manifest_path.write_text(json.dumps(manifest))
    (out_dir / file_name).unlink()
    assert main(["check", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"check failed: outputs.{key} is missing, but the manifest config asks for it\n")


def test_check_requires_every_profile_the_config_asks_for(tmp_path, capsys):
    # profiles were not required (a restart skipped those before its start
    # time), so a run directory that lost a profile passed
    data = tiny_config_dict()
    data["outputs"] = ["timeseries", "profiles@0.004", "profiles@0.01", "checkpoint"]
    out_dir = tmp_path / "run"
    assert main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["outputs"]["profiles"]["0.004"]
    manifest_path.write_text(json.dumps(manifest))
    (out_dir / "profile_t0.004.csv").unlink()
    assert main(["check", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "check failed: outputs.profiles.0.004 is missing, but the manifest config asks for it\n")


@pytest.mark.parametrize(
    "gamma, t, message",
    [
        (80.0, 0.01, "checkpoint_final.txt: checkpoint was written with gamma=80, "
                     "model has gamma=5"),
        (5.0, 0.02, "checkpoint_final.txt: the checkpoint ends at t=0.02, not at t_end 0.01"),
        (5.0, 0.008, "checkpoint_final.txt: the checkpoint ends at t=0.008, not at t_end 0.01"),
        # a gap of no finite number of steps
        (5.0, -1e308, "checkpoint_final.txt: the checkpoint ends at t=-1e+308, not at t_end 0.01"),
    ],
)
def test_check_cross_checks_the_checkpoint_against_the_config(tmp_path, capsys, gamma, t,
                                                              message):
    # a checkpoint a restart with this config refuses, or one from another time, used to pass
    out_dir = finished_run(tmp_path, capsys)
    chk = out_dir / "checkpoint_final.txt"
    state, _ = read_checkpoint(chk)
    state.t = t
    write_checkpoint(chk, state, gamma)
    assert main(["check", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"check failed: {message}\n"


@pytest.mark.parametrize(
    "dt, message",
    [
        # check loads the manifest's config, and the loader names what it refuses
        (0, "manifest config: dt must be positive and finite, got 0.0"),
        (-0.002, "manifest config: dt must be positive and finite, got -0.002"),
        (float("nan"), "manifest config: config.solver.dt must be a number, got nan"),
        ("0.002", "manifest config: config.solver.dt must be a number, got '0.002'"),
        (True, "manifest config: config.solver.dt must be a number, got True"),
        # positive, but the series spans more steps than a float holds
        (5e-324, "span no finite number of steps"),
    ],
)
def test_check_fails_in_one_line_on_a_manifest_dt_it_cannot_step_by(tmp_path, capsys, dt,
                                                                    message):
    out_dir = finished_run(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["solver"]["dt"] = dt
    manifest_path.write_text(json.dumps(manifest))
    assert main(["check", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("check failed: ") == 1 and err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("model", "colour", "red", "unknown keys at config.model: ['colour']"),
        ("model", "gamma", 1.5, "velocity prediction requires gamma >= 2, got 1.5"),
    ],
)
def test_check_fails_in_one_line_on_a_manifest_config_the_loader_refuses(tmp_path, capsys,
                                                                       section, key, value,
                                                                       message):
    out_dir = finished_run(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"][section][key] = value
    manifest_path.write_text(json.dumps(manifest))
    assert main(["check", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"check failed: manifest config: {message}\n"


def checkpoint_moved_next_door(name):
    """The outputs of a run whose checkpoint moved to the sibling directory
    `other`, naming it name(its new path)."""
    def outputs(out_dir):
        moved = out_dir.parent / "other" / "checkpoint_final.txt"
        moved.parent.mkdir()
        (out_dir / "checkpoint_final.txt").rename(moved)
        return {"timeseries": "timeseries.csv", "checkpoint": name(moved)}
    return outputs


@pytest.mark.parametrize(
    "key, value, message",
    [
        (None, [], "the top level is not an object"),
        ("outputs", [], "outputs or outputs.profiles is not an object"),
        ("outputs", {"profiles": ["a.csv"]}, "outputs or outputs.profiles is not an object"),
        ("outputs", {"timeseries": 5}, "outputs.timeseries is 5, not a file name"),
        ("outputs", {"profiles": {"1": None}}, "outputs.profiles.1 is None, not a file name"),
        ("violations", "xy", "violations is not a list"),
        # names that lead out of the run directory: each used to pass
        pytest.param("outputs",
                     checkpoint_moved_next_door(lambda moved: "../other/checkpoint_final.txt"),
                     "outputs.checkpoint is '../other/checkpoint_final.txt', not a file name "
                     "in the run directory", id="relative-path"),
        pytest.param("outputs", checkpoint_moved_next_door(str), "outputs.checkpoint is '/",
                     id="absolute-path"),
        pytest.param("outputs", {"profiles": {"1": ".."}},
                     "outputs.profiles.1 is '..', not a file name", id="parent-directory"),
    ],
)
def test_check_fails_in_one_line_on_a_manifest_of_the_wrong_shape(tmp_path, capsys, key, value,
                                                                   message):
    out_dir = finished_run(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if callable(value):
        value = value(out_dir)
    if key is None:
        manifest = value
    else:
        manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    assert main(["check", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("check failed: ") == 1 and err.count("\n") == 1, err
    assert f"check failed: manifest.json: {message}" in err


def test_check_fails_in_one_line_on_a_manifest_that_is_not_text(tmp_path, capsys):
    # the UTF-8 decoder's error used to end check in a traceback
    out_dir = finished_run(tmp_path, capsys)
    (out_dir / "manifest.json").write_bytes(b"\xff\xfe{}")
    assert main(["check", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("row, value", [(1, "nan"), (-1, "inf"), (-1, "-inf")])
def test_check_fails_in_one_line_on_series_times_that_are_not_finite(tmp_path, capsys, row,
                                                                     value):
    out_dir = finished_run(tmp_path, capsys)
    series = out_dir / "timeseries.csv"
    lines = series.read_text().splitlines()
    lines[row] = ",".join([value] + lines[row].split(",")[1:])
    series.write_text("\n".join(lines) + "\n")
    assert main(["check", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("check failed: ") == 1 and err.count("\n") == 1, err
    assert "span no finite number of steps" in err


def test_check_accepts_a_run_of_zero_steps(tmp_path, capsys):
    # a restart whose t_end is the checkpoint's time: a header-only series
    first = finished_run(tmp_path, capsys)
    data = tiny_config_dict(t_end=0.01)
    data["initial"] = {"type": "checkpoint", "path": str(first / "checkpoint_final.txt")}
    out_dir = tmp_path / "restart"
    assert main(["run", "--config", write_config(tmp_path, data, "restart.json"),
                 "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["steps"] == 0
    assert (out_dir / "timeseries.csv").read_text().count("\n") == 1
    assert main(["check", str(out_dir)]) == 0
    # and a step count the empty series cannot hold
    manifest["steps"] = 1
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    assert main(["check", str(out_dir)]) == 1
    assert "manifest steps 1 but the series spans 0" in capsys.readouterr().err


def test_check_requires_manifest(tmp_path, capsys):
    rc = main(["check", str(tmp_path)])
    assert rc == 1
    assert "check failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep plumbing


def test_set_config_value_paths():
    data = config_to_dict(PRESETS["fig-s4limit-gamma5"])
    set_config_value(data, "model.gamma", 7.0)
    assert data["model"]["gamma"] == 7.0
    set_config_value(data, "params.gamma", 9.0)  # alias
    assert data["model"]["gamma"] == 9.0
    set_config_value(data, "model.growth.g", 2.0)
    assert data["model"]["growth"]["g"] == 2.0
    set_config_value(data, "t_end", 0.5)
    assert data["t_end"] == 0.5


def test_set_config_value_bare_keys():
    data = config_to_dict(PRESETS["fig-s4limit-gamma5"])
    set_config_value(data, "gamma", 20.0)
    assert data["model"]["gamma"] == 20.0
    set_config_value(data, "dt", 0.004)
    assert data["solver"]["dt"] == 0.004
    set_config_value(data, "K1", 0.7)
    assert data["model"]["transitions"]["K1"] == 0.7
    set_config_value(data, "R0", 2.0)
    assert data["initial"]["R0"] == 2.0


def test_set_config_value_bare_keys_reach_every_section():
    # the config tree alone says what a bare key names
    data = config_to_dict(PRESETS["neumann-periodic-T20"])
    set_config_value(data, "period", 10.0)
    assert data["model"]["lambda_schedule"]["period"] == 10.0
    data = config_to_dict(PRESETS["fig-s4f2-D0.3"])
    set_config_value(data, "value", 0.25)
    assert data["initial"]["composition"]["value"] == 0.25
    set_config_value(data, "outputs", ["timeseries"])
    assert data["outputs"] == ["timeseries"]


def test_set_config_value_takes_a_top_level_key_first():
    # fig-s3unicon's initial composition is the profile named hetero-cos
    data = config_to_dict(PRESETS["fig-s3unicon"])
    set_config_value(data, "name", "renamed")
    assert data["name"] == "renamed"
    assert data["initial"]["composition"]["name"] == "hetero-cos"


def test_set_config_value_errors():
    data = config_to_dict(PRESETS["fig-s4limit-gamma5"])
    with pytest.raises(ValueError, match="ambiguous"):
        set_config_value(data, "type", "constant")  # growth, transitions, initial, ...
    with pytest.raises(ValueError, match="no such config entry: 'zzz'"):
        set_config_value(data, "zzz", 1)
    with pytest.raises(ValueError, match="no such config entry: 'grid.dx'"):
        set_config_value(data, "grid.dx", 0.1)
    with pytest.raises(ValueError, match="no such config entry"):
        set_config_value(data, "model.growth.delta", 0.1)


def test_sweep_runs_each_value(tmp_path, capsys):
    # a preset without profile outputs, so any positive t_end is valid
    rc = main(
        ["sweep", "--preset", "fig-s4f2-D0.3",
         "--vary", "t_end=0.004,0.008", "--out", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    # dt = 0.002
    assert captured.out == "".join(f"wrote {tmp_path}/fig-s4f2-D0.3-t_end={tok} ({steps} steps)\n"
                                   for tok, steps in (("0.004", 2), ("0.008", 4)))
    assert captured.err == ""
    for tok in ("0.004", "0.008"):
        run_dir = tmp_path / f"fig-s4f2-D0.3-t_end={tok}"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["failed"] is False
        assert manifest["config"]["t_end"] == float(tok)


def test_sweep_varies_a_flux_period(tmp_path, monkeypatch, capsys):
    # the preset runs to t = 40; its first ten steps show the key is reached
    from autophagy_tumor import scenarios

    short = dataclasses.replace(PRESETS["neumann-periodic-T20"], t_end=0.02)
    monkeypatch.setitem(scenarios.PRESETS, "neumann-periodic-T20", short)
    rc = main(["sweep", "--preset", "neumann-periodic-T20", "--vary", "period=10,20",
               "--out", str(tmp_path), "--jobs", "1"])
    assert rc == 0
    assert capsys.readouterr().out == "".join(
        f"wrote {tmp_path}/neumann-periodic-T20-period={period} (10 steps)\n" for period in (10, 20))
    for period in (10, 20):
        run_dir = tmp_path / f"neumann-periodic-T20-period={period}"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["steps"] == 10
        assert manifest["config"]["model"]["lambda_schedule"] == {
            "type": "periodic", "high": 0.5, "period": period}
        assert main(["check", str(run_dir)]) == 0


def test_sweep_reaches_a_nested_name(tmp_path, monkeypatch, capsys):
    import autophagy_tumor.cli as cli

    handed = []

    def fake_run(cfg, out_dir):
        handed.append(cfg)
        return RunResult(series=None, final_state=None, snapshots={}, log=RunLog())

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    argv = ["sweep", "--preset", "fig-s3unicon", "--out", str(tmp_path), "--jobs", "1"]
    assert main([*argv, "--vary", "initial.composition.name=hetero-cos"]) == 0
    assert [cfg.name for cfg in handed] == ["fig-s3unicon-initial.composition.name=hetero-cos"]
    assert handed[0].initial.composition == ProfileComposition("hetero-cos")
    # the profile's own check sees the value
    assert main([*argv, "--vary", "initial.composition.name=flat"]) == 2
    assert capsys.readouterr().err.endswith("bad sweep: unknown composition profile 'flat'\n")
    assert len(handed) == 1


def test_sweep_reports_violations_like_run(tmp_path, monkeypatch, capsys):
    import autophagy_tumor.cli as cli

    class Broken:
        log = RunLog(warnings=["CFL number 0.61 exceeded 0.5 at t=0.002"],
                     violations=["clamped negative mass 1e-3 exceeds the bound"], steps=7)

    def report(run_dir):
        return (f"warning {run_dir}: CFL number 0.61 exceeded 0.5 at t=0.002\n"
                f"VIOLATION {run_dir}: clamped negative mass 1e-3 exceeds the bound\n",
                f"wrote {run_dir} (7 steps)\n")

    monkeypatch.setattr(cli, "run_scenario", lambda cfg, out_dir: Broken())
    # warnings and violations are reported on stderr and never fail a member
    out_dir = tmp_path / "one"
    assert main(["run", "--preset", "fig-s4f2-D0.3", "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == report(out_dir)
    rc = main(["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004,0.008",
               "--out", str(tmp_path), "--jobs", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    reports = [report(tmp_path / f"fig-s4f2-D0.3-t_end={tok}") for tok in ("0.004", "0.008")]
    assert captured.err == "".join(err for err, _ in reports)
    assert captured.out == "".join(out for _, out in reports)


def test_sweep_runs_every_member_when_one_fails(tmp_path, monkeypatch, capsys):
    # dt = 0.5 makes the velocity system singular at step 2; the other
    # member still runs and is written, and the sweep exits 1 (at dt = 0.004
    # the preset's sample interval 0.25 is 62.5 steps: the run warns that it
    # samples every 62 steps)
    from autophagy_tumor import scenarios

    short = dataclasses.replace(PRESETS["fig-s4f2-D0.3"], t_end=1.0)
    monkeypatch.setitem(scenarios.PRESETS, "fig-s4f2-D0.3", short)
    rc = main(["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "dt=0.5,0.004",
               "--out", str(tmp_path), "--jobs", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    failed, good = tmp_path / "fig-s4f2-D0.3-dt=0.5", tmp_path / "fig-s4f2-D0.3-dt=0.004"
    assert captured.err == (f"FAILED {failed}: step 2: tridiagonal solve failed: "
                            f"singular matrix (zero pivot 51)\n"
                            f"warning {good}: sample_interval 0.25 is not a whole number of "
                            f"steps; sampling every 0.248\n")
    assert captured.out == f"wrote {good} (250 steps)\n"
    assert json.loads((failed / "manifest.json").read_text())["failed"] is True
    manifest = json.loads((good / "manifest.json").read_text())
    assert (manifest["failed"], manifest["steps"]) == (False, 250)
    assert main(["check", str(good)]) == 0


def test_sweep_reports_an_oserror_as_its_members_failure(tmp_path, monkeypatch, capsys):
    # writing the first member's series fails; the second member still runs
    from autophagy_tumor.diagnostics import TimeSeries

    to_csv = TimeSeries.to_csv

    def disk_full_for_the_first(series, path):
        if "t_end=0.004" in str(path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        to_csv(series, path)

    monkeypatch.setattr(TimeSeries, "to_csv", disk_full_for_the_first)
    rc = main(["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004,0.008",
               "--out", str(tmp_path), "--jobs", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    failed, good = tmp_path / "fig-s4f2-D0.3-t_end=0.004", tmp_path / "fig-s4f2-D0.3-t_end=0.008"
    assert captured.err == (f"FAILED {failed}: [Errno {errno.ENOSPC}] No space left on device: "
                            f"'{failed / 'timeseries.csv'}'\n")
    assert captured.out == f"wrote {good} (4 steps)\n"
    assert json.loads((failed / "manifest.json").read_text())["failed"] is True
    assert main(["check", str(good)]) == 0


def test_sweep_reports_a_dead_worker_as_its_members_failure(tmp_path, monkeypatch, capsys):
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    class DyingPool(concurrent.futures.Executor):
        # the first member's worker dies; the second member runs in this process
        def __init__(self, max_workers):
            pass

        def submit(self, func, item):
            future = concurrent.futures.Future()
            if item[1].endswith("t_end=0.004"):
                future.set_exception(BrokenProcessPool("a worker was terminated abruptly"))
            else:
                future.set_result(func(item))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
    rc = main(["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004,0.008",
               "--out", str(tmp_path), "--jobs", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    failed, good = tmp_path / "fig-s4f2-D0.3-t_end=0.004", tmp_path / "fig-s4f2-D0.3-t_end=0.008"
    assert captured.err == f"FAILED {failed}: a worker was terminated abruptly\n"
    assert captured.out == f"wrote {good} (4 steps)\n"


def test_sweep_hands_workers_the_configs_it_validated(tmp_path, monkeypatch, capsys):
    import autophagy_tumor.cli as cli

    parsed, handed = [], []

    def counting_parse(data):
        parsed.append(data.get("name", data.get("preset")))
        return config_from_dict(data)

    def fake_run(cfg, out_dir):
        handed.append(cfg)
        return RunResult(series=None, final_state=None, snapshots={}, log=RunLog())

    monkeypatch.setattr(cli, "config_from_dict", counting_parse)
    monkeypatch.setattr(cli, "run_scenario", fake_run)
    rc = main(["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004,0.008",
               "--out", str(tmp_path), "--jobs", "1"])
    assert rc == 0
    # the preset is looked up once, each member is parsed once, and its
    # worker runs that very config
    assert parsed == ["fig-s4f2-D0.3", "fig-s4f2-D0.3-t_end=0.004", "fig-s4f2-D0.3-t_end=0.008"]
    assert [(cfg.name, cfg.t_end) for cfg in handed] == [
        ("fig-s4f2-D0.3-t_end=0.004", 0.004), ("fig-s4f2-D0.3-t_end=0.008", 0.008)
    ]
    assert all(isinstance(cfg, ScenarioConfig) for cfg in handed)


def test_sweep_usage_errors(tmp_path, capsys):
    assert main(["sweep", "--preset", "nope", "--vary", "t_end=1", "--out", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err
    assert main(
        ["sweep", "--preset", "fig-s4limit-gamma5", "--vary", "t_end", "--out", str(tmp_path)]
    ) == 2
    assert capsys.readouterr().err == "bad sweep: --vary needs the form KEY=V1,V2,...\n"
    assert main(
        ["sweep", "--preset", "fig-s4limit-gamma5", "--vary", "t_end=", "--out", str(tmp_path)]
    ) == 2
    assert capsys.readouterr().err == "bad sweep: --vary lists no values\n"
    # values are validated before any run starts
    assert main(
        ["sweep", "--preset", "fig-s4limit-gamma5", "--vary", "gamma=0.5", "--out", str(tmp_path)]
    ) == 2
    assert "bad sweep" in capsys.readouterr().err
    assert main(
        ["sweep", "--preset", "fig-s4limit-gamma5", "--vary", "gamma=1.5", "--out", str(tmp_path)]
    ) == 2
    assert "gamma >= 2" in capsys.readouterr().err
    # fig-s4limit-gamma5 writes a profile at t = 1
    assert main(
        ["sweep", "--preset", "fig-s4limit-gamma5", "--vary", "t_end=0.004", "--out", str(tmp_path)]
    ) == 2
    assert "'profiles@1'" in capsys.readouterr().err
    for jobs in ("0", "-1"):
        assert main(
            ["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004",
             "--out", str(tmp_path), "--jobs", jobs]
        ) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    # the sweep names each member itself, so a varied name could reach none of them
    assert main(
        ["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "name=alpha,beta", "--out", str(tmp_path)]
    ) == 2
    assert capsys.readouterr().err == ("bad sweep: each member is named <preset>-<key>=<value>; "
                                       "'name' cannot vary\n")
    # the same value twice would run two members into one directory
    assert main(
        ["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004,0.004",
         "--out", str(tmp_path), "--jobs", "2"]
    ) == 2
    captured = capsys.readouterr()
    assert "bad sweep: two members would share the output directory" in captured.err
    assert captured.out == ""
    assert not list(tmp_path.iterdir())
    # a member directory that holds files, and an --out that is a file
    member = tmp_path / "fig-s4f2-D0.3-t_end=0.008"
    member.mkdir()
    (member / "manifest.json").write_text("{}")
    assert main(
        ["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004,0.008",
         "--out", str(tmp_path), "--jobs", "1"]
    ) == 2
    captured = capsys.readouterr()
    assert f"bad sweep: output directory {member} is not empty" in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == [member.name]
    # a key the config does not hold, and a bare key it holds more than once
    for vary, message in (("zzz=1", "no such config entry: 'zzz'"),
                          ("type=constant", "key 'type' is ambiguous; use a dotted path")):
        assert main(
            ["sweep", "--preset", "fig-s4f2-D0.3", "--vary", vary, "--out", str(tmp_path)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == f"bad sweep: {message}\n"
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == [member.name]
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(
        ["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004",
         "--out", str(taken), "--jobs", "1"]
    ) == 2
    assert f"bad sweep: output path {taken} is not a directory" in capsys.readouterr().err


def test_sweep_starts_at_most_one_worker_per_member(tmp_path, monkeypatch, capsys):
    import concurrent.futures

    started = []

    class FakePool(concurrent.futures.Executor):
        # runs the members in this process and records the pool size asked for
        def __init__(self, max_workers):
            started.append(max_workers)

        def submit(self, func, item):
            future = concurrent.futures.Future()
            future.set_result(func(item))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    argv = ["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004,0.008",
            "--out", str(tmp_path), "--jobs", "64"]
    assert main(argv) == 0
    assert started == [2]
    assert len(list(tmp_path.iterdir())) == 2


def run_dir_bytes(run_dir):
    """Each file of a run directory as bytes, the manifest without its
    wall_time_s line."""
    files = {}
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = b"\n".join(line for line in data.split(b"\n") if b'"wall_time_s"' not in line)
        files[path.name] = data
    return files


def test_sweep_members_do_not_carry_state_from_one_to_the_next(tmp_path, capsys):
    # this process runs both members in turn (--jobs 1), so anything the
    # solver keeps from a run (the coefficients of the last setup) meets the
    # next member; each member must write what a one-member sweep of its
    # value writes in a fresh interpreter
    argv = ["sweep", "--preset", "fig-s4limit-gamma80", "--jobs", "1"]
    assert main([*argv, "--vary", "D=0.3,0.5", "--out", str(tmp_path / "both")]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for tok in ("0.3", "0.5"):
        alone = tmp_path / f"alone-{tok}"
        subprocess.run([sys.executable, "-m", "autophagy_tumor.cli", *argv, "--vary", f"D={tok}",
                        "--out", str(alone)], env=env, check=True, capture_output=True, timeout=120)
        member = f"fig-s4limit-gamma80-D={tok}"
        files = run_dir_bytes(tmp_path / "both" / member)
        assert sorted(files) == ["checkpoint_final.txt", "manifest.json", "profile_t1.csv",
                                 "timeseries.csv"]
        assert files == run_dir_bytes(alone / member), tok
    # the two values differ, so equal directories would show nothing
    assert (run_dir_bytes(tmp_path / "both" / "fig-s4limit-gamma80-D=0.3")["timeseries.csv"]
            != run_dir_bytes(tmp_path / "both" / "fig-s4limit-gamma80-D=0.5")["timeseries.csv"])

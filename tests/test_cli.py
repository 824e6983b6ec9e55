import json

import numpy as np
import pytest

from autophagy_tumor.cli import main, set_config_value
from autophagy_tumor.scenarios import PRESETS, ScenarioConfig, config_from_dict, config_to_dict
from autophagy_tumor.solver import RunLog, RunResult, write_checkpoint

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


def test_analytic_rejects_bad_parameters(capsys):
    rc = main(["analytic", "radius", "--mu", "2"])
    assert rc == 2
    assert "bad parameters" in capsys.readouterr().err


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


@pytest.mark.parametrize("t_end", [float("inf"), float("nan"), -1.0, 0.0, None])
def test_run_rejects_bad_t_end_at_load(tmp_path, capsys, t_end):
    # checked before the profile times, which are bounded by t_end
    data = tiny_config_dict(t_end=t_end)
    data["outputs"] = ["timeseries", "profiles@1"]
    out_dir = tmp_path / "never"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    assert "t_end must be finite and positive" in capsys.readouterr().err
    assert not out_dir.exists()


def test_restart_warns_about_profile_before_its_start(tmp_path, capsys):
    first = tmp_path / "first"
    assert main(["run", "--config", write_config(tmp_path, tiny_config_dict()),
                 "--out", str(first)]) == 0
    data = tiny_config_dict(t_end=0.02)
    data["initial"] = {"type": "checkpoint", "path": str(first / "checkpoint_final.txt")}
    data["outputs"] = ["timeseries", "profiles@0.004", "profiles@0.02"]
    out_dir = tmp_path / "restart"
    capsys.readouterr()
    assert main(["run", "--config", write_config(tmp_path, data, "restart.json"),
                 "--out", str(out_dir)]) == 0
    assert "no snapshot at t=0.004" in capsys.readouterr().err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["outputs"]["profiles"] == {"0.02": "profile_t0.02.csv"}
    assert any("no snapshot at t=0.004" in w for w in manifest["warnings"])


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
    assert "solver failed" in capsys.readouterr().err
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["failed"] is True


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
    err = capsys.readouterr().err
    assert "bad config" in err
    assert "gamma=4" in err and "gamma=5" in err
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
    err = capsys.readouterr().err
    assert "bad config" in err and message in err
    if n1_entry is None:
        assert f"cannot read checkpoint {chk}" in err
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
    assert "t_end 0.01 precedes the initial time 0.02" in capsys.readouterr().err
    assert not out_dir.exists()


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


def test_check_flags_corrupted_csv(tmp_path, capsys):
    out_dir = finished_run(tmp_path, capsys)
    series = out_dir / "timeseries.csv"
    lines = series.read_text().splitlines()
    lines[1] = lines[1].replace(",", ";", 1)
    series.write_text("\n".join(lines) + "\n")
    rc = main(["check", str(out_dir)])
    assert rc == 1
    assert "check failed" in capsys.readouterr().err


def test_check_flags_truncated_checkpoint(tmp_path, capsys):
    out_dir = finished_run(tmp_path, capsys)
    chk = out_dir / "checkpoint_final.txt"
    content = chk.read_text().splitlines()
    chk.write_text("\n".join(content[:-3]) + "\n")
    rc = main(["check", str(out_dir)])
    assert rc == 1
    assert "check failed" in capsys.readouterr().err


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


def test_set_config_value_errors():
    data = config_to_dict(PRESETS["fig-s4limit-gamma5"])
    with pytest.raises(ValueError, match="ambiguous"):
        set_config_value(data, "type", "constant")  # growth, transitions, initial
    with pytest.raises(ValueError, match="not found"):
        set_config_value(data, "zzz", 1)
    with pytest.raises(ValueError, match="config root"):
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
    assert captured.out.count("done ") == 2
    for tok in ("0.004", "0.008"):
        run_dir = tmp_path / f"fig-s4f2-D0.3-t_end={tok}"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["failed"] is False
        assert manifest["config"]["t_end"] == float(tok)


def test_sweep_reports_violations_like_run(tmp_path, monkeypatch, capsys):
    import autophagy_tumor.cli as cli

    class Broken:
        log = RunLog(violations=["clamped negative mass 1e-3 exceeds the bound"])

    monkeypatch.setattr(cli, "run_scenario", lambda cfg, out_dir: Broken())
    rc = main(["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004,0.008",
               "--out", str(tmp_path), "--jobs", "1"])
    captured = capsys.readouterr()
    # a violation is reported on stderr and, as in `run`, does not fail the member
    assert rc == 0
    assert captured.out.count("done ") == 2
    for tok in ("0.004", "0.008"):
        run_dir = tmp_path / f"fig-s4f2-D0.3-t_end={tok}"
        assert (f"VIOLATION {run_dir}: clamped negative mass 1e-3 exceeds the bound"
                in captured.err)


def test_sweep_hands_workers_the_configs_it_validated(tmp_path, monkeypatch, capsys):
    import autophagy_tumor.cli as cli

    parsed, handed = [], []

    def counting_parse(data):
        parsed.append(data["name"])
        return config_from_dict(data)

    def fake_run(cfg, out_dir):
        handed.append(cfg)
        return RunResult(series=None, final_state=None, snapshots={}, log=RunLog())

    monkeypatch.setattr(cli, "config_from_dict", counting_parse)
    monkeypatch.setattr(cli, "run_scenario", fake_run)
    rc = main(["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004,0.008",
               "--out", str(tmp_path), "--jobs", "1"])
    assert rc == 0
    # each member is parsed once, and its worker runs that very config
    assert parsed == ["fig-s4f2-D0.3-t_end=0.004", "fig-s4f2-D0.3-t_end=0.008"]
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
    assert "--vary" in capsys.readouterr().err
    assert main(
        ["sweep", "--preset", "fig-s4limit-gamma5", "--vary", "t_end=", "--out", str(tmp_path)]
    ) == 2
    assert "no values" in capsys.readouterr().err
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
    assert not list(tmp_path.iterdir())


def test_sweep_starts_at_most_one_worker_per_member(tmp_path, monkeypatch, capsys):
    import concurrent.futures

    started = []

    class FakePool:
        # runs the members in this process and records the pool size asked for
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return map(func, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    argv = ["sweep", "--preset", "fig-s4f2-D0.3", "--vary", "t_end=0.004,0.008",
            "--out", str(tmp_path), "--jobs", "64"]
    assert main(argv) == 0
    assert started == [2]
    assert len(list(tmp_path.iterdir())) == 2

import json

import numpy as np
import pytest

from autophagy_tumor.cli import main, set_config_value
from autophagy_tumor.scenarios import PRESETS, config_to_dict
from autophagy_tumor.solver import write_checkpoint

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
    # caught when the config is loaded: exit 2 and no output directory
    data = tiny_config_dict()
    data[section].update(entries)
    out_dir = tmp_path / "x"
    rc = main(["run", "--config", write_config(tmp_path, data), "--out", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad config" in err and message in err
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
    rc = main(
        ["sweep", "--preset", "fig-s4limit-gamma5",
         "--vary", "t_end=0.004,0.008", "--out", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.count("done ") == 2
    for tok in ("0.004", "0.008"):
        run_dir = tmp_path / f"fig-s4limit-gamma5-t_end={tok}"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["failed"] is False
        assert manifest["config"]["t_end"] == float(tok)


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
    assert not list(tmp_path.iterdir())

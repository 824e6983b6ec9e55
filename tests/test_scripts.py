"""Smoke runs of the scripts under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    header, *rows = path.read_bytes().decode().split("\n")[:-1]
    return header, [[float(v) for v in row.split(",")] for row in rows]


def test_stiff_limit_comparison_writes_plain_csv(tmp_path, capsys):
    script = load_script("stiff_limit_comparison")
    assert script.main(["--gammas", "5", "--t-end", "0.01", "--out", str(tmp_path)]) == 0
    for path in tmp_path.iterdir():
        assert b"\r" not in path.read_bytes(), path.name
    # the written values are the computed ones, exactly
    ref = script.compare_one(5, 0.01)
    header, rows = read_csv(tmp_path / "pressure_gamma5.csv")
    assert header == "x,p_sim,p_ref"
    assert rows == [list(r) for r in zip(ref["x"], ref["p_sim"], ref["p_ref"])]
    header, rows = read_csv(tmp_path / "summary.csv")
    assert header == "gamma,radius_sim,radius_ref,p_err_max"
    assert rows == [[5.0, ref["radius_sim"], ref["radius_ref"], ref["p_err_max"]]]

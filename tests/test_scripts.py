"""Smoke runs of the scripts under scripts/."""

import importlib.util
import json
from pathlib import Path

from autophagy_tumor.scenarios import PRESETS

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


def test_preset_digest_ignores_only_the_wall_time(tmp_path):
    script = load_script("preset_digests")
    runs = [tmp_path / name for name in ("a", "b", "c", "d")]
    for out, wall, csv in zip(runs, (1.0, 2.0, 1.0, 1.0), ("1\n", "1\n", "2\n", "1\n")):
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps({"steps": 5, "wall_time_s": wall}))
        (out / ("x.csv" if out.name != "d" else "y.csv")).write_text(csv)
    a, b, c, d = map(script.digest, runs)
    assert a == b and len({a, c, d}) == 3


def test_preset_digests_fail_on_a_move_no_output_change_line_names(tmp_path, capsys):
    script = load_script("preset_digests")
    parent = tmp_path / "parent.txt"
    parent.write_text("aa fig-s4f2-D0.5\naa fig-s4f2-D0.55\naa neumann-logistic\n")
    current = tmp_path / "current.txt"
    current.write_text("bb fig-s4f2-D0.5\naa fig-s4f2-D0.55\naa neumann-logistic\n")
    old = tmp_path / "old.md"
    old.write_text("an earlier entry\nOUTPUT CHANGE: neumann-logistic, an earlier change\n")
    new = tmp_path / "new.md"

    def compare(entry):
        new.write_text(old.read_text() + entry)
        rc = script.main(["compare", str(parent), str(current), str(new), str(old)])
        return rc, capsys.readouterr().err

    # undeclared; a name in an older entry does not count
    assert compare("the newest entry\nOUTPUT CHANGE: fig-s4f2-D0.55\n") == (1, (
        "output comparison failed: fig-s4f2-D0.5: output differs from the parent commit's, "
        "and no OUTPUT CHANGE: line names it\n"
        "output comparison failed: fig-s4f2-D0.55: named by an OUTPUT CHANGE: line, "
        "but its output equals the parent commit's\n"))
    assert compare("OUTPUT CHANGE: fig-s4f2-D0.5\n") == (0, "")
    assert compare("OUTPUT CHANGE:fig-s4f2-D0.5 , neumann-logistic\n") == (1, (
        "output comparison failed: neumann-logistic: named by an OUTPUT CHANGE: line, "
        "but its output equals the parent commit's\n"))
    # a line that mentions the tag and a preset but does not start with the tag
    assert compare("fig-s4f2-D0.5 moved, with no OUTPUT CHANGE: fig-s4f2-D0.5 line\n")[0] == 1
    current.write_text(parent.read_text())
    assert compare("the newest entry\n") == (0, "")
    # an older entry rewritten: nothing is declared, the comparison fails
    new.write_text("an earlier entry, mended\n")
    assert script.main(["compare", str(parent), str(current), str(new), str(old)]) == 1
    assert "does not start with the parent commit's CHANGES.md" in capsys.readouterr().err


def test_no_prose_line_of_changes_md_declares_an_output_change():
    # CHANGES.md describes the tag in prose, beside preset names; only a line
    # that starts with the tag declares
    script = load_script("preset_digests")
    lines = (SCRIPTS.parent / "CHANGES.md").read_text().splitlines()
    prose = [line for line in lines if not line.startswith(script.DECLARATION)]
    assert any(script.DECLARATION in line and "neumann-logistic" in line for line in prose)
    assert script.declared(PRESETS, "\n".join(prose), "") == set()

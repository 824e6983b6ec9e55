"""Tests of the benchmark itself (not collected with the program's tests).

    python3 -m pytest perfbench/selftest.py

They run real repetitions of the two shortest workloads, about a minute
in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import WHY, WORKLOADS, make_plan  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench" / "selftest"

COUNT_SUFFIXES = (".calls", ".events", ".files_written", ".bytes_written", ".calls_per_step")
COUNT_NAMES = ("grid.cells_mean", "grid.cells_final", "grid.cell_steps", "solver.steps")


def _traced_pair(workload: str, seed: int) -> tuple[dict, dict]:
    work = SCRATCH / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = bench.Runner(work, make_plan(workload, seed))
    reps = [runner.child("workload", trace=True) for _ in range(2)]
    for rep in reps:
        assert "error" not in rep, rep.get("error")
        assert rep["problems"] == []
    return reps[0], reps[1]


@pytest.fixture(scope="module", params=["dense-output", "sweep-fanout"])
def traced_pair(request):
    return request.param, _traced_pair(request.param, seed=11)


def test_traced_runs_repeat_counts(traced_pair):
    workload, (a, b) = traced_pair
    jobs = make_plan(workload, 11)["jobs"]
    la, lb = bench.per_layer(a, jobs), bench.per_layer(b, jobs)
    counts = [k for k in la if k.endswith(COUNT_SUFFIXES) or k in COUNT_NAMES]
    assert "solver.tridiag.calls" in counts and "diagnostics.support_info.calls_per_step" in counts
    assert {k: la[k] for k in counts} == {k: lb[k] for k in counts}
    assert la["solver.steps"] > 0 and la["solver.tridiag.calls"] > la["solver.steps"]
    assert a["digest"] == b["digest"]


def test_self_times_sum_to_traced_wall(traced_pair):
    _, (a, _) = traced_pair
    assert a["root_s"] > 0
    assert a["self_sum_s"] == pytest.approx(a["root_s"], rel=1e-9)


def test_self_times_subtract_children():
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 5.0, 6.0, 0)]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    summary = tracer.summarize([{"names": ["root", "a", "b"], "spans": spans}])
    assert summary == {"root": [1, 10.0, 6.0], "a": [2, 4.0, 3.0], "b": [1, 1.0, 1.0]}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-output", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_declaration_is_consistent():
    e2e = [m["name"] for m in DECLARED["end_to_end"]]
    layer = [m["name"] for m in DECLARED["per_layer"]]
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert set(layer) == set(bench.LAYER)
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == WHY
    assert set(WHY) == set(WORKLOADS)
    links = json.loads((HERE / "layer_map.json").read_text())["links"]
    assert {n for link in links for n in link["per_layer"]} == set(layer)
    for link in links:
        assert link["end_to_end"] in e2e + [None]
        assert set(link["moves_on"] + link["no_change_on"]) <= set(WORKLOADS)


def test_no_result_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qs-grow", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

"""The repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Generates the workload's inputs from the
seed, then repeats it for about S seconds, each repetition in a fresh
process (`child.py`), and checks every repetition's outputs. Prints
side lines (environment, output digest, tracing overhead) and, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
medians over the repetitions; set-up time comes from separate fresh
processes that only import, load the config and build the initial state.
Every time is scaled to a reference host speed (calibrate.py); the raw
median wall time is printed on a side line.
With --trace 1 they are the per-layer ones, medians over traced
repetitions that alternate with untraced ones (for the overhead line).
Full results go to .perfbench/results/. Exits 2 without a result when the
checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
# one BLAS thread here and in every child: the sweep already keeps both cores busy
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

from workloads import DEFAULT_SEED, WORKLOADS, make_plan  # noqa: E402

CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 150
MIN_REPS = 3
MIN_TRACED = 2  # so that every traced run shows its counts repeat
MIN_SETUPS = 5

# per-layer metric -> (kind, span or counter); kinds are described in per_layer()
LAYER = {
    "solver.steps": ("counter", "steps"),
    "grid.cell_steps": ("counter", "cell_steps"),
    "solver.tridiag.calls": ("calls", "solver.tridiag"),
    "solver.tridiag.us": ("us", "solver.tridiag"),
    "solver.predict_velocity.us": ("us", "solver.predict_velocity"),
    "solver.correct_densities.self_us": ("self_us", "solver.correct_densities"),
    "solver.step.self_us": ("self_us", "solver.step"),
    "solver.run.self_us": ("self_us", "solver.run"),
    "grid.limited_slope.calls": ("calls", "grid.limited_slope"),
    "grid.limited_slope.us": ("us", "grid.limited_slope"),
    "grid.numerical_flux.us": ("us", "grid.numerical_flux"),
    "grid.pressure_from_density.us": ("us", "grid.pressure_from_density"),
    "solver.enlarge.us": ("us", "solver.enlarge"),
    "solver.enlarge.events": ("counter", "enlarge_events"),
    "grid.cells_mean": ("cells_mean", None),
    "grid.cells_final": ("counter", "cells_final"),
    "solver.nutrient_quasistatic.us": ("us", "solver.nutrient_quasistatic"),
    "diagnostics.support_info.calls_per_step": ("per_step", "diagnostics.support_info"),
    "solver.nutrient_neumann.us": ("us", "solver.nutrient_neumann"),
    "kinetics.eval_growth.us": ("us", "kinetics.eval_growth"),
    "kinetics.eval_transitions.us": ("us", "kinetics.eval_transitions"),
    "kinetics.eval_flux.us": ("us", "kinetics.eval_flux"),
    "diagnostics.total_population.us": ("us", "diagnostics.total_population"),
    "diagnostics.to_csv.ms": ("ms", "diagnostics.to_csv"),
    "scenarios.write_profile_csv.ms": ("ms", "scenarios.write_profile_csv"),
    "scenarios.files_written": ("gate", "files_written"),
    "scenarios.bytes_written": ("gate", "bytes_written"),
    "solver.write_checkpoint.ms": ("ms", "solver.write_checkpoint"),
    "solver.read_checkpoint.ms": ("ms", "solver.read_checkpoint"),
    "scenarios.load_config.ms": ("ms", "scenarios.load_config"),
    "scenarios.build_initial_state.ms": ("ms", "scenarios.build_initial_state"),
    "analytic.analytic_pressure.us": ("us", "analytic.analytic_pressure"),
    "analytic.integrate_radius.ms": ("ms", "analytic.integrate_radius"),
    "cli.sweep.member_s": ("member_s", None),
    "cli.sweep.pool_overhead_s": ("pool_overhead_s", None),
    "cli.sweep.busy_frac": ("busy_frac", None),
    "cli.check.ms": ("ms", "cli.check"),
}


def _mean(total: float, calls: int, scale: float) -> float:
    return total / calls * scale if calls else 0.0


TIME_KINDS = ("us", "ms", "self_us", "member_s", "pool_overhead_s")


def per_layer(rep: dict, jobs: int) -> dict:
    """Per-layer metrics of one traced repetition.

    `calls` is a span's call count and `us`/`ms` its mean duration per call;
    `self_us` is the mean self time per call. A scenario run by a CLI
    command is a member: `cli.sweep.*` treat `run` as a one-member sweep
    with one job, so they are defined on every workload. Times are scaled
    to the reference host speed (see calibrate.py)."""
    summary, counters = rep["summary"], rep["counters"]
    out = {}
    for metric, (kind, key) in LAYER.items():
        calls, total, self_total = summary.get(key, (0, 0.0, 0.0)) if key else (0, 0.0, 0.0)
        if kind == "counter":
            value = counters[key]
        elif kind == "gate":
            value = rep[key]
        elif kind == "calls":
            value = calls
        elif kind == "us":
            value = _mean(total, calls, 1e6)
        elif kind == "ms":
            value = _mean(total, calls, 1e3)
        elif kind == "self_us":
            value = _mean(self_total, calls, 1e6)
        elif kind == "per_step":
            value = _mean(calls, counters["steps"], 1.0)
        elif kind == "cells_mean":
            value = _mean(counters["cell_steps"], counters["steps"], 1.0)
        else:
            members, member_total, _ = summary.get("scenarios.run_scenario", (0, 0.0, 0.0))
            command = sum(summary.get(k, (0, 0.0, 0.0))[1] for k in ("cli.run", "cli.sweep"))
            if kind == "member_s":
                value = _mean(member_total, members, 1.0)
            elif kind == "pool_overhead_s":
                value = command - member_total / jobs
            else:
                value = member_total / (jobs * command) if command else 0.0
        out[metric] = value * rep["speed"] if kind in TIME_KINDS else value
    return out


def end_to_end(rep: dict, members: int) -> dict:
    """End-to-end metrics of one untraced repetition (set-up time aside),
    times scaled to the reference host speed (see calibrate.py)."""
    steps = rep["counters"]["steps"]
    run_s = rep["summary"]["solver.run"][1] * rep["speed"]
    wall_s = rep["wall_s"] * rep["speed"]
    return {
        "wall_s": wall_s,
        "step_us": run_s / steps * 1e6,
        "cell_steps_per_s": rep["counters"]["cell_steps"] / run_s,
        "members_per_s": members / wall_s,
        "peak_rss_mb": rep["maxrss_kb"] / 1024.0,
    }


class Runner:
    """Runs child processes in fresh repetition directories under work.

    A child times the calibration kernel next to what it measures and
    reports `speed`, the factor that scales its times to the reference
    host speed (see calibrate.py)."""

    def __init__(self, work: Path, plan: dict, spans_to: Path | None = None):
        self.spans_to = spans_to
        self.work = work
        self.plan_path = work / "plan.json"
        self.plan = plan
        self.count = 0
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        self.env["TMPDIR"] = str(work)
        with open(self.plan_path, "w") as fh:
            json.dump(plan, fh, indent=1)

    def child(self, mode: str, trace: bool = False) -> dict:
        """Run one child; returns its result with wall_s, or with `error`."""
        self.count += 1
        rep = self.work / f"rep{self.count}"
        for rel, cfg in self.plan["configs"].items():
            (rep / rel).parent.mkdir(parents=True, exist_ok=True)
            with open(rep / rel, "w") as fh:
                json.dump(cfg, fh, indent=1)
        rep.mkdir(exist_ok=True)
        result_path = rep / "result.json"
        cmd = [sys.executable, str(CHILD), mode, str(self.plan_path), str(result_path)]
        if trace:
            cmd.append("--trace")
        with open(rep / "log.txt", "w") as log:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=rep, env=self.env, stdout=log, stderr=log,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = "timeout"
            finally:
                # the child's group holds any sweep workers it left behind
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code != 0 or not result_path.is_file():
            tail = (rep / "log.txt").read_text()[-2000:]
            return {"error": f"child {mode} exited {code}: {tail}"}
        with open(result_path) as fh:
            result = json.load(fh)
        if mode == "workload":
            result["wall_s"] = result["t_done"] - t_spawn - result["calibration_s"]
            if trace and self.spans_to is not None:
                shutil.copy(rep / "spans.json", self.spans_to)
        if not result.get("problems"):
            shutil.rmtree(rep)
        return result


def _probe_setup(runner: Runner, setups: list[float], problems: list[str]) -> None:
    probe = runner.child("setup")
    if "error" in probe:
        problems.append(probe["error"])
    else:
        setups.append(probe["setup_s"] * probe["speed"])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "autophagy_tumor" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'autophagy_tumor'} is missing",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)

    started = time.perf_counter()
    loadavg = os.getloadavg()
    base = ROOT / ".perfbench"
    work = base / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = make_plan(args.workload, args.seed)
    members = len(plan["expect_runs"])
    results = base / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(work, plan, spans_to=results / f"{stem}.spans.json")

    problems: list[str] = []
    warm = runner.child("setup")  # fills file caches and byte-code caches, untimed
    if "error" in warm:
        problems.append(warm["error"])

    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    attempted = failed = 0
    durations: list[float] = []
    while not problems:
        t0 = time.perf_counter()
        # a traced run alternates traced and untraced repetitions
        trace = bool(args.trace) and len(traced) <= len(untraced)
        rep = runner.child("workload", trace)
        rep["traced"] = trace
        attempted += 1
        if "error" in rep or rep["problems"]:
            failed += 1
            problems.append(rep.get("error") or "; ".join(rep["problems"]))
        else:
            (traced if trace else untraced).append(rep)
        if not args.trace:
            _probe_setup(runner, setups, problems)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if args.trace:
            enough = len(traced) >= MIN_TRACED and untraced
        else:
            enough = len(untraced) >= MIN_REPS
        if enough and elapsed + max(durations) > args.seconds:
            break

    while not args.trace and not problems and len(setups) < MIN_SETUPS:
        _probe_setup(runner, setups, problems)

    reps = untraced + traced
    digests = sorted({r["digest"] for r in reps})
    if len(digests) > 1:
        problems.append(f"outputs differ between repetitions of one seed: {digests}")
    counts = {json.dumps([r["counters"], {k: v[0] for k, v in r["summary"].items()}],
                         sort_keys=True) for r in traced}
    if len(counts) > 1:
        problems.append("traced repetitions disagree on counts")
    elif traced:
        print(f"counts repeat exactly over {len(traced)} traced repetitions")

    if args.trace:
        layer = [per_layer(r, plan["jobs"]) for r in traced]
        values = {k: _median([x[k] for x in layer]) for k in LAYER}
        declared_metrics = declared["per_layer"]
    else:
        e2e = [end_to_end(r, members) for r in untraced]
        values = {k: _median([x[k] for x in e2e]) for k in (e2e[0] if e2e else ())}
        values["setup_s"] = _median(setups)
        declared_metrics = declared["end_to_end"]
    names = {m["name"] for m in declared_metrics}
    if not problems and set(values) != names:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ names)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared_metrics}

    env = dict(warm.get("env", {}), nproc=os.cpu_count(), loadavg_start=loadavg[0])
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} {' '.join(digests) or '-'}")
    print(f"failed_frac {failed / max(attempted, 1):.4g} ({failed} of {attempted} runs)")
    fronts = [r["front_rel_err"] for r in reps if "front_rel_err" in r]
    if fronts:
        print(f"front_rel_err {fronts[0]:.6g}")
    raw = [r["wall_s"] for r in untraced or traced]
    speeds = [r["speed"] for r in untraced or traced]
    print(f"raw wall_s median {_median(raw):.4f} s; host speed factor median {_median(speeds):.4f} "
          f"(range {min(speeds, default=0):.3f}-{max(speeds, default=0):.3f})")
    overhead = None
    if traced and untraced:
        untraced_wall = _median([r["wall_s"] * r["speed"] for r in untraced])
        overhead = _median([r["wall_s"] * r["speed"] for r in traced]) - untraced_wall
        print(f"trace_overhead_s {overhead:.4f} ({overhead / untraced_wall:+.1%} of untraced wall_s)")
    missing = sorted({m for r in reps for m in r.get("missing_probes", [])})
    if missing:
        print(f"missing probe targets (metrics read 0): {', '.join(missing)}")
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)

    with open(results / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env, "digests": digests,
                   "trace_overhead_s": overhead, "setup_s": setups, "metrics": metrics,
                   "problems": problems,
                   "reps": [{k: v for k, v in r.items() if k != "summary"} for r in reps]},
                  fh, indent=1)
    if not problems:
        shutil.rmtree(work, ignore_errors=True)

    correct = not problems and failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

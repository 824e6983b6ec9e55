"""One benchmark repetition in a fresh process.

    python3 child.py setup    PLAN RESULT
    python3 child.py workload PLAN RESULT [--trace]

Runs with the repetition's directory as working directory, imports the
program from the checkout's `src/`, and writes a JSON result to RESULT.

`setup` times a fresh process from importing `autophagy_tumor` until the
initial state is built. `workload` runs the plan's `autophagy-tumor`
command lines in process (through `cli.main`), then checks the outputs.
Without `--trace` only `tracer.COUNT_PROBES` are installed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402


def _import_program():
    import autophagy_tumor
    import autophagy_tumor.cli as cli

    origin = Path(autophagy_tumor.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"imported autophagy_tumor from {origin}, not from {SRC}")
    return cli


def setup(plan: dict) -> dict:
    t0 = time.perf_counter()
    cli = _import_program()
    from autophagy_tumor import scenarios

    spec = plan["setup"]
    if "config" in spec:
        cfg = scenarios.load_config(spec["config"])
    else:
        data = scenarios.config_to_dict(scenarios.PRESETS[spec["preset"]])
        for key, value in spec["set"].items():
            cli.set_config_value(data, key, value)
        cfg = scenarios.config_from_dict(data)
    scenarios.build_initial_state(cfg.initial, cfg.params, cfg.solver)
    setup_s = time.perf_counter() - t0
    # imported only now: the calibration kernel would pre-load numpy and scipy
    import calibrate

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "setup_s": setup_s,
        "speed": calibrate.speed_now(),
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        },
    }


def _digest(out: Path) -> tuple[str, int, int]:
    """sha256 over every file under out (manifests without wall_time_s),
    the number of files, and the bytes of all files except manifests
    (their wall time makes their length vary)."""
    h = hashlib.sha256()
    files = nbytes = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        files += 1
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        else:
            nbytes += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), files, nbytes


def _front_rel_err(cfg: dict) -> float:
    from autophagy_tumor.analytic import AnalyticSetup, integrate_radius

    with open(Path(cfg["run"]) / "timeseries.csv") as fh:
        header = fh.readline().strip().split(",")
        last = fh.readlines()[-1].strip().split(",")
    simulated = float(last[header.index("radius")])
    reference = integrate_radius(AnalyticSetup(**cfg["setup"]), cfg["t_end"]).radii[-1]
    return abs(simulated - reference) / reference


def gate(plan: dict, cli, rec) -> dict:
    """The correctness gate: every run completed without violations, with
    the expected step count, and passes `autophagy-tumor check`; on qs-grow
    the front stays within its bound of the closed form."""
    problems: list[str] = []
    out = Path("out")
    found = sorted(str(p.parent) for p in out.rglob("manifest.json"))
    if found != sorted(plan["expect_runs"]):
        problems.append(f"run directories {found} != expected {sorted(plan['expect_runs'])}")
    for run_dir, steps in sorted(plan["expect_runs"].items()):
        try:
            with open(Path(run_dir) / "manifest.json") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as err:
            problems.append(f"{run_dir}: {err}")
            continue
        if manifest.get("failed"):
            problems.append(f"{run_dir}: failed: {manifest.get('error')}")
        if manifest.get("violations"):
            problems.append(f"{run_dir}: violations {manifest['violations']}")
        if manifest.get("steps") != steps:
            problems.append(f"{run_dir}: {manifest.get('steps')} steps, expected {steps}")
        with rec.span("cli.check"):
            code = cli.main(["check", run_dir])
        if code != 0:
            problems.append(f"{run_dir}: check exited {code}")
    result = {}
    if "front" in plan:
        err = _front_rel_err(plan["front"])
        result["front_rel_err"] = err
        if not err <= plan["front"]["max_rel_err"]:
            problems.append(f"front_rel_err {err:.4g} above {plan['front']['max_rel_err']}")
    result["digest"], result["files_written"], result["bytes_written"] = _digest(out)
    result["problems"] = problems
    return result


def workload(plan: dict, trace: bool) -> dict:
    # sampling starts before the program is imported, so the import is
    # covered too; calibrate imports numpy and scipy, which the program
    # would import anyway
    import calibrate

    problems: list[str] = []
    host = calibrate.HostSpeed()
    with host:
        cli = _import_program()
        spill = Path("spill")
        spill.mkdir()
        rec = tracer.Recorder(spill)
        tracer.install(rec, None if trace else tracer.COUNT_PROBES)
        rec.clock, rec.host = host.clock, host
        with rec.span("bench.workload"):
            for argv in plan["commands"]:
                with rec.span("cli." + argv[0]):
                    code = cli.main(argv)
                if code != 0:
                    problems.append(f"{' '.join(argv[:2])} exited {code}")
                    break
        t_done, spent = time.perf_counter(), host.spent
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()

    with rec.span("bench.gate"):
        result = gate(plan, cli, rec)
    result["problems"] = problems + result["problems"]

    main = rec.dump()
    workers = [json.loads(p.read_text()) for p in sorted(spill.glob("spill-*.json"))]
    counters = dict(main["counters"])
    for w in workers:
        for key, value in w["counters"].items():
            counters[key] = max(counters[key], value) if key == "cells_final" else counters[key] + value
    worker_rss: dict[int, int] = {}
    for w in workers:
        worker_rss[w["pid"]] = max(worker_rss.get(w["pid"], 0), w["maxrss_kb"])

    # bench.workload is the first span opened and bench.gate the first after
    # it closed, so the spans between them are exactly the workload's tree
    names = [main["names"][s[0]] for s in main["spans"]]
    root, end = names.index("bench.workload"), names.index("bench.gate")
    self_sum = sum(tracer.self_times(main["spans"])[root:end])
    root_span = main["spans"][root]
    if trace:
        with open("spans.json", "w") as fh:
            json.dump({"main": main, "workers": workers}, fh)
    result.update(
        t_done=t_done,
        # bursts in the workers ran in parallel, about one worker per job
        calibration_s=spent + sum(w["host_spent"] for w in workers) / plan["jobs"],
        speed=calibrate.HostSpeed.speed_of(
            main["host_samples"] + [x for w in workers for x in w["host_samples"]]),
        maxrss_kb=maxrss_kb + sum(worker_rss.values()),
        counters=counters,
        summary=tracer.summarize([main] + workers),
        root_s=root_span[2] - root_span[1],
        self_sum_s=self_sum,
        missing_probes=rec.missing,
    )
    return result


def main(argv: list[str]) -> int:
    mode, plan_path, result_path = argv[:3]
    with open(plan_path) as fh:
        plan = json.load(fh)
    if mode == "setup":
        result = setup(plan)
    elif mode == "workload":
        result = workload(plan, trace="--trace" in argv[3:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

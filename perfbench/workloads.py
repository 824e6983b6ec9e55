"""Seeded inputs for the benchmark workloads.

Each workload is a plan: the JSON configs to write, the `autophagy-tumor`
command lines to run (in order, from the repetition's own directory), how
to time set-up, and what the correctness gate checks. A seed perturbs the
physical parameters slightly; step counts are fixed and grid sizes move by
a few percent at most, so timings stay comparable across seeds. The program
only ever sees the generated configs and command-line arguments.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 1
DT = 0.002

# Why each workload is in the benchmark; BENCHMARK.json carries the same text.
WHY = {
    "qs-grow": "10k quasistatic steps while the padded grid grows 151->2351 cells: "
    "enlargement and per-component nutrient solves scale with grid size",
    "neumann-box": "10k steps on a fixed 251-cell box with the backward-Euler nutrient and "
    "hull switching: per-call dispatch dominates; no enlargement, rare support scans",
    "dense-output": "per-step sampling, 60 profile CSVs, check and a checkpoint restart: "
    "the only workload where diagnostics and file output are a large share",
    "sweep-fanout": "16-member D sweep with --jobs 2: the only user of the CLI process pool, "
    "where pool start-up and per-member set-up count",
}


def _mu_star(D: float, K1: float, K2: float) -> float:
    """Stable root of -mu*K1 + (1-mu)*K2 + D*mu*(1-mu) (the equilibrium
    normal fraction for constant switch rates)."""
    b = D - K1 - K2
    s = math.sqrt(b * b + 4.0 * D * K2)
    if b <= 0.0:
        return -K2 / (D * ((b - s) / (2.0 * D)))
    return (b + s) / (2.0 * D)


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return round(value * (1.0 + rng.uniform(-rel, rel)), 6)


def _slab_config(name, D, a, R0, t_end, sample, composition, outputs) -> dict:
    return {
        "name": name,
        "model": {
            "gamma": 80.0,
            "D": D,
            "a": a,
            "c_B": 1.0,
            "growth": {"type": "proportional", "g": 1.0},
            "consumption": {"type": "linear"},
            "transitions": {"type": "constant", "K1": 1.0, "K2": 1.0},
            "nutrient_mode": "quasistatic_dirichlet",
        },
        "solver": {
            "dt": DT,
            "support_threshold": 1e-8,
            "enlargement_margin": 25,
            "boundary_mode": "padded_dirichlet",
            "sample_interval": sample,
        },
        "initial": {"type": "analytic_pressure", "R0": R0, "dx": 0.04, "composition": composition},
        "t_end": t_end,
        "outputs": outputs,
    }


def qs_grow(rng: random.Random) -> dict:
    # preset fig-s4f2-D0.3 with D, a and R0 jittered
    D = _jitter(rng, 0.3, 0.005)
    a = _jitter(rng, 0.5, 0.005)
    R0 = _jitter(rng, 1.0, 0.01)
    mu = _mu_star(D, 1.0, 1.0)
    t_end = 20.0
    cfg = _slab_config(
        "bench-qs-grow", D, a, R0, t_end, 0.25,
        {"type": "constant", "value": mu},
        ["timeseries", f"profiles@{t_end:g}", "checkpoint"],
    )
    return {
        "configs": {"in/qs.json": cfg},
        "commands": [["run", "--config", "in/qs.json", "--out", "out/main"]],
        "setup": {"config": "in/qs.json"},
        "jobs": 1,
        "expect_runs": {"out/main": 10000},
        "front": {
            "run": "out/main",
            "setup": {"mu": mu, "g": 1.0, "a": a, "D": D, "c_B": 1.0, "R0": R0},
            "t_end": t_end,
            "max_rel_err": 0.1,
        },
    }


def neumann_box(rng: random.Random) -> dict:
    # preset neumann-autohelp-k2 with the switch gain, wall flux and bump jittered
    t_end = 20.0
    cfg = {
        "name": "bench-neumann-box",
        "model": {
            "gamma": 40.0,
            "D": 0.1,
            "a": 0.5,
            "c_B": 1.0,
            "growth": {"type": "affine_death", "delta": 0.5},
            "consumption": {"type": "linear"},
            "transitions": {
                "type": "hull",
                "k1max": _jitter(rng, 2.0, 0.02),
                "k2max": 1.0,
                "omega": 0.5,
            },
            "nutrient_mode": "dynamic_neumann",
            "lambda_schedule": {"type": "constant", "value": _jitter(rng, 0.2, 0.02)},
        },
        "solver": {
            "dt": DT,
            "support_threshold": 1e-8,
            "enlargement_margin": 25,
            "boundary_mode": "neumann_box",
            "sample_interval": 0.2,
        },
        "initial": {"type": "custom_cosh", "R": _jitter(rng, 4.0, 0.005), "dx": 0.04, "halfwidth": 5.0},
        "t_end": t_end,
        "outputs": ["timeseries", f"profiles@{t_end:g}", "checkpoint"],
    }
    return {
        "configs": {"in/box.json": cfg},
        "commands": [["run", "--config", "in/box.json", "--out", "out/main"]],
        "setup": {"config": "in/box.json"},
        "jobs": 1,
        "expect_runs": {"out/main": 10000},
    }


def dense_output(rng: random.Random) -> dict:
    # fig-s3unicon sampled every step, a profile every 0.05, then check and restart
    D = _jitter(rng, 0.3, 0.005)
    a = _jitter(rng, 0.4, 0.01)
    R0 = _jitter(rng, 1.0, 0.01)
    t_end, t_restart = 3.0, 3.5
    profiles = [f"profiles@{0.05 * k:.2f}" for k in range(1, 61)]
    cfg = _slab_config(
        "bench-dense-output", D, a, R0, t_end, DT,
        {"type": "profile", "name": "hetero-cos"},
        ["timeseries", *profiles, "checkpoint"],
    )
    restart = dict(cfg, name="bench-dense-restart", t_end=t_restart,
                   outputs=["timeseries", "checkpoint"])
    restart["initial"] = {"type": "checkpoint", "path": "out/main/checkpoint_final.txt"}
    return {
        "configs": {"in/dense.json": cfg, "in/restart.json": restart},
        "commands": [
            ["run", "--config", "in/dense.json", "--out", "out/main"],
            ["check", "out/main"],
            ["run", "--config", "in/restart.json", "--out", "out/restart"],
        ],
        "setup": {"config": "in/dense.json"},
        "jobs": 1,
        "expect_runs": {"out/main": 1500, "out/restart": 250},
    }


SWEEP_PRESET = "fig-s4limit-gamma80"
SWEEP_MEMBERS = 16


def sweep_fanout(rng: random.Random) -> dict:
    values: list[str] = []
    while len(values) < SWEEP_MEMBERS:
        tok = f"{rng.uniform(0.05, 0.8):.4f}"
        if tok not in values:
            values.append(tok)
    prefix = f"out/sweep/{SWEEP_PRESET}-D="
    return {
        "configs": {},
        "commands": [[
            "sweep", "--preset", SWEEP_PRESET, "--vary", "D=" + ",".join(values),
            "--out", "out/sweep", "--jobs", "2",
        ]],
        "setup": {"preset": SWEEP_PRESET, "set": {"D": float(values[0])}},
        "jobs": 2,
        "expect_runs": {prefix + v: 500 for v in values},
    }


WORKLOADS = {
    "qs-grow": qs_grow,
    "neumann-box": neumann_box,
    "dense-output": dense_output,
    "sweep-fanout": sweep_fanout,
}


def make_plan(workload: str, seed: int) -> dict:
    """The inputs of one workload for one seed; equal seeds give equal plans."""
    rng = random.Random(f"{workload}:{seed}")
    plan = WORKLOADS[workload](rng)
    plan["workload"] = workload
    plan["seed"] = seed
    return plan

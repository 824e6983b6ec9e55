#!/usr/bin/env python
"""Sweep the pressure-law exponent and measure how closely the simulated
pressure and front position approach the moving-slab closed form."""

import argparse
from pathlib import Path

import numpy as np

from autophagy_tumor.analytic import analytic_pressure, integrate_radius
from autophagy_tumor.diagnostics import write_table
from autophagy_tumor.grid import pressure_from_density
from autophagy_tumor.scenarios import PRESETS, analytic_setup, build_initial_state
from autophagy_tumor.solver import run


def compare_one(gamma: int, t_end: float):
    cfg = PRESETS[f"fig-s4limit-gamma{gamma}"]
    initial = build_initial_state(cfg.initial, cfg.params, cfg.solver)
    result = run(initial, cfg.params, cfg.solver, t_end, snapshot_times=(t_end,))
    snap = result.snapshots[t_end]

    setup = analytic_setup(cfg.initial, cfg.params)
    R_ref = integrate_radius(setup, t_end=t_end).radii[-1]

    x = snap.grid.cell_x
    p = pressure_from_density(snap.n, float(gamma))
    inside = np.abs(x) <= R_ref
    exact = analytic_pressure(x[inside], R_ref, setup)
    p_err = float(np.max(np.abs(p[inside] - exact)))
    R_sim = result.series.column("radius")[-1]
    return {
        "gamma": gamma,
        "radius_sim": R_sim,
        "radius_ref": R_ref,
        "p_err_max": p_err,
        "x": x[inside],
        "p_sim": p[inside],
        "p_ref": exact,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/stiff_limit", help="output directory")
    parser.add_argument("--t-end", type=float, default=1.0, help="comparison time")
    parser.add_argument(
        "--gammas", default="5,20,80", help="comma-separated exponents (must be presets)"
    )
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gammas = [int(s) for s in args.gammas.split(",") if s]

    rows = []
    for gamma in gammas:
        r = compare_one(gamma, args.t_end)
        rows.append(r)
        with open(out / f"pressure_gamma{gamma}.csv", "w") as fh:
            fh.write("x,p_sim,p_ref\n")
            write_table(fh, np.column_stack((r["x"], r["p_sim"], r["p_ref"])), ",")
        print(
            "gamma=%-3d  radius %.4f (ref %.4f)  max|p - p_ref| = %.5f"
            % (gamma, r["radius_sim"], r["radius_ref"], r["p_err_max"])
        )

    columns = ("gamma", "radius_sim", "radius_ref", "p_err_max")
    with open(out / "summary.csv", "w") as fh:
        fh.write(",".join(columns) + "\n")
        write_table(fh, np.array([[r[c] for c in columns] for r in rows], dtype=float), ",")

    errs = [r["p_err_max"] for r in rows]
    if errs == sorted(errs, reverse=True):
        print("pressure error decreases monotonically with the exponent")
    else:
        print("warning: pressure error is not monotone in the exponent")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

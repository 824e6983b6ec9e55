"""Command-line interface.

Subcommands:
  run       simulate one scenario (JSON config or named preset)
  presets   list the built-in scenario names
  analytic  print closed-form slab quantities as CSV on stdout
  sweep     run a preset repeatedly while varying one config key
  check     validate a finished run directory

Exit codes: 0 on success, 1 on solver failure or a failed check, 2 on usage
errors (bad flags, malformed configs, a checkpoint the run cannot start from).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analytic import AnalyticSetup, analytic_nutrient, analytic_pressure, integrate_radius
from .diagnostics import SERIES_CHANNELS, read_table, write_table
from .scenarios import (
    OUTPUT_FILES,
    PRESETS,
    PROFILE_COLUMNS,
    PROFILE_FILE,
    ScenarioConfig,
    check_out_dir,
    config_from_dict,
    config_to_dict,
    load_config,
    read_json,
    run_scenario,
)
from .solver import RunLog, SolverError, check_checkpoint_gamma, read_checkpoint

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autophagy-tumor",
        description="1D two-population tumor growth simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a JSON scenario config")
    src.add_argument("--preset", help="name of a built-in scenario")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_presets = sub.add_parser("presets", help="list built-in scenario names")
    p_presets.set_defaults(func=_cmd_presets)

    p_an = sub.add_parser("analytic", help="print closed-form slab quantities as CSV")
    p_an.add_argument("quantity", choices=("radius", "nutrient", "pressure"))
    p_an.add_argument("--mu", type=float, default=1.0, help="constant normal fraction")
    p_an.add_argument("--g", type=float, default=1.0, help="growth gain")
    p_an.add_argument("--a", type=float, default=0.5, help="autophagic nutrient release rate")
    p_an.add_argument("--D", type=float, default=0.3, help="autophagic death rate")
    p_an.add_argument("--cB", type=float, default=1.0, help="ambient nutrient level")
    p_an.add_argument("--R0", type=float, default=1.0, help="slab radius (initial, for radius)")
    p_an.add_argument("--t-end", type=float, default=1.0, help="horizon for the radius ODE")
    p_an.add_argument("--dt", type=float, default=1e-3, help="radius ODE step")
    p_an.add_argument("--points", type=int, default=101, help="profile sample count")
    p_an.set_defaults(func=_cmd_analytic)

    p_sweep = sub.add_parser("sweep", help="run a preset over several values of one key")
    p_sweep.add_argument("--preset", required=True, help="base preset name")
    p_sweep.add_argument("--vary", required=True, metavar="KEY=V1,V2,...",
                         help="config entry to vary (dotted path or bare key) and its values")
    p_sweep.add_argument("--out", required=True, help="parent output directory")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel workers (at most one per value)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="validate a finished run directory")
    p_check.add_argument("run_dir", help="directory holding manifest.json")
    p_check.set_defaults(func=_cmd_check)

    return parser


def _cmd_run(args) -> int:
    try:
        cfg = (load_config(args.config) if args.preset is None
               else config_from_dict({"preset": args.preset}))
    except (OSError, ValueError) as err:  # a JSONDecodeError is a ValueError
        print(f"bad config: {err}", file=sys.stderr)
        return 2
    try:
        check_out_dir(args.out)
    except ValueError as err:
        print(f"bad --out: {err}", file=sys.stderr)
        return 2
    return _run_members([(cfg, args.out)], 1)


def _cmd_presets(args) -> int:
    for name in PRESETS:
        print(name)
    return 0


def _cmd_analytic(args) -> int:
    try:
        if args.points < 1:
            raise ValueError(f"--points must be at least 1, got {args.points}")
        setup = AnalyticSetup(
            mu=args.mu, g=args.g, a=args.a, D=args.D, c_B=args.cB, R0=args.R0
        )
        if args.quantity == "radius":
            traj = integrate_radius(setup, args.t_end, args.dt)
    except ValueError as err:
        print(f"bad parameters: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:
        print(f"integration failed: {err}", file=sys.stderr)
        return 1
    if args.quantity == "radius":
        header, columns = "t,radius,speed", (traj.times, traj.radii, traj.speeds)
    else:
        x = np.linspace(-args.R0, args.R0, args.points)
        profile = analytic_nutrient if args.quantity == "nutrient" else analytic_pressure
        header, columns = "x,value", (x, profile(x, args.R0, setup))
    print(header)
    write_table(sys.stdout, np.column_stack(columns), ",")
    return 0


# --- sweep ------------------------------------------------------------------

def _entries(node: dict, prefix: str = ""):
    """(dotted path, holding dict, key) of every entry of a config tree, depth first."""
    for key, value in node.items():
        yield prefix + key, node, key
        if isinstance(value, dict):
            yield from _entries(value, f"{prefix}{key}.")


def set_config_value(data: dict, key: str, value) -> None:
    """Assign into a config dict the entry whose dotted path is key (`params.` is
    an alias of `model.`), or for a bare key without one, the one entry whose
    path ends in `.key`; none is "no such config entry", several "ambiguous"."""
    path = "model." + key[len("params."):] if key.startswith("params.") else key
    entries = list(_entries(data))
    hits = [entry for entry in entries if entry[0] == path] or [
        entry for entry in entries if "." not in path and entry[0].endswith("." + path)]
    if not hits:
        raise ValueError(f"no such config entry: {key!r}")
    if len(hits) > 1:
        raise ValueError(f"key {key!r} is ambiguous; use a dotted path")
    _, node, last = hits[0]
    node[last] = value


def _parse_value(token: str):
    try:
        return json.loads(token)
    except json.JSONDecodeError:
        return token


def _run_member(member: tuple[ScenarioConfig, str]) -> tuple[int, RunLog | str]:
    """(0, the run's log) of one (config, out_dir) member, or (status, error):
    1 for a solver failure or an OSError (writing its outputs), 2 for a
    refused start (its checkpoint cannot be read, was written with another
    gamma or starts after t_end, or a profile time no step ends at)."""
    try:
        return 0, run_scenario(*member).log
    except (SolverError, OSError) as err:
        return 1, str(err)
    except ValueError as err:
        return 2, str(err)


def _run_members(members: list[tuple[ScenarioConfig, str]], jobs: int) -> int:
    """Run the members in min(jobs, len(members)) worker processes, or in this
    process when that is 1; report each and return the worst status. A
    member whose worker process dies fails (status 1) with the pool's error.

    The process pool is imported only when it is used, so the other commands
    start without it.
    """
    workers = min(jobs, len(members))
    if workers <= 1:
        outcomes = [_run_member(member) for member in members]
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_member, member) for member in members]
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except BrokenProcessPool as err:
                outcomes.append((1, str(err)))
    for (_, out_dir), (status, outcome) in zip(members, outcomes):
        if status:  # 1: the member failed, 2: its start was refused
            print(f"{('FAILED', 'bad config')[status - 1]} {out_dir}: {outcome}", file=sys.stderr)
            continue
        # warnings and violations are reported but never fail a member
        for line in outcome.warnings:
            print(f"warning {out_dir}: {line}", file=sys.stderr)
        for line in outcome.violations:
            print(f"VIOLATION {out_dir}: {line}", file=sys.stderr)
        print(f"wrote {out_dir} ({outcome.steps} steps)")
    return max(status for status, _ in outcomes)


def _cmd_sweep(args) -> int:
    key, equals, value_list = args.vary.partition("=")
    tokens = [tok for tok in value_list.split(",") if tok]
    members = []
    try:
        if not equals:
            raise ValueError("--vary needs the form KEY=V1,V2,...")
        if not tokens:
            raise ValueError("--vary lists no values")
        if key == "name":
            raise ValueError("each member is named <preset>-<key>=<value>; 'name' cannot vary")
        base = config_to_dict(config_from_dict({"preset": args.preset}))
        for tok in tokens:
            data = copy.deepcopy(base)
            set_config_value(data, key, _parse_value(tok))
            data["name"] = f"{args.preset}-{key}={tok}"
            out_dir = str(Path(args.out) / data["name"])
            if any(out_dir == taken for _, taken in members):
                raise ValueError(f"two members would share the output directory {out_dir}")
            check_out_dir(out_dir)
            # validated here, before any member starts
            members.append((config_from_dict(data), out_dir))
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    except ValueError as err:
        print(f"bad sweep: {err}", file=sys.stderr)
        return 2
    return _run_members(members, args.jobs)


# --- check ------------------------------------------------------------------


def _check_end(what: str, t: float, cfg: ScenarioConfig, problems: list[str]) -> None:
    """`what` ends at time t, which is t_end to the nearest step (an infinite or NaN gap is not)."""
    if not abs(cfg.t_end - t) / cfg.solver.dt <= 0.5:
        problems.append(f"{what} ends at t={t:g}, not at t_end {cfg.t_end:g}")


def _check_series_against_manifest(rows: list[list[float]], manifest: dict, cfg: ScenarioConfig,
                                   problems: list[str]) -> None:
    """The manifest's step count spans the series' first to last time in
    steps of the config's dt, the last time is t_end to the nearest step,
    and the manifest's clamped mass is the series' last."""
    steps, clamped = 0, 0.0
    if rows:
        t, neg = SERIES_CHANNELS.index("t"), SERIES_CHANNELS.index("neg_mass_clamped")
        span = (rows[-1][t] - rows[0][t]) / cfg.solver.dt
        if not math.isfinite(span):
            problems.append(f"the series times {rows[0][t]!r} to {rows[-1][t]!r} "
                            f"span no finite number of steps")
            return
        steps, clamped = round(span), rows[-1][neg]
        _check_end("the series", rows[-1][t], cfg, problems)
    if manifest.get("steps") != steps:
        problems.append(f"manifest steps {manifest.get('steps')} but the series spans {steps}")
    if manifest.get("clamped_neg_mass") != clamped:
        problems.append(f"manifest clamped_neg_mass {manifest.get('clamped_neg_mass')!r} "
                        f"but the series ends at {clamped!r}")


def _output_files(manifest) -> dict[str, str]:
    """A manifest's {outputs key: file name} in the order checked (`timeseries`,
    `profiles.<key>`, `checkpoint`); ValueError says what makes it the wrong shape."""
    if not isinstance(manifest, dict):
        raise ValueError("the top level is not an object")
    if not isinstance(manifest.get("violations", []), list):
        raise ValueError("violations is not a list")
    outputs = manifest.get("outputs", {})
    profiles = outputs.get("profiles", {}) if isinstance(outputs, dict) else None
    if not isinstance(profiles, dict):
        raise ValueError("outputs or outputs.profiles is not an object")
    files = {"timeseries": outputs["timeseries"]} if "timeseries" in outputs else {}
    files.update((f"profiles.{key}", name) for key, name in profiles.items())
    if "checkpoint" in outputs:
        files["checkpoint"] = outputs["checkpoint"]
    for key, name in files.items():
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            raise ValueError(f"outputs.{key} is {name!r}, not a file name in the run directory")
    return files


def _cmd_check(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        manifest = read_json(run_dir / "manifest.json")
        files = _output_files(manifest)
    except (OSError, ValueError) as err:  # ValueError: not text or JSON, a repeated key, a bad shape
        print(f"check failed: manifest.json: {err}", file=sys.stderr)
        return 1

    problems = [f"violation: {line}" for line in manifest.get("violations", [])]
    cfg = None
    if manifest.get("failed"):
        problems.append(f"run failed: {manifest.get('error')}")
    else:
        try:
            cfg = config_from_dict(manifest.get("config"))
        except ValueError as err:
            problems.append(f"manifest config: {err}")
        else:
            # profiles are not required (a restart skips those before its start), but
            # each output listed must be one the config asks for, in the file it writes
            names = {entry: name for entry, name in OUTPUT_FILES.items() if entry in cfg.outputs}
            problems.extend(f"outputs.{entry} is missing, but the manifest config asks for it"
                            for entry in names if entry not in files)
            names.update((f"profiles.{t:g}", PROFILE_FILE.format(t)) for t in cfg.snapshot_times())
            for key, name in files.items():
                output = f"profile at t={key[9:]}" if key.startswith("profiles.") else key
                if key not in names:
                    problems.append(f"outputs.{key}: the manifest config asks for no {output}")
                elif name != names[key]:
                    problems.append(f"outputs.{key} is {name!r}, not {names[key]!r}")
    for key, name in files.items():
        try:  # ValueError: not text, a header, row or value that is wrong
            if key == "checkpoint":
                state, gamma = read_checkpoint(run_dir / name)
                if cfg is not None:
                    check_checkpoint_gamma(gamma, cfg.params)
                    _check_end(f"{name}: the checkpoint", state.t, cfg, problems)
                continue
            columns = SERIES_CHANNELS if key == "timeseries" else PROFILE_COLUMNS
            with open(run_dir / name) as fh:
                header = fh.readline().strip()
                if header != ",".join(columns):
                    raise ValueError(f"unexpected header {header!r}")
                table = read_table(fh.readlines(), ",", len(columns))
        except (OSError, ValueError) as err:
            problems.append(f"{name}: {err}")
            continue
        if key == "timeseries" and cfg is not None:
            _check_series_against_manifest(table.tolist(), manifest, cfg, problems)
    listed = {"manifest.json", *files.values()}
    problems.extend(f"{path.name}: not listed in the manifest"
                    for path in sorted(run_dir.iterdir()) if path.name not in listed)

    if problems:
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)
        return 1
    print(f"OK {run_dir}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer (head, a closed pager) went away mid-print
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

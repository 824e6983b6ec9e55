"""Scenario assembly: initial conditions, JSON configs, presets, and the
run-to-disk driver.

A scenario bundles the model constants, the solver settings, an initial
condition recipe, an end time, and the list of outputs to write. Scenarios
come from JSON files (strictly validated: unknown keys are errors) or from
the named presets in PRESETS.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .analytic import AnalyticSetup, analytic_pressure
from .diagnostics import write_table
from .grid import Grid1D, density_from_pressure, pressure_from_density
from .kinetics import (
    NEUMANN,
    QUASISTATIC,
    AffineDeath,
    ConstantFlux,
    ConstantTransitions,
    HullTransitions,
    Logistic,
    ModelParameters,
    PeriodicFlux,
    Proportional,
    RationalPairTransitions,
    _Finite,
    equilibrium_roots,
)
from .solver import (
    FieldState,
    RunResult,
    SolverConfig,
    _check_t_end,
    _Coefficients,
    _settle,
    check_checkpoint_gamma,
    read_checkpoint,
    run,
    write_checkpoint,
)

__all__ = [
    "ConstantComposition",
    "ProfileComposition",
    "TableComposition",
    "AnalyticPressureInit",
    "CustomCoshInit",
    "CheckpointInit",
    "ScenarioConfig",
    "PRESETS",
    "analytic_setup",
    "build_initial_state",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "read_json",
    "check_out_dir",
    "run_scenario",
    "write_profile_csv",
    "PROFILE_COLUMNS",
    "PROFILE_FILE",
]


# ---------------------------------------------------------------------------
# initial-condition recipes


@dataclass(frozen=True)
class ConstantComposition(_Finite):
    """Spatially constant normal fraction."""

    value: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"composition must lie in [0, 1], got {self.value}")


@dataclass(frozen=True)
class ProfileComposition:
    """Named built-in fraction profile. Only 'hetero-cos' is defined:
    mu0(x) = clip(0.5 + 0.5*cos(2*pi*x/R0), 0, 1)."""

    name: str

    def __post_init__(self):
        if self.name != "hetero-cos":
            raise ValueError(f"unknown composition profile {self.name!r}")


@dataclass(frozen=True)
class TableComposition(_Finite):
    """Fraction profile interpolated linearly from (x, mu) samples."""

    x: tuple[float, ...]
    mu: tuple[float, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.x) != len(self.mu) or len(self.x) < 2:
            raise ValueError("table composition needs matching x/mu lists, length >= 2")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ValueError("table composition x values must be strictly increasing")


CompositionInit = Union[ConstantComposition, ProfileComposition, TableComposition]


@dataclass(frozen=True)
class AnalyticPressureInit(_Finite):
    """Slab of radius R0 whose pressure follows the constant-composition
    closed form, split between the species by the given fraction recipe."""

    R0: float
    dx: float
    composition: CompositionInit
    _positive = ("R0", "dx")


@dataclass(frozen=True)
class CustomCoshInit(_Finite):
    """All-normal slab with p(x) = max(0, 1 - cosh(x)/cosh(R)) on a fixed
    box [-halfwidth, halfwidth], nutrient identically 1."""

    R: float
    dx: float
    halfwidth: float
    _positive = ("dx",)

    def __post_init__(self):
        if not 0.0 < self.R < self.halfwidth <= sys.float_info.max:  # R and halfwidth finite
            raise ValueError(f"need 0 < R < halfwidth, both finite, got R={self.R}, "
                             f"halfwidth={self.halfwidth}")
        super().__post_init__()
        cells = self.halfwidth / self.dx
        if not cells <= sys.float_info.max:  # round() cannot take the infinity
            raise ValueError(f"halfwidth {self.halfwidth} / dx {self.dx} overflows the cell count")
        if abs(round(cells) * self.dx - self.halfwidth) > 1e-9:
            raise ValueError(
                f"halfwidth {self.halfwidth} is not a whole number of cells of size {self.dx}"
            )


@dataclass(frozen=True)
class CheckpointInit:
    """Resume from a checkpoint file written by an earlier run."""

    path: str


InitialSpec = Union[AnalyticPressureInit, CustomCoshInit, CheckpointInit]


def analytic_setup(initial: AnalyticPressureInit, params: ModelParameters) -> AnalyticSetup:
    """The closed-form slab this model starts from, or ValueError when it
    cannot: growth must be nutrient-proportional, and a composition profile
    needs constant switch rates (the pressure is that of their equilibrium
    mu*). `equilibrium_roots` and `AnalyticSetup` refuse the rest: D, K1 or
    K2 <= 0 under a profile, g <= 0, a >= c_B."""
    if not isinstance(params.growth, Proportional):
        raise ValueError(
            "the closed-form pressure initialization needs nutrient-proportional growth"
        )
    comp, transitions = initial.composition, params.transitions
    if isinstance(comp, ConstantComposition):
        mu = comp.value
    elif isinstance(transitions, ConstantTransitions):
        mu = equilibrium_roots(params.D, transitions.K1, transitions.K2).mu_star
    else:
        raise ValueError(
            "a composition profile on top of the closed-form pressure needs "
            "constant switch rates (the profile is split around their equilibrium)"
        )
    return AnalyticSetup(mu=mu, g=params.growth.g, a=params.a, D=params.D, c_B=params.c_B,
                         R0=initial.R0)


# the file a profiles@T output writes, and its columns
PROFILE_FILE = "profile_t{:g}.csv"
PROFILE_COLUMNS = ("x", "n1", "n2", "n", "c", "p", "u")


@dataclass(frozen=True)
class ScenarioConfig(_Finite):
    name: str
    params: ModelParameters
    solver: SolverConfig
    initial: InitialSpec
    t_end: float
    outputs: tuple[str, ...] = ("timeseries", "checkpoint")
    _positive = ("t_end",)

    def __post_init__(self):
        super().__post_init__()
        if isinstance(self.initial, AnalyticPressureInit):
            analytic_setup(self.initial, self.params)
        profile_files = set()
        for entry in self.outputs:
            if entry.startswith("profiles@"):
                try:
                    ts = float(entry.split("@", 1)[1])
                except ValueError:
                    raise ValueError(f"output {entry!r}: the profile time must be a number") from None
                if not (math.isfinite(ts) and 0.0 <= ts <= self.t_end):
                    raise ValueError(
                        f"output {entry!r}: the profile time must be finite "
                        f"and lie in [0, t_end = {self.t_end:g}]"
                    )
                fname = PROFILE_FILE.format(ts)
                if fname in profile_files:
                    raise ValueError(f"output {entry!r}: an earlier profiles@ entry writes {fname}")
                profile_files.add(fname)
            elif entry not in ("timeseries", "checkpoint"):
                raise ValueError(f"unknown output entry {entry!r}")

    def snapshot_times(self) -> tuple[float, ...]:
        return tuple(float(e.split("@", 1)[1]) for e in self.outputs if e.startswith("profiles@"))


# ---------------------------------------------------------------------------
# grids and initial states


def _composition_values(comp: CompositionInit, x: np.ndarray, R0: float) -> np.ndarray:
    if isinstance(comp, ConstantComposition):
        return np.full(x.shape, comp.value)
    if isinstance(comp, ProfileComposition):
        return np.clip(0.5 + 0.5 * np.cos(2.0 * np.pi * x / R0), 0.0, 1.0)
    if isinstance(comp, TableComposition):
        return np.clip(np.interp(x, comp.x, comp.mu), 0.0, 1.0)
    raise TypeError(f"unknown composition recipe {type(comp).__name__}")


def build_initial_state(
    initial: InitialSpec, params: ModelParameters, solver_cfg: SolverConfig
) -> FieldState:
    """The recipe's state at t = 0, finished as each step's is (u, and in
    quasi-static mode c and its support), or the one its checkpoint holds.

    The grid is symmetric with a cell center at x = 0: the closed-form slab
    gets 2*margin vacuum cells per side, the cosh box spans its halfwidth."""
    if isinstance(initial, CheckpointInit):
        try:
            state, gamma = read_checkpoint(initial.path)
        except OSError as err:
            raise ValueError(f"cannot read checkpoint {initial.path}: {err.strerror or err}") from err
        check_checkpoint_gamma(gamma, params)
        return state

    try:  # MemoryError: a grid past memory (numpy refuses one past int64 with ValueError)
        if isinstance(initial, AnalyticPressureInit):
            setup = analytic_setup(initial, params)
            n_side = math.ceil(initial.R0 / initial.dx - 1e-12) + 2 * solver_cfg.enlargement_margin
            grid = Grid1D(x_min=-n_side * initial.dx, dx=initial.dx, n_cells=2 * n_side + 1)
            x = grid.cell_x
            inside = np.abs(x) <= initial.R0
            p = np.zeros(grid.n_cells)
            p[inside] = np.maximum(analytic_pressure(x[inside], initial.R0, setup), 0.0)
            n = density_from_pressure(p, params.gamma)
            mu0 = _composition_values(initial.composition, x, initial.R0)
            n1, n2, c = mu0 * n, (1.0 - mu0) * n, np.full(grid.n_cells, params.c_B)
        else:  # CustomCoshInit
            n_side = round(initial.halfwidth / initial.dx)
            grid = Grid1D(x_min=-n_side * initial.dx, dx=initial.dx, n_cells=2 * n_side + 1)
            p = np.maximum(0.0, 1.0 - np.cosh(grid.cell_x) / np.cosh(initial.R))
            n1 = density_from_pressure(p, params.gamma)
            n2, c = np.zeros(grid.n_cells), np.ones(grid.n_cells)
        k = _Coefficients(params, solver_cfg, grid.dx)
        return _settle(grid, np.concatenate((n1, n2)), c, 0.0, k)
    except MemoryError:
        raise ValueError(f"a grid of {grid.n_cells} cells cannot be allocated") from None


# ---------------------------------------------------------------------------
# strict JSON configs


def _is_number(value) -> bool:
    """A finite JSON number: not a bool, NaN, an infinity or an int beyond float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# the JSON type of a config value: (its name, a test, the conversion to the
# value the config holds); a field's annotation names its type
_NUMBER = ("a number", _is_number, float)
_INTEGER = ("an integer", lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()), int)
_STRING = ("a string", lambda v: isinstance(v, str), str)
_OBJECT = ("an object", lambda v: isinstance(v, dict), dict)
_NUMBERS = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)),
            lambda v: tuple(map(float, v)))
_STRINGS = ("a list of strings", lambda v: isinstance(v, list)
            and all(isinstance(s, str) for s in v), tuple)
_FIELD_KINDS = {"float": _NUMBER, "int": _INTEGER, "str": _STRING, "tuple[float, ...]": _NUMBERS,
                "tuple[str, ...]": _STRINGS}
# where the JSON key differs from the field name: ScenarioConfig.params
_JSON_KEYS = {"params": "model"}


def _pop(d: dict, key: str, path: str, kind: tuple, default=MISSING):
    """Pop d[key] type-checked and converted; the default if absent, or null with default None."""
    if key not in d:
        if default is MISSING:
            raise ValueError(f"missing required key {path}.{key}")
        return default
    value = d.pop(key)
    name, test, convert = kind
    if value is None and default is None:
        return None
    if not test(value):
        raise ValueError(f"{path}.{key} must be {name}, got {value!r}")
    return convert(value)


def _check_empty(d: dict, path: str) -> None:
    if d:
        raise ValueError(f"unknown keys at {path}: {sorted(d)}")


# tagged-union annotation -> (family name for errors, JSON "type" tag ->
# recipe class); a section's other keys are the fields of its recipe class
_VARIANTS = {
    "GrowthSpec": ("growth", {
        "proportional": Proportional, "affine_death": AffineDeath, "logistic": Logistic}),
    "TransitionSpec": ("transitions", {
        "constant": ConstantTransitions, "hull": HullTransitions,
        "rational_pair": RationalPairTransitions}),
    "FluxSchedule | None": ("flux schedule", {"constant": ConstantFlux, "periodic": PeriodicFlux}),
    "CompositionInit": ("composition", {
        "constant": ConstantComposition, "profile": ProfileComposition,
        "table": TableComposition}),
    "InitialSpec": ("initial", {
        "analytic_pressure": AnalyticPressureInit, "custom_cosh": CustomCoshInit,
        "checkpoint": CheckpointInit}),
}
_TAGS = {cls: tag for _, variants in _VARIANTS.values() for tag, cls in variants.items()}
_SECTIONS = {"ModelParameters": ModelParameters, "SolverConfig": SolverConfig}


def _from_dict(cls, d: dict, path: str):
    """Build config dataclass `cls` from the JSON object d, popping its
    fields in order; unknown keys left over are an error."""
    values = {}
    for f in fields(cls):
        key = _JSON_KEYS.get(f.name, f.name)
        sub = f"{path}.{key}"
        if f.type in _VARIANTS:
            section = _pop(d, key, path, _OBJECT, f.default)
            if section is not None:
                family, variants = _VARIANTS[f.type]
                tag = _pop(section, "type", sub, _STRING)
                if tag not in variants:
                    raise ValueError(f"unknown {family} type {tag!r} at {sub}")
                section = _from_dict(variants[tag], section, sub)
            values[f.name] = section
        elif f.type in _SECTIONS:
            values[f.name] = _from_dict(_SECTIONS[f.type], _pop(d, key, path, _OBJECT), sub)
        else:
            values[f.name] = _pop(d, key, path, _FIELD_KINDS[f.type], f.default)
    out = cls(**values)
    _check_empty(d, path)
    return out


def _to_dict(obj) -> dict:
    """The JSON object of a config dataclass: a recipe's tag first, then its
    fields in order, leaving out None."""
    out = {"type": _TAGS[type(obj)]} if type(obj) in _TAGS else {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = _to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            out[_JSON_KEYS.get(f.name, f.name)] = value
    return out


# nutrient mode -> (the boundary_mode it implies, names for the mismatch error)
_BOUNDARY_MODES = {QUASISTATIC: ("padded_dirichlet", "quasi-static", "padded"),
                   NEUMANN: ("neumann_box", "dynamic", "fixed-box")}


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ValueError("a config must be a JSON object")
    d = copy.deepcopy(data)
    if "preset" in d:
        name = _pop(d, "preset", "config", _STRING)
        _check_empty(d, "config (a preset reference allows no other keys)")
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
        return PRESETS[name]
    # two keys that no field holds: configs may name the model's one
    # consumption law, psi(c) = c, and the boundary its nutrient mode implies
    # (the two sections are type-checked here, and again with the fields)
    model = d["model"] = _pop(d, "model", "config", _OBJECT)
    solver = d["solver"] = _pop(d, "solver", "config", _OBJECT)
    consumption = _pop(model, "consumption", "config.model", _OBJECT, default={"type": "linear"})
    tag = _pop(consumption, "type", "config.model.consumption", _STRING)
    if tag != "linear":
        raise ValueError(f"unknown consumption type {tag!r} at config.model.consumption")
    _check_empty(consumption, "config.model.consumption")
    boundary_mode = (_pop(solver, "boundary_mode", "config.solver", _STRING)
                     if "boundary_mode" in solver else None)
    cfg = _from_dict(ScenarioConfig, d, "config")
    implied, mode_name, boundary_name = _BOUNDARY_MODES[cfg.params.nutrient_mode]
    if boundary_mode not in (None, "padded_dirichlet", "neumann_box"):
        raise ValueError(f"unknown boundary_mode {boundary_mode!r}")
    if boundary_mode not in (None, implied):
        raise ValueError(f"{mode_name} nutrient mode requires the {boundary_name} boundary mode")
    return cfg


def _unrepeated(pairs: list) -> dict:
    """A JSON object's pairs as a dict; json.load alone would keep a repeated key's last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        out[key] = value
    return out


def read_json(path):
    """The value of a JSON file; an object that repeats a key is a ValueError."""
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unrepeated)


def load_config(path) -> ScenarioConfig:
    return config_from_dict(read_json(path))


def _insert_after(d: dict, after: str, key: str, value) -> dict:
    items = list(d.items())
    at = list(d).index(after) + 1
    return dict(items[:at] + [(key, value)] + items[at:])


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out = _to_dict(cfg)
    out["model"] = _insert_after(out["model"], "growth", "consumption", {"type": "linear"})
    out["solver"] = _insert_after(out["solver"], "enlargement_margin", "boundary_mode",
                                  _BOUNDARY_MODES[cfg.params.nutrient_mode][0])
    return out


# ---------------------------------------------------------------------------
# preset catalogue


def _stiff_limit_preset(name, gamma, t_end, outputs=("timeseries", "checkpoint"), D=0.3, a=0.5,
                        mu0=None, R0=1.0, sample=0.1, K1=1.0, K2=1.0, transitions=None):
    params = ModelParameters(
        gamma=gamma,
        D=D,
        a=a,
        c_B=1.0,
        growth=Proportional(g=1.0),
        transitions=transitions if transitions is not None else ConstantTransitions(K1, K2),
        nutrient_mode=QUASISTATIC,
    )
    if mu0 is None:
        mu0 = ConstantComposition(equilibrium_roots(D, K1, K2).mu_star)
    return ScenarioConfig(
        name=name,
        params=params,
        solver=SolverConfig(dt=0.002, sample_interval=sample),
        initial=AnalyticPressureInit(R0=R0, dx=0.04, composition=mu0),
        t_end=t_end,
        outputs=outputs,
    )


def _neumann_preset(name, t_end, k1max, lambda_schedule, growth=None, sample=0.2):
    params = ModelParameters(
        gamma=40.0,
        D=0.1,
        a=0.5,
        c_B=1.0,
        growth=growth if growth is not None else AffineDeath(delta=0.5),
        transitions=HullTransitions(k1max=k1max, k2max=1.0, omega=0.5),
        nutrient_mode=NEUMANN,
        lambda_schedule=lambda_schedule,
    )
    return ScenarioConfig(
        name=name,
        params=params,
        solver=SolverConfig(dt=0.002, sample_interval=sample),
        initial=CustomCoshInit(R=4.0, dx=0.04, halfwidth=5.0),
        t_end=t_end,
        outputs=("timeseries", "checkpoint"),
    )


# keyed by each config's name, in this order
PRESETS: dict[str, ScenarioConfig] = {cfg.name: cfg for cfg in (
    *(_stiff_limit_preset(f"fig-s4limit-gamma{gamma:g}", gamma=gamma, t_end=1.0,
                          outputs=("timeseries", "profiles@1", "checkpoint"))
      for gamma in (5.0, 20.0, 80.0)),
    *(_stiff_limit_preset(f"fig-s4f2-D{D:g}", gamma=80.0, D=D, t_end=20.0, sample=0.25)
      for D in (0.3, 0.5)),
    *(_stiff_limit_preset(name, gamma=gamma, a=0.4, t_end=3.0, sample=0.05,
                          mu0=ProfileComposition("hetero-cos"),
                          outputs=("timeseries", "profiles@3", "checkpoint"))
      for name, gamma in (("fig-s3unicon", 80.0), ("fig-s3unicon-gamma2", 2.0))),
    *(_stiff_limit_preset(name, gamma=80.0, D=0.1, K1=0.1, K2=K2, mu0=ConstantComposition(mu0),
                          R0=R0, t_end=10.0, sample=0.25)
      for name, K2, mu0, R0 in (("fig-s3l2n-a", 1.0, 1.0, 1.0), ("fig-s3l2n-b", 0.01, 0.9, 2.0))),
    _stiff_limit_preset("fig-s4fin", gamma=80.0, t_end=10.0, sample=0.25,
                        mu0=ConstantComposition(0.5), transitions=RationalPairTransitions(),
                        outputs=("timeseries", "profiles@10", "checkpoint")),
    _stiff_limit_preset("fig-necrotic", gamma=80.0, D=0.7, R0=2.0, t_end=15.0, sample=0.25,
                        outputs=("timeseries", "profiles@15", "checkpoint")),
    *(_neumann_preset(f"neumann-autohelp-k{k:g}", t_end=20.0, k1max=k,
                      lambda_schedule=ConstantFlux(value=0.2))
      for k in (0.0, 2.0, 8.0)),
    *(_neumann_preset(f"neumann-periodic-T{T:g}", t_end=2.0 * T, k1max=2.0,
                      lambda_schedule=PeriodicFlux(high=0.5, period=T))
      for T in (20.0, 40.0)),
    _neumann_preset("neumann-logistic", t_end=40.0, k1max=2.0,
                    lambda_schedule=PeriodicFlux(high=0.5, period=20.0),
                    growth=Logistic(g=2.0, M=1.2, delta=0.5)),
)}


# ---------------------------------------------------------------------------
# run-to-disk driver


def write_profile_csv(path, state: FieldState, gamma: float) -> None:
    """One row per cell: x, n1, n2, n, c, p, u (face velocity padded with a
    trailing zero)."""
    p = pressure_from_density(state.n, gamma)
    u_padded = np.concatenate((state.u, [0.0]))
    table = np.column_stack((state.grid.cell_x, state.n1, state.n2, state.n, state.c, p, u_padded))
    with open(path, "w") as fh:
        fh.write(",".join(PROFILE_COLUMNS) + "\n")
        write_table(fh, table, ",")


def check_out_dir(out_dir) -> None:
    """Raise ValueError unless out_dir is a new path under a directory, or
    an empty directory: no file of an earlier run may stay beside a new
    run's outputs."""
    out = Path(out_dir)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"output path {existing} is not a directory")
    if existing == out and any(out.iterdir()):
        raise ValueError(f"output directory {out} is not empty; give a new or empty one")


def run_scenario(cfg: ScenarioConfig, out_dir) -> RunResult:
    """Run a scenario and write its outputs and manifest under out_dir.

    out_dir must pass `check_out_dir`. The initial state is built and
    `t_end` checked against its time before the directory is created, so an
    unreadable or mismatched checkpoint, or a `t_end` before the
    checkpoint's time, leaves no directory. Whatever
    fails once it exists (the solver, writing an output), the manifest is
    still written (failed: true, with the error) before the exception
    propagates.
    """
    check_out_dir(out_dir)
    initial = build_initial_state(cfg.initial, cfg.params, cfg.solver)
    _check_t_end(initial.t, cfg.t_end)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "name": cfg.name,
        "config": config_to_dict(cfg),
        "failed": False,
        "error": None,
        "outputs": {},
    }
    started = time.perf_counter()
    try:
        result = run(initial, cfg.params, cfg.solver, cfg.t_end, cfg.snapshot_times())
        manifest["wall_time_s"] = time.perf_counter() - started
        manifest.update(asdict(result.log))

        if "timeseries" in cfg.outputs:
            result.series.to_csv(out / "timeseries.csv")
            manifest["outputs"]["timeseries"] = "timeseries.csv"
        profile_files = {}
        for ts, snap in sorted(result.snapshots.items()):
            fname = PROFILE_FILE.format(ts)
            write_profile_csv(out / fname, snap, cfg.params.gamma)
            profile_files[f"{ts:g}"] = fname
        if profile_files:
            manifest["outputs"]["profiles"] = profile_files
        if "checkpoint" in cfg.outputs:
            write_checkpoint(out / "checkpoint_final.txt", result.final_state, cfg.params.gamma)
            manifest["outputs"]["checkpoint"] = "checkpoint_final.txt"
    except BaseException as err:
        manifest["failed"] = True
        # an exception without a message (an interrupt) is named by its class
        manifest["error"] = str(err) or type(err).__name__
        manifest["wall_time_s"] = time.perf_counter() - started
        raise
    finally:
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
    return result

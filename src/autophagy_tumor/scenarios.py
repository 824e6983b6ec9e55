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
import time
from dataclasses import MISSING, dataclass, fields, is_dataclass
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
    equilibrium_roots,
)
from .solver import (
    FieldState,
    RunResult,
    SolverConfig,
    _check_t_end,
    read_checkpoint,
    run,
    solve_nutrient_quasistatic,
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
    "build_initial_state",
    "build_grid",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "run_scenario",
    "write_profile_csv",
    "PROFILE_COLUMNS",
]


# ---------------------------------------------------------------------------
# initial-condition recipes


@dataclass(frozen=True)
class ConstantComposition:
    """Spatially constant normal fraction."""

    value: float

    def __post_init__(self):
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
class TableComposition:
    """Fraction profile interpolated linearly from (x, mu) samples."""

    x: tuple[float, ...]
    mu: tuple[float, ...]

    def __post_init__(self):
        if len(self.x) != len(self.mu) or len(self.x) < 2:
            raise ValueError("table composition needs matching x/mu lists, length >= 2")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ValueError("table composition x values must be strictly increasing")


CompositionInit = Union[ConstantComposition, ProfileComposition, TableComposition]


@dataclass(frozen=True)
class AnalyticPressureInit:
    """Slab of radius R0 whose pressure follows the constant-composition
    closed form, split between the species by the given fraction recipe."""

    R0: float
    dx: float
    composition: CompositionInit

    def __post_init__(self):
        if not self.R0 > 0.0:
            raise ValueError(f"R0 must be positive, got {self.R0}")
        if not self.dx > 0.0:
            raise ValueError(f"dx must be positive, got {self.dx}")


@dataclass(frozen=True)
class CustomCoshInit:
    """All-normal slab with p(x) = max(0, 1 - cosh(x)/cosh(R)) on a fixed
    box [-halfwidth, halfwidth], nutrient identically 1."""

    R: float
    dx: float
    halfwidth: float

    def __post_init__(self):
        if not 0.0 < self.R < self.halfwidth:
            raise ValueError(f"need 0 < R < halfwidth, got R={self.R}, halfwidth={self.halfwidth}")
        if not self.dx > 0.0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if abs(round(self.halfwidth / self.dx) * self.dx - self.halfwidth) > 1e-9:
            raise ValueError(
                f"halfwidth {self.halfwidth} is not a whole number of cells of size {self.dx}"
            )


@dataclass(frozen=True)
class CheckpointInit:
    """Resume from a checkpoint file written by an earlier run."""

    path: str


InitialSpec = Union[AnalyticPressureInit, CustomCoshInit, CheckpointInit]


def _check_initial_fits(initial: InitialSpec, params: ModelParameters) -> None:
    """Raise ValueError if the recipe cannot build this model's initial state."""
    if not isinstance(initial, AnalyticPressureInit):
        return
    if not isinstance(params.growth, Proportional):
        raise ValueError(
            "the closed-form pressure initialization needs nutrient-proportional growth"
        )
    comp, transitions = initial.composition, params.transitions
    if not (isinstance(comp, ConstantComposition) or isinstance(transitions, ConstantTransitions)):
        raise ValueError(
            "a composition profile on top of the closed-form pressure needs "
            "constant switch rates (the profile is split around their equilibrium)"
        )


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    params: ModelParameters
    solver: SolverConfig
    initial: InitialSpec
    t_end: float
    outputs: tuple[str, ...] = ("timeseries", "checkpoint")

    def __post_init__(self):
        _check_initial_fits(self.initial, self.params)
        if not _finite_positive(self.t_end):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end!r}")
        for entry in self.outputs:
            if entry.startswith("profiles@"):
                ts = float(entry.split("@", 1)[1])
                if not (math.isfinite(ts) and 0.0 <= ts <= self.t_end):
                    raise ValueError(
                        f"output {entry!r}: the profile time must be finite "
                        f"and lie in [0, t_end = {self.t_end:g}]"
                    )
            elif entry not in ("timeseries", "checkpoint"):
                raise ValueError(f"unknown output entry {entry!r}")

    def snapshot_times(self) -> tuple[float, ...]:
        return tuple(float(e.split("@", 1)[1]) for e in self.outputs if e.startswith("profiles@"))


# ---------------------------------------------------------------------------
# grids and initial states


def build_grid(initial: InitialSpec, solver_cfg: SolverConfig) -> Grid1D:
    """Symmetric grid with a cell center at x = 0.

    The closed-form slab is surrounded by 2*margin vacuum cells per side;
    the cosh box spans its halfwidth, a whole number of cells.
    """
    if isinstance(initial, AnalyticPressureInit):
        n_side = math.ceil(initial.R0 / initial.dx - 1e-12) + 2 * solver_cfg.enlargement_margin
        return Grid1D(x_min=-n_side * initial.dx, dx=initial.dx, n_cells=2 * n_side + 1)
    if isinstance(initial, CustomCoshInit):
        n_side = round(initial.halfwidth / initial.dx)
        return Grid1D(x_min=-n_side * initial.dx, dx=initial.dx, n_cells=2 * n_side + 1)
    raise TypeError(f"no grid recipe for {type(initial).__name__}")


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
    if isinstance(initial, CheckpointInit):
        try:
            state, gamma = read_checkpoint(initial.path)
        except OSError as err:
            raise ValueError(f"cannot read checkpoint {initial.path}: {err.strerror or err}") from err
        if abs(gamma - params.gamma) > 1e-12:
            raise ValueError(
                f"checkpoint was written with gamma={gamma:g}, model has gamma={params.gamma:g}"
            )
        return state

    _check_initial_fits(initial, params)
    grid = build_grid(initial, solver_cfg)
    x = grid.cell_x

    if isinstance(initial, AnalyticPressureInit):
        comp = initial.composition
        if isinstance(comp, ConstantComposition):
            mu_pressure = comp.value
        else:
            tr = params.transitions
            mu_pressure = equilibrium_roots(params.D, tr.K1, tr.K2).mu_star
        setup = AnalyticSetup(
            mu=mu_pressure,
            g=params.growth.g,
            a=params.a,
            D=params.D,
            c_B=params.c_B,
            R0=initial.R0,
        )
        inside = np.abs(x) <= initial.R0
        p = np.zeros(grid.n_cells)
        p[inside] = np.maximum(analytic_pressure(x[inside], initial.R0, setup), 0.0)
        n = density_from_pressure(p, params.gamma)
        mu0 = _composition_values(comp, x, initial.R0)
        state = FieldState(
            grid=grid,
            n1=mu0 * n,
            n2=(1.0 - mu0) * n,
            c=np.full(grid.n_cells, params.c_B),
            u=np.zeros(grid.n_cells - 1),
            t=0.0,
        )
    else:  # CustomCoshInit, the one other recipe build_grid knows
        p = np.maximum(0.0, 1.0 - np.cosh(x) / np.cosh(initial.R))
        n = density_from_pressure(p, params.gamma)
        state = FieldState(
            grid=grid,
            n1=n,
            n2=np.zeros(grid.n_cells),
            c=np.ones(grid.n_cells),
            u=np.zeros(grid.n_cells - 1),
            t=0.0,
        )

    p_disc = pressure_from_density(state.n, params.gamma)
    state.u = -np.diff(p_disc) / grid.dx
    if params.nutrient_mode == QUASISTATIC:
        state.c = solve_nutrient_quasistatic(state, params, solver_cfg.support_threshold)
    return state


# ---------------------------------------------------------------------------
# strict JSON configs


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_positive(value) -> bool:
    return _is_number(value) and math.isfinite(value) and value > 0.0


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
# where the JSON differs from the fields: the key of ScenarioConfig.params,
# and the kind of t_end
_JSON_KEYS = {"params": "model"}
_T_END = ("finite and positive", _finite_positive, float)


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
            kind = _T_END if f.name == "t_end" else _FIELD_KINDS[f.type]
            values[f.name] = _pop(d, key, path, kind, f.default)
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


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return config_from_dict(data)


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


def _stiff_limit_preset(name, gamma, t_end, outputs, D=0.3, a=0.5, mu0=None, R0=1.0,
                        sample=0.1, K1=1.0, K2=1.0, transitions=None):
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


PRESETS: dict[str, ScenarioConfig] = {}

for _gamma in (5.0, 20.0, 80.0):
    PRESETS[f"fig-s4limit-gamma{_gamma:g}"] = _stiff_limit_preset(
        f"fig-s4limit-gamma{_gamma:g}",
        gamma=_gamma,
        t_end=1.0,
        outputs=("timeseries", "profiles@1", "checkpoint"),
    )

for _D in (0.3, 0.5):
    PRESETS[f"fig-s4f2-D{_D:g}"] = _stiff_limit_preset(
        f"fig-s4f2-D{_D:g}",
        gamma=80.0,
        D=_D,
        t_end=20.0,
        sample=0.25,
        outputs=("timeseries", "checkpoint"),
    )

PRESETS["fig-s3unicon"] = _stiff_limit_preset(
    "fig-s3unicon",
    gamma=80.0,
    a=0.4,
    t_end=3.0,
    sample=0.05,
    mu0=ProfileComposition("hetero-cos"),
    outputs=("timeseries", "profiles@3", "checkpoint"),
)
PRESETS["fig-s3unicon-gamma2"] = _stiff_limit_preset(
    "fig-s3unicon-gamma2",
    gamma=2.0,
    a=0.4,
    t_end=3.0,
    sample=0.05,
    mu0=ProfileComposition("hetero-cos"),
    outputs=("timeseries", "profiles@3", "checkpoint"),
)

PRESETS["fig-s3l2n-a"] = _stiff_limit_preset(
    "fig-s3l2n-a",
    gamma=80.0,
    D=0.1,
    K1=0.1,
    K2=1.0,
    mu0=ConstantComposition(1.0),
    R0=1.0,
    t_end=10.0,
    sample=0.25,
    outputs=("timeseries", "checkpoint"),
)
PRESETS["fig-s3l2n-b"] = _stiff_limit_preset(
    "fig-s3l2n-b",
    gamma=80.0,
    D=0.1,
    K1=0.1,
    K2=0.01,
    mu0=ConstantComposition(0.9),
    R0=2.0,
    t_end=10.0,
    sample=0.25,
    outputs=("timeseries", "checkpoint"),
)

PRESETS["fig-s4fin"] = _stiff_limit_preset(
    "fig-s4fin",
    gamma=80.0,
    t_end=10.0,
    sample=0.25,
    mu0=ConstantComposition(0.5),
    transitions=RationalPairTransitions(),
    outputs=("timeseries", "profiles@10", "checkpoint"),
)

PRESETS["fig-necrotic"] = _stiff_limit_preset(
    "fig-necrotic",
    gamma=80.0,
    D=0.7,
    R0=2.0,
    t_end=15.0,
    sample=0.25,
    outputs=("timeseries", "profiles@15", "checkpoint"),
)

for _k in (0.0, 2.0, 8.0):
    PRESETS[f"neumann-autohelp-k{_k:g}"] = _neumann_preset(
        f"neumann-autohelp-k{_k:g}",
        t_end=20.0,
        k1max=_k,
        lambda_schedule=ConstantFlux(value=0.2),
    )

for _T in (20.0, 40.0):
    PRESETS[f"neumann-periodic-T{_T:g}"] = _neumann_preset(
        f"neumann-periodic-T{_T:g}",
        t_end=2.0 * _T,
        k1max=2.0,
        lambda_schedule=PeriodicFlux(high=0.5, period=_T),
    )

PRESETS["neumann-logistic"] = _neumann_preset(
    "neumann-logistic",
    t_end=40.0,
    k1max=2.0,
    lambda_schedule=PeriodicFlux(high=0.5, period=20.0),
    growth=Logistic(g=2.0, M=1.2, delta=0.5),
)


# ---------------------------------------------------------------------------
# run-to-disk driver

PROFILE_COLUMNS = ("x", "n1", "n2", "n", "c", "p", "u")


def write_profile_csv(path, state: FieldState, gamma: float) -> None:
    """One row per cell: x, n1, n2, n, c, p, u (face velocity padded with a
    trailing zero)."""
    p = pressure_from_density(state.n, gamma)
    u_padded = np.concatenate((state.u, [0.0]))
    table = np.column_stack((state.grid.cell_x, state.n1, state.n2, state.n, state.c, p, u_padded))
    with open(path, "w") as fh:
        fh.write(",".join(PROFILE_COLUMNS) + "\n")
        write_table(fh, table, ",")


def run_scenario(cfg: ScenarioConfig, out_dir) -> RunResult:
    """Run a scenario and write its outputs and manifest under out_dir.

    The initial state is built and `t_end` checked against its time before
    the directory is created, so an unreadable or mismatched checkpoint, or
    a `t_end` before the checkpoint's time, leaves no directory. Whatever
    fails once it exists (the solver, writing an output), the manifest is
    still written (failed: true, with the error) before the exception
    propagates.
    """
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
        manifest["steps"] = result.log.steps
        manifest["warnings"] = result.log.warnings
        manifest["violations"] = result.log.violations
        manifest["clamped_neg_mass"] = result.log.clamped_neg_mass

        if "timeseries" in cfg.outputs:
            result.series.to_csv(out / "timeseries.csv")
            manifest["outputs"]["timeseries"] = "timeseries.csv"
        profile_files = {}
        for ts, snap in sorted(result.snapshots.items()):
            fname = f"profile_t{ts:g}.csv"
            write_profile_csv(out / fname, snap, cfg.params.gamma)
            profile_files[f"{ts:g}"] = fname
        if profile_files:
            manifest["outputs"]["profiles"] = profile_files
        if "checkpoint" in cfg.outputs:
            write_checkpoint(out / "checkpoint_final.txt", result.final_state, cfg.params.gamma)
            manifest["outputs"]["checkpoint"] = "checkpoint_final.txt"
    except BaseException as err:
        manifest["failed"] = True
        manifest["error"] = str(err)
        manifest["wall_time_s"] = time.perf_counter() - started
        raise
    finally:
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
    return result

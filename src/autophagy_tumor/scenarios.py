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
        state, gamma = read_checkpoint(initial.path)
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

    n = state.n1 + state.n2
    p_disc = pressure_from_density(n, params.gamma)
    state.u = -np.diff(p_disc) / grid.dx
    if params.nutrient_mode == QUASISTATIC:
        state.c = solve_nutrient_quasistatic(state, params, solver_cfg.support_threshold, n)
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
_FIELD_KINDS = {"float": _NUMBER, "int": _INTEGER, "str": _STRING, "tuple[float, ...]": _NUMBERS}


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


# JSON "type" tag -> recipe class, for each tagged-union config section; a
# section's other keys are the fields of its recipe class
_VARIANTS = {
    "growth": {"proportional": Proportional, "affine_death": AffineDeath, "logistic": Logistic},
    "transitions": {
        "constant": ConstantTransitions,
        "hull": HullTransitions,
        "rational_pair": RationalPairTransitions,
    },
    "flux schedule": {"constant": ConstantFlux, "periodic": PeriodicFlux},
    "composition": {
        "constant": ConstantComposition,
        "profile": ProfileComposition,
        "table": TableComposition,
    },
    "initial": {
        "analytic_pressure": AnalyticPressureInit,
        "custom_cosh": CustomCoshInit,
        "checkpoint": CheckpointInit,
    },
}
_TAGS = {cls: tag for variants in _VARIANTS.values() for tag, cls in variants.items()}


def _variant_from_dict(family: str, parent: dict, key: str, path: str, default=MISSING):
    """Pop section parent[key] and build the recipe its "type" tag names."""
    d = _pop(parent, key, path, _OBJECT, default)
    if d is None:
        return None
    path = f"{path}.{key}"
    tag = _pop(d, "type", path, _STRING)
    cls = _VARIANTS[family].get(tag)
    if cls is None:
        raise ValueError(f"unknown {family} type {tag!r} at {path}")
    values = {}
    for f in fields(cls):
        if f.type == "CompositionInit":
            values[f.name] = _variant_from_dict("composition", d, f.name, path)
        else:
            values[f.name] = _pop(d, f.name, path, _FIELD_KINDS[f.type])
    out = cls(**values)
    _check_empty(d, path)
    return out


def _variant_to_dict(spec) -> dict:
    out = {"type": _TAGS[type(spec)]}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if is_dataclass(value):
            value = _variant_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _model_from_dict(d: dict, path: str) -> ModelParameters:
    # the model has one consumption law, psi(c) = c; configs may still name it
    consumption_d = _pop(d, "consumption", path, _OBJECT, default={"type": "linear"})
    tag = _pop(consumption_d, "type", f"{path}.consumption", _STRING)
    if tag != "linear":
        raise ValueError(f"unknown consumption type {tag!r} at {path}.consumption")
    _check_empty(consumption_d, f"{path}.consumption")

    out = ModelParameters(
        **{key: _pop(d, key, path, _NUMBER) for key in ("gamma", "D", "a", "c_B")},
        growth=_variant_from_dict("growth", d, "growth", path),
        transitions=_variant_from_dict("transitions", d, "transitions", path),
        nutrient_mode=_pop(d, "nutrient_mode", path, _STRING, default=QUASISTATIC),
        lambda_schedule=_variant_from_dict("flux schedule", d, "lambda_schedule", path, None),
    )
    _check_empty(d, path)
    return out


# nutrient mode -> (the boundary_mode it implies, names for the mismatch error)
_BOUNDARY_MODES = {QUASISTATIC: ("padded_dirichlet", "quasi-static", "padded"),
                   NEUMANN: ("neumann_box", "dynamic", "fixed-box")}


def _solver_from_dict(d: dict, path: str, nutrient_mode: str) -> SolverConfig:
    implied, mode_name, boundary_name = _BOUNDARY_MODES[nutrient_mode]
    boundary_mode = _pop(d, "boundary_mode", path, _STRING, default=implied)
    # SolverConfig declares each key's type and default
    out = SolverConfig(**{f.name: _pop(d, f.name, path, _FIELD_KINDS[f.type], f.default)
                          for f in fields(SolverConfig)})
    _check_empty(d, path)
    if boundary_mode not in ("padded_dirichlet", "neumann_box"):
        raise ValueError(f"unknown boundary_mode {boundary_mode!r}")
    if boundary_mode != implied:
        raise ValueError(f"{mode_name} nutrient mode requires the {boundary_name} boundary mode")
    return out


def config_from_dict(data: dict) -> ScenarioConfig:
    d = copy.deepcopy(data)
    if "preset" in d:
        name = _pop(d, "preset", "config", _STRING)
        _check_empty(d, "config (a preset reference allows no other keys)")
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
        return PRESETS[name]
    params = _model_from_dict(_pop(d, "model", "config", _OBJECT), "config.model")
    cfg = ScenarioConfig(
        name=_pop(d, "name", "config", _STRING),
        params=params,
        solver=_solver_from_dict(
            _pop(d, "solver", "config", _OBJECT), "config.solver", params.nutrient_mode
        ),
        initial=_variant_from_dict("initial", d, "initial", "config"),
        t_end=_pop(d, "t_end", "config", ("finite and positive", _finite_positive, float)),
        outputs=_pop(d, "outputs", "config", _STRINGS, default=("timeseries", "checkpoint")),
    )
    _check_empty(d, "config")
    return cfg


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return config_from_dict(data)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    p = cfg.params
    model = {
        "gamma": p.gamma,
        "D": p.D,
        "a": p.a,
        "c_B": p.c_B,
        "growth": _variant_to_dict(p.growth),
        "consumption": {"type": "linear"},
        "transitions": _variant_to_dict(p.transitions),
        "nutrient_mode": p.nutrient_mode,
    }
    if p.lambda_schedule is not None:
        model["lambda_schedule"] = _variant_to_dict(p.lambda_schedule)
    s = cfg.solver
    return {
        "name": cfg.name,
        "model": model,
        "solver": {
            "dt": s.dt,
            "support_threshold": s.support_threshold,
            "enlargement_margin": s.enlargement_margin,
            "boundary_mode": _BOUNDARY_MODES[p.nutrient_mode][0],
            "sample_interval": s.sample_interval,
        },
        "initial": _variant_to_dict(cfg.initial),
        "t_end": cfg.t_end,
        "outputs": list(cfg.outputs),
    }


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
    n = state.total_density
    p = pressure_from_density(n, gamma)
    u_padded = np.concatenate((state.u, [0.0]))
    table = np.column_stack((state.grid.cell_x, state.n1, state.n2, n, state.c, p, u_padded))
    with open(path, "w") as fh:
        fh.write(",".join(PROFILE_COLUMNS) + "\n")
        write_table(fh, table, ",")


def run_scenario(cfg: ScenarioConfig, out_dir) -> RunResult:
    """Run a scenario and write its outputs and manifest under out_dir.

    Whatever fails once the directory exists (the initial state, the solver,
    writing an output), the manifest is still written (failed: true, with
    the error) before the exception propagates.
    """
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
        initial = build_initial_state(cfg.initial, cfg.params, cfg.solver)
        started = time.perf_counter()
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
    except Exception as err:
        manifest["failed"] = True
        manifest["error"] = str(err)
        manifest["wall_time_s"] = time.perf_counter() - started
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
        raise

    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return result

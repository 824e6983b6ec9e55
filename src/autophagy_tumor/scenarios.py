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
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .analytic import AnalyticSetup, analytic_pressure
from .grid import Grid1D, density_from_pressure, pressure_from_density
from .kinetics import (
    NEUMANN,
    QUASISTATIC,
    AffineDeath,
    ConstantFlux,
    ConstantTransitions,
    HullTransitions,
    LinearConsumption,
    Logistic,
    ModelParameters,
    PeriodicFlux,
    Proportional,
    RationalPairTransitions,
    equilibrium_roots,
)
from .solver import (
    NEUMANN_BOX,
    PADDED,
    FieldState,
    RunResult,
    SolverConfig,
    SolverError,
    check_compatible,
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


@dataclass(frozen=True)
class CheckpointInit:
    """Resume from a checkpoint file written by an earlier run."""

    path: str


InitialSpec = Union[AnalyticPressureInit, CustomCoshInit, CheckpointInit]


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    params: ModelParameters
    solver: SolverConfig
    initial: InitialSpec
    t_end: float
    outputs: tuple[str, ...] = ("timeseries", "checkpoint")

    def __post_init__(self):
        check_compatible(self.params, self.solver)
        for entry in self.outputs:
            if entry in ("timeseries", "checkpoint"):
                continue
            if entry.startswith("profiles@"):
                float(entry.split("@", 1)[1])
                continue
            raise ValueError(f"unknown output entry {entry!r}")

    def snapshot_times(self) -> tuple[float, ...]:
        return tuple(
            float(e.split("@", 1)[1]) for e in self.outputs if e.startswith("profiles@")
        )


# ---------------------------------------------------------------------------
# grids and initial states


def build_grid(initial: InitialSpec, solver_cfg: SolverConfig) -> Grid1D:
    """Symmetric grid with a cell center at x = 0.

    Padded mode surrounds the initial slab with 2*margin vacuum cells per
    side; box mode requires the halfwidth to be a whole number of cells.
    """
    if isinstance(initial, AnalyticPressureInit):
        n_side = math.ceil(initial.R0 / initial.dx - 1e-12) + 2 * solver_cfg.enlargement_margin
        return Grid1D(x_min=-n_side * initial.dx, dx=initial.dx, n_cells=2 * n_side + 1)
    if isinstance(initial, CustomCoshInit):
        n_side = round(initial.halfwidth / initial.dx)
        if abs(n_side * initial.dx - initial.halfwidth) > 1e-9:
            raise ValueError(
                f"halfwidth {initial.halfwidth} is not a whole number of cells of size {initial.dx}"
            )
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

    grid = build_grid(initial, solver_cfg)
    x = grid.cell_x

    if isinstance(initial, AnalyticPressureInit):
        if not isinstance(params.growth, Proportional):
            raise ValueError(
                "the closed-form pressure initialization needs nutrient-proportional growth"
            )
        comp = initial.composition
        if isinstance(comp, ConstantComposition):
            mu_pressure = comp.value
        else:
            if not isinstance(params.transitions, ConstantTransitions):
                raise ValueError(
                    "a composition profile on top of the closed-form pressure needs "
                    "constant switch rates (the profile is split around their equilibrium)"
                )
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
    elif isinstance(initial, CustomCoshInit):
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
    else:
        raise TypeError(f"unknown initial recipe {type(initial).__name__}")

    p_disc = pressure_from_density(state.total_density, params.gamma)
    state.u = -np.diff(p_disc) / grid.dx
    if params.nutrient_mode == QUASISTATIC:
        state.c = solve_nutrient_quasistatic(state, params, solver_cfg.support_threshold)
    return state


# ---------------------------------------------------------------------------
# strict JSON configs


def _pop(d: dict, key: str, path: str, default=..., cast=None):
    if key in d:
        value = d.pop(key)
    elif default is not ...:
        value = default
    else:
        raise ValueError(f"missing required key {path}.{key}")
    if cast is not None and value is not None:
        value = cast(value)
    return value


def _check_empty(d: dict, path: str) -> None:
    if d:
        raise ValueError(f"unknown keys at {path}: {sorted(d)}")


def _growth_from_dict(d: dict, path: str):
    kind = _pop(d, "type", path)
    if kind == "proportional":
        out = Proportional(g=_pop(d, "g", path, cast=float))
    elif kind == "affine_death":
        out = AffineDeath(delta=_pop(d, "delta", path, cast=float))
    elif kind == "logistic":
        out = Logistic(
            g=_pop(d, "g", path, cast=float),
            M=_pop(d, "M", path, cast=float),
            delta=_pop(d, "delta", path, cast=float),
        )
    else:
        raise ValueError(f"unknown growth type {kind!r} at {path}")
    _check_empty(d, path)
    return out


def _transitions_from_dict(d: dict, path: str):
    kind = _pop(d, "type", path)
    if kind == "constant":
        out = ConstantTransitions(K1=_pop(d, "K1", path, cast=float), K2=_pop(d, "K2", path, cast=float))
    elif kind == "hull":
        out = HullTransitions(
            k1max=_pop(d, "k1max", path, cast=float),
            k2max=_pop(d, "k2max", path, cast=float),
            omega=_pop(d, "omega", path, cast=float),
        )
    elif kind == "rational_pair":
        out = RationalPairTransitions()
    else:
        raise ValueError(f"unknown transitions type {kind!r} at {path}")
    _check_empty(d, path)
    return out


def _flux_from_dict(d: dict, path: str):
    kind = _pop(d, "type", path)
    if kind == "constant":
        out = ConstantFlux(value=_pop(d, "value", path, cast=float))
    elif kind == "periodic":
        out = PeriodicFlux(high=_pop(d, "high", path, cast=float), period=_pop(d, "period", path, cast=float))
    else:
        raise ValueError(f"unknown flux schedule type {kind!r} at {path}")
    _check_empty(d, path)
    return out


def _composition_from_dict(d: dict, path: str) -> CompositionInit:
    kind = _pop(d, "type", path)
    if kind == "constant":
        out = ConstantComposition(value=_pop(d, "value", path, cast=float))
    elif kind == "profile":
        out = ProfileComposition(name=_pop(d, "name", path))
    elif kind == "table":
        out = TableComposition(
            x=tuple(float(v) for v in _pop(d, "x", path)),
            mu=tuple(float(v) for v in _pop(d, "mu", path)),
        )
    else:
        raise ValueError(f"unknown composition type {kind!r} at {path}")
    _check_empty(d, path)
    return out


def _model_from_dict(d: dict, path: str) -> ModelParameters:
    consumption_d = _pop(d, "consumption", path, default={"type": "linear"})
    kind = _pop(consumption_d, "type", f"{path}.consumption")
    if kind != "linear":
        raise ValueError(f"unknown consumption type {kind!r} at {path}.consumption")
    _check_empty(consumption_d, f"{path}.consumption")

    lam = _pop(d, "lambda_schedule", path, default=None)
    out = ModelParameters(
        gamma=_pop(d, "gamma", path, cast=float),
        D=_pop(d, "D", path, cast=float),
        a=_pop(d, "a", path, cast=float),
        c_B=_pop(d, "c_B", path, cast=float),
        growth=_growth_from_dict(_pop(d, "growth", path), f"{path}.growth"),
        consumption=LinearConsumption(),
        transitions=_transitions_from_dict(_pop(d, "transitions", path), f"{path}.transitions"),
        nutrient_mode=_pop(d, "nutrient_mode", path, default=QUASISTATIC),
        lambda_schedule=None if lam is None else _flux_from_dict(lam, f"{path}.lambda_schedule"),
    )
    _check_empty(d, path)
    return out


def _solver_from_dict(d: dict, path: str) -> SolverConfig:
    out = SolverConfig(
        dt=_pop(d, "dt", path, cast=float),
        support_threshold=_pop(d, "support_threshold", path, default=1e-8, cast=float),
        enlargement_margin=_pop(d, "enlargement_margin", path, default=25, cast=int),
        boundary_mode=_pop(d, "boundary_mode", path, default=PADDED),
        sample_interval=_pop(d, "sample_interval", path, default=0.1, cast=float),
    )
    _check_empty(d, path)
    return out


def _initial_from_dict(d: dict, path: str) -> InitialSpec:
    kind = _pop(d, "type", path)
    if kind == "analytic_pressure":
        out = AnalyticPressureInit(
            R0=_pop(d, "R0", path, cast=float),
            dx=_pop(d, "dx", path, cast=float),
            composition=_composition_from_dict(
                _pop(d, "composition", path), f"{path}.composition"
            ),
        )
    elif kind == "custom_cosh":
        out = CustomCoshInit(
            R=_pop(d, "R", path, cast=float),
            dx=_pop(d, "dx", path, cast=float),
            halfwidth=_pop(d, "halfwidth", path, cast=float),
        )
    elif kind == "checkpoint":
        out = CheckpointInit(path=_pop(d, "path", path))
    else:
        raise ValueError(f"unknown initial type {kind!r} at {path}")
    _check_empty(d, path)
    return out


def config_from_dict(data: dict) -> ScenarioConfig:
    d = copy.deepcopy(data)
    if "preset" in d:
        name = _pop(d, "preset", "config")
        _check_empty(d, "config (a preset reference allows no other keys)")
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
        return PRESETS[name]
    cfg = ScenarioConfig(
        name=_pop(d, "name", "config"),
        params=_model_from_dict(_pop(d, "model", "config"), "config.model"),
        solver=_solver_from_dict(_pop(d, "solver", "config"), "config.solver"),
        initial=_initial_from_dict(_pop(d, "initial", "config"), "config.initial"),
        t_end=_pop(d, "t_end", "config", cast=float),
        outputs=tuple(_pop(d, "outputs", "config", default=["timeseries", "checkpoint"])),
    )
    _check_empty(d, "config")
    return cfg


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return config_from_dict(data)


def _growth_to_dict(g) -> dict:
    if isinstance(g, Proportional):
        return {"type": "proportional", "g": g.g}
    if isinstance(g, AffineDeath):
        return {"type": "affine_death", "delta": g.delta}
    if isinstance(g, Logistic):
        return {"type": "logistic", "g": g.g, "M": g.M, "delta": g.delta}
    raise TypeError(f"unknown growth spec {type(g).__name__}")


def _transitions_to_dict(tr) -> dict:
    if isinstance(tr, ConstantTransitions):
        return {"type": "constant", "K1": tr.K1, "K2": tr.K2}
    if isinstance(tr, HullTransitions):
        return {"type": "hull", "k1max": tr.k1max, "k2max": tr.k2max, "omega": tr.omega}
    if isinstance(tr, RationalPairTransitions):
        return {"type": "rational_pair"}
    raise TypeError(f"unknown transitions spec {type(tr).__name__}")


def _flux_to_dict(f) -> dict:
    if isinstance(f, ConstantFlux):
        return {"type": "constant", "value": f.value}
    if isinstance(f, PeriodicFlux):
        return {"type": "periodic", "high": f.high, "period": f.period}
    raise TypeError(f"unknown flux schedule {type(f).__name__}")


def _initial_to_dict(init: InitialSpec) -> dict:
    if isinstance(init, AnalyticPressureInit):
        comp = init.composition
        if isinstance(comp, ConstantComposition):
            comp_d = {"type": "constant", "value": comp.value}
        elif isinstance(comp, ProfileComposition):
            comp_d = {"type": "profile", "name": comp.name}
        else:
            comp_d = {"type": "table", "x": list(comp.x), "mu": list(comp.mu)}
        return {"type": "analytic_pressure", "R0": init.R0, "dx": init.dx, "composition": comp_d}
    if isinstance(init, CustomCoshInit):
        return {"type": "custom_cosh", "R": init.R, "dx": init.dx, "halfwidth": init.halfwidth}
    if isinstance(init, CheckpointInit):
        return {"type": "checkpoint", "path": init.path}
    raise TypeError(f"unknown initial spec {type(init).__name__}")


def config_to_dict(cfg: ScenarioConfig) -> dict:
    p = cfg.params
    model = {
        "gamma": p.gamma,
        "D": p.D,
        "a": p.a,
        "c_B": p.c_B,
        "growth": _growth_to_dict(p.growth),
        "consumption": {"type": "linear"},
        "transitions": _transitions_to_dict(p.transitions),
        "nutrient_mode": p.nutrient_mode,
    }
    if p.lambda_schedule is not None:
        model["lambda_schedule"] = _flux_to_dict(p.lambda_schedule)
    s = cfg.solver
    return {
        "name": cfg.name,
        "model": model,
        "solver": {
            "dt": s.dt,
            "support_threshold": s.support_threshold,
            "enlargement_margin": s.enlargement_margin,
            "boundary_mode": s.boundary_mode,
            "sample_interval": s.sample_interval,
        },
        "initial": _initial_to_dict(cfg.initial),
        "t_end": cfg.t_end,
        "outputs": list(cfg.outputs),
    }


# ---------------------------------------------------------------------------
# preset catalogue


def _equilibrium_fraction(D: float, K1: float = 1.0, K2: float = 1.0) -> float:
    return equilibrium_roots(D, K1, K2).mu_star


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
        mu0 = ConstantComposition(_equilibrium_fraction(D, K1, K2))
    return ScenarioConfig(
        name=name,
        params=params,
        solver=SolverConfig(dt=0.002, sample_interval=sample, boundary_mode=PADDED),
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
        solver=SolverConfig(dt=0.002, sample_interval=sample, boundary_mode=NEUMANN_BOX),
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
    x = state.grid.cell_x
    with open(path, "w") as fh:
        fh.write(",".join(PROFILE_COLUMNS) + "\n")
        for i in range(state.grid.n_cells):
            fh.write(
                ",".join(
                    "%.17g" % v
                    for v in (x[i], state.n1[i], state.n2[i], n[i], state.c[i], p[i], u_padded[i])
                )
                + "\n"
            )


def run_scenario(cfg: ScenarioConfig, out_dir) -> RunResult:
    """Run a scenario and write its outputs and manifest under out_dir.

    On solver failure the manifest is still written (failed: true) before
    the error propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    initial = build_initial_state(cfg.initial, cfg.params, cfg.solver)

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
    except SolverError as err:
        manifest["failed"] = True
        manifest["error"] = str(err)
        manifest["wall_time_s"] = time.perf_counter() - started
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
        raise

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

    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return result

"""Finite-volume scheme for the two-population porous-medium model.

Each time step, in order:

1. enlarge the domain if the occupied region has crawled too close to an
   edge (quasi-static nutrient mode only; the dynamic mode has a fixed box),
2. predict face velocities implicitly from the linearized pressure update,
3. transport both species with a slope-limited upwind flux and apply the
   reaction terms semi-implicitly (2x2 solve per cell),
4. recompute face velocities from the updated pressure,
5. update the nutrient field (quasi-static elliptic solve on the occupied
   region, or one backward-Euler step with prescribed wall flux).

Velocities live on interior faces; the two wall faces always carry zero
flux, so the scheme conserves mass up to the reaction terms and the
clamping of negative densities (which is tracked and reported).

README "Performance" explains how a step keeps its per-call cost down.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (
    SERIES_CHANNELS,
    TimeSeries,
    l2n_deviation,
    nutrient_bound_check,
    sup_deviation,
    support_components,
    support_radius,
    total_population,
    write_table,
)
from .grid import Grid1D, _edge_arrays, numerical_flux, pressure_from_density
from .kinetics import (
    QUASISTATIC,
    ConstantTransitions,
    ModelParameters,
    equilibrium_roots,
    eval_flux,
    eval_growth,
    eval_transitions,
)

__all__ = [
    "SolverConfig",
    "FieldState",
    "SolverError",
    "TridiagonalSystem",
    "StepDiagnostics",
    "RunLog",
    "RunResult",
    "predict_velocity",
    "correct_densities",
    "solve_nutrient_quasistatic",
    "step_nutrient_neumann",
    "enlarge_domain_if_needed",
    "step",
    "run",
    "write_checkpoint",
    "read_checkpoint",
]


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    support_threshold: float = 1e-8
    enlargement_margin: int = 25
    sample_interval: float = 0.1

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.support_threshold <= 0.0:
            raise ValueError("support_threshold must be positive")
        if self.enlargement_margin < 3:
            raise ValueError("enlargement_margin must be at least 3 cells")
        if self.sample_interval <= 0.0:
            raise ValueError("sample_interval must be positive")


@dataclass
class FieldState:
    """Cell-centered fields n1, n2, c plus face velocities u (interior faces,
    length n_cells - 1) at time t, and the total density n = n1 + n2.

    n is formed once, at construction; n1 and n2 are not rebound or written
    after it."""

    grid: Grid1D
    n1: np.ndarray
    n2: np.ndarray
    c: np.ndarray
    u: np.ndarray
    t: float

    def __post_init__(self):
        n = self.grid.n_cells
        self.n1 = np.asarray(self.n1, dtype=float)
        self.n2 = np.asarray(self.n2, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        for name, arr, want in (
            ("n1", self.n1, n),
            ("n2", self.n2, n),
            ("c", self.c, n),
            ("u", self.u, n - 1),
        ):
            if arr.shape != (want,):
                raise ValueError(f"{name} must have shape ({want},), got {arr.shape}")
        self.n = self.n1 + self.n2

    def copy(self) -> "FieldState":
        return FieldState(
            grid=self.grid,
            n1=self.n1.copy(),
            n2=self.n2.copy(),
            c=self.c.copy(),
            u=self.u.copy(),
            t=self.t,
        )


def _load_dgtsv():
    """`dgtsv` from scipy's compiled `scipy/linalg/_flapack` extension alone.

    Registered under its own name in `sys.modules`, so a later
    `import scipy.linalg` reuses this module rather than loading a second
    copy. Raises ImportError naming the directories searched when the
    extension is missing.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    searched = []
    for package_dir in spec.submodule_search_locations:
        linalg_dir = os.path.join(package_dir, "linalg")
        searched.append(linalg_dir)
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(linalg_dir, "_flapack" + suffix)
            if os.path.isfile(path):
                flapack_spec = importlib.util.spec_from_file_location(
                    "scipy.linalg._flapack", path
                )
                flapack = importlib.util.module_from_spec(flapack_spec)
                sys.modules[flapack_spec.name] = flapack
                flapack_spec.loader.exec_module(flapack)
                return flapack.dgtsv
    raise ImportError(f"scipy's LAPACK wrapper _flapack not found in {', '.join(searched)}")


dgtsv = _load_dgtsv()


class SolverError(RuntimeError):
    """Raised when a step produces non-finite or structurally invalid fields.

    Carries the last usable state and the time at which the failure occurred.
    """

    def __init__(self, message: str, state: FieldState | None = None, t: float = math.nan):
        super().__init__(message)
        self.state = state
        self.t = t


@dataclass
class TridiagonalSystem:
    """Rows: lower[k-1]*x[k-1] + diag[k]*x[k] + upper[k]*x[k+1] = rhs[k]."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def solve(self) -> np.ndarray:
        """Solve by Gaussian elimination with partial pivoting (LAPACK gtsv).

        Non-finite entries, a singular matrix and a non-finite solution all
        raise SolverError.
        """
        if not np.isfinite(np.concatenate((self.lower, self.diag, self.upper, self.rhs))).all():
            raise SolverError("tridiagonal system has non-finite entries")
        if len(self.diag) < 2:
            # gtsv rejects a 1x1 system; solve_banded divides, and so do we
            x = self.rhs / self.diag
        else:
            x, info = dgtsv(self.lower, self.diag, self.upper, self.rhs)[3:]
            if info > 0:
                raise SolverError(f"tridiagonal solve failed: singular matrix (zero pivot {info})")
            if info < 0:
                raise SolverError(f"tridiagonal solve failed: bad argument {-info} to gtsv")
        if not np.isfinite(x).all():
            raise SolverError("tridiagonal solve produced non-finite values")
        return x


def predict_velocity(
    state: FieldState, params: ModelParameters, dt: float, growth: np.ndarray
) -> np.ndarray:
    """Implicit prediction of the face velocities for the transport step.

    Solves, on interior faces, the linear system obtained from a backward
    Euler discretization of the pressure-gradient evolution with lagged
    density weights n^(gamma-2), bounded at vacuum as ModelParameters holds
    gamma >= 2. The first and last interior faces are held at zero.
    `growth` is the rate G(c, n) on `state`.
    """
    gamma = params.gamma
    dx = state.grid.dx
    n = state.n
    w = n ** (gamma - 2.0)
    # ws = w * (n1*G + n2*(G - D))
    ws = state.n1 * growth
    source2 = growth - params.D
    source2 *= state.n2
    ws += source2
    ws *= w

    A = gamma * dt / dx**2
    B = gamma * dt / dx
    m = n[:-1] + n[1:]
    m *= 0.5
    diag = m * A
    diag *= w[:-1] + w[1:]
    diag += 1.0
    lower = w[1:-1] * -A
    upper = lower * m[1:]
    lower *= m[:-1]
    rhs = ws[1:] - ws[:-1]
    rhs *= B
    np.subtract(state.u, rhs, out=rhs)

    # hold the outermost interior faces at rest
    diag[0] = 1.0
    diag[-1] = 1.0
    rhs[0] = 0.0
    rhs[-1] = 0.0
    upper[0] = 0.0
    lower[-1] = 0.0
    return TridiagonalSystem(lower, diag, upper, rhs).solve()


def correct_densities(
    state: FieldState, u_star: np.ndarray, params: ModelParameters, dt: float, growth: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Transport both species with the predicted velocity and apply the
    exchange/growth terms semi-implicitly; `growth` is the rate G(c, n) on
    `state`.

    Returns (n1, n2, clamped_mass) where clamped_mass is the total mass
    removed by zeroing negative densities.
    """
    grid = state.grid
    dx = grid.dx
    K1, K2 = eval_transitions(params.transitions, state.c)

    # both species in one pass: row 0 is n1, row 1 is n2; the wall faces
    # carry zero flux
    stacked = np.concatenate((state.n1, state.n2)).reshape(2, grid.n_cells)
    left, right = _edge_arrays(stacked, dx)
    flux = np.zeros((2, grid.n_cells + 1))
    flux[:, 1:-1] = numerical_flux(left, right, u_star)
    div = flux[:, 1:] - flux[:, :-1]
    div /= dx

    # a11 = 1/dt - G + K1, a22 = 1/dt - (G - D) + K2
    inv_dt = 1.0 / dt
    a11 = inv_dt - growth
    a11 += K1
    a22 = inv_dt - (growth - params.D)
    a22 += K2
    det = a11 * a22
    det -= K1 * K2
    scale = 1.0 / dt**2
    if np.abs(det).min() < 1e-14 * scale:
        raise SolverError(
            "reaction solve is singular (dt too large for the reaction rates)",
            state=state,
            t=state.t,
        )
    r = stacked / dt
    r -= div
    r1 = r[0]
    r2 = r[1]
    # new = [a22*r1 + K2*r2, K1*r1 + a11*r2] / det
    new = np.empty_like(r)
    np.multiply(a22, r1, out=new[0])
    np.multiply(K1, r1, out=new[1])
    cross = np.empty_like(r)
    np.multiply(K2, r2, out=cross[0])
    np.multiply(a11, r2, out=cross[1])
    new += cross
    new /= det

    clamped = 0.0
    neg = new < 0.0
    if neg.any():
        for row, row_neg in zip(new, neg):
            if row_neg.any():
                clamped -= dx * float(row[row_neg].sum())
                row[row_neg] = 0.0
    return new[0], new[1], clamped


def solve_nutrient_quasistatic(
    state: FieldState, params: ModelParameters, threshold: float
) -> np.ndarray:
    """Solve -c'' + c*n = a*n2 on each occupied component (cells where the
    total density exceeds `threshold`), with c equal to the ambient level
    at the first unoccupied cell on either side, and ambient everywhere off
    the occupied region."""
    grid = state.grid
    n = state.n
    dx = grid.dx
    c_B = params.c_B
    c = np.full(grid.n_cells, c_B)
    for s, e in support_components(n > threshold):
        if s == 0 or e == grid.n_cells - 1:
            raise SolverError(
                "occupied region reached the domain edge; "
                "increase the enlargement margin or the initial padding",
                state=state,
                t=state.t,
            )
        size = e - s + 1
        diag = 2.0 / dx**2 + n[s : e + 1]
        off = np.full(size - 1, -1.0 / dx**2)
        rhs = params.a * state.n2[s : e + 1]
        rhs[0] += c_B / dx**2
        rhs[-1] += c_B / dx**2
        c[s : e + 1] = TridiagonalSystem(off, diag, off, rhs).solve()
    return c


@functools.lru_cache(maxsize=8)
def _neumann_off_diagonals(m: int, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (lower, upper) diagonals of the backward-Euler nutrient
    matrix on an m-cell box: -1/dx^2 with the wall rows' 1 (lower[-1],
    upper[0]). They depend only on the grid, so each box builds them once;
    gtsv copies its inputs and never writes them."""
    lower = np.full(m - 1, -1.0 / dx**2)
    upper = np.full(m - 1, -1.0 / dx**2)
    upper[0] = 1.0
    lower[-1] = 1.0
    lower.flags.writeable = False
    upper.flags.writeable = False
    return lower, upper


def step_nutrient_neumann(
    state: FieldState, params: ModelParameters, dt: float, t_new: float
) -> tuple[np.ndarray, int]:
    """One backward Euler step of c_t - c'' + c*n = a*n2 on the whole box,
    with the wall flux lambda(t) prescribed through the boundary rows
    (c[1]-c[0])/dx = lambda and (c[N-2]-c[N-1])/dx = lambda.

    Summing the interior rows telescopes the diffusion term against those
    rows, so each step satisfies
    dx*sum(c_new - c_old)/dt = -2*lambda - dx*sum(c_new*n - a*n2) over the
    interior cells exactly (positive lambda lowers both wall cells below
    their neighbours and carries nutrient out). Negative values are clamped
    to zero; returns (c, number of clamped cells).
    """
    grid = state.grid
    dx = grid.dx
    m = grid.n_cells
    lam = eval_flux(params.lambda_schedule, t_new)

    diag = 1.0 / dt + 2.0 / dx**2 + state.n
    lower, upper = _neumann_off_diagonals(m, dx)
    rhs = state.c / dt
    rhs += state.n2 * params.a

    diag[0] = -1.0
    rhs[0] = lam * dx
    diag[-1] = -1.0
    rhs[-1] = lam * dx

    c = TridiagonalSystem(lower, diag, upper, rhs).solve()
    neg = c < 0.0
    clamped = int(np.count_nonzero(neg))
    if clamped:
        c[neg] = 0.0
    return c, clamped


def enlarge_domain_if_needed(
    state: FieldState, params: ModelParameters, cfg: SolverConfig
) -> tuple[FieldState, bool]:
    """Extend the grid with vacuum cells when the occupied region (where the
    total density exceeds the support threshold) gets within
    `enlargement_margin` cells of an edge, restoring a gap of twice the
    margin on that side. Existing cell values are preserved bit for bit.

    Only the two edge windows of margin + 1 cells are inspected: the gap on
    a side is at most the margin exactly when an occupied cell lies in that
    side's window, and then it is the position of the window's first
    occupied cell counted from the edge."""
    n_cells = state.grid.n_cells
    margin = cfg.enlargement_margin
    threshold = cfg.support_threshold
    n = state.n
    left = n[: margin + 1] > threshold
    right = n[max(n_cells - 1 - margin, 0) :][::-1] > threshold
    pad_left = 2 * margin - int(left.argmax()) if left.any() else 0
    pad_right = 2 * margin - int(right.argmax()) if right.any() else 0
    if pad_left == 0 and pad_right == 0:
        return state, False
    grid = Grid1D(
        x_min=state.grid.x_min - pad_left * state.grid.dx,
        dx=state.grid.dx,
        n_cells=n_cells + pad_left + pad_right,
    )
    zeros_l = np.zeros(pad_left)
    zeros_r = np.zeros(pad_right)
    new = FieldState(
        grid=grid,
        n1=np.concatenate((zeros_l, state.n1, zeros_r)),
        n2=np.concatenate((zeros_l, state.n2, zeros_r)),
        c=np.concatenate((np.full(pad_left, params.c_B), state.c, np.full(pad_right, params.c_B))),
        u=np.concatenate((zeros_l, state.u, zeros_r)),
        t=state.t,
    )
    return new, True


@dataclass(frozen=True)
class StepDiagnostics:
    cfl: float
    clamped_mass: float
    nutrient_cells_clamped: int
    enlarged: bool


def step(
    state: FieldState, params: ModelParameters, cfg: SolverConfig
) -> tuple[FieldState, StepDiagnostics]:
    """Advance one time step and return the new state with per-step
    diagnostics."""
    dt = cfg.dt
    enlarged = False
    if params.nutrient_mode == QUASISTATIC:
        state, enlarged = enlarge_domain_if_needed(state, params, cfg)
    growth = eval_growth(params.growth, state.c, state.n)

    grid = state.grid
    dx = grid.dx
    u_star = predict_velocity(state, params, dt, growth)
    cfl = float(np.abs(u_star).max() * dt / dx)
    n1, n2, clamped = correct_densities(state, u_star, params, dt, growth)

    t_new = state.t + dt
    if params.nutrient_mode == QUASISTATIC:
        c, nutrient_clamped = state.c, 0
    else:
        c, nutrient_clamped = step_nutrient_neumann(state, params, dt, t_new)
    # the old u stands in until the new pressure gives u = -(p[1:] - p[:-1]) / dx
    new = FieldState(grid=grid, n1=n1, n2=n2, c=c, u=state.u, t=t_new)
    p = pressure_from_density(new.n, params.gamma)
    u = p[1:] - p[:-1]
    np.negative(u, out=u)
    u /= dx
    new.u = u
    if params.nutrient_mode == QUASISTATIC:
        # the solve reads the new densities from the state it is given
        new.c = solve_nutrient_quasistatic(new, params, cfg.support_threshold)

    if not np.isfinite(np.concatenate((new.n1, new.n2, new.c, new.u))).all():
        name = next(
            name for name in ("n1", "n2", "c", "u") if not np.isfinite(getattr(new, name)).all()
        )
        raise SolverError(f"non-finite values in {name} at t={new.t:.6g}", state=state, t=new.t)
    return new, StepDiagnostics(
        cfl=cfl, clamped_mass=clamped, nutrient_cells_clamped=nutrient_clamped, enlarged=enlarged
    )


@dataclass
class RunLog:
    warnings: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    clamped_neg_mass: float = 0.0
    steps: int = 0


@dataclass
class RunResult:
    series: TimeSeries
    final_state: FieldState
    snapshots: dict[float, FieldState]
    log: RunLog


def _series_row(
    state: FieldState,
    mask: np.ndarray,
    mu: np.ndarray | None,
    t: float,
    mu_star: float | None,
    clamped_cum: float,
) -> list[float]:
    """One time-series row; `mask` is the support and `mu` the normal-cell
    fraction on it (None when the support is empty)."""
    mass_total, mass_auto = total_population(state)
    radius = 0.0
    sup_dev = l2 = l4 = l8 = math.nan
    c_max = math.nan
    if mu is not None:
        radius = support_radius(state.grid, mask)
        c_max = float(state.c[mask].max())
        if mu_star is not None:
            sup_dev = sup_deviation(mu, mu_star)
            dx = state.grid.dx
            l2, l4, l8 = (l2n_deviation(mu, mu_star, dx, n) for n in (1, 2, 4))
    return [t, radius, mass_total, mass_auto, sup_dev, l2, l4, l8, c_max, clamped_cum]


def _check_t_end(t0: float, t_end: float) -> None:
    """Raise ValueError if t_end precedes the initial time t0."""
    if t_end < t0 - 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end {t_end:g} precedes the initial time {t0:g} of the state")


def run(
    initial: FieldState,
    params: ModelParameters,
    cfg: SolverConfig,
    t_end: float,
    snapshot_times: tuple[float, ...] = (),
) -> RunResult:
    """March the scheme from the initial state to t_end.

    Samples the diagnostic series every `sample_interval` (and at the start
    and end), captures field snapshots at the requested times (rounded to
    the nearest step), and records warnings (CFL excursions, nutrient
    clamping) and violations (bound breaches, excessive clamped mass).
    Raises ValueError if t_end precedes the initial time."""
    log = RunLog()
    t0 = initial.t
    dt = cfg.dt
    _check_t_end(t0, t_end)
    n_steps = max(0, int(round((t_end - t0) / dt)))
    if abs(t0 + n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        log.warnings.append(
            f"t_end {t_end:g} is not a whole number of steps; stopping at {t0 + n_steps * dt:g}"
        )
    steps_per_sample = max(1, int(round(cfg.sample_interval / dt)))

    mu_star = None
    tr = params.transitions
    if isinstance(tr, ConstantTransitions) and params.D > 0 and tr.K1 > 0 and tr.K2 > 0:
        mu_star = equilibrium_roots(params.D, tr.K1, tr.K2).mu_star

    snapshot_steps: dict[int, list[float]] = {}
    for ts in snapshot_times:
        j = int(round((ts - t0) / dt))
        if 0 <= j <= n_steps:
            snapshot_steps.setdefault(j, []).append(float(ts))
        else:
            log.warnings.append(
                f"no snapshot at t={ts:g}: outside this run's span "
                f"[{t0:g}, {t0 + n_steps * dt:g}]"
            )

    state = initial.copy()
    snapshots: dict[float, FieldState] = {}
    for ts in snapshot_steps.get(0, []):
        snapshots[ts] = state.copy()

    # the maximum-principle ceiling is max(c_B, c0), c0 the initial
    # nutrient maximum on the support
    c0 = params.c_B
    if params.nutrient_mode == QUASISTATIC:
        mask0 = state.n > cfg.support_threshold
        if mask0.any():
            c0 = float(state.c[mask0].max())

    rows: list[list[float]] = []
    max_cfl = 0.0
    first_cfl_t = None
    nutrient_clamp_events = 0

    def check_bounds(mask: np.ndarray, mu: np.ndarray | None, t: float) -> None:
        if mu is None:
            return
        if mu.min() < -1e-8 or mu.max() > 1.0 + 1e-8:
            log.violations.append(
                f"composition fraction left [0, 1] at t={t:.6g} "
                f"(range [{mu.min():.3e}, {mu.max():.3e}])"
            )
        if params.nutrient_mode == QUASISTATIC:
            ok, worst = nutrient_bound_check(state.c, params.c_B, c0, mask)
            if not ok:
                log.violations.append(
                    f"nutrient exceeded its maximum-principle bound by {worst:.3e} at t={t:.6g}"
                )

    def sample(t: float) -> None:
        # one support mask and fraction per sample, shared by the series row
        # and the bound checks
        mask = state.n > cfg.support_threshold
        mu = state.n1[mask] / state.n[mask] if mask.any() else None
        rows.append(_series_row(state, mask, mu, t, mu_star, log.clamped_neg_mass))
        check_bounds(mask, mu, t)

    if n_steps > 0:
        sample(t0)

    for j in range(n_steps):
        try:
            state, diag = step(state, params, cfg)
        except SolverError as err:
            err.args = (f"step {j + 1}: {err.args[0]}",)
            raise
        state.t = t0 + (j + 1) * dt
        log.steps += 1
        log.clamped_neg_mass += diag.clamped_mass
        nutrient_clamp_events += diag.nutrient_cells_clamped
        if diag.cfl > max_cfl:
            max_cfl = diag.cfl
            if diag.cfl > 0.5 and first_cfl_t is None:
                first_cfl_t = state.t
        for ts in snapshot_steps.get(j + 1, []):
            snapshots[ts] = state.copy()
        if (j + 1) % steps_per_sample == 0:
            sample(state.t)

    if n_steps > 0 and n_steps % steps_per_sample != 0:
        sample(state.t)

    if max_cfl > 0.5:
        log.warnings.append(
            f"transport CFL number exceeded 0.5 (max {max_cfl:.3f}, first at t={first_cfl_t:.6g})"
        )
    if nutrient_clamp_events:
        log.warnings.append(
            f"nutrient clamped to zero in {nutrient_clamp_events} cell-updates"
        )
    total_mass = total_population(state)[0]
    if total_mass > 0 and log.clamped_neg_mass > 1e-6 * total_mass:
        log.violations.append(
            f"clamped negative mass {log.clamped_neg_mass:.3e} exceeds "
            f"1e-6 of the final total mass {total_mass:.6g}"
        )

    series = TimeSeries(channels=SERIES_CHANNELS, data=np.array(rows, dtype=float))
    return RunResult(series=series, final_state=state, snapshots=snapshots, log=log)


# ---------------------------------------------------------------------------
# checkpoint files: plain text, exact round trip via %.17g


def write_checkpoint(path, state: FieldState, gamma: float) -> None:
    """Write the state to a text checkpoint (restart file).

    Header: comment lines, then `key = value` lines for x_min, dx, n_cells,
    t, gamma. Body: one row per cell with columns n1 n2 c u, the face
    velocity column padded with one trailing zero to match the cell count.
    """
    g = state.grid
    u_padded = np.concatenate((state.u, [0.0]))
    with open(path, "w") as fh:
        fh.write("# two-population growth state\n")
        fh.write("# columns: n1 n2 c u (u on interior faces, one trailing pad zero)\n")
        fh.write("x_min = %.17g\n" % g.x_min)
        fh.write("dx = %.17g\n" % g.dx)
        fh.write("n_cells = %d\n" % g.n_cells)
        fh.write("t = %.17g\n" % state.t)
        fh.write("gamma = %.17g\n" % gamma)
        write_table(fh, np.column_stack((state.n1, state.n2, state.c, u_padded)), " ")


def read_checkpoint(path) -> tuple[FieldState, float]:
    """Read a checkpoint written by write_checkpoint. Returns (state, gamma).

    Raises ValueError, naming the key or the column and row, for a missing
    or non-finite header value, a row count or shape that does not match,
    a value that is not finite, and a negative n1, n2 or c."""
    header: dict[str, str] = {}
    data_rows: list[list[float]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line:
                key, _, value = line.partition("=")
                header[key.strip()] = value.strip()
            else:
                data_rows.append([float(tok) for tok in line.split()])
    for key in ("x_min", "dx", "n_cells", "t", "gamma"):
        if key not in header:
            raise ValueError(f"checkpoint is missing header key {key!r}")
    n_cells = int(header["n_cells"])
    if len(data_rows) != n_cells:
        raise ValueError(
            f"checkpoint has {len(data_rows)} data rows but header says {n_cells} cells"
        )
    arr = np.array(data_rows, dtype=float)
    if arr.shape != (n_cells, 4):
        raise ValueError(f"checkpoint rows must have 4 columns, got shape {arr.shape}")
    for key in ("x_min", "dx", "t", "gamma"):
        if not math.isfinite(float(header[key])):
            raise ValueError(f"checkpoint header {key} = {header[key]} is not finite")
    for col, name in enumerate(("n1", "n2", "c", "u")):
        # u's last row is the pad; the densities and the nutrient are >= 0
        values = arr[: n_cells - 1 if name == "u" else n_cells, col]
        bad = ~np.isfinite(values) | ((values < 0.0) & (name != "u"))
        if bad.any():
            row = int(bad.argmax())
            need = "finite" if name == "u" else "finite and >= 0"
            raise ValueError(f"checkpoint column {name} must be {need}; "
                             f"data row {row + 1} holds {values[row]:g}")
    grid = Grid1D(x_min=float(header["x_min"]), dx=float(header["dx"]), n_cells=n_cells)
    state = FieldState(grid=grid, n1=arr[:, 0], n2=arr[:, 1], c=arr[:, 2],
                       u=arr[:n_cells - 1, 3], t=float(header["t"]))
    return state, float(header["gamma"])

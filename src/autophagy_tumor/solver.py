"""Finite-volume scheme for the two-population porous-medium model.

Each time step, in order:

1. enlarge the domain if the occupied region has crawled too close to an
   edge (padded mode only),
2. predict face velocities implicitly from the linearized pressure update,
3. transport both species with a slope-limited upwind flux and apply the
   reaction terms semi-implicitly (2x2 solve per cell),
4. recompute face velocities from the updated pressure,
5. update the nutrient field (quasi-static elliptic solve on the occupied
   region, or one backward-Euler step with prescribed wall flux).

Velocities live on interior faces; the two wall faces always carry zero
flux, so the scheme conserves mass up to the reaction terms and the
clamping of negative densities (which is tracked and reported).

Every tridiagonal system (the velocity prediction and both nutrient
updates) goes through `TridiagonalSystem.solve`, which calls LAPACK `gtsv`
directly: the routine `scipy.linalg.solve_banded` picks for (1, 1) bands,
without the wrapper's per-call overhead, so the results are the same bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .diagnostics import SERIES_CHANNELS, TimeSeries, support_info, total_population
from .grid import Grid1D, _edge_arrays, numerical_flux, pressure_from_density
from .kinetics import (
    NEUMANN,
    QUASISTATIC,
    ConstantTransitions,
    LinearConsumption,
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
    "check_compatible",
    "run",
    "write_checkpoint",
    "read_checkpoint",
]

PADDED = "padded_dirichlet"
NEUMANN_BOX = "neumann_box"


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    support_threshold: float = 1e-8
    enlargement_margin: int = 25
    boundary_mode: str = PADDED
    sample_interval: float = 0.1

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.support_threshold <= 0.0:
            raise ValueError("support_threshold must be positive")
        if self.enlargement_margin < 3:
            raise ValueError("enlargement_margin must be at least 3 cells")
        if self.boundary_mode not in (PADDED, NEUMANN_BOX):
            raise ValueError(f"unknown boundary_mode {self.boundary_mode!r}")
        if self.sample_interval <= 0.0:
            raise ValueError("sample_interval must be positive")


@dataclass
class FieldState:
    """Cell-centered fields n1, n2, c plus face velocities u (interior faces,
    length n_cells - 1) at time t."""

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

    def copy(self) -> "FieldState":
        return FieldState(
            grid=self.grid,
            n1=self.n1.copy(),
            n2=self.n2.copy(),
            c=self.c.copy(),
            u=self.u.copy(),
            t=self.t,
        )

    @property
    def total_density(self) -> np.ndarray:
        return self.n1 + self.n2


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
        if not np.all(np.isfinite(x)):
            raise SolverError("tridiagonal solve produced non-finite values")
        return x


def predict_velocity(state: FieldState, params: ModelParameters, dt: float) -> np.ndarray:
    """Implicit prediction of the face velocities for the transport step.

    Solves, on interior faces, the linear system obtained from a backward
    Euler discretization of the pressure-gradient evolution with lagged
    density weights. Needs gamma >= 2 so the weights n^(gamma-2) stay
    bounded at vacuum. The first and last interior faces are held at zero.
    """
    gamma = params.gamma
    if gamma < 2.0:
        raise ValueError(f"velocity prediction requires gamma >= 2, got {gamma}")
    grid = state.grid
    dx = grid.dx
    n = state.total_density
    w = n ** (gamma - 2.0)
    growth = eval_growth(params.growth, state.c, n)
    source = state.n1 * growth + state.n2 * (growth - params.D)

    A = gamma * dt / dx**2
    B = gamma * dt / dx
    m = 0.5 * (n[:-1] + n[1:])
    diag = 1.0 + A * m * (w[:-1] + w[1:])
    upper = -A * w[1:-1] * m[1:]
    lower = -A * w[1:-1] * m[:-1]
    rhs = state.u - B * (w[1:] * source[1:] - w[:-1] * source[:-1])

    # hold the outermost interior faces at rest
    diag[0] = 1.0
    diag[-1] = 1.0
    rhs[0] = 0.0
    rhs[-1] = 0.0
    if len(upper):
        upper[0] = 0.0
        lower[-1] = 0.0
    return TridiagonalSystem(lower, diag, upper, rhs).solve()


def correct_densities(
    state: FieldState, u_star: np.ndarray, params: ModelParameters, dt: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Transport both species with the predicted velocity and apply the
    exchange/growth terms semi-implicitly.

    Returns (n1, n2, clamped_mass) where clamped_mass is the total mass
    removed by zeroing negative densities.
    """
    grid = state.grid
    dx = grid.dx
    n = state.total_density
    growth = eval_growth(params.growth, state.c, n)
    K1, K2 = eval_transitions(params.transitions, state.c)
    g1 = growth
    g2 = growth - params.D

    # both species in one pass: row 0 is n1, row 1 is n2; the wall faces
    # carry zero flux
    left, right = _edge_arrays(np.stack((state.n1, state.n2)), dx)
    flux = np.zeros((2, grid.n_cells + 1))
    flux[:, 1:-1] = numerical_flux(left, right, u_star)
    div1, div2 = np.diff(flux) / dx

    a11 = 1.0 / dt - g1 + K1
    a22 = 1.0 / dt - g2 + K2
    det = a11 * a22 - K1 * K2
    scale = 1.0 / dt**2
    if np.min(np.abs(det)) < 1e-14 * scale:
        raise SolverError(
            "reaction solve is singular (dt too large for the reaction rates)",
            state=state,
            t=state.t,
        )
    r1 = state.n1 / dt - div1
    r2 = state.n2 / dt - div2
    n1_new = (a22 * r1 + K2 * r2) / det
    n2_new = (K1 * r1 + a11 * r2) / det

    clamped = 0.0
    for arr in (n1_new, n2_new):
        neg = arr < 0.0
        if neg.any():
            clamped -= dx * float(np.sum(arr[neg]))
            arr[neg] = 0.0
    return n1_new, n2_new, clamped


def solve_nutrient_quasistatic(
    state: FieldState, params: ModelParameters, threshold: float
) -> np.ndarray:
    """Solve -c'' + c*n = a*n2 on each occupied component, with c equal to
    the ambient level at the first unoccupied cell on either side, and
    ambient everywhere off the occupied region."""
    if not isinstance(params.consumption, LinearConsumption):
        raise ValueError("quasi-static nutrient solve requires linear consumption")
    grid = state.grid
    dx = grid.dx
    c_B = params.c_B
    c = np.full(grid.n_cells, c_B)
    n = state.total_density
    info = support_info(state, threshold)
    for s, e in info.components:
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
        rhs = params.a * state.n2[s : e + 1].copy()
        rhs[0] += c_B / dx**2
        rhs[-1] += c_B / dx**2
        c[s : e + 1] = TridiagonalSystem(off, diag, off.copy(), rhs).solve()
    return c


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
    if not isinstance(params.consumption, LinearConsumption):
        raise ValueError("nutrient step requires linear consumption")
    grid = state.grid
    dx = grid.dx
    m = grid.n_cells
    n = state.total_density
    lam = eval_flux(params.lambda_schedule, t_new)

    diag = 1.0 / dt + 2.0 / dx**2 + n
    lower = np.full(m - 1, -1.0 / dx**2)
    upper = np.full(m - 1, -1.0 / dx**2)
    rhs = state.c / dt + params.a * state.n2

    diag[0] = -1.0
    upper[0] = 1.0
    rhs[0] = lam * dx
    diag[-1] = -1.0
    lower[-1] = 1.0
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
    """Extend the grid with vacuum cells when the occupied region gets within
    `enlargement_margin` cells of an edge, restoring a gap of twice the
    margin on that side. Existing cell values are preserved bit for bit."""
    idx = np.flatnonzero(state.total_density > cfg.support_threshold)
    if idx.size == 0:
        return state, False
    n_cells = state.grid.n_cells
    margin = cfg.enlargement_margin
    left_gap = int(idx[0])
    right_gap = int(n_cells - 1 - idx[-1])
    pad_left = 2 * margin - left_gap if left_gap <= margin else 0
    pad_right = 2 * margin - right_gap if right_gap <= margin else 0
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
    if cfg.boundary_mode == PADDED:
        state, enlarged = enlarge_domain_if_needed(state, params, cfg)

    u_star = predict_velocity(state, params, dt)
    cfl = float(np.max(np.abs(u_star)) * dt / state.grid.dx) if len(u_star) else 0.0
    n1, n2, clamped = correct_densities(state, u_star, params, dt)

    new = FieldState(grid=state.grid, n1=n1, n2=n2, c=state.c, u=state.u, t=state.t + dt)
    p = pressure_from_density(new.total_density, params.gamma)
    new.u = -np.diff(p) / state.grid.dx

    nutrient_clamped = 0
    if params.nutrient_mode == QUASISTATIC:
        new.c = solve_nutrient_quasistatic(new, params, cfg.support_threshold)
    else:
        new.c, nutrient_clamped = step_nutrient_neumann(state, params, dt, new.t)

    for name, arr in (("n1", new.n1), ("n2", new.n2), ("c", new.c), ("u", new.u)):
        if not np.all(np.isfinite(arr)):
            raise SolverError(
                f"non-finite values in {name} at t={new.t:.6g}", state=state, t=new.t
            )
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
    state: FieldState, t: float, cfg: SolverConfig, mu_star: float | None, clamped_cum: float
) -> list[float]:
    info = support_info(state, cfg.support_threshold)
    mass_total, mass_auto = total_population(state)
    sup_dev = l2 = l4 = l8 = math.nan
    c_max = math.nan
    if info.components:
        mask = state.total_density > cfg.support_threshold
        c_max = float(np.max(state.c[mask]))
        if mu_star is not None:
            mu = state.n1[mask] / state.total_density[mask]
            dev = mu - mu_star
            sup_dev = float(np.max(np.abs(dev)))
            dx = state.grid.dx
            l2 = float((dx * np.sum(dev**2)) ** (1.0 / 2.0))
            l4 = float((dx * np.sum(dev**4)) ** (1.0 / 4.0))
            l8 = float((dx * np.sum(dev**8)) ** (1.0 / 8.0))
    return [t, info.radius, mass_total, mass_auto, sup_dev, l2, l4, l8, c_max, clamped_cum]


def check_compatible(params: ModelParameters, cfg: SolverConfig) -> None:
    """Raise ValueError if the scheme cannot run this model with these
    solver settings, before any step is taken."""
    if params.gamma < 2.0:
        raise ValueError(f"velocity prediction requires gamma >= 2, got {params.gamma:g}")
    if params.nutrient_mode == NEUMANN and cfg.boundary_mode != NEUMANN_BOX:
        raise ValueError("dynamic nutrient mode requires the fixed-box boundary mode")
    if params.nutrient_mode == QUASISTATIC and cfg.boundary_mode != PADDED:
        raise ValueError("quasi-static nutrient mode requires the padded boundary mode")
    if not isinstance(params.consumption, LinearConsumption):
        raise ValueError("the grid solver supports linear nutrient consumption only")


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
    clamping) and violations (bound breaches, excessive clamped mass)."""
    check_compatible(params, cfg)

    log = RunLog()
    t0 = initial.t
    dt = cfg.dt
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

    state = initial.copy()
    snapshots: dict[float, FieldState] = {}
    for ts in snapshot_steps.get(0, []):
        snapshots[ts] = state.copy()

    nutrient_bound = params.c_B
    if params.nutrient_mode == QUASISTATIC:
        mask0 = state.total_density > cfg.support_threshold
        if mask0.any():
            nutrient_bound = max(params.c_B, float(np.max(state.c[mask0])))

    rows: list[list[float]] = []
    max_cfl = 0.0
    first_cfl_t = None
    nutrient_clamp_events = 0

    def check_bounds(t: float) -> None:
        mask = state.total_density > cfg.support_threshold
        if not mask.any():
            return
        mu = state.n1[mask] / state.total_density[mask]
        if np.min(mu) < -1e-8 or np.max(mu) > 1.0 + 1e-8:
            log.violations.append(
                f"composition fraction left [0, 1] at t={t:.6g} "
                f"(range [{np.min(mu):.3e}, {np.max(mu):.3e}])"
            )
        if params.nutrient_mode == QUASISTATIC:
            worst = float(np.max(state.c[mask])) - nutrient_bound
            if worst > 1e-6:
                log.violations.append(
                    f"nutrient exceeded its maximum-principle bound by {worst:.3e} at t={t:.6g}"
                )

    if n_steps > 0:
        rows.append(_series_row(state, t0, cfg, mu_star, log.clamped_neg_mass))
        check_bounds(t0)

    for j in range(n_steps):
        try:
            state, diag = step(state, params, cfg)
        except SolverError as err:
            err.args = (f"step {j + 1}: {err.args[0]}",)
            raise
        state.t = t0 + (j + 1) * dt
        log.steps += 1
        log.clamped_neg_mass += diag.clamped_mass
        if diag.nutrient_cells_clamped:
            nutrient_clamp_events += diag.nutrient_cells_clamped
        if diag.cfl > max_cfl:
            max_cfl = diag.cfl
            if diag.cfl > 0.5 and first_cfl_t is None:
                first_cfl_t = state.t
        for ts in snapshot_steps.get(j + 1, []):
            snapshots[ts] = state.copy()
        if (j + 1) % steps_per_sample == 0:
            rows.append(_series_row(state, state.t, cfg, mu_star, log.clamped_neg_mass))
            check_bounds(state.t)

    if n_steps > 0 and n_steps % steps_per_sample != 0:
        rows.append(_series_row(state, state.t, cfg, mu_star, log.clamped_neg_mass))
        check_bounds(state.t)

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
        for i in range(g.n_cells):
            fh.write(
                "%.17g %.17g %.17g %.17g\n"
                % (state.n1[i], state.n2[i], state.c[i], u_padded[i])
            )


def read_checkpoint(path) -> tuple[FieldState, float]:
    """Read a checkpoint written by write_checkpoint. Returns (state, gamma)."""
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
    grid = Grid1D(x_min=float(header["x_min"]), dx=float(header["dx"]), n_cells=n_cells)
    state = FieldState(
        grid=grid,
        n1=arr[:, 0],
        n2=arr[:, 1],
        c=arr[:, 2],
        u=arr[:n_cells - 1, 3],
        t=float(header["t"]),
    )
    return state, float(header["gamma"])

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

A run's scalar coefficients are float64 0-d arrays formed once and passed
to each step, and each state carries its occupied components, found
once; README "Performance" explains how a step keeps its per-call cost down.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .diagnostics import (TimeSeries, deviation_norms, read_table, support_components,
                          total_population, write_table)
from .grid import Grid1D, _edge_faces, _FaceScratch, _pressure, numerical_flux
from .kinetics import (QUASISTATIC, ConstantTransitions, ModelParameters, _Finite,
                       equilibrium_roots, eval_flux, eval_growth, eval_transitions)

__all__ = [
    "SolverConfig", "FieldState", "SolverError", "StepDiagnostics", "RunLog", "RunResult",
    "run", "write_checkpoint", "read_checkpoint", "check_checkpoint_gamma",
]


@dataclass(frozen=True)
class SolverConfig(_Finite):
    dt: float
    support_threshold: float = 1e-8
    enlargement_margin: int = 25
    sample_interval: float = 0.1
    _positive = ("dt", "support_threshold", "sample_interval")

    def __post_init__(self):
        super().__post_init__()
        if self.enlargement_margin < 3:
            raise ValueError("enlargement_margin must be at least 3 cells")


class FieldState:
    """Cell-centered fields n1, n2, c plus face velocities u (interior faces,
    length n_cells - 1) at time t, and the total density n = n1 + n2.

    Both densities live in one float64 array, `densities`: n1 is its first
    half and n2 its second, and the attributes n1 and n2 are views of the
    halves. A state is assembled once from its final arrays, kept as given
    with no conversion, copy or check (`read_checkpoint` checks those it
    reads), and nothing is written after it, t included, so states are
    shared, never copied. densities, n1, n2 and n are read-only.

    The state also carries its support: `support(threshold)` is
    `support_components(n > threshold)`, found at most once per state and
    threshold, or given as `support`, (threshold, those components), when
    known: `_settle` hands a state the components its quasi-static nutrient
    solve found, and an enlarged state gets its source's, shifted."""

    densities = property(attrgetter("_densities"))
    n1 = property(attrgetter("_n1"))
    n2 = property(attrgetter("_n2"))
    n = property(attrgetter("_n"))

    def __init__(self, grid: Grid1D, densities: np.ndarray, n: np.ndarray, c: np.ndarray,
                 u: np.ndarray, t: float, support=(None, ())):
        self.grid, self._densities, self._n, self.c, self.u, self.t = grid, densities, n, c, u, t
        self._n1, self._n2 = densities[: grid.n_cells], densities[grid.n_cells :]
        self._support = support

    def support(self, threshold: float) -> tuple[tuple[int, int], ...]:
        """The inclusive (start, end) runs of cells where n > threshold."""
        if self._support[0] != threshold:
            self._support = (threshold, support_components(self._n > threshold))
        return self._support[1]


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
    searched = [os.path.join(path, "linalg") for path in spec.submodule_search_locations]
    extensions = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    for linalg_dir in searched:
        finder = importlib.machinery.FileFinder(linalg_dir, extensions)
        flapack_spec = finder.find_spec("scipy.linalg._flapack")
        if flapack_spec is not None:
            flapack = importlib.util.module_from_spec(flapack_spec)
            sys.modules[flapack_spec.name] = flapack
            flapack_spec.loader.exec_module(flapack)
            return flapack.dgtsv
    raise ImportError(f"scipy's LAPACK wrapper _flapack not found in {', '.join(searched)}")


dgtsv = _load_dgtsv()


class _Coefficients:
    """A run's (params, cfg), step temporaries (so it serves one run at a time)
    and scalar coefficients with cell width dx, which an enlargement keeps, as
    float64 0-d arrays with the bits of their Python float formulas, which numpy
    need not convert per call (`c_B_dx2` and `off_diag`, used as scalars, are floats)."""

    def __init__(self, params: ModelParameters, cfg: SolverConfig, dx: float):
        self.params, self.cfg, dt, g = params, cfg, cfg.dt, params.gamma
        self.dx, self.D, self.a = np.array(dx), np.array(params.D), np.array(params.a)
        self.neg_dx, self.two_dx, self.half_dx = (np.array(v) for v in (-dx, 2.0 * dx, 0.5 * dx))
        self.zero, self.half, self.one = np.array(0.0), np.array(0.5), np.array(1.0)
        self.threshold = np.array(cfg.support_threshold)
        # the pressure law's and the prediction's n^(gamma-1)*gamma/(gamma-1) and n^(gamma-2)
        self.g1, self.p_factor, self.g2 = (np.array(v) for v in (g - 1.0, g / (g - 1.0), g - 2.0))
        self.two_dx2, self.c_B_dx2 = np.array(2.0 / dx**2), params.c_B / dx**2
        self.off_diag = -1.0 / dx**2
        A = g * dt / dx**2
        self.dt, self.inv_dt, self.A, self.neg_A = (np.array(v) for v in (dt, 1.0 / dt, A, -A))
        self.B = np.array(g * dt / dx)
        self.inv_dt_two_dx2 = np.array(1.0 / dt + 2.0 / dx**2)
        self.singular = 1e-14 * (1.0 / dt**2)
        self._scratch = None

    def scratch(self, n_cells: int) -> _Scratch:
        """The step temporaries for n_cells cells; a new size drops the last size's."""
        if self._scratch is None or self._scratch.n_cells != n_cells:
            self._scratch = _Scratch(n_cells)
        return self._scratch


class _Scratch:
    """A step's temporaries on N cells, which no state keeps, and their views,
    formed once: each packed system (`_views`) is a prefix of `system`; the
    zeros of u_pad (the face between the species) and flux (the walls) stay."""

    def __init__(self, N: int):
        self.n_cells, F = N, N - 1
        self.system, self.faces = np.empty(4 * N - 2), _FaceScratch(2 * N)
        self.predict, self.neumann = _views(self.system[: 4 * F - 2], F), _views(self.system, N)
        # the Neumann system's off-diagonals, and (length, off-diagonals, `_views`) of the
        # last quasi-static component's system, formed again only when the length changes
        self.neumann_off, self.component_views = self.system[: 2 * N - 2], (0, None, None)
        self.w, self.ws, self.source2, self.a11, self.a22, self.det = np.empty((6, N))
        self.m, self.w_sum = np.empty((2, F))
        self.w_lo, self.w_hi, self.w_mid = self.w[:-1], self.w[1:], self.w[1:-1]
        self.ws_lo, self.ws_hi = self.ws[:-1], self.ws[1:]
        self.m_lo, self.m_hi = self.m[:-1], self.m[1:]
        self.u_pad, self.flux = np.zeros(2 * N), np.zeros(2 * N + 1)
        self.u_faces, self.u_rows = self.u_pad[:-1], self.u_pad.reshape(2, N)[:, :F]
        self.flux_inner, self.flux_hi, self.flux_lo = self.flux[1:-1], self.flux[1:], self.flux[:-1]
        self.r, self.cross, self.div = np.empty((3, 2 * N))
        self.r1, self.r2 = self.r[:N], self.r[N:]
        self.cross1, self.cross2 = self.cross[:N], self.cross[N:]


class SolverError(RuntimeError):
    """Raised when a step produces non-finite or structurally invalid fields.

    `step` attaches the last usable state, the one it was advancing (after
    any enlargement), and the time t the failed step was advancing to;
    raised outside a step, state is None and t is NaN.
    """

    state: FieldState | None = None
    t: float = math.nan


def _all_finite(x: np.ndarray) -> bool:
    # np.count_nonzero skips the set-up that a ufunc reduction like .all() costs
    return np.count_nonzero(np.isfinite(x)) == x.size


def _views(system: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """`system` and its views lower, upper, diag, rhs: n unknowns' system end to end."""
    return system, system[: n - 1], system[n - 1 : 2 * n - 2], system[2 * n - 2 : -n], system[-n:]


_NON_FINITE_SOLUTION = "tridiagonal solve produced non-finite values"


def _solve_packed(system, lower, upper, diag, rhs, check_solution=True) -> np.ndarray:
    """Solve lower[k-1]*x[k-1] + diag[k]*x[k] + upper[k]*x[k+1] = rhs[k], `_views`
    of `system`, into rhs by LAPACK gtsv. Non-finite entries, then a singular
    matrix or a bad argument, then a non-finite solution (unless the caller,
    passing check_solution=False, tests it itself) raise SolverError."""
    if not _all_finite(system):
        raise SolverError("tridiagonal system has non-finite entries")
    if len(diag) < 2:
        # gtsv rejects a 1x1 system; solve_banded divides, and so do we
        x = rhs / diag
    else:
        x, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)[3:]  # in place: f2py copies nothing
        if info > 0:
            raise SolverError(f"tridiagonal solve failed: singular matrix (zero pivot {info})")
        if info < 0:
            raise SolverError(f"tridiagonal solve failed: bad argument {-info} to gtsv")
    if check_solution and not _all_finite(x):
        raise SolverError(_NON_FINITE_SOLUTION)
    return x


def predict_velocity(state: FieldState, k: _Coefficients, growth: np.ndarray) -> np.ndarray:
    """Implicit prediction of the face velocities for the transport step.

    Solves, on interior faces, the linear system obtained from a backward
    Euler discretization of the pressure-gradient evolution with lagged
    density weights n^(gamma-2), bounded at vacuum as ModelParameters holds
    gamma >= 2. The first and last interior faces are held at zero.
    `growth` is the rate G(c, n) on `state`; u* lives in `k`'s scratch until its next solve.
    u* is not tested for finiteness: `step` reads that test from its CFL number."""
    n, s = state.n, k.scratch(state.grid.n_cells)
    w = np.power(n, k.g2, out=s.w)
    # ws = w * (n1*G + n2*(G - D))
    ws = np.multiply(state.n1, growth, out=s.ws)
    source2 = np.subtract(growth, k.D, out=s.source2)
    source2 *= state.n2
    ws += source2
    ws *= w

    # A = gamma*dt/dx^2, B = gamma*dt/dx
    system, lower, upper, diag, rhs = s.predict
    m = np.add(n[:-1], n[1:], out=s.m)
    m *= k.half
    np.multiply(m, k.A, out=diag)
    diag *= np.add(s.w_lo, s.w_hi, out=s.w_sum)
    diag += k.one
    np.multiply(s.w_mid, k.neg_A, out=lower)
    np.multiply(lower, s.m_hi, out=upper)
    lower *= s.m_lo
    np.subtract(s.ws_hi, s.ws_lo, out=rhs)
    rhs *= k.B
    np.subtract(state.u, rhs, out=rhs)

    diag[0] = diag[-1] = 1.0
    rhs[0] = rhs[-1] = upper[0] = lower[-1] = 0.0
    return _solve_packed(system, lower, upper, diag, rhs, check_solution=False)


def correct_densities(state: FieldState, u_star: np.ndarray, k: _Coefficients,
                      growth: np.ndarray) -> tuple[np.ndarray, float]:
    """Transport both species with the predicted velocity and apply the
    exchange/growth terms semi-implicitly; `growth` is the rate G(c, n) on
    `state`.

    Returns (densities, clamped_mass): the new n1 then n2 in one array, as
    in `FieldState.densities`, and the total mass removed by zeroing
    negative densities."""
    m, s = state.grid.n_cells, k.scratch(state.grid.n_cells)
    K1, K2 = eval_transitions(k.params.transitions, state.c)

    # both species in one pass over the flat n1-then-n2 array: u* on each
    # species' faces, and zero flux through the walls and through the junk
    # face between the two species
    values = state.densities
    left, right = _edge_faces(values, m, k.dx, k.two_dx, k.half_dx, s.faces)
    s.u_rows[...] = u_star
    numerical_flux(left, right, s.u_faces, out=s.flux_inner)
    s.flux[m] = 0.0
    div = np.subtract(s.flux_hi, s.flux_lo, out=s.div)
    div /= k.dx

    # a11 = 1/dt - G + K1, a22 = 1/dt - (G - D) + K2
    a11 = np.subtract(k.inv_dt, growth, out=s.a11)
    a11 += K1
    a22 = np.subtract(growth, k.D, out=s.a22)
    np.subtract(k.inv_dt, a22, out=a22)
    a22 += K2
    det = np.multiply(a11, a22, out=s.det)
    det -= K1 * K2
    size = np.abs(det)
    if size[size.argmin()] < k.singular:  # argmin then an index: cheaper than a ufunc reduction
        raise SolverError("reaction solve is singular (dt too large for the reaction rates)")
    r = np.divide(values, k.dt, out=s.r)
    r -= div
    # new = [a22*r1 + K2*r2, K1*r1 + a11*r2] / det
    new = np.empty(2 * m)
    np.multiply(a22, s.r1, out=new[:m])
    np.multiply(K1, s.r1, out=new[m:])
    np.multiply(K2, s.r2, out=s.cross1)
    np.multiply(a11, s.r2, out=s.cross2)
    new += s.cross
    rows = new.reshape(2, m)
    rows /= det

    clamped = 0.0
    if new[new.argmin()] < 0.0:  # one argmin; the masks only when something clamps
        for row in rows:
            row_neg = row < k.zero
            if np.count_nonzero(row_neg):
                clamped -= state.grid.dx * float(row[row_neg].sum())
                row[row_neg] = 0.0
    return new, clamped


def solve_nutrient_quasistatic(grid: Grid1D, n: np.ndarray, n2: np.ndarray, k: _Coefficients,
                               components: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Solve -c'' + c*n = a*n2 on `grid` for each occupied component, an
    inclusive (start, end) run of `components` (`support_components` of
    n > threshold, found by the caller, who can hand them on to the state),
    with c equal to the ambient level at the first unoccupied cell on
    either side, and ambient everywhere off the occupied region."""
    c, scratch = np.empty(grid.n_cells), k.scratch(grid.n_cells)
    c.fill(k.params.c_B)  # np.full's Python wrapper costs about a microsecond more
    for s, e in components:
        if s == 0 or e == grid.n_cells - 1:
            raise SolverError("occupied region reached the domain edge; "
                              "increase the enlargement margin or the initial padding")
        if scratch.component_views[0] != e - s + 1:
            packed = scratch.system[: 4 * (e - s) + 2]
            scratch.component_views = (e - s + 1, packed[: 2 * (e - s)], _views(packed, e - s + 1))
        _, off, (system, lower, upper, diag, rhs) = scratch.component_views
        off.fill(k.off_diag)  # diag and rhs are written in full below
        np.add(k.two_dx2, n[s : e + 1], out=diag)
        np.multiply(k.a, n2[s : e + 1], out=rhs)
        rhs[0] += k.c_B_dx2
        rhs[-1] += k.c_B_dx2
        c[s : e + 1] = _solve_packed(system, lower, upper, diag, rhs)
    return c


def step_nutrient_neumann(state: FieldState, k: _Coefficients,
                          t_new: float) -> tuple[np.ndarray, int]:
    """One backward Euler step of c_t - c'' + c*n = a*n2 on the whole box,
    with the wall flux lambda(t) prescribed through the boundary rows
    (c[1]-c[0])/dx = lambda and (c[N-2]-c[N-1])/dx = lambda.

    Summing the interior rows telescopes the diffusion term against those
    rows, so each step satisfies
    dx*sum(c_new - c_old)/dt = -2*lambda - dx*sum(c_new*n - a*n2) over the
    interior cells exactly (positive lambda lowers both wall cells below
    their neighbours and carries nutrient out). Negative values are clamped
    to zero; returns (c, number of clamped cells)."""
    scratch = k.scratch(state.grid.n_cells)
    system, lower, upper, diag, rhs = scratch.neumann
    scratch.neumann_off.fill(k.off_diag)  # diag and rhs are written in full below
    np.add(k.inv_dt_two_dx2, state.n, out=diag)
    np.divide(state.c, k.dt, out=rhs)
    rhs += state.n2 * k.a
    lower[-1] = upper[0] = 1.0
    diag[0] = diag[-1] = -1.0
    rhs[0] = rhs[-1] = eval_flux(k.params.lambda_schedule, t_new) * state.grid.dx
    c = _solve_packed(system, lower, upper, diag, rhs).copy()  # the scratch is not kept
    neg = c < k.zero
    clamped = int(np.count_nonzero(neg))
    if clamped:
        c[neg] = 0.0
    return c, clamped


def enlarge_domain_if_needed(state: FieldState, k: _Coefficients) -> tuple[FieldState, bool]:
    """Extend the grid with vacuum cells when the occupied region (where the
    total density exceeds the support threshold) gets within
    `enlargement_margin` cells of an edge, restoring a gap of twice the
    margin on that side. Existing cell values are preserved bit for bit.

    The gaps are those before the first and after the last occupied cell
    of the state's support, which a state built by `step` already carries;
    the enlarged state carries the same components, shifted by the pad."""
    threshold, margin = k.cfg.support_threshold, k.cfg.enlargement_margin
    components = state.support(threshold)
    if not components:
        return state, False
    n_cells = state.grid.n_cells
    left_gap, right_gap = components[0][0], n_cells - 1 - components[-1][1]
    pad_left = 2 * margin - left_gap if left_gap <= margin else 0
    pad_right = 2 * margin - right_gap if right_gap <= margin else 0
    if pad_left == 0 and pad_right == 0:
        return state, False
    dx, pad = state.grid.dx, (pad_left, pad_right)
    grid = Grid1D(state.grid.x_min - pad_left * dx, dx, n_cells + pad_left + pad_right)
    return FieldState(grid, np.pad(state.densities.reshape(2, n_cells), ((0, 0), pad)).ravel(),
                      np.pad(state.n, pad), np.pad(state.c, pad, constant_values=k.params.c_B),
                      np.pad(state.u, pad), state.t,
                      (threshold, tuple((s + pad_left, e + pad_left) for s, e in components))), True


def _settle(grid: Grid1D, densities: np.ndarray, c: np.ndarray | None, t: float,
            k: _Coefficients) -> FieldState:
    """The state at t over `densities` (n1 then n2), with which set-up and
    each step end: n, u = -p(n)' and, in quasi-static mode, c solved on the
    support it finds, which the state carries (else c is the one given)."""
    n2 = densities[grid.n_cells :]
    n = densities[: grid.n_cells] + n2
    support = (None, ())
    if k.params.nutrient_mode == QUASISTATIC:
        support = (k.cfg.support_threshold, support_components(n > k.threshold))
        c = solve_nutrient_quasistatic(grid, n, n2, k, support[1])
    p = _pressure(n, k.g1, k.p_factor)  # unchecked: see pressure_from_density
    u = p[1:] - p[:-1]
    u /= k.neg_dx  # -(a/b) == a/(-b) bit for bit
    return FieldState(grid, densities, n, c, u, t, support)


class StepDiagnostics(NamedTuple):
    """A step's CFL number max|u*| dt/dx, the density mass its clamp removed, its
    count of nutrient cells clamped to zero, and whether it enlarged the grid."""

    cfl: float
    clamped_mass: float
    nutrient_cells_clamped: int
    enlarged: bool


def step(state: FieldState, k: _Coefficients, t_new: float) -> tuple[FieldState, StepDiagnostics]:
    """Advance one time step of the run's bundle `k` to t_new, which the caller chooses:
    the new state at t_new, built once and sharing no array with `state` or with `k`'s
    scratch, and per-step diagnostics."""
    params, dt = k.params, k.cfg.dt
    enlarged = False
    if params.nutrient_mode == QUASISTATIC:
        state, enlarged = enlarge_domain_if_needed(state, k)
    try:
        growth = eval_growth(params.growth, state.c, state.n)
        u_star = predict_velocity(state, k, growth)
        speed = np.abs(u_star)
        u_max = float(speed[speed.argmax()])  # NaN or inf exactly when u* is not finite
        if not math.isfinite(u_max):
            raise SolverError(_NON_FINITE_SOLUTION)
        cfl = u_max * dt / state.grid.dx
        densities, clamped = correct_densities(state, u_star, k, growth)
        c, nutrient_clamped = None, 0
        if params.nutrient_mode != QUASISTATIC:
            c, nutrient_clamped = step_nutrient_neumann(state, k, t_new)
        new = _settle(state.grid, densities, c, t_new, k)
        # c passed _solve_packed's test; a bad n1 or n2 reaches u through n and p
        if not _all_finite(new.u):
            name = next(f for f in ("n1", "n2", "u") if not _all_finite(getattr(new, f)))
            raise SolverError(f"non-finite values in {name} at t={t_new:.6g}")
    except SolverError as err:
        err.state, err.t = state, t_new
        raise
    return new, StepDiagnostics(cfl, clamped, nutrient_clamped, enlarged)


@dataclass
class RunLog:  # the run record, which manifest.json holds field by field in this order
    steps: int = 0
    warnings: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    clamped_neg_mass: float = 0.0


@dataclass
class RunResult:
    series: TimeSeries
    final_state: FieldState
    snapshots: dict[float, FieldState]
    log: RunLog


def _sample(state: FieldState, threshold: float, mu_star: float | None,
            c_ceiling: float | None, log: RunLog) -> list[float]:
    """One time-series row (the SERIES_CHANNELS) at the state's time t; bound breaches
    are appended to log.violations.

    One pass over the state's support: mu = n1/n and c on it are read once, as slices of
    a single run or gathered over several, and mu's range [lo, hi] (by argmin and argmax)
    serves the [0, 1] check and the sup deviation: as rounding is monotone and symmetric,
    max(hi - mu*, mu* - lo) is max |mu - mu*| bit for bit. The deviation norms need mu_star,
    the nutrient check (c <= c_ceiling + 1e-6 on the support) c_ceiling; each is skipped
    when None. An empty support gives radius 0, NaN norms and c_max, and no checks."""
    t = state.t
    mass_total, mass_auto = total_population(state)
    components = state.support(threshold)
    if not components:
        return [t, 0.0, mass_total, mass_auto, *(math.nan,) * 5, log.clamped_neg_mass]
    # cell x_min + dx*i increases, so the largest |x| lies at the first or last support cell
    x_min, dx = state.grid.x_min, state.grid.dx
    radius = max(abs(x_min + dx * components[0][0]), abs(x_min + dx * components[-1][1]))
    cells = (slice(components[0][0], components[0][1] + 1) if len(components) == 1
             else np.concatenate([np.arange(s, e + 1) for s, e in components]))
    mu = state.n1[cells] / state.n[cells]
    c_max = float(np.maximum.reduce(state.c[cells]))
    lo, hi = mu[mu.argmin()], mu[mu.argmax()]
    norms = (math.nan,) * 4
    if mu_star is not None:
        norms = deviation_norms(mu - mu_star, dx, max(hi - mu_star, mu_star - lo))
    if lo < -1e-8 or hi > 1.0 + 1e-8:
        log.violations.append(f"composition fraction left [0, 1] at t={t:.6g} "
                              f"(range [{lo:.3e}, {hi:.3e}])")
    if c_ceiling is not None and not c_max - c_ceiling <= 1e-6:  # a NaN is a breach
        log.violations.append(f"nutrient exceeded its maximum-principle bound by "
                              f"{c_max - c_ceiling:.3e} at t={t:.6g}")
    return [t, radius, mass_total, mass_auto, *norms, c_max, log.clamped_neg_mass]


def _clock(t0: float, cfg: SolverConfig, t_end: float, snapshot_times: tuple[float, ...],
           warnings: list[str]) -> tuple[int, int, dict[int, list[float]]]:
    """A run's steps t0 + j*dt as (n_steps, steps per sample, {j: its snapshot times}), the
    first two rounded to whole steps. Warns of a t_end or sample_interval off the steps (by
    more than 1e-9 of t_end) and of a snapshot time outside the run. Raises ValueError if
    t_end precedes t0, or if a snapshot time in the run is off the steps (none is snapped)."""
    dt = cfg.dt
    tol = 1e-9 * max(1.0, abs(t_end))
    if t_end < t0 - tol:
        raise ValueError(f"t_end {t_end:g} precedes the initial time {t0:g} of the state")
    n_steps = max(0, int(round((t_end - t0) / dt)))
    if abs(t0 + n_steps * dt - t_end) > tol:
        warnings.append(f"t_end {t_end:g} is not a whole number of steps; "
                        f"stopping at {t0 + n_steps * dt:g}")
    steps_per_sample = max(1, int(round(cfg.sample_interval / dt)))
    if abs(steps_per_sample * dt - cfg.sample_interval) > tol:
        warnings.append(f"sample_interval {cfg.sample_interval:g} is not a whole number "
                        f"of steps; sampling every {steps_per_sample * dt:g}")
    snapshot_steps: dict[int, list[float]] = {}
    for ts in snapshot_times:
        j = int(round((ts - t0) / dt))
        if not 0 <= j <= n_steps:
            warnings.append(f"no snapshot at t={ts:g}: outside this run's span "
                            f"[{t0:g}, {t0 + n_steps * dt:g}]")
        elif abs(t0 + j * dt - ts) > tol:
            below = t0 + math.floor((ts - t0) / dt) * dt
            raise ValueError(f"no step ends at the snapshot time {ts:g} (steps of {dt:g} from "
                             f"t={t0:g}); the nearest steps end at {below:g} and {below + dt:g}")
        else:
            snapshot_steps.setdefault(j, []).append(float(ts))
    return n_steps, steps_per_sample, snapshot_steps


def run(initial: FieldState, params: ModelParameters, cfg: SolverConfig, t_end: float,
        snapshot_times: tuple[float, ...] = ()) -> RunResult:
    """March the scheme from the initial state to t_end on `_clock`'s steps: step j steps
    to t0 + j*dt, the time of state j, which is sampled every `sample_interval` in steps
    and last (a run of no steps samples nothing) and is the snapshot of each requested time
    at its step. Records warnings (`_clock`'s, CFL excursions, nutrient clamping) and
    violations (bound breaches, excessive clamped mass); raises ValueError as `_clock`."""
    log = RunLog()
    t0 = initial.t
    n_steps, per_sample, snapshot_steps = _clock(t0, cfg, t_end, snapshot_times, log.warnings)

    mu_star = None
    tr = params.transitions
    if isinstance(tr, ConstantTransitions):
        with contextlib.suppress(ValueError):  # a rate is 0 or the roots leave the float range
            mu_star = equilibrium_roots(params.D, tr.K1, tr.K2).mu_star

    # states are shared, not copied: nothing writes into a state once built
    state, snapshots = initial, {}

    # in quasi-static mode the nutrient keeps below the maximum-principle
    # ceiling max(c_B, c0), c0 the initial nutrient maximum on the support
    c_ceiling = None
    if params.nutrient_mode == QUASISTATIC:
        c_ceiling = max([params.c_B, *(float(state.c[s : e + 1].max())
                                       for s, e in state.support(cfg.support_threshold))])

    k = _Coefficients(params, cfg, initial.grid.dx)  # an enlargement keeps dx
    rows: list[list[float]] = []
    max_cfl = 0.0
    first_cfl_t = None
    nutrient_clamp_events = 0
    for j in range(n_steps + 1):
        if j:
            try:
                state, diag = step(state, k, t0 + j * cfg.dt)
            except SolverError as err:
                err.args = (f"step {j}: {err.args[0]}",)
                raise
            log.steps += 1
            log.clamped_neg_mass += diag.clamped_mass
            nutrient_clamp_events += diag.nutrient_cells_clamped
            if diag.cfl > max_cfl:
                max_cfl = diag.cfl
                if diag.cfl > 0.5 and first_cfl_t is None:
                    first_cfl_t = state.t
        for ts in snapshot_steps.get(j, ()):
            snapshots[ts] = state
        if n_steps and (j % per_sample == 0 or j == n_steps):
            rows.append(_sample(state, cfg.support_threshold, mu_star, c_ceiling, log))

    if max_cfl > 0.5:
        log.warnings.append(f"transport CFL number exceeded 0.5 (max {max_cfl:.3f}, "
                            f"first at t={first_cfl_t:.6g})")
    if nutrient_clamp_events:
        log.warnings.append(f"nutrient clamped to zero in {nutrient_clamp_events} cell-updates")
    total_mass = total_population(state)[0]
    if total_mass > 0 and log.clamped_neg_mass > 1e-6 * total_mass:
        log.violations.append(f"clamped negative mass {log.clamped_neg_mass:.3e} exceeds "
                              f"1e-6 of the final total mass {total_mass:.6g}")

    series = TimeSeries(np.array(rows, dtype=float))
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
        fh.write("x_min = %.17g\ndx = %.17g\nn_cells = %d\nt = %.17g\ngamma = %.17g\n"
                 % (g.x_min, g.dx, g.n_cells, state.t, gamma))
        write_table(fh, np.column_stack((state.n1, state.n2, state.c, u_padded)), " ")


def read_checkpoint(path) -> tuple[FieldState, float]:
    """Read a checkpoint written by write_checkpoint. Returns (state, gamma).

    Raises ValueError, naming the key or the column and row, for a missing or
    repeated header key, an n_cells not written as digits, a header value
    that is not finite, a data row that is not 4 numbers, a row count that
    does not match, a value that is not finite, and a negative n1, n2 or c."""
    header: dict[str, str] = {}
    data_lines: list[str] = []
    with open(path) as fh:
        for line in map(str.strip, fh):  # blank and `#` lines are skipped
            if "=" in line and not line.startswith("#"):
                key, _, value = (part.strip() for part in line.partition("="))
                if key in header:
                    raise ValueError(f"checkpoint repeats header key {key!r}")
                header[key] = value
            elif line and not line.startswith("#"):
                data_lines.append(line)
    try:
        arr = read_table(data_lines, None, 4)
    except ValueError as err:
        raise ValueError(f"checkpoint {err}") from None
    for key in ("x_min", "dx", "n_cells", "t", "gamma"):
        if key not in header:
            raise ValueError(f"checkpoint is missing header key {key!r}")
    if not header["n_cells"].isdecimal():
        raise ValueError(f"checkpoint header n_cells = {header['n_cells']} is not a cell count")
    n_cells = int(header["n_cells"])
    if len(arr) != n_cells:
        raise ValueError(f"checkpoint has {len(arr)} data rows "
                         f"but header says {n_cells} cells")
    for key in ("x_min", "dx", "t", "gamma"):
        with contextlib.suppress(ValueError):  # a value that is not a number is named below
            if math.isfinite(float(header[key])):
                continue
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
    n1, n2 = arr[:, 0], arr[:, 1]
    state = FieldState(grid, np.concatenate((n1, n2)), n1 + n2, arr[:, 2], arr[:n_cells - 1, 3],
                       float(header["t"]))
    return state, float(header["gamma"])


def check_checkpoint_gamma(gamma: float, params: ModelParameters) -> None:
    """Raise ValueError unless a checkpoint's gamma is the model's (to within 1e-12)."""
    if abs(gamma - params.gamma) > 1e-12:
        raise ValueError(f"checkpoint was written with gamma={gamma:g}, "
                         f"model has gamma={params.gamma:g}")

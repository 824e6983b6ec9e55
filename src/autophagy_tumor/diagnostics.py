"""Support detection, composition-fraction norms, and theoretical bounds.

All diagnostics operate on the cell-centered fields of a solver state. The
occupied region ("support") is wherever the total density exceeds a small
threshold; composition diagnostics are only defined there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinetics import (
    ConstantTransitions,
    ModelParameters,
    ReactionEquilibrium,
    eval_growth,
    Logistic,
)

__all__ = [
    "TimeSeries",
    "SERIES_CHANNELS",
    "support_components",
    "support_radius",
    "sup_deviation",
    "l2n_deviation",
    "uniform_bound_at",
    "l2n_condition_and_rate",
    "nutrient_bound_check",
    "total_population",
    "write_table",
]


def support_components(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Inclusive (start, end) index runs of a 1D support mask, left to right."""
    padded = np.zeros(mask.size + 2, dtype=bool)
    padded[1:-1] = mask
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return tuple(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def support_radius(grid, mask: np.ndarray) -> float:
    """Largest |x| over the cells of a non-empty support mask."""
    return float(np.abs(grid.cell_x[mask]).max())


def _support_norm(norm, mu: np.ndarray, mu_star: float) -> float:
    """norm(mu - mu*), `mu` the fraction on the support cells. Raises
    ValueError when the support is empty."""
    if not mu.size:
        raise ValueError("empty support: fraction deviation undefined")
    return norm(mu - mu_star)


def sup_deviation(mu: np.ndarray, mu_star: float) -> float:
    """max |mu - mu*| over the support; errors on empty support. `mu` is the
    fraction on the support."""
    return _support_norm(lambda dev: float(np.abs(dev).max()), mu, mu_star)


def l2n_deviation(mu: np.ndarray, mu_star: float, dx: float, n: int) -> float:
    """(dx * sum over support of (mu - mu*)^(2n))^(1/(2n)); `mu` as for
    `sup_deviation`."""
    if n < 1:
        raise ValueError(f"norm index n must be a positive integer, got {n}")
    return _support_norm(
        lambda dev: float((dx * (dev ** (2 * n)).sum()) ** (1.0 / (2 * n))), mu, mu_star
    )


def uniform_bound_at(t, initial_sup_dev: float, eq: ReactionEquilibrium):
    """Theoretical sup-deviation envelope A * exp(-decay_rate * t) * dev(0)."""
    return eq.uniform_A * initial_sup_dev * np.exp(-eq.decay_rate * np.asarray(t, dtype=float))


def l2n_condition_and_rate(
    n: int, params: ModelParameters, eq: ReactionEquilibrium, c0: float
) -> tuple[bool, float]:
    """Norm-decay condition and rate for the L^(2n) composition deviation.

    Returns (condition, C) where the condition is
    G(max(c_B, c0)) - D < 2n*K2 and

        C = (-nu*)/(1 - nu*) * K1 + (1/(2n)) * (2n*K2 - G(max(c_B, c0)) + D)

    is the decay rate of the norm when the condition holds. Only defined for
    constant switch rates and nutrient-only growth laws.
    """
    if n < 1:
        raise ValueError(f"norm index n must be a positive integer, got {n}")
    if not isinstance(params.transitions, ConstantTransitions):
        raise ValueError("norm-decay rate is not applicable: switch rates are not constant")
    if isinstance(params.growth, Logistic):
        raise ValueError("norm-decay rate is not applicable: growth depends on crowding")
    K1, K2 = params.transitions.K1, params.transitions.K2
    G_top = eval_growth(params.growth, max(params.c_B, c0))
    condition = (G_top - params.D) < 2 * n * K2
    C = (-eq.nu_star) / (1.0 - eq.nu_star) * K1 + (2 * n * K2 - G_top + params.D) / (2 * n)
    return bool(condition), float(C)


def nutrient_bound_check(
    c: np.ndarray, c_B: float, c0: float, support_mask: np.ndarray, tol: float = 1e-6
) -> tuple[bool, float]:
    """Check c <= max(c_B, c0) + tol on the support.

    Returns (ok, worst overshoot clipped at 0).
    """
    if not support_mask.any():
        return True, 0.0
    bound = max(c_B, c0)
    worst = float(c[support_mask].max() - bound)
    return worst <= tol, max(worst, 0.0)


def total_population(state) -> tuple[float, float]:
    """(total mass, autophagic mass) over the whole grid."""
    dx = state.grid.dx
    return float(dx * state.n.sum()), float(dx * state.n2.sum())


# ---------------------------------------------------------------------------
# sampled time series (written by the solver loop, serialized by scenarios)

SERIES_CHANNELS = (
    "t",
    "radius",
    "mass_total",
    "mass_autophagic",
    "sup_dev",
    "l2_dev",
    "l4_dev",
    "l8_dev",
    "c_max",
    "neg_mass_clamped",
)


@dataclass
class TimeSeries:
    channels: tuple[str, ...]
    data: np.ndarray  # shape (n_samples, n_channels)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float).reshape(-1, len(self.channels))

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.channels.index(name)]

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.channels) + "\n")
            write_table(fh, self.data, ",")


# rows formatted per `%` in write_table: large enough that the per-call
# cost vanishes, small enough that the Python floats of a block stay a few
# tens of kB
_TABLE_BLOCK_ROWS = 256


def write_table(fh, table: np.ndarray, sep: str) -> None:
    """Write a 2-D float array as text: one line per row, `sep` between
    columns, every value as %.17g (an exact float64 round trip).

    Each block of _TABLE_BLOCK_ROWS rows is formatted by one `%` instead of
    one per value; the bytes are those of the per-value loop.
    """
    n_rows, n_cols = table.shape
    line = sep.join(("%.17g",) * n_cols) + "\n"
    for start in range(0, n_rows, _TABLE_BLOCK_ROWS):
        block = table[start : start + _TABLE_BLOCK_ROWS]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))

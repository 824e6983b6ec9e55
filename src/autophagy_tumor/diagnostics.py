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
    "TimeSeries", "SERIES_CHANNELS", "support_components", "deviation_norms", "uniform_bound_at",
    "l2n_condition_and_rate", "total_population", "write_table", "read_table",
]


def support_components(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Inclusive (start, end) index runs of a 1D support mask, left to right:
    one `nonzero` call finds the occupied cells, and when they form one run
    (last - first + 1 cells) it is returned at once; otherwise that index
    array is split where consecutive indices jump."""
    cells = mask.nonzero()[0]
    if not cells.size:
        return ()
    first, last = int(cells[0]), int(cells[-1])
    if last - first + 1 == cells.size:
        return ((first, last),)
    jumps = np.flatnonzero(cells[1:] - cells[:-1] != 1)
    return tuple(zip([first, *cells[jumps + 1].tolist()], [*cells[jumps].tolist(), last]))


def deviation_norms(dev: np.ndarray, dx: float,
                    sup: float | None = None) -> tuple[float, float, float, float]:
    """(sup, L2, L4, L8) of the fraction deviation dev = mu - mu* on the
    support cells: max |dev| (or `sup`, when the caller has it) and
    (dx * sum dev^(2n))^(1/(2n)) for n = 1, 2, 4.

    The even powers are taken by squaring (dev^2, its square, and that
    square's square), so dev and -dev give bitwise equal norms; the three
    rows of one buffer are summed by one reduction, each row's sum with the
    bits of its own `.sum()`. Raises ValueError when the support is empty."""
    if not dev.size:
        raise ValueError("empty support: fraction deviation undefined")
    powers = np.empty((3, dev.size))
    d2, d4, d8 = powers
    np.multiply(dev, dev, out=d2)
    np.multiply(d2, d2, out=d4)
    np.multiply(d4, d4, out=d8)
    s2, s4, s8 = np.add.reduce(powers, axis=1).tolist()  # Python floats: the same bits, cheaper
    if sup is None:
        sup = np.maximum.reduce(np.abs(dev))
    return float(sup), (dx * s2) ** 0.5, (dx * s4) ** 0.25, (dx * s8) ** 0.125


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


def total_population(state) -> tuple[float, float]:
    """(total mass, autophagic mass) over the whole grid."""
    dx = state.grid.dx
    return dx * float(np.add.reduce(state.n)), dx * float(np.add.reduce(state.n2))


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
    data: np.ndarray  # shape (n_samples, len(SERIES_CHANNELS))
    channels = SERIES_CHANNELS  # not a field: every series has these channels

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float).reshape(-1, len(self.channels))

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.channels.index(name)]

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


def read_table(lines, sep: str | None, n_cols: int) -> np.ndarray:
    """The (len(lines), n_cols) float array of text rows split on `sep` (None:
    runs of whitespace), each value read as `float()` reads it, by one
    `np.array`; when that refuses, ValueError names the first bad row."""
    rows = [line.strip().split(sep) for line in lines]
    try:
        return np.array(rows, dtype=float).reshape(len(rows), n_cols)
    except ValueError:
        for k, (line, row) in enumerate(zip(lines, rows), start=1):
            try:
                np.array(row, dtype=float).reshape(n_cols)
            except ValueError:
                raise ValueError(f"data row {k} is not {n_cols} numbers: {line.strip()!r}") from None
        raise

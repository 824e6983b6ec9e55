"""Host-speed calibration.

The benchmark host is a shared virtual machine whose speed drifts by tens
of percent within seconds, for identical work (CPU time moves with wall
time, so the slowdown is not time spent waiting). A fixed kernel with the
program's kind of work (small numpy operations, a banded solve and
Python-level dispatch) tracks that drift closely. `HostSpeed` times short
bursts of it on a timer signal, on the measured thread, while the measured
code runs; every reported time is scaled by the resulting `speed`, so it
reads as seconds on a host where ITERATIONS kernel calls take REFERENCE_S
of CPU time. The kernel is part of the benchmark and must not change, or
baselines have to be remeasured.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

REFERENCE_S = 0.2
ITERATIONS = 3000
N = 256

_x = 1.0 + 0.5 * np.cos(np.linspace(0.0, 6.0, N))
_ab = np.vstack([np.full(N, -1.0), np.full(N, 4.0), np.full(N, -1.0)])


def _kernel(x: np.ndarray) -> float:
    d = np.diff(x) / 0.04
    s = np.where((d[:-1] > 0) & (d[1:] > 0), np.minimum(d[:-1], d[1:]), 0.0)
    f = 0.5 * ((x[1:-1] + x[2:]) * s - np.abs(s) * (x[2:] - x[1:-1]))
    y = solve_banded((1, 1), _ab, x)
    acc = 0.0
    for v in (1.0, 2.0, 3.0, 4.0):
        acc += v * 0.5 + (v % 3.0)
    return float(np.sum(f) + y[3] + acc)


def _burst(iterations: int) -> float:
    """CPU seconds of this thread for `iterations` kernel calls."""
    start = time.thread_time()
    for _ in range(iterations):
        _kernel(_x)
    return time.thread_time() - start


def speed_now() -> float:
    """The factor that scales seconds measured now to the reference host."""
    return REFERENCE_S / _burst(ITERATIONS)


class HostSpeed:
    """While active, runs a burst of BURST kernel calls every PERIOD_S of
    wall time from a SIGALRM handler, in this process and in every process
    forked from it (sweep workers). `clock()` is perf_counter minus the time
    spent in bursts, so intervals read from it exclude them."""

    PERIOD_S = 0.1
    BURST = 40

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.active = False
        self._previous = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # interval timers are not inherited; a worker samples its own core
        self.samples.clear()
        self.spent = 0.0
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(_burst(self.BURST))
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @classmethod
    def speed_of(cls, samples: list[float]) -> float:
        """The speed factor from burst samples (taken now if there are none)."""
        if not samples:
            return speed_now()
        return REFERENCE_S * cls.BURST / ITERATIONS / statistics.mean(samples)

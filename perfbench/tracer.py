"""Spans around calls into the program's public functions.

The program is measured from outside: `install` replaces each probed
function with a wrapper in every `autophagy_tumor` module namespace that
holds it (methods are replaced on their class). The modules look these
names up as globals at call time, so the wrapper sees every call. Each call
becomes a span (name, start, end, parent) kept in memory; forked sweep
workers write theirs to a spill file after each member, because they exit
without running exit handlers. Nothing in the program is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (span name, module, attribute); "Class.method" probes a method.
PROBES = (
    ("kinetics.eval_growth", "kinetics", "eval_growth"),
    ("kinetics.eval_transitions", "kinetics", "eval_transitions"),
    ("kinetics.eval_flux", "kinetics", "eval_flux"),
    ("grid.pressure_from_density", "grid", "pressure_from_density"),
    ("grid.limited_slope", "grid", "limited_slope"),
    ("grid.numerical_flux", "grid", "numerical_flux"),
    ("solver.tridiag", "solver", "TridiagonalSystem.solve"),
    ("solver.predict_velocity", "solver", "predict_velocity"),
    ("solver.correct_densities", "solver", "correct_densities"),
    ("solver.nutrient_quasistatic", "solver", "solve_nutrient_quasistatic"),
    ("solver.nutrient_neumann", "solver", "step_nutrient_neumann"),
    ("solver.enlarge", "solver", "enlarge_domain_if_needed"),
    ("solver.step", "solver", "step"),
    ("solver.run", "solver", "run"),
    ("solver.write_checkpoint", "solver", "write_checkpoint"),
    ("solver.read_checkpoint", "solver", "read_checkpoint"),
    ("diagnostics.support_info", "diagnostics", "support_info"),
    ("diagnostics.total_population", "diagnostics", "total_population"),
    ("diagnostics.to_csv", "diagnostics", "TimeSeries.to_csv"),
    ("scenarios.load_config", "scenarios", "load_config"),
    ("scenarios.build_initial_state", "scenarios", "build_initial_state"),
    ("scenarios.write_profile_csv", "scenarios", "write_profile_csv"),
    ("scenarios.run_scenario", "scenarios", "run_scenario"),
    ("analytic.analytic_pressure", "analytic", "analytic_pressure"),
    ("analytic.integrate_radius", "analytic", "integrate_radius"),
)

# The untimed runs keep only these: the run interval, the per-step grid
# size, and the per-member hand-off out of sweep workers.
COUNT_PROBES = ("solver.run", "solver.step", "scenarios.run_scenario")

PACKAGE = "autophagy_tumor"


class Recorder:
    """In-memory span store for one process (reset in each forked child)."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = {"steps": 0, "cell_steps": 0, "cells_final": 0, "enlarge_events": 0}
        self.missing: list[str] = []
        self.in_worker = False
        self.clock = perf_counter
        self.host = None  # a calibrate.HostSpeed whose samples travel with the spans
        self._spent_reported = 0.0
        self._spills = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # a worker reports only its own work; what it inherited is the parent's
        self.spans.clear()
        self.stack.clear()
        for key in self.counters:
            self.counters[key] = 0
        self.in_worker = True
        self._spills = 0
        self._spent_reported = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx: int, nid: int, parent: int, start: float, end: float) -> None:
        self.stack.pop()
        self.spans[idx] = (nid, start, end, parent)
        if self.in_worker and not self.stack:
            self.spill()

    @contextmanager
    def span(self, name: str):
        nid = self.name_id(name)
        idx, parent = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(idx, nid, parent, start, self.clock())

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            idx, parent = self._open()
            start = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, nid, parent, start, self.clock())
            if observe is not None:
                observe(out)
            return out

        return probe

    def _observe_step(self, out) -> None:
        n = out[0].grid.n_cells
        c = self.counters
        c["steps"] += 1
        c["cell_steps"] += n
        c["cells_final"] = max(c["cells_final"], n)

    def _observe_enlarge(self, out) -> None:
        if out[1]:
            self.counters["enlarge_events"] += 1

    def dump(self) -> dict:
        host = self.host
        return {
            "pid": os.getpid(),
            "names": list(self.names),
            "spans": list(self.spans),
            "counters": dict(self.counters),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "host_samples": list(host.samples) if host else [],
            "host_spent": host.spent - self._spent_reported if host else 0.0,
        }

    def spill(self) -> None:
        self._spills += 1
        path = self.spill_dir / f"spill-{os.getpid()}-{self._spills}.json"
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)
        self.spans.clear()
        for key in self.counters:
            self.counters[key] = 0
        if self.host:
            # spent stays: this process's clock must not jump
            self.host.samples.clear()
            self._spent_reported = self.host.spent


def install(rec: Recorder, only=None) -> None:
    """Wrap the probed functions (all of PROBES, or the names in `only`).

    A probe whose target no longer exists is listed in `rec.missing`, and
    its metrics read zero."""
    observers = {"solver.step": rec._observe_step, "solver.enlarge": rec._observe_enlarge}
    modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
    for name, mod_name, attr in PROBES:
        if only is not None and name not in only:
            continue
        try:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            rec.missing.append(name)
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                rec.missing.append(name)
                continue
            setattr(cls, meth, rec.wrap(name, vars(cls)[meth], observers.get(name)))
            continue
        orig = getattr(module, attr, None)
        if orig is None:
            rec.missing.append(name)
            continue
        wrapped = rec.wrap(name, orig, observers.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its child spans (children
    never overlap: a process records one call stack)."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(dumps: list[dict]) -> dict:
    """Per span name: [calls, total seconds, self seconds], over all processes."""
    out: dict[str, list] = {}
    for d in dumps:
        names, spans = d["names"], d["spans"]
        for (nid, start, end, _), own in zip(spans, self_times(spans)):
            row = out.setdefault(names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
    return out

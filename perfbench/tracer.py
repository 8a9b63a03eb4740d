"""Outside-in per-layer trace of tblsim.

The tracer wraps the public functions at each module boundary of the
program, from the benchmark's side: it replaces the function on its
defining module or class, and every ``tblsim`` module-level name bound to
the same object (``from .engine import simulate`` and friends), with a
wrapper that times the call. Spans are folded into per-name totals as they
close, so memory stays flat however many calls a pass makes: call count,
inclusive seconds, and self seconds (the span minus the spans of the
wrapped calls it made). A few boundaries also add work counts taken from
their arguments and results.

Simulation is deterministic, so for one fixed pass every count repeats
exactly; the times do not. A boundary whose module or attribute no longer
exists is reported as absent (``None``), never as 0.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

#: (metric prefix, defining module, attribute on it, dotted for a method);
#: the comment names the end-to-end metric, and the workloads, that a change
#: to the layer should move
BOUNDARIES = (
    ("netlist.parse", "tblsim.netlist", "parse"),  # setup_s, all
    ("netlist.expand", "tblsim.netlist", "expand"),  # setup_s, all; fanout_s
    ("elements.validate", "tblsim.elements", "PneumaticNetwork.validate"),  # op_s logic
    ("elements.with_pins", "tblsim.elements", "PneumaticNetwork.with_pins"),  # op_s logic
    ("elements.balloon_pressure", "tblsim.elements", "balloon_pressure"),  # op_s ring101, osc3
    ("elements.valve_step", "tblsim.elements", "valve_step"),  # op_s logic
    ("engine.simulate", "tblsim.engine", "simulate"),  # op_s osc3, ring101, calibrate
    ("engine.dc_operating_point", "tblsim.engine", "dc_operating_point"),  # op_s logic
    ("engine.solve_pressures", "tblsim.engine", "solve_pressures"),  # fanout_s
    ("engine.extract_frequency", "tblsim.engine", "extract_frequency"),  # op_s osc3, calibrate
    ("engine.calibrate", "tblsim.engine", "calibrate_oscillator"),  # op_s calibrate
    ("linalg.lu_factor", "scipy.linalg", "lu_factor"),  # op_s ring101
    ("linalg.lu_solve", "scipy.linalg", "lu_solve"),  # op_s osc3, ring101
    ("linalg.dense_solve", "numpy.linalg", "solve"),  # op_s logic
    ("linalg.spsolve", "scipy.sparse.linalg", "spsolve"),  # fanout_s
    ("verify.truth_table", "tblsim.verify", "truth_table"),  # op_s logic
    ("verify.check_against_boolean", "tblsim.verify", "check_against_boolean"),  # op_s logic
    ("verify.fanout_limit", "tblsim.verify", "fanout_limit"),  # fanout_s
    ("cli.main", "tblsim.cli", "main"),  # op_s osc3, ring101 (self time)
    ("cli.to_csv", "tblsim.engine", "Trace.to_csv"),  # op_s ring101
)

#: work counts beyond calls: (metric, unit, owning boundary)
EXTRA_COUNTS = (
    ("engine.simulate.events", "count", "engine.simulate"),
    ("engine.simulate.samples", "count", "engine.simulate"),
    ("engine.simulate.sim_s", "s", "engine.simulate"),
    ("engine.simulate.us_per_event", "us", "engine.simulate"),
    ("engine.calibrate.sims", "count", "engine.calibrate"),
    ("engine.calibrate.sim_s", "s", "engine.calibrate"),
    ("engine.calibrate.useful_ratio", "ratio", "engine.calibrate"),
    ("verify.truth_table.rows", "count", "verify.truth_table"),
    ("verify.fanout_limit.solves", "count", "verify.fanout_limit"),
    ("cli.to_csv.bytes", "bytes", "cli.to_csv"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for prefix, _module, _attr in BOUNDARIES:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.s"] = "s"
        units[f"{prefix}.self_s"] = "s"
    for name, unit, _owner in EXTRA_COUNTS:
        units[name] = unit
    return units


def _sim_t_end(args, kwargs) -> float:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
    return float(cfg.t_end)


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.metrics()`` after."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # prefix -> [calls, s, self_s]
        self.counts: dict[str, float] = {}
        self.absent: set[str] = set()
        self._stack: list[list[float]] = []  # child seconds per open span
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- hooks: extra counts, run after a wrapped call returns normally ------

    def _add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _after(self, prefix: str, args, kwargs, result) -> None:
        if prefix == "engine.simulate":
            t_end = _sim_t_end(args, kwargs)
            self._add("engine.simulate.events", len(result.events))
            self._add("engine.simulate.samples", len(result.times))
            self._add("engine.simulate.sim_s", t_end)
            if self._active.get("engine.calibrate"):
                self._add("engine.calibrate.sims", 1)
                self._add("engine.calibrate.sim_s", t_end)
        elif prefix == "engine.extract_frequency":
            if self._active.get("engine.calibrate"):
                self._add("engine.calibrate.useful", 1)
        elif prefix == "engine.solve_pressures":
            if self._active.get("verify.fanout_limit"):
                self._add("verify.fanout_limit.solves", 1)
        elif prefix == "verify.truth_table":
            self._add("verify.truth_table.rows", len(result.rows))
        elif prefix == "cli.to_csv":
            self._add("cli.to_csv.bytes", len(result))

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, prefix: str, fn):
        span = self.spans.setdefault(prefix, [0, 0.0, 0.0])
        stack, active, after = self._stack, self._active, self._after

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            active[prefix] = active.get(prefix, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active[prefix] -= 1
                stack.pop()
                span[0] += 1
                span[1] += dt
                span[2] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
            after(prefix, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for prefix, module_name, path in BOUNDARIES:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.add(prefix)
                continue
            wrapper = self._wrap(prefix, original)
            self._patch(owner, attr, wrapper)
            if outer:
                continue  # a method: patching the class covers every caller
            for name, module in list(sys.modules.items()):
                if module is owner or not (name == "tblsim" or name.startswith("tblsim.")):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, float | int | None]:
        """Every per-layer metric; ``None`` marks an absent boundary."""
        out: dict[str, float | int | None] = {}
        for prefix, _module, _attr in BOUNDARIES:
            calls, s, self_s = self.spans.get(prefix, [0, 0.0, 0.0])
            gone = prefix in self.absent
            out[f"{prefix}.calls"] = None if gone else calls
            out[f"{prefix}.s"] = None if gone else s
            out[f"{prefix}.self_s"] = None if gone else self_s
        c = self.counts
        for name, _unit, owner in EXTRA_COUNTS:
            out[name] = None if owner in self.absent else c.get(name, 0)
        if "engine.simulate" not in self.absent:
            events = c.get("engine.simulate.events", 0)
            sim_s = out["engine.simulate.s"]
            out["engine.simulate.us_per_event"] = 1e6 * sim_s / events if events else 0.0
        if "engine.calibrate" not in self.absent:
            sims = c.get("engine.calibrate.sims", 0)
            useful = c.get("engine.calibrate.useful", 0)
            out["engine.calibrate.useful_ratio"] = useful / sims if sims else 0.0
        return out

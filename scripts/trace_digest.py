"""Print a SHA-256 digest of ``simulate`` output for a fixed set of runs.

    python3 scripts/trace_digest.py

Run it from the root of a checkout; the program is imported from ``src/``.
Each line names a run and digests its times, pressures, events and
warnings byte for byte, so running this in two checkouts and comparing
the output shows whether a change left the traces bit-identical. The runs
are the 101-stage ring of the benchmark's ring101 workload, the shipped
``ring3_calibrated.tbl`` and ``ring5.tbl``, and the stock-to-15 Hz /
35 kPa ``calibrate_oscillator`` fit, whose result is digested by its repr.
Each line also prints the run's event and sample counts. For the fit it
prints the number of simulations it ran, their summed window length
``sim_s`` and the event count of each, in order, so a change of window
shows; its sample count is that of its last simulation, the one that
verifies the fitted values. The ``osc3`` line covers the per-stage
``--set`` variants of the benchmark's osc3 workload for seeds 1 and 3,
from ``perfbench/inputs.py``, which it only imports: each gives every
valve of ``ring3_calibrated.tbl`` its own compliance and conductance,
applied and simulated as ``tblsim freq`` does. It prints each run's
event and sample counts and one digest of the six traces. The ``free``
line covers two valves controlled by a free node rather than a balloon:
one reading a divider tap, whose crossing is located on its own row of
the pressure map, and one reading its own outlet, whose settling gives
up with a warning. It prints each run's event and warning counts and one
digest of both traces. The ``edge`` line covers three runs at the edges
of the row map a run reads, with their event and sample counts and one
digest: a valve-free RC charge probed at its balloon node, the supply
node and ambient; a balloon-free divider whose valve, controlled by the
divider tap, closes as the run starts; and ``ring3.tbl``'s 3-ring with
every node probed. The last three lines cover the DC analyses, each with
its own digest, so that roundoff in the fan-out samples cannot hide a
change in the truth tables. The ``truth`` line covers the truth tables
of the shipped ``not``, ``nand``, ``nor``, ``and`` and ``or`` circuits:
the row count and one digest of every row's input bits, output bit and
output kPa. The ``fanout`` line covers
``fanout_limit(internal_resistance=1.2e5)``: the limit and a digest of
the sweep's samples. The ``logic`` line covers the seeded logic circuits
of the benchmark's seeds 1 and 3, from ``perfbench/inputs.py``, which it
only imports: every input row of each circuit's truth table goes through
``engine._dc_rows``. It prints the row count, ``solves``, the number of
flow balances (``engine._Compiled.solve`` calls: layer maps and point
solves, however many stacked LUs each takes) the rows took, and one
digest of every row's ``SteadyState`` repr (valve states, every node
pressure and the fixed points).
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from tblsim import SimConfig, calibrate_oscillator, engine, simulate  # noqa: E402
from tblsim import LogicLevels, fanout_limit, truth_table  # noqa: E402
from tblsim import PhysicalDefaults  # noqa: E402
from tblsim.cli import _apply_overrides  # noqa: E402
from tblsim import (  # noqa: E402
    Balloon,
    BalloonParams,
    KinkValveDevice,
    PneumaticNetwork,
    SourceElement,
    TubeElement,
)
from tblsim.netlist import expand, parse  # noqa: E402


def _net(text: str):
    return expand(parse(text))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _digest(traces) -> str:
    h = hashlib.sha256()
    for trace in traces:
        h.update(trace.times.tobytes())
        h.update(trace.pressures_kpa.tobytes())
        h.update(repr(trace.events).encode())
        h.update(repr(trace.warnings).encode())
    return h.hexdigest()


def _tube(name: str, a: str, b: str, length: float) -> TubeElement:
    return TubeElement.from_geometry(name, a, b, length, 1.0e-3, 1.81e-5)


def _free_control_runs():
    # SUP -t1- x(balloon) -t2- c -t3- ATM: the valve reads the divider tap c
    divider = PneumaticNetwork(
        tubes=(
            _tube("t1", "S", "x", 0.05), _tube("t2", "x", "c", 0.025),
            _tube("t3", "c", "ATM", 0.15), _tube("ts", "S", "n", 0.075),
            _tube("tq", "q", "ATM", 0.15),
        ),
        valves=(KinkValveDevice("v", "n", "q", "c", balloon=None),),
        balloons=(Balloon("bx", "x", BalloonParams()),),
        sources=(SourceElement("SUP", "S", 145.0),),
        probes=("c", "q"),
    )
    # the valve reads its own outlet: open, it rises past p_inflate; closed,
    # it drops to ambient, below p_deflate, so settling never ends
    self_switching = PneumaticNetwork(
        tubes=(_tube("ts", "S", "n", 0.075), _tube("tq", "c", "ATM", 0.15)),
        valves=(KinkValveDevice("v", "n", "c", "c", balloon=None),),
        sources=(SourceElement("SUP", "S", 145.0),),
        probes=("c",),
    )
    return [
        simulate(divider, SimConfig(t_end=0.05)),
        simulate(self_switching, SimConfig(t_end=0.05)),
    ]


def _edge_runs():
    rc = _net(
        "source SUP pressure=145kPa\ntube t1 from=SUP to=x length=5cm\n"
        "tube t2 from=x to=ATM length=15cm\nballoon b1 node=x\n"
    )
    # SUP -t1- m -t2- ATM puts m above p_inflate; the valve reads m
    divider = PneumaticNetwork(
        tubes=(
            _tube("t1", "S", "m", 0.05), _tube("t2", "m", "ATM", 0.15),
            _tube("tq", "q", "ATM", 0.15),
        ),
        valves=(KinkValveDevice("v", "S", "q", "m", balloon=None),),
        sources=(SourceElement("SUP", "S", 145.0),),
        probes=("m", "q"),
    )
    ring3 = _net(_read("circuits/ring3.tbl"))
    return [
        simulate(rc, SimConfig(t_end=0.5, probes=("x", "SUP", "ATM"))),
        simulate(divider, SimConfig(t_end=0.05)),
        simulate(ring3, SimConfig(t_end=0.5, probes=tuple(ring3.node_order()))),
    ]


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", "perfbench/inputs.py")
    bench_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_inputs)
    return bench_inputs


def _osc3_runs():
    bench_inputs = _bench_inputs()
    traces = []
    for seed in (1, 3):
        for argv in bench_inputs.osc3(seed)[1:]:  # the stock run has no --set
            sets = [pair for flag, pair in zip(argv, argv[1:]) if flag == "--set"]
            t_end = float(argv[argv.index("--t-end") + 1])
            ast, defaults = _apply_overrides(parse(_read(argv[-1])), PhysicalDefaults(), sets)
            cfg = SimConfig(t_end=t_end, sample_interval=min(1e-3, t_end / 2000))  # as freq
            traces.append(simulate(expand(ast, defaults), cfg))
    return traces


def _logic_line() -> str:
    bench_inputs = _bench_inputs()
    levels = LogicLevels()
    solve = engine._Compiled.solve
    solves = 0

    def counting_solve(self, g, rows, P):
        nonlocal solves
        solves += 1
        return solve(self, g, rows, P)

    h = hashlib.sha256()
    rows = 0
    engine._Compiled.solve = counting_solve
    try:
        for seed in (1, 3):
            for text, ins, _out, _expr in bench_inputs.logic(seed):
                drives = [
                    [levels.drive(b) for b in bits]
                    for bits in itertools.product((0, 1), repeat=len(ins))
                ]
                for steady in engine._dc_rows(_net(text), ins, drives):
                    h.update(repr(steady).encode())
                    rows += 1
    finally:
        engine._Compiled.solve = solve
    return f"logic: rows={rows} solves={solves} sha256={h.hexdigest()}"


def main() -> None:
    ring101 = _net("source SUP pressure=145kPa\nring r n=101 supply=SUP\n")
    probes = tuple(f"r.q{k}" for k in range(1, 102))
    runs = {
        "ring101": (ring101, SimConfig(t_end=1.0, probes=probes)),
        "ring3_calibrated": (_net(_read("circuits/ring3_calibrated.tbl")), SimConfig(t_end=1.5)),
        "ring5": (_net(_read("circuits/ring5.tbl")), SimConfig(t_end=1.0)),
    }
    for name, (net, cfg) in runs.items():
        trace = simulate(net, cfg)
        print(f"{name}: events={len(trace.events)} samples={len(trace.times)} "
              f"sha256={_digest([trace])}")

    osc3 = _osc3_runs()
    print(f"osc3: events={','.join(str(len(tr.events)) for tr in osc3)} "
          f"samples={','.join(str(len(tr.times)) for tr in osc3)} sha256={_digest(osc3)}")

    free = _free_control_runs()
    print(f"free: events={','.join(str(len(tr.events)) for tr in free)} "
          f"warnings={','.join(str(len(tr.warnings)) for tr in free)} sha256={_digest(free)}")

    edge = _edge_runs()
    print(f"edge: events={','.join(str(len(tr.events)) for tr in edge)} "
          f"samples={','.join(str(len(tr.times)) for tr in edge)} sha256={_digest(edge)}")

    template = _net(_read("circuits/ring3_calibrated.tbl")).with_uniform_params(
        compliance=4.0e-10, open_conductance=1.0e-5
    )
    fit_traces = []
    sim_s = 0.0

    def recording_simulate(net, cfg):
        nonlocal sim_s
        sim_s += cfg.t_end
        fit_traces.append(simulate(net, cfg))
        return fit_traces[-1]

    engine.simulate = recording_simulate  # calibrate_oscillator looks it up here
    try:
        fit = calibrate_oscillator(template, 15.0, 35.0, probe="m1", tolerance=0.02)
    finally:
        engine.simulate = simulate
    last = fit_traces[-1]
    digest = hashlib.sha256(repr(fit).encode()).hexdigest()
    print(f"calibrate: iterations={fit.iterations} sims={len(fit_traces)} sim_s={sim_s:.6g} "
          f"events={','.join(str(len(tr.events)) for tr in fit_traces)} "
          f"samples={len(last.times)} sha256={digest}")

    h = hashlib.sha256()
    rows = 0
    for gate in ("not", "nand", "nor", "and", "or"):
        inputs = ("a",) if gate == "not" else ("a", "b")
        table = truth_table(_net(_read(f"circuits/{gate}.tbl")), inputs, "q")
        for row in table.rows:
            h.update(repr((gate, row.inputs, row.output, row.output_kpa)).encode())
        rows += len(table.rows)
    print(f"truth: rows={rows} sha256={h.hexdigest()}")
    fanout = fanout_limit(internal_resistance=1.2e5)
    digest = hashlib.sha256(repr(fanout.samples).encode()).hexdigest()
    print(f"fanout: limit={fanout.limit} sha256={digest}")
    print(_logic_line())


if __name__ == "__main__":
    main()

"""Print a SHA-256 digest of ``simulate`` output for a fixed set of runs.

    python3 scripts/trace_digest.py

Run it from the root of a checkout; the program is imported from ``src/``.
Each line names a run and digests its times, pressures, events and
warnings byte for byte, so running this in two checkouts and comparing
the output shows whether a change left the traces bit-identical. The runs
are the 101-stage ring of the benchmark's ring101 workload, the shipped
``ring3_calibrated.tbl`` and ``ring5.tbl``, and the stock-to-15 Hz /
35 kPa ``calibrate_oscillator`` fit, whose result, with its evaluation
log, is digested by its repr. Each line also prints the run's event and
sample counts. For the fit it prints its evaluations and, from its log,
the cycles and valve events each evaluation ran, in order, so a change in
how an evaluation ends shows. The ``calibrate_slow`` line covers a
0.05 Hz target on ``ring3_calibrated.tbl``, out of reach of the
compliance bounds: the evaluations its fit ran before failing, their
cycles and events, and the failure's best point (compliance,
conductance, frequency, peak). The ``calibrate_peak`` line prints the
same for a 15 Hz / 200 kPa target on ``ring3_calibrated.tbl``, a peak
out of reach at the upper conductance bound: the fit is one round, so it
fails after the upper bound's evaluation and one at the rescaled
compliance. The ``osc3`` line covers the per-stage
``--set`` variants of the benchmark's osc3 workload for seeds 1 and 3,
from ``perfbench/inputs.py``, which it only imports: each gives every
valve of ``ring3_calibrated.tbl`` its own compliance and conductance,
applied as ``tblsim freq`` applies them, and is simulated over its
``--t-end`` at a sample interval of ``min(1 ms, t_end / 2000)``. It
prints each run's event and sample counts and one digest of the six
traces. The ``freq`` line covers the limit-cycle reports that ``tblsim
freq`` prints (``measure_oscillation``, capped at each run's
``--t-end``): the stock ``ring3_calibrated.tbl``, the six osc3
variants, and ``ring3.tbl`` and ``ring5.tbl`` at ``freq``'s default
cap. It prints the cycles and valve events each run took, in order, and
one digest of the reports' reprs. The ``ring_b`` line covers the
travelling wave of a 101-stage ring macro from start B (valves
alternating closed and open from gate 1, every balloon at 70 kPa, every
stage output probed), measured by ``measure_oscillation`` with a
1,000-s cap: its frequency, f·n, valve events and cycles, and a digest
of the report's repr. The ``free``
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
the sweep's samples. The ``fanout_edges`` line covers four sweeps at the
edges of the search (``_FANOUT_EDGE_RINTS``): an ideal source, where
every doubling count switches up to the cap; a source resistance at
which one load already misses the threshold (limit 0); 1.971e6, a
limit of 10; and 3e4, whose bisection window ends at the cap of 1024.
It prints their limits and one digest of their samples. The ``logic`` line covers the seeded logic circuits
of the benchmark's seeds 1 and 3, from ``perfbench/inputs.py``, which it
only imports: every input row of each circuit's truth table goes through
``engine._dc_rows``. It prints the row count; ``solves``, the number of
``engine._Compiled.solve`` calls the rows took (one per walk level that
meets layer maps not yet filled, all of them solved as one stack, and
point solves of every row of a table at once, however many stacked LUs
each takes), a count of calls that stacking more work per call lowers;
``systems``, the flow balances those calls solved (one per layer map,
one per row of a stacked call), so that the same work shows as the
same count however it is stacked; and one digest of every row's
``SteadyState`` repr (valve states, every node pressure and the fixed
points). The ``calibrate_vacuum`` line covers
three fits of ``ring3_calibrated.tbl`` with every pull-down sent to a
-30 kPa source, at ``tolerance=0.005``: 10 Hz / 16.5 kPa, 8 Hz /
16.2 kPa and 3 Hz / 16.0 kPa. Balloons there drain below rest, so the
compliance rescale is inexact and is repeated. It prints each fit's
evaluations and best point (compliance, conductance, frequency, peak),
fitted or not. The ``cli`` line covers the stdout of 14 ``tblsim``
invocations (``_CLI_RUNS``), run in-process through ``cli.main``: every
command as text, ``sim`` as CSV and as JSON lines, ``truth``, ``freq``
and ``bom`` as JSON lines, and ``check`` with and without
``--canonical``. It prints one digest of each invocation's arguments,
exit code and stdout; stderr is not digested. The ``expand`` line covers
the macro expansion of every gate type, a 5-ring, a 3-ring with a central
pull-down and two of its three taps named, and every file in
``circuits/``: it prints the element count and one digest of the
expanded networks' reprs, so a change in an element's name, endpoints,
parameters or order shows. The ``csv`` line covers ``Trace.to_csv`` on
three traces: the ring101 workload's ring over 1 s with its 101 stage
outputs probed, ``ring3_calibrated.tbl`` with every node probed over
10 s, which spans several of its render blocks, and a 31-stage ring
started with its valves alternating closed and open from gate 1 and
every balloon at 70 kPa. It prints each text's byte count and one digest
of the three texts. The ``extract`` line covers ``extract_frequency``
on three traces: the ring101 workload's 1-s trace with its 101 stage
outputs probed in seed 1's order, read against the first of them;
``ring3_calibrated.tbl`` over 10 s with every node probed, read against
each node in turn; and ``not.tbl`` over 1 s, whose flat output raises
NoOscillation. It prints the counts of reports and of NoOscillation
errors and one digest of the reports' reprs and the errors' messages.
The ``svg`` line covers the plot that ``tblsim sim --svg`` writes for
``ring3_calibrated.tbl`` over 2 s: its byte count and its digest. The
``regimes`` line counts, for four runs in order, the transient regimes
built (``engine._Regime``), the layer rows solved (``engine._Layers``,
one row per layer map of a network) and the networks compiled: the
``tblsim freq`` run of ``ring3_calibrated.tbl`` at ``--t-end 1.5``, the
ring101 workload's 1-s ``simulate``, the ``ring_b`` run and the stock
calibration of the ``calibrate`` line. A region's j-th valve sets bit j
of its layer, so a network solves at most 2^k layer rows, k the most
valves one region holds: 2 on every ring, one valve per region.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from tblsim import CalibrationFailedError, NoOscillationError, SimConfig, calibrate_oscillator, engine, simulate  # noqa: E402
from tblsim import extract_frequency, measure_oscillation  # noqa: E402
from tblsim import LogicLevels, fanout_limit, truth_table  # noqa: E402
from tblsim import PhysicalDefaults  # noqa: E402
from tblsim import cli  # noqa: E402
from tblsim.cli import _apply_overrides  # noqa: E402
from tblsim import (  # noqa: E402
    Balloon,
    BalloonParams,
    KinkValveDevice,
    PneumaticNetwork,
    SourceElement,
    TubeElement,
    ValveState,
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


def _osc3_variants():
    """The networks and ``--t-end`` values of the osc3 variants of seeds 1
    and 3, with their ``--set`` pairs applied."""
    bench_inputs = _bench_inputs()
    variants = []
    for seed in (1, 3):
        for argv in bench_inputs.osc3(seed)[1:]:  # the stock run has no --set
            sets = [pair for flag, pair in zip(argv, argv[1:]) if flag == "--set"]
            t_end = float(argv[argv.index("--t-end") + 1])
            ast, defaults = _apply_overrides(parse(_read(argv[-1])), PhysicalDefaults(), sets)
            variants.append((expand(ast, defaults), t_end))
    return variants


def _osc3_runs():
    return [simulate(net, SimConfig(t_end=t_end, sample_interval=min(1e-3, t_end / 2000)))
            for net, t_end in _osc3_variants()]


def _freq_line() -> str:
    runs = [(_net(_read("circuits/ring3_calibrated.tbl")), 1.5), *_osc3_variants(),
            (_net(_read("circuits/ring3.tbl")), 2.0), (_net(_read("circuits/ring5.tbl")), 2.0)]
    reports = [measure_oscillation(net, SimConfig(t_end=t_end)) for net, t_end in runs]
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    return (f"freq: cycles={','.join(str(r.cycles) for r in reports)} "
            f"events={','.join(str(r.events) for r in reports)} sha256={digest}")


def _per_evaluation(evaluations) -> str:
    return (f"cycles={','.join(str(ev.cycles) for ev in evaluations)} "
            f"events={','.join(str(ev.events) for ev in evaluations)}")


def _point(fit) -> str:
    """A fit's point: compliance, conductance, frequency, peak."""
    return f"{fit.compliance!r},{fit.open_conductance!r},{fit.frequency_hz!r},{fit.peak_kpa!r}"


def _failed_fit(template, target_frequency_hz: float, target_peak_kpa: float) -> str:
    """The evaluations of a fit that fails, their cycles and events, and
    its best point."""
    try:
        calibrate_oscillator(template, target_frequency_hz, target_peak_kpa)
        return "fitted"
    except CalibrationFailedError as err:
        return (f"evaluations={len(err.evaluations)} {_per_evaluation(err.evaluations)} "
                f"best={_point(err.best)}")


def _vacuum_line() -> str:
    """The evaluations and the best point of three fits of
    ``ring3_calibrated.tbl`` with its pull-downs sent to a -30 kPa source."""
    text = _read("circuits/ring3_calibrated.tbl").replace("to=ATM", "to=VAC")
    net = _net(text + "source VAC pressure=-30kPa\n")
    counts, points = [], []
    for target_frequency_hz, target_peak_kpa in ((10.0, 16.5), (8.0, 16.2), (3.0, 16.0)):
        try:
            fit = calibrate_oscillator(net, target_frequency_hz, target_peak_kpa, tolerance=0.005)
        except CalibrationFailedError as err:
            fit = err.best
            counts.append(len(err.evaluations))
        else:
            counts.append(len(fit.evaluations))
        points.append(_point(fit))
    return (f"calibrate_vacuum: evaluations={','.join(map(str, counts))} "
            f"best={';'.join(points)}")


#: ``tblsim`` invocations whose stdout is pinned: every command as text,
#: ``sim`` as CSV and as JSON lines, the other commands' JSON lines where
#: they were JSON already, and ``check --canonical``
_CLI_RUNS = [
    ["sim", "--t-end", "0.05", "circuits/ring3_calibrated.tbl"],
    ["--format", "csv", "sim", "--t-end", "0.05", "circuits/ring3_calibrated.tbl"],
    ["--format", "json-lines", "sim", "--t-end", "0.05", "circuits/ring3_calibrated.tbl"],
    ["truth", "--inputs", "a", "--output", "q", "circuits/not.tbl"],
    ["truth", "--inputs", "a,b", "--output", "q", "--expect", "!(a&b)", "circuits/nand.tbl"],
    ["--format", "json-lines", "truth", "--inputs", "a,b", "--output", "q", "circuits/nor.tbl"],
    ["--format", "csv", "truth", "--inputs", "a,b", "--output", "q", "circuits/and.tbl"],
    ["freq", "--t-end", "1.5", "circuits/ring3_calibrated.tbl"],
    ["--format", "json-lines", "freq", "--t-end", "1.5", "circuits/ring3_calibrated.tbl"],
    ["bom", "circuits/ring3.tbl"],
    ["--format", "json-lines", "bom", "circuits/ring3.tbl"],
    ["check", "circuits/nor.tbl"],
    ["check", "circuits/ring3.tbl"],
    ["check", "--canonical", "circuits/ring3_calibrated.tbl"],
]


def _cli_line() -> str:
    h = hashlib.sha256()
    for argv in _CLI_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        h.update(repr((argv, rc, out.getvalue())).encode())
    return f"cli: runs={len(_CLI_RUNS)} sha256={h.hexdigest()}"


#: netlists whose expansion the ``expand`` line pins, besides ``circuits/``
_EXPAND_TEXTS = [
    *(f"source SUP pressure=145kPa\ngate {gt} g in={'a' if gt == 'NOT' else 'a,b'} "
      "out=q supply=SUP\n" for gt in ("NOT", "NOR", "NAND", "AND", "OR")),
    "source SUP pressure=145kPa\nring r n=5 supply=SUP\n",
    "source SUP pressure=145kPa\nring r n=3 supply=SUP pulldown=central taps=x,y\n",
]


def _expand_line() -> str:
    texts = _EXPAND_TEXTS + [_read(f"circuits/{f}") for f in sorted(os.listdir("circuits"))]
    nets = [_net(text) for text in texts]
    elements = sum(len(n.tubes) + len(n.valves) + len(n.balloons) + len(n.sources) for n in nets)
    digest = hashlib.sha256(repr(nets).encode()).hexdigest()
    return f"expand: networks={len(nets)} elements={elements} sha256={digest}"


#: source internal resistances of the ``fanout_edges`` sweeps: an ideal
#: source; one load's control node at 84 kPa, below the 85 kPa threshold;
#: a limit of 10; a limit between 512 and the cap of 1024
_FANOUT_EDGE_RINTS = (0.0, 12460487.983840635, 1.971e6, 3.0e4)


def _fanout_edges_line() -> str:
    reports = [fanout_limit(internal_resistance=rint) for rint in _FANOUT_EDGE_RINTS]
    digest = hashlib.sha256(repr([rep.samples for rep in reports]).encode()).hexdigest()
    return f"fanout_edges: limits={','.join(str(rep.limit) for rep in reports)} sha256={digest}"


def _logic_line() -> str:
    bench_inputs = _bench_inputs()
    levels = LogicLevels()
    solve = engine._Compiled.solve
    solves = systems = 0

    def counting_solve(self, g, rows, P):
        nonlocal solves, systems
        solves += 1
        systems += g.size // len(self.branch_a)  # the rows of a stacked call
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
    return f"logic: rows={rows} solves={solves} systems={systems} sha256={h.hexdigest()}"


def _start_b(n: int, t_end: float):
    """A ring of ``n`` stock stages and a run of it to ``t_end`` from start
    B: valves alternating closed and open from gate 1, every balloon at
    70 kPa, every stage output probed."""
    stages = range(1, n + 1)
    return _net(f"source SUP pressure=145kPa\nring r n={n} supply=SUP\n"), SimConfig(
        t_end=t_end, probes=tuple(f"r.q{k}" for k in stages),
        initial_valve_states={f"r.g{k}.v": (ValveState.CLOSED if k % 2 else ValveState.OPEN)
                              for k in stages},
        initial_pressures_kpa={f"r.g{k}.v": 70.0 for k in stages},
    )


def _ring_b_line() -> str:
    """``measure_oscillation`` of a 101-stage ring from start B."""
    n = 101
    report = measure_oscillation(*_start_b(n, 1000.0))
    digest = hashlib.sha256(repr(report).encode()).hexdigest()
    return (f"ring_b: frequency={report.frequency_hz!r} fn={report.frequency_hz * n:.6f} "
            f"events={report.events} cycles={report.cycles} sha256={digest}")


def _csv_line() -> str:
    ring101 = _net("source SUP pressure=145kPa\nring r n=101 supply=SUP\n")
    ring3 = _net(_read("circuits/ring3_calibrated.tbl"))
    traces = [
        simulate(ring101, SimConfig(t_end=1.0, probes=tuple(f"r.q{k}" for k in range(1, 102)))),
        simulate(ring3, SimConfig(t_end=10.0, probes=tuple(ring3.node_order()))),
        simulate(*_start_b(31, 1.0)),
    ]
    texts = [trace.to_csv().encode() for trace in traces]
    digest = hashlib.sha256(b"".join(texts)).hexdigest()
    return f"csv: bytes={','.join(str(len(text)) for text in texts)} sha256={digest}"


def _extract_line() -> str:
    """``extract_frequency`` on the ring101 workload's trace, on
    ``ring3_calibrated.tbl`` against each node, and on a flat ``not.tbl``."""
    text, probes = _bench_inputs().ring101(1)
    ring101 = simulate(_net(text), SimConfig(t_end=1.0, probes=tuple(probes)))
    ring3 = _net(_read("circuits/ring3_calibrated.tbl"))
    ring3 = simulate(ring3, SimConfig(t_end=10.0, probes=tuple(ring3.node_order())))
    flat = simulate(_net(_read("circuits/not.tbl")), SimConfig(t_end=1.0))
    runs = [(ring101, probes[0]), *((ring3, p) for p in ring3.probes), (flat, flat.probes[0])]
    reports, errors = [], []
    for trace, probe in runs:
        try:
            reports.append(repr(extract_frequency(trace, probe)))
        except NoOscillationError as err:
            errors.append(str(err))
    digest = hashlib.sha256(repr((reports, errors)).encode()).hexdigest()
    return f"extract: reports={len(reports)} errors={len(errors)} sha256={digest}"


def _svg_line() -> str:
    """The SVG plot of ``ring3_calibrated.tbl`` over 2 s."""
    trace = simulate(_net(_read("circuits/ring3_calibrated.tbl")), SimConfig(t_end=2.0))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plot.svg")
        cli._svg_plot(trace, path)
        with open(path, "rb") as fh:
            svg = fh.read()
    return f"svg: bytes={len(svg)} sha256={hashlib.sha256(svg).hexdigest()}"


def _regimes_line() -> str:
    """The regimes built and the layer rows solved by four runs, and the
    networks each compiled."""
    init_regime, init_layers = engine._Regime.__init__, engine._Layers.__init__
    built, stores = 0, []

    def counting_regime(self, compiled, is_open):
        nonlocal built
        built += 1
        init_regime(self, compiled, is_open)

    def keeping_layers(self, compiled):
        stores.append(self)
        init_layers(self, compiled)

    ring3 = _net(_read("circuits/ring3_calibrated.tbl"))
    ring101 = _net("source SUP pressure=145kPa\nring r n=101 supply=SUP\n")
    template = ring3.with_uniform_params(compliance=4.0e-10, open_conductance=1.0e-5)
    runs = [
        lambda: measure_oscillation(ring3, SimConfig(t_end=1.5)),
        lambda: simulate(ring101, SimConfig(t_end=1.0, probes=tuple(f"r.q{k}" for k in range(1, 102)))),
        lambda: measure_oscillation(*_start_b(101, 1000.0)),
        lambda: calibrate_oscillator(template, 15.0, 35.0, probe="m1", tolerance=0.02),
    ]
    counts = []
    engine._Regime.__init__, engine._Layers.__init__ = counting_regime, keeping_layers
    try:
        for run in runs:
            built, stores = 0, []
            run()
            counts.append((built, sum(len(store.at) for store in stores), len(stores)))
    finally:
        engine._Regime.__init__, engine._Layers.__init__ = init_regime, init_layers
    built, layers, networks = (",".join(map(str, column)) for column in zip(*counts))
    return f"regimes: built={built} layers={layers} networks={networks}"


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

    ring3 = _net(_read("circuits/ring3_calibrated.tbl"))
    template = ring3.with_uniform_params(compliance=4.0e-10, open_conductance=1.0e-5)
    fit = calibrate_oscillator(template, 15.0, 35.0, probe="m1", tolerance=0.02)
    digest = hashlib.sha256(repr(fit).encode()).hexdigest()
    print(f"calibrate: iterations={fit.iterations} evaluations={len(fit.evaluations)} "
          f"{_per_evaluation(fit.evaluations)} sha256={digest}")
    print(f"calibrate_slow: {_failed_fit(ring3, 0.05, 35.0)}")
    print(f"calibrate_peak: {_failed_fit(ring3, 15.0, 200.0)}")
    print(_vacuum_line())
    print(_freq_line())
    print(_ring_b_line())

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
    print(_fanout_edges_line())
    print(_logic_line())
    print(_cli_line())
    print(_expand_line())
    print(_csv_line())
    print(_extract_line())
    print(_svg_line())
    print(_regimes_line())


if __name__ == "__main__":
    main()

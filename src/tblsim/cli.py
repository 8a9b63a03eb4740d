"""Command line front end.

    tblsim sim CIRCUIT --t-end 2.0 [--probe NODE ...] [--out trace.csv]
    tblsim truth CIRCUIT --inputs a,b --output q [--expect EXPR]
    tblsim freq CIRCUIT [--t-end T] [--probe NODE ...]
    tblsim bom CIRCUIT
    tblsim check CIRCUIT [--canonical]

Each command builds its output once in two forms, records and text, and
hands both to one writer, ``_write``. Under ``--format json-lines`` it
writes the records, one JSON object per line; otherwise it writes the
text, which is CSV for ``sim``. Warnings and mismatch details go to
stderr.

Exit codes: 0 success, 1 usage, 2 netlist or network error, 3 simulation
or analysis error, 4 a verification check that ran but did not match.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .defaults import PhysicalDefaults, load_defaults
from .engine import (
    SimConfig,
    dc_operating_point,
    measure_oscillation,
    simulate,
)
from .errors import (
    EngineError,
    NetlistError,
    NetworkError,
    NoOscillationError,
    TblError,
)
from .netlist import bom as make_bom
from .netlist import expand, format_circuit, parse
from .verify import LogicLevels, check_against_boolean, truth_table

USAGE_EXIT = 1
NETLIST_EXIT = 2
ANALYSIS_EXIT = 3
MISMATCH_EXIT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


@functools.cache
def _build_parser() -> _Parser:
    """The command line parser, built once per process: parsing leaves it
    as it was, every list default included."""
    p = _Parser(prog="tblsim", description="tube-balloon logic circuit simulator")
    p.add_argument(
        "--format",
        choices=("text", "csv", "json-lines"),
        default="text",
        help="output format (default: text)",
    )
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME.KEY=VALUE",
        dest="overrides",
        help="override a statement parameter, or KEY=VALUE for a default",
    )
    p.add_argument("--defaults", metavar="FILE", help="JSON defaults file")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="transient simulation to CSV")
    sim.add_argument("circuit")
    sim.add_argument("--t-end", type=float, default=2.0, metavar="SECONDS")
    sim.add_argument("--sample-interval", type=float, default=1e-3, metavar="SECONDS")
    sim.add_argument(
        "--probe",
        action="append",
        default=None,
        metavar="NODE",
        help="probe node (repeatable; replaces probes from the file)",
    )
    sim.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    sim.add_argument("--svg", metavar="FILE", help="also write an SVG plot")

    tr = sub.add_parser("truth", help="enumerate a truth table")
    tr.add_argument("circuit")
    tr.add_argument("--inputs", required=True, metavar="NODE,NODE")
    tr.add_argument("--output", required=True, metavar="NODE")
    tr.add_argument(
        "--expect", metavar="EXPR", help="boolean reference, e.g. '!(a|b)'"
    )

    fr = sub.add_parser("freq", help="oscillation frequency and phases of the limit cycle")
    fr.add_argument("circuit")
    fr.add_argument(
        "--t-end", type=float, default=2.0, metavar="SECONDS",
        help="cap on simulated time (default: 2.0)",
    )
    fr.add_argument("--probe", action="append", default=None, metavar="NODE")
    fr.add_argument(
        "--min-amplitude", type=float, default=1.0, metavar="KPA",
        help="swing below this does not count as oscillation",
    )

    bm = sub.add_parser("bom", help="bill of materials and cost")
    bm.add_argument("circuit")

    ck = sub.add_parser("check", help="parse, expand and validate only")
    ck.add_argument("circuit")
    ck.add_argument(
        "--canonical", action="store_true", help="print the canonical netlist"
    )
    return p


def _read_circuit(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise NetlistError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path``; one that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _apply_overrides(ast, defaults: PhysicalDefaults, pairs: list[str]):
    """NAME.KEY=VALUE patches one statement; KEY=VALUE patches a default.
    A bad default patch is a usage error (ValueError), as a bad defaults file is."""
    patch: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set needs NAME.KEY=VALUE or KEY=VALUE, got {pair!r}")
        target, _, value = pair.partition("=")
        if "." in target:
            name, _, key = target.rpartition(".")
            ast = ast.with_override(name, key, value)
        else:
            try:
                patch[target] = float(value)
            except ValueError:
                raise ValueError(f"--set: bad value for {target!r}: {value!r}") from None
    if patch:
        try:
            defaults = defaults.merged(patch)
        except ValueError as exc:
            raise ValueError(f"--set: {exc}") from None
    return ast, defaults


def _diag(exc: TblError, path: str) -> str:
    loc = path
    line = getattr(exc, "line", None)
    col = getattr(exc, "column", None)
    if line:
        loc += f":{line}"
        if col:
            loc += f":{col}"
    return f"{loc}: {exc.code}: {exc}"


def _write(args, records, text) -> None:
    """Write a command's output to ``--out``, where the command has it, or
    to stdout: each of ``records`` as one JSON line under ``--format
    json-lines``, else ``text()``. Only the chosen form is built, so a long
    ``records`` is a generator and ``text`` is always a callable."""
    if args.format == "json-lines":
        out = "".join(json.dumps(rec) + "\n" for rec in records)
    else:
        out = text()
    path = getattr(args, "out", None)
    if path:
        _write_file(path, out)
    else:
        sys.stdout.write(out)


def _warn(warnings) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def _svg_plot(trace, path: str):
    """Minimal line plot, one polyline per probe."""
    width, height, pad = 800, 400, 40
    lo = float(trace.pressures_kpa.min())
    hi = float(trace.pressures_kpa.max())
    if hi - lo < 1e-9:
        hi = lo + 1.0
    t0, t1 = float(trace.times[0]), float(trace.times[-1])
    if t1 - t0 <= 0:
        t1 = t0 + 1.0

    def sx(t):
        return pad + (t - t0) / (t1 - t0) * (width - 2 * pad)

    def sy(p):
        return height - pad - (p - lo) / (hi - lo) * (height - 2 * pad)

    colours = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{pad}" y="20" font-size="12">kPa vs s '
        f"({lo:.1f} to {hi:.1f} kPa, {t0:g} to {t1:g} s)</text>",
    ]
    for i, probe in enumerate(trace.probes):
        col = trace.column(probe)
        pts = " ".join(
            f"{sx(t):.2f},{sy(p):.2f}" for t, p in zip(trace.times, col)
        )
        c = colours[i % len(colours)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{c}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{width - pad + 2}" y="{pad + 14 * i}" font-size="11" '
            f'fill="{c}">{probe}</text>'
        )
    parts.append("</svg>")
    _write_file(path, "\n".join(parts) + "\n")


def _samples(trace):
    """``sim``'s records: one per sample, its time and each probe's kPa."""
    for t, row in zip(trace.times.tolist(), trace.pressures_kpa.tolist()):
        yield {"time_s": t, **dict(zip(trace.probes, row))}


def _cmd_sim(args, ast, defaults) -> int:
    net = expand(ast, defaults)
    cfg = SimConfig(
        t_end=args.t_end,
        sample_interval=args.sample_interval,
        probes=tuple(args.probe) if args.probe else None,
    )
    trace = simulate(net, cfg)
    _warn(trace.warnings)
    _write(args, _samples(trace), trace.to_csv)
    if args.svg:
        _svg_plot(trace, args.svg)
    return 0


def _cmd_truth(args, ast, defaults) -> int:
    net = expand(ast, defaults)
    inputs = tuple(s for s in args.inputs.split(",") if s)
    if unknown := sorted(set(inputs) - set(net.node_order())):
        raise ValueError(f"--inputs names no node of the circuit: {', '.join(unknown)}")
    table = truth_table(net, inputs, args.output, LogicLevels.from_defaults(defaults))
    report = check_against_boolean(table, args.expect) if args.expect else None
    records = [{"inputs": dict(zip(table.input_nodes, row.inputs)), "output": row.output,
                "output_kpa": round(row.output_kpa, 3)} for row in table.rows]
    if report:
        records.append({"expect": args.expect, "matches": report.passed})
    text = [f"{' '.join(table.input_nodes)} | {table.output_node} (kPa)"]
    text += [f"{' '.join(map(str, row.inputs))} | {row.output} ({row.output_kpa:.2f})"
             for row in table.rows]
    if report and report.passed:
        text.append(f"matches {args.expect}")
    _write(args, records, lambda: "\n".join(text) + "\n")
    if report and not report.passed:
        for m in report.mismatches:
            assign = ", ".join(f"{n}={b}" for n, b in zip(table.input_nodes, m.inputs))
            print(f"mismatch at {assign}: expected {m.expected}, "
                  f"got {m.actual} ({m.output_kpa:.2f} kPa)", file=sys.stderr)
        return MISMATCH_EXIT
    return 0


def _cmd_freq(args, ast, defaults) -> int:
    net = expand(ast, defaults)
    cfg = SimConfig(t_end=args.t_end, probes=tuple(args.probe) if args.probe else None)
    try:
        rep = measure_oscillation(net, cfg, min_amplitude_kpa=args.min_amplitude)
    except NoOscillationError as exc:
        _warn(exc.warnings)
        raise
    _warn(rep.warnings)
    records = [{"probe": probe, "frequency_hz": rep.frequency_hz, "peak_kpa": rep.peaks_kpa[probe],
                "trough_kpa": rep.troughs_kpa[probe], "phase_deg": rep.phase_deg[probe],
                "duty": rep.duty, "cycles": rep.cycles} for probe in rep.peaks_kpa]
    text = [f"frequency: {rep.frequency_hz:.3f} Hz over {rep.cycles} cycles "
            f"(duty {rep.duty:.2f}, reference probe {rep.probe})"]
    text += [f"  {probe}: peak {rep.peaks_kpa[probe]:.2f} kPa, trough "
             f"{rep.troughs_kpa[probe]:.2f} kPa, phase {rep.phase_deg[probe]:.1f} deg"
             for probe in rep.peaks_kpa]
    _write(args, records, lambda: "\n".join(text) + "\n")
    return 0


def _cmd_bom(args, ast, defaults) -> int:
    bill = make_bom(ast, defaults)
    records = [{"item": line.description, "quantity": line.quantity, "unit": line.unit,
                "cost_usd": str(line.cost)} for line in bill.lines]
    records.append({"devices": bill.device_count, "total_usd": str(bill.total), "note": bill.note})
    text = [f"devices: {bill.device_count}"]
    text += [f"  {line.description}: {f'{line.quantity} {line.unit}'.strip()} (${line.cost})"
             for line in bill.lines]
    text += [f"total: ${bill.total}", f"note: {bill.note}"]
    _write(args, records, lambda: "\n".join(text) + "\n")
    return 0


def _cmd_check(args, ast, defaults) -> int:
    net = expand(ast, defaults)
    if args.canonical:
        netlist = format_circuit(ast)
        _write(args, [{"netlist": netlist}], lambda: netlist)
        return 0
    counts = {"valves": len(net.valves), "tubes": len(net.tubes),
              "balloons": len(net.balloons) + sum(1 for v in net.valves if v.balloon),
              "nodes": len(net.node_order())}
    try:
        steady = dc_operating_point(net)
    except EngineError as exc:
        if exc.code != "AstableCircuit":
            raise
        states, points = None, 0
    else:
        states = {name: s.value for name, s in sorted(steady.valve_states.items())}
        points = max(1, len(steady.fixed_points))  # one unless the search enumerated them
    text = ["ok: " + ", ".join(f"{n} {k}" for k, n in counts.items())]
    if states is None:
        text.append("operating point: none (astable; every assignment re-switches)")
    else:
        assigned = ", ".join(f"{name}={state}" for name, state in states.items())
        text.append(f"operating point: {assigned or 'no valves'}")
    if points > 1:
        text.append(f"note: {points} distinct operating points exist")
    _write(args, [{**counts, "operating_point": states, "fixed_points": points}],
           lambda: "\n".join(text) + "\n")
    return 0


_COMMANDS = {
    "sim": _cmd_sim,
    "truth": _cmd_truth,
    "freq": _cmd_freq,
    "bom": _cmd_bom,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    path = args.circuit
    try:
        defaults = load_defaults(args.defaults)
    except ValueError as exc:
        print(f"tblsim: error: defaults: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        text = _read_circuit(path)
        ast = parse(text)
        ast, defaults = _apply_overrides(ast, defaults, args.overrides)
        return _COMMANDS[args.command](args, ast, defaults)
    except (NetlistError, NetworkError) as exc:
        print(_diag(exc, path), file=sys.stderr)
        return NETLIST_EXIT
    except TblError as exc:
        print(_diag(exc, path), file=sys.stderr)
        return ANALYSIS_EXIT
    except ValueError as exc:  # a library input check: bad flag or option value
        print(f"tblsim: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

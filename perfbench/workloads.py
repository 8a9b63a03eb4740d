"""The four benchmark workloads: their set-up, their ops and the checks.

Each workload is a fixed list of ops made from the seed (one pass). An op
is one ``tblsim freq`` run, one ring ``tblsim sim``, one truth table, or one
calibration. Every op has a correctness check; an exception or a failed
check makes the op a failure, and it is counted, never dropped. Every
workload also runs the same fan-out sweeps, the sparse-DC use of the solve
layer, timed apart from the ops.

The program is called through its module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import tblsim
from tblsim import cli, engine, verify

#: the acceptance test's margin: an output level clears its threshold by 1 kPa
LOGIC_MARGIN_KPA = 1.0
CAL_TOLERANCE = 0.02


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], bool]


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _within(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


# -- osc3 --------------------------------------------------------------------


def _check_freq(stock: bool):
    def check(result) -> bool:
        rc, text = result
        if rc != 0:
            return False
        recs = [json.loads(line) for line in text.splitlines()]
        if len(recs) != 3:
            return False
        if stock:
            return _within(recs[0]["frequency_hz"], inputs.STOCK_FREQ_HZ, 0.01) and all(
                _within(r["peak_kpa"], inputs.STOCK_PEAK_KPA, 0.01) for r in recs
            )
        # a 5 % spread of part values keeps a variant within 15 % of stock
        return _within(recs[0]["frequency_hz"], inputs.STOCK_FREQ_HZ, 0.15) and all(
            r["peak_kpa"] - r["trough_kpa"] > 1.0 for r in recs
        )

    return check


def _osc3(seed: int, workdir: str) -> list[Op]:
    runs = inputs.osc3(seed)
    return [Op(lambda a=argv: _cli(a), _check_freq(k == 0)) for k, argv in enumerate(runs)]


# -- ring101 -----------------------------------------------------------------


def _check_ring(result) -> bool:
    """The CSV has every probe column, and the first probe oscillates."""
    rc, text = result
    if rc != 0:
        return False
    header, *rows = text.splitlines()
    probes = tuple(h.removesuffix("_kPa") for h in header.split(",")[1:])
    data = np.array([row.split(",") for row in rows], dtype=float)
    if len(probes) != inputs.RING_STAGES or data.shape[1] != len(probes) + 1:
        return False
    trace = engine.Trace(probes, data[:, 0], data[:, 1:], events=())
    engine.extract_frequency(trace, probes[0])  # raises NoOscillation
    return True


def _ring101(seed: int, workdir: str) -> list[Op]:
    text, probes = inputs.ring101(seed)
    path = os.path.join(workdir, "ring101.tbl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    argv = ["--format", "csv", "sim", "--t-end", "1.0"]
    for p in probes:
        argv += ["--probe", p]
    argv.append(path)
    return [Op(lambda: _cli(argv), _check_ring)]


# -- logic -------------------------------------------------------------------


def _truth_op(net, ins, out, expr):
    def run():
        table = verify.truth_table(net, ins, out)
        return table, verify.check_against_boolean(table, expr)

    return run


def _check_truth(result) -> bool:
    table, report = result
    levels = verify.LogicLevels()
    margins = (
        row.output_kpa - levels.read_high_min_kpa
        if row.output
        else levels.read_low_max_kpa - row.output_kpa
        for row in table.rows
    )
    return report.passed and min(margins) >= LOGIC_MARGIN_KPA


def _logic(seed: int, workdir: str) -> list[Op]:
    ops = []
    for text, ins, out, expr in inputs.logic(seed):
        net = tblsim.netlist.expand(tblsim.netlist.parse(text))
        ops.append(Op(_truth_op(net, ins, out, expr), _check_truth))
    return ops


# -- calibrate ---------------------------------------------------------------


def _calibrate(seed: int, workdir: str) -> list[Op]:
    probe = inputs.calibrate(seed)
    with open(inputs.STOCK_CIRCUIT, encoding="utf-8") as fh:
        text = fh.read()
    template = tblsim.netlist.expand(tblsim.netlist.parse(text))
    template = template.with_uniform_params(**inputs.CAL_START)

    def run():
        return engine.calibrate_oscillator(
            template,
            inputs.CAL_TARGET_HZ,
            inputs.CAL_TARGET_KPA,
            probe=probe,
            tolerance=CAL_TOLERANCE,
        )

    def check(fit) -> bool:
        return max(fit.relative_errors) <= CAL_TOLERANCE

    return [Op(run, check)]


# -- fan-out sweeps, common to every workload ---------------------------------


def fanout_ops(seed: int) -> list[Op]:
    def sweep(rint: float):
        return lambda: verify.fanout_limit(internal_resistance=rint)

    def check(rep) -> bool:
        """The sweep's bisection invariant: every probed load count up to
        the limit switches, and every larger one does not."""
        if rep.unbounded or rep.limit < 1:
            return False
        return all((kpa >= rep.threshold_kpa) == (n <= rep.limit) for n, kpa in rep.samples)

    return [Op(sweep(r), check) for r in inputs.fanout(seed)]


_BUILDERS = {"osc3": _osc3, "ring101": _ring101, "logic": _logic, "calibrate": _calibrate}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """In-process set-up: make the inputs, parse and expand the networks
    the library ops use, and return one pass of ops."""
    return _BUILDERS[workload](seed, workdir)


def parse_and_expand(workload: str, seed: int) -> None:
    """What ``setup_s`` times after ``import tblsim``: parse and expand
    every netlist of the workload, as its ops first do."""
    parse, expand = tblsim.netlist.parse, tblsim.netlist.expand
    if workload == "osc3":
        with open(inputs.STOCK_CIRCUIT, encoding="utf-8") as fh:
            text = fh.read()
        for argv in inputs.osc3(seed):
            ast = parse(text)
            for flag, pair in zip(argv, argv[1:]):
                if flag == "--set":
                    target, _, value = pair.partition("=")
                    name, _, key = target.rpartition(".")
                    ast = ast.with_override(name, key, value)
            expand(ast)
    elif workload == "ring101":
        expand(parse(inputs.ring101(seed)[0]))
    elif workload == "logic":
        for text, *_ in inputs.logic(seed):
            expand(parse(text))
    else:
        with open(inputs.STOCK_CIRCUIT, encoding="utf-8") as fh:
            expand(parse(fh.read()))

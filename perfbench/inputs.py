"""Seeded inputs for the benchmark workloads.

The same seed always gives the same inputs. The seeds vary what a workload
computes but keep its amount of work close to constant, so that host times
from different seeds can be compared.
"""

from __future__ import annotations

import random

#: the shipped, fitted three-stage ring and its README reference figures
STOCK_CIRCUIT = "circuits/ring3_calibrated.tbl"
STOCK_FREQ_HZ = 14.995
STOCK_PEAK_KPA = 35.15
#: the stock file's fitted valve parameters, which the osc3 variants perturb
_STOCK_COMPLIANCE = 5.639291962419882e-11
_STOCK_CONDUCTANCE = 6.042963902381328e-08

#: stock parts the calibration starts from, and its targets
CAL_START = {"compliance": 4.0e-10, "open_conductance": 1.0e-5}
CAL_TARGET_HZ = 15.0
CAL_TARGET_KPA = 35.0

RING_STAGES = 101
LOGIC_INPUTS = 6
LOGIC_GATES = 30
LOGIC_CIRCUITS = 6
_GATE_KINDS = ("NOT", "NOR", "NAND", "AND", "OR")

#: fan-out sweeps per run; a source resistance near 1.2e5 Pa.s/m3 puts the
#: limit near 190 loads, so the sweep's larger probes (over 400 nodes) take
#: the sparse DC path and its smaller ones the dense path
FANOUT_SWEEPS = 8
_FANOUT_RINT = 1.2e5


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def osc3(seed: int) -> list[list[str]]:
    """``tblsim freq`` argument lists: the stock file, then three variants
    whose valves each get their own compliance and conductance, within 5 %
    of the stock values, through ``--set``."""
    rng = _rng("osc3", seed)
    freq = ["--format", "json-lines", "freq", "--t-end", "1.5", STOCK_CIRCUIT]
    runs = [freq]
    for _ in range(3):
        sets = []
        for stage in (1, 2, 3):
            c = _STOCK_COMPLIANCE * rng.uniform(0.95, 1.05)
            g = _STOCK_CONDUCTANCE * rng.uniform(0.95, 1.05)
            sets += ["--set", f"v{stage}.compliance={c!r}"]
            sets += ["--set", f"v{stage}.open_conductance={g!r}"]
        runs.append(sets + freq)
    return runs


def ring101(seed: int) -> tuple[str, list[str]]:
    """A 101-stage ring macro and every stage output as a probe, in a seeded
    order. The seed changes only the order of the CSV columns: a supply
    within 1 % of nominal already moves the event count by 3 %."""
    rng = _rng("ring101", seed)
    text = f"source SUP pressure=145kPa\nring r n={RING_STAGES} supply=SUP\n"
    probes = [f"r.q{k}" for k in range(1, RING_STAGES + 1)]
    rng.shuffle(probes)
    return text, probes


def _logic_circuit(rng: random.Random) -> tuple[str, tuple[str, ...], str, str]:
    """A random feed-forward circuit whose gates all feed one output.

    Gate outputs are used once, so the circuit is a tree over the primary
    inputs and its Boolean expression grows linearly with the gate count.
    Returns (netlist, input nodes, output node, expression).
    """
    inputs = tuple(f"i{k}" for k in range(LOGIC_INPUTS))
    kinds = [k for k in _GATE_KINDS for _ in range(LOGIC_GATES // len(_GATE_KINDS))]
    rng.shuffle(kinds)
    pool: list[tuple[str, str]] = []  # (node, expression) not yet consumed
    lines = ["source SUP pressure=145kPa"]
    for g, kind in enumerate(kinds):
        arity = 1 if kind == "NOT" else 2
        merges_left = sum(k != "NOT" for k in kinds[g + 1:])
        take = sum(rng.random() < 0.6 for _ in range(arity))
        # leave no more unconsumed outputs than the later gates can merge
        take = min(max(take, len(pool) - merges_left), arity, len(pool))
        args = [pool.pop(0) for _ in range(take)]
        args += [(n, n) for n in rng.sample(inputs, arity - take)]
        out = f"n{g}"
        nodes = ",".join(n for n, _ in args)
        lines.append(f"gate {kind} g{g} in={nodes} out={out} supply=SUP")
        if kind == "NOT":
            expr = f"!({args[0][1]})"
        else:
            op = "&" if kind in ("NAND", "AND") else "|"
            expr = f"({args[0][1]}){op}({args[1][1]})"
            if kind in ("NAND", "NOR"):
                expr = f"!({expr})"
        pool.append((out, expr))
    (out, expr), = pool
    return "\n".join(lines) + "\n", inputs, out, expr


def logic(seed: int) -> list[tuple[str, tuple[str, ...], str, str]]:
    rng = _rng("logic", seed)
    return [_logic_circuit(rng) for _ in range(LOGIC_CIRCUITS)]


def calibrate(seed: int) -> str:
    """The probe the fit targets. The three taps of the symmetric ring take
    the same search path, so the work does not depend on the seed."""
    return _rng("calibrate", seed).choice(("m1", "m2", "m3"))


def fanout(seed: int) -> list[float]:
    """Source internal resistances for the fan-out sweeps, within 3 % of
    the nominal value."""
    rng = _rng("fanout", seed)
    return [_FANOUT_RINT * rng.uniform(0.97, 1.03) for _ in range(FANOUT_SWEEPS)]

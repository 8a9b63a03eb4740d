"""Static verification: truth tables, boolean reference checks, fan-out.

Logic levels follow the switching band of the devices themselves: an
output at or above the inflate threshold reads as 1 (it would close a
downstream valve), at or below the deflate threshold as 0, and anything
strictly between is indeterminate and refused rather than rounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .defaults import PhysicalDefaults
from .elements import KPA, PneumaticNetwork
from .engine import _Compiled, _dc_chunks
from .errors import IndeterminateLevelError, UnknownVariableError, VerifyError
from .netlist import CircuitAst, Statement, expand
from .units import Quantity

_DEFAULTS = PhysicalDefaults()


def _read_thresholds(defaults: PhysicalDefaults) -> tuple[float, float]:
    """The read-high minimum and read-low maximum (kPa) of gates built from
    ``defaults``: their valves' inflate and deflate thresholds."""
    return defaults.inflate_kpa, defaults.deflate_kpa


@dataclass(frozen=True)
class LogicLevels:
    drive_high_kpa: float = _DEFAULTS.supply_kpa
    drive_low_kpa: float = 0.0
    read_high_min_kpa: float = _DEFAULTS.inflate_kpa
    read_low_max_kpa: float = _DEFAULTS.deflate_kpa

    def __post_init__(self):
        if not self.read_low_max_kpa < self.read_high_min_kpa:
            raise ValueError("read thresholds must leave a forbidden band")
        if self.drive_high_kpa < self.read_high_min_kpa:
            raise ValueError("drive high cannot read as low")

    @classmethod
    def from_defaults(cls, defaults: PhysicalDefaults) -> "LogicLevels":
        """The levels of gates built from ``defaults``: drive high at the
        supply, read against the inflate and deflate thresholds."""
        return cls(defaults.supply_kpa, 0.0, *_read_thresholds(defaults))

    def drive(self, bit: int) -> float:
        return self.drive_high_kpa if bit else self.drive_low_kpa

    def read(self, pressure_kpa: float, node: str) -> int:
        if pressure_kpa >= self.read_high_min_kpa:
            return 1
        if pressure_kpa <= self.read_low_max_kpa:
            return 0
        raise IndeterminateLevelError(
            f"node {node!r} sits at {pressure_kpa:.2f} kPa, inside the "
            f"({self.read_low_max_kpa:g}, {self.read_high_min_kpa:g}) kPa band",
            node=node,
            pressure_kpa=pressure_kpa,
        )


@dataclass(frozen=True)
class TruthRow:
    inputs: tuple[int, ...]
    output: int
    output_kpa: float


@dataclass(frozen=True)
class TruthTable:
    input_nodes: tuple[str, ...]
    output_node: str
    rows: tuple[TruthRow, ...]

    def bits(self) -> dict[tuple[int, ...], int]:
        return {r.inputs: r.output for r in self.rows}


def truth_table(
    net: PneumaticNetwork,
    input_nodes: tuple[str, ...] | list[str],
    output_node: str,
    levels: LogicLevels | None = None,
) -> TruthTable:
    """Drive every input combination and read the settled output level.

    Inputs are held by ideal sources; each row starts from the network's
    declared valve states so rows are independent of one another, and
    differ only in the pinned pressures of one compiled network, searched
    together (one stacked solve for all rows of a feed-forward table); the
    output is read from the solved node pressures. An input named twice, an
    output node the network lacks, or an output that is also an input, is a
    ValueError.
    """
    levels = levels or LogicLevels()
    input_nodes = tuple(input_nodes)
    if len(set(input_nodes)) < len(input_nodes):
        raise ValueError(f"input nodes repeat: {', '.join(input_nodes)}")
    if output_node in input_nodes:
        raise ValueError(f"output node {output_node!r} is also an input")
    if output_node not in net.node_order():
        raise ValueError(f"output node {output_node!r} is not in the network")
    bits = list(itertools.product((0, 1), repeat=len(input_nodes)))
    drives = ([levels.drive(b) for b in row] for row in bits)
    rows = []
    for compiled, (_open, p_pa, _fixed_points) in _dc_chunks(net, input_nodes, drives):
        kpa = (p_pa[:, compiled.index[output_node]] / KPA).tolist()
        rows += [TruthRow(row, levels.read(k, output_node), k) for row, k in zip(bits[len(rows):], kpa)]
    return TruthTable(input_nodes, output_node, tuple(rows))


# ---------------------------------------------------------------------------
# boolean reference expressions
# ---------------------------------------------------------------------------

# grammar:  expr := term ('|' term)* ; term := factor ('&' factor)* ;
#           factor := '!' factor | '(' expr ')' | name | '0' | '1'


class _BoolParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self):
        node = self._expr()
        self._skip()
        if self.pos != len(self.text):
            raise VerifyError(
                f"trailing input at position {self.pos}: {self.text[self.pos:]!r}"
            )
        return node

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self):
        node = self._term()
        while self._peek() == "|":
            self.pos += 1
            node = ("or", node, self._term())
        return node

    def _term(self):
        node = self._factor()
        while self._peek() == "&":
            self.pos += 1
            node = ("and", node, self._factor())
        return node

    def _factor(self):
        ch = self._peek()
        if ch == "!":
            self.pos += 1
            return ("not", self._factor())
        if ch == "(":
            self.pos += 1
            node = self._expr()
            if self._peek() != ")":
                raise VerifyError(f"expected ')' at position {self.pos}")
            self.pos += 1
            return node
        if ch and ch in "01":
            self.pos += 1
            return ("const", int(ch))
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_."
        ):
            self.pos += 1
        if self.pos == start:
            raise VerifyError(f"expected a variable at position {start}")
        return ("var", self.text[start:self.pos])


def _eval_bool(node, env: dict[str, int]) -> int:
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        if node[1] not in env:
            raise UnknownVariableError(
                f"expression names {node[1]!r}; table has {sorted(env)}"
            )
        return env[node[1]]
    if op == "not":
        return 1 - _eval_bool(node[1], env)
    if op == "and":
        return _eval_bool(node[1], env) & _eval_bool(node[2], env)
    if op == "or":
        return _eval_bool(node[1], env) | _eval_bool(node[2], env)
    raise AssertionError(op)


@dataclass(frozen=True)
class Mismatch:
    inputs: tuple[int, ...]
    expected: int
    actual: int
    output_kpa: float


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    expression: str
    mismatches: tuple[Mismatch, ...]


def parse_reference(expression: str, variables: tuple[str, ...]):
    """The parse tree of a reference expression that names only
    ``variables``; VerifyError if it is malformed, UnknownVariableError if
    it names another variable. It solves nothing, so a table's reference
    can be checked before the table is built."""
    tree = _BoolParser(expression).parse()
    _eval_bool(tree, dict.fromkeys(variables, 0))
    return tree


def check_against_boolean(table: TruthTable, expression: str) -> CheckReport:
    """Compare a measured truth table against a reference expression.

    Variables in the expression are the table's input node names.
    """
    tree = parse_reference(expression, table.input_nodes)
    env = {name: np.array([row.inputs[k] for row in table.rows], dtype=int)
           for k, name in enumerate(table.input_nodes)}
    # a constant expression evaluates to one int, whatever the rows
    want = np.broadcast_to(_eval_bool(tree, env), len(table.rows)).tolist()
    bad = tuple(Mismatch(row.inputs, w, row.output, row.output_kpa)
                for row, w in zip(table.rows, want) if w != row.output)
    return CheckReport(passed=not bad, expression=expression, mismatches=bad)


# ---------------------------------------------------------------------------
# fan-out
# ---------------------------------------------------------------------------

_FANOUT_CAP = 1024

#: levels of the bisection tree whose midpoints one stacked probe solves
_BISECT_LEVELS = 4


@dataclass(frozen=True)
class FanoutReport:
    limit: int
    unbounded: bool
    threshold_kpa: float
    samples: tuple[tuple[int, float], ...]

    def sample_dict(self) -> dict[int, float]:
        return dict(self.samples)


def fanout_limit(
    supply_kpa: float | None = None,
    internal_resistance: float = 0.0,
    defaults: PhysicalDefaults | None = None,
) -> FanoutReport:
    """Largest load count a high output can still switch.

    The driver output feeds every load's control balloon. Worst case for
    the supply is the instant before the loads switch: their valves are
    still open, each pulling supply current through its own pull-down,
    which drags the shared output down through the source's internal
    resistance. A load switches only if its control node still reaches
    the inflate threshold in that state. There the n identical loads sit
    at the same pressures and act as one load with each branch n times as
    conductive, so a probe solves the same small network at any n, which
    is compiled once. The supply defaults to that of ``defaults``, and the
    threshold is the read-high threshold of gates built from ``defaults``:
    the sweep reads no other level, so a supply below that threshold
    reports a limit of 0.

    The search doubles the count until one fails, then bisects; the
    samples are the counts it visits. Its probes are solved ahead of it
    as stacks (``_load_control_kpa``): every doubling count at once, then
    the midpoints of the next ``_BISECT_LEVELS`` levels of the bisection
    from where it stands. A stack also solves counts the search never
    visits, and a singular row raises for the whole stack; with every
    valve open each branch conducts, so no count is singular.
    """
    defaults = defaults or PhysicalDefaults()
    if supply_kpa is None:
        supply_kpa = defaults.supply_kpa
    threshold = _read_thresholds(defaults)[0]
    net = _fanout_network(supply_kpa, internal_resistance, defaults)
    solved: dict[int, float] = {}
    samples: dict[int, float] = {}

    def probe(counts: list[int]) -> None:
        solved.update(zip(counts, _load_control_kpa(net, np.array(counts)).tolist()))

    def ok(n: int) -> bool:
        samples[n] = solved[n]
        return samples[n] >= threshold

    doubling = [1]
    while doubling[-1] < _FANOUT_CAP:
        doubling.append(min(doubling[-1] * 2, _FANOUT_CAP))
    probe(doubling)
    lo = 0  # the largest count known to switch (0: none)
    for hi in doubling:
        if not ok(hi):
            break
        lo = hi
    # invariant: lo switches (or is 0), hi does not, unless lo is the cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid not in solved:
            probe(_midpoints(lo, hi, _BISECT_LEVELS))
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return FanoutReport(lo, lo == _FANOUT_CAP, threshold, tuple(sorted(samples.items())))


def _midpoints(lo: int, hi: int, levels: int) -> list[int]:
    """The counts a bisection of ``(lo, hi)`` may visit in its next
    ``levels`` steps, whichever way each step goes."""
    mids, windows = [], [(lo, hi)]
    for _ in range(levels):
        windows = [(a, b) for a, b in windows if b - a > 1]
        mids += [(a + b) // 2 for a, b in windows]
        windows = [w for a, b in windows for w in ((a, (a + b) // 2), ((a + b) // 2, b))]
    return mids


class _FanoutNetwork(NamedTuple):
    """The fan-out network compiled, its branch conductances with every
    valve open, which of its branches are the load's, and the index of the
    load's control node."""

    compiled: _Compiled
    g: np.ndarray
    load: np.ndarray
    control: int


def _fanout_network(
    supply_kpa: float, internal_resistance: float, defaults: PhysicalDefaults
) -> _FanoutNetwork:
    """One inverter ``drv`` driving one inverter ``load`` from one source,
    validated and compiled."""
    sup = {"pressure": Quantity(supply_kpa, "kPa"), "resistance": Quantity(internal_resistance)}
    stmts = (
        Statement("source", "SUP", sup),
        Statement("gate", "drv", {"in": ("x",), "out": "y", "supply": "SUP"}, gate_type="NOT"),
        Statement("gate", "load", {"in": ("y",), "out": "z", "supply": "SUP"}, gate_type="NOT"),
    )
    net = expand(CircuitAst(stmts), defaults)
    # the driver input must be low so its own valve stays open and drives y high
    compiled = _Compiled(net.with_pins({"x": 0.0}).validate())
    g = compiled.conductances(np.ones(len(compiled.valve_names), dtype=bool))
    load = np.array([name.startswith("load.") for name in compiled.branch_names])
    return _FanoutNetwork(compiled, g, load, compiled.index["load.b"])


def _load_control_kpa(net: _FanoutNetwork, counts) -> np.ndarray:
    """The control pressure (kPa) of the fan-out network's load standing
    for n identical loads in parallel, with every valve open: each of its
    branches n times as conductive. One value per count n of ``counts``,
    from one ``dc_map`` over a stack of conductance rows, one per count;
    the stack raises SingularNetworkError if any of its rows is singular."""
    counts = np.asarray(counts, dtype=float)
    g = np.where(net.load, net.g * counts[..., None], net.g)
    drive = np.broadcast_to(net.compiled.fixed_pa, counts.shape + net.compiled.fixed_pa.shape)
    return net.compiled.dc_map(g, drive)[..., net.control] / KPA

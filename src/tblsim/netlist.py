"""Line-oriented netlist DSL: parse, format, expand, bill of materials.

Grammar (one statement per line, ``#`` starts a comment):

    source  <id> pressure=<P> [resistance=<R>]
    atm     <id>
    tube    <id> from=<node> to=<node> length=<L> [id=<d>]
    balloon <id> node=<node> [volume=<V>] [compliance=<C>] [burst=<P>] [init=<P>]
    valve   <id> from=<node> to=<node> control=<node> [open_conductance=<G>]
            [leak=<G>] [inflate=<P>] [deflate=<P>] [volume=<V>] [compliance=<C>]
            [burst=<P>] [state=open|closed] [init=<P>]
    gate    NOT|NOR|NAND|AND|OR <id> in=<node>[,<node>] out=<node> supply=<source>
            [length=<L>] [id=<d>] [pulldown_length=<L>] [inflate=<P>] [deflate=<P>]
            [volume=<V>] [compliance=<C>] [burst=<P>] [open_conductance=<G>] [leak=<G>]
    ring    <id> n=<odd int> supply=<source> [taps=<node>,...]
            [pulldown=per-gate|central] [gate overrides...]
    probe   <node>

Quantities take an optional unit suffix from {kPa, mL, cm, mm, m, s};
bare numbers are SI. Node names are created implicitly on first use.
Statement names are unique per kind; element names, a macro's
``<id>.<part>`` included, are unique across the netlist. A gate or ring
stage is one device per input; see ``_Builder.device``. ``format_circuit``
emits a canonical form (sorted keys, normalized units, LF endings) whose
parse is structurally identical to the AST it came from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from decimal import Decimal
from functools import cached_property

from .defaults import PhysicalDefaults
from .elements import (
    KPA,
    Balloon,
    BalloonParams,
    HysteresisThresholds,
    KinkValveDevice,
    PneumaticNetwork,
    SourceElement,
    TubeElement,
    ValveState,
    tube_resistance,
)
from .errors import (
    BadValueError,
    DuplicateIdError,
    EvenRingError,
    NetlistSyntaxError,
    SupplyMissingError,
    UnboundPortError,
    UnknownKeywordError,
    UnknownUnitError,
)
from .units import DIMENSION, Quantity, from_si

#: gate type -> (inputs, one supply path through every valve in series
#: rather than one per valve in parallel, output inverted through a NOT)
_GATES = {
    "NOT": (1, True, False),
    "NOR": (2, True, False),
    "NAND": (2, False, False),
    "AND": (2, False, True),
    "OR": (2, True, True),
}
GATE_TYPES = tuple(_GATES)

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")
_NUMBER_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([A-Za-z]*)$")
_TOKEN_RE = re.compile(r"\S+")

# value kinds: q:<dimension>, ident, idents, int, flag words. Every gate and
# ring stage is built from one device (_Builder.device): device tubes, a
# valve per input and its balloon, and a pull-down.
_BALLOON = {"volume": "q:volume", "compliance": "q:raw", "burst": "q:pressure"}
_VALVE = {
    "inflate": "q:pressure", "deflate": "q:pressure", "open_conductance": "q:raw",
    "leak": "q:raw", **_BALLOON,
}
_TUBE = {"length": "q:length", "id": "q:length"}
_MACRO = {"supply": "ident", "pulldown_length": "q:length", **_TUBE, **_VALVE}
_SCHEMA: dict[str, dict[str, str]] = {
    "source": {"pressure": "q:pressure", "resistance": "q:raw"},
    "atm": {},
    "tube": {"from": "ident", "to": "ident", **_TUBE},
    "balloon": {"node": "ident", "init": "q:pressure", **_BALLOON},
    "valve": {
        "from": "ident", "to": "ident", "control": "ident", "state": "ident",
        "init": "q:pressure", **_VALVE,
    },
    "gate": {"in": "idents", "out": "ident", **_MACRO},
    "ring": {"n": "int", "taps": "idents", "pulldown": "ident", **_MACRO},
    "probe": {},
}

#: the PhysicalDefaults field an absent element parameter falls back to;
#: ``init`` falls back to 0
_DEFAULT_OF = {
    "length": "device_tube_length",
    "id": "tube_inner_diameter",
    "pulldown_length": "pulldown_length",
    "inflate": "inflate_kpa",
    "deflate": "deflate_kpa",
    "volume": "balloon_rest_volume",
    "compliance": "balloon_compliance",
    "burst": "burst_kpa",
    "open_conductance": "open_conductance",
    "leak": "leak_conductance",
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "source": ("pressure",),
    "atm": (),
    "tube": ("from", "to", "length"),
    "balloon": ("node",),
    "valve": ("from", "to", "control"),
    "gate": ("in", "out", "supply"),
    "ring": ("n", "supply"),
    "probe": (),
}


@dataclass(frozen=True)
class Statement:
    kind: str
    name: str
    params: dict
    gate_type: str | None = None
    line: int = dc_field(default=0, compare=False)

    def get(self, key: str, default=None):
        return self.params.get(key, default)


@dataclass(frozen=True)
class CircuitAst:
    statements: tuple[Statement, ...] = ()

    def of_kind(self, kind: str) -> list[Statement]:
        return [s for s in self.statements if s.kind == kind]

    def with_override(self, name: str, key: str, value) -> "CircuitAst":
        """Return a copy with one statement parameter replaced."""
        out = []
        hit = False
        for s in self.statements:
            if s.name == name and s.kind not in ("probe",):
                schema = _SCHEMA[s.kind]
                if key not in schema:
                    raise UnknownKeywordError(
                        f"{s.kind} {name} has no parameter {key!r}", line=s.line
                    )
                params = dict(s.params)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    value = Quantity(float(value), "")  # a bare number: SI, as in text
                raw = _parse_value(value, s.line, 0) if isinstance(value, str) else value
                params[key] = _coerce_value(raw, schema[key], s.line, 0)
                out.append(Statement(s.kind, s.name, params, s.gate_type, s.line))
                hit = True
            else:
                out.append(s)
        if not hit:
            raise UnknownKeywordError(f"no statement named {name!r} to override")
        return CircuitAst(tuple(out))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_value(text: str, line: int, col: int):
    """Classify a raw value token: quantity, ident, or ident list."""
    m = _NUMBER_RE.match(text)
    if m:
        number, unit = m.groups()
        if unit:
            if unit not in DIMENSION:
                raise UnknownUnitError(f"unknown unit {unit!r}", line=line, column=col)
            return Quantity(float(number), unit).canonical()
        return Quantity(float(number), "")
    if "," in text:
        parts = tuple(p for p in text.split(","))
        for p in parts:
            if not _IDENT_RE.match(p):
                raise NetlistSyntaxError(
                    f"bad identifier {p!r} in list", line=line, column=col
                )
        return parts
    if _IDENT_RE.match(text):
        return text
    if text and text[0] in "+-.0123456789":
        raise NetlistSyntaxError(f"bad number {text!r}", line=line, column=col)
    raise NetlistSyntaxError(f"bad value {text!r}", line=line, column=col)


def _coerce_value(value, kind: str, line: int, col: int):
    """Check a parsed value against the schema kind, normalizing units."""
    def expected(what: str) -> NetlistSyntaxError:
        got = value if isinstance(value, bool) else _render_value(value)
        return NetlistSyntaxError(f"expected {what}, got {got!r}", line=line, column=col)

    if kind == "int":
        if isinstance(value, Quantity) and value.unit == "" and value.value == int(value.value):
            return int(value.value)
        raise expected("an integer")
    if kind == "ident":
        if isinstance(value, str):
            return value
        raise expected("an identifier")
    if kind == "idents":
        if isinstance(value, str):
            return (value,)
        if isinstance(value, tuple):
            return value
        raise expected("identifiers")
    if kind.startswith("q:"):
        dim = kind[2:]
        if not isinstance(value, Quantity):
            raise expected("a number")
        if value.unit == "" and dim != "raw":
            return from_si(value.value, dim)  # bare numbers are SI
        if value.dimension != dim:
            raise expected(f"a {dim} value")
        return value
    raise AssertionError(kind)


def parse(text: str) -> CircuitAst:
    """Parse netlist text into an AST; errors carry line and column."""
    statements: list[Statement] = []
    seen: dict[tuple[str, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = list(_TOKEN_RE.finditer(line))
        if not tokens:
            continue
        kind_tok = tokens[0]
        kind = kind_tok.group(0)
        if kind not in _SCHEMA:
            raise UnknownKeywordError(
                f"unknown statement kind {kind!r}", line=lineno, column=kind_tok.start() + 1
            )
        rest = tokens[1:]
        gate_type = None
        if kind == "gate":
            if not rest:
                raise NetlistSyntaxError("gate needs a type", line=lineno, column=len(line) + 1)
            gt = rest[0].group(0)
            if gt.upper() not in GATE_TYPES:
                raise UnknownKeywordError(
                    f"unknown gate type {gt!r}", line=lineno, column=rest[0].start() + 1
                )
            gate_type = gt.upper()
            rest = rest[1:]
        if not rest:
            raise NetlistSyntaxError(
                f"{kind} statement needs a name", line=lineno, column=len(line) + 1
            )
        name_tok = rest[0]
        name = name_tok.group(0)
        if not _IDENT_RE.match(name) or "=" in name:
            raise NetlistSyntaxError(
                f"bad identifier {name!r}", line=lineno, column=name_tok.start() + 1
            )
        schema = _SCHEMA[kind]
        params: dict = {}
        for tok in rest[1:]:
            col = tok.start() + 1
            part = tok.group(0)
            if "=" not in part:
                raise NetlistSyntaxError(
                    f"expected key=value, got {part!r}", line=lineno, column=col
                )
            key, _, val_text = part.partition("=")
            if key not in schema:
                raise UnknownKeywordError(
                    f"{kind} has no parameter {key!r}", line=lineno, column=col
                )
            if key in params:
                raise NetlistSyntaxError(
                    f"duplicate key {key!r}", line=lineno, column=col
                )
            if not val_text:
                raise NetlistSyntaxError(f"empty value for {key!r}", line=lineno, column=col)
            value = _parse_value(val_text, lineno, col + len(key) + 1)
            params[key] = _coerce_value(value, schema[key], lineno, col + len(key) + 1)
        missing = [k for k in _REQUIRED[kind] if k not in params]
        if missing:
            raise NetlistSyntaxError(
                f"{kind} {name} is missing {', '.join(missing)}", line=lineno,
                column=kind_tok.start() + 1,
            )
        dup_key = (kind, name)
        if dup_key in seen:
            raise DuplicateIdError(
                f"{kind} {name!r} already declared on line {seen[dup_key]}",
                line=lineno, column=name_tok.start() + 1,
            )
        seen[dup_key] = lineno
        statements.append(Statement(kind, name, params, gate_type, lineno))
    return CircuitAst(tuple(statements))


def format_circuit(ast: CircuitAst) -> str:
    """Canonical text form: one statement per line, keys sorted, LF ends."""
    lines = []
    for s in ast.statements:
        head = s.kind if s.gate_type is None else f"{s.kind} {s.gate_type}"
        parts = [head, s.name]
        for key in sorted(s.params):
            parts.append(f"{key}={_render_value(s.params[key])}")
        lines.append(" ".join(parts))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def _render_value(value) -> str:
    if isinstance(value, Quantity):
        return value.render()
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not netlist values")
    return str(value)


# ---------------------------------------------------------------------------
# macro expansion
# ---------------------------------------------------------------------------


class _GateParams:
    """Element parameters of a statement, each resolved at its first use
    and shared by every element the statement makes: ``gp[key]`` is its
    own value where given, else its default. Pressures are kPa, the rest SI."""

    def __init__(self, defaults: PhysicalDefaults, stmt: Statement):
        self.defaults, self.stmt = defaults, stmt
        self._values: dict[str, float] = {}
        self._resistances: dict[str, float] = {}

    def __getitem__(self, key: str) -> float:
        if key not in self._values:
            v = self.stmt.get(key)
            if v is None:
                v = getattr(self.defaults, _DEFAULT_OF[key]) if key != "init" else 0.0
            else:
                v = v.si / KPA if _SCHEMA[self.stmt.kind][key] == "q:pressure" else v.si
            self._values[key] = v
        return self._values[key]

    @cached_property
    def balloon(self) -> BalloonParams:
        return BalloonParams(
            rest_volume=self["volume"], compliance=self["compliance"], burst_kpa=self["burst"]
        )

    @cached_property
    def thresholds(self) -> HysteresisThresholds:
        return HysteresisThresholds(p_inflate=self["inflate"], p_deflate=self["deflate"])

    def tube(self, name: str, a: str, b: str, length: str) -> TubeElement:
        """A tube of the length ``self[length]`` and the diameter ``self["id"]``."""
        if length not in self._resistances:
            self._resistances[length] = tube_resistance(
                self[length], self["id"], self.defaults.air_viscosity
            )
        return TubeElement(name, a, b, self[length], self["id"], self._resistances[length])

    def valve(self, name: str, flow_from: str, flow_to: str, control: str, **kw):
        """A switching device with these parameters; ``kw`` sets the rest."""
        return KinkValveDevice(
            name, flow_from, flow_to, control,
            balloon=self.balloon,
            thresholds=self.thresholds,
            open_conductance=self["open_conductance"],
            leak_conductance=self["leak"],
            **kw,
        )


class _Builder:
    def __init__(self, defaults: PhysicalDefaults):
        self.defaults = defaults
        self.tubes: list[TubeElement] = []
        self.valves: list[KinkValveDevice] = []
        self.balloons: list[Balloon] = []
        self.sources: list[SourceElement] = []
        self.probes: list[str] = []
        self.atmosphere = "ATM"
        self.gp: _GateParams  # the parameters of the statement being expanded
        self.made_by: dict[str, Statement] = {}  # element name -> its statement

    def add(self, group: list, element) -> None:
        """Append ``element`` to ``group``; a name another statement's
        element has is reported at the later of the two statements."""
        first = self.made_by.setdefault(element.name, self.gp.stmt)
        if first is not self.gp.stmt:
            first, later = sorted((first, self.gp.stmt), key=lambda s: s.line)
            raise DuplicateIdError(
                f"{later.kind} {later.name!r}: element {element.name!r} already made by "
                f"{first.kind} {first.name!r} on line {first.line}", line=later.line,
            )
        group.append(element)

    def tube(self, name: str, a: str, b: str, length: str = "length"):
        self.add(self.tubes, self.gp.tube(name, a, b, length))

    def device(self, name: str, inputs, out: str, supply: str, series=True, with_pulldown=True):
        """One switching device per input, its balloon ``<name>.b<k>`` fed
        from that input, and a pull-down from ``out`` to atmosphere. In
        series one supply path runs through every valve (``<name>.s``,
        ``<name>.m``, out); in parallel each valve has its own path
        (``<name>.s<k>``), joined at ``out``. A lone device has no index k."""
        ks = [""] if len(inputs) == 1 else [str(k) for k in range(1, len(inputs) + 1)]
        heads = ["s"] if series else [f"s{k}" for k in ks]
        for h in heads:
            self.tube(f"{name}.t{h}", supply, f"{name}.{h}")
        for k, node in zip(ks, inputs):
            self.tube(f"{name}.tc{k}", node, f"{name}.b{k}")
        path = [f"{name}.s", f"{name}.m"][: len(ks)] + [out]
        for j, k in enumerate(ks):
            a, z = (path[j], path[j + 1]) if series else (f"{name}.{heads[j]}", out)
            self.add(self.valves, self.gp.valve(f"{name}.v{k}", a, z, f"{name}.b{k}"))
        if with_pulldown:
            self.tube(f"{name}.tp", out, self.atmosphere, "pulldown_length")

    def network(self) -> PneumaticNetwork:
        return PneumaticNetwork(
            tubes=tuple(self.tubes),
            valves=tuple(self.valves),
            balloons=tuple(self.balloons),
            sources=tuple(self.sources),
            atmosphere=self.atmosphere,
            probes=tuple(self.probes),
        )


def _supply_node(stmt: Statement, sources: dict) -> str:
    """The node of the source a gate or ring statement names as its supply."""
    supply = stmt.get("supply")
    if supply not in sources:
        raise SupplyMissingError(
            f"{stmt.kind} {stmt.name}: supply {supply!r} is not a declared source",
            line=stmt.line,
        )
    return sources[supply].node


def _expand_gate(b: _Builder, stmt: Statement, sources: dict):
    inputs = stmt.get("in", ())
    out = stmt.get("out")
    supply_node = _supply_node(stmt, sources)
    need, series, inverted = _GATES[stmt.gate_type]
    if len(inputs) != need or out is None:
        raise UnboundPortError(
            f"gate {stmt.name}: {stmt.gate_type} takes {need} input(s) and one output",
            line=stmt.line,
        )
    if inverted:
        mid = f"{stmt.name}.q"
        b.device(f"{stmt.name}.n", inputs, mid, supply_node, series)
        b.device(f"{stmt.name}.i", (mid,), out, supply_node)
    else:
        b.device(stmt.name, inputs, out, supply_node, series)


def _expand_ring(b: _Builder, stmt: Statement, sources: dict):
    n = stmt.get("n")
    if n is None or n < 3 or n % 2 == 0:
        raise EvenRingError(
            f"ring {stmt.name}: n must be an odd integer >= 3, got {n}", line=stmt.line
        )
    supply_node = _supply_node(stmt, sources)
    taps = list(stmt.get("taps", ()))
    if len(taps) > n:
        raise UnboundPortError(
            f"ring {stmt.name}: {len(taps)} taps for {n} gates", line=stmt.line
        )
    taps += [f"{stmt.name}.q{i + 1}" for i in range(len(taps), n)]
    mode = stmt.get("pulldown", "per-gate")
    if mode not in ("per-gate", "central"):
        raise UnknownKeywordError(
            f"ring {stmt.name}: pulldown must be per-gate or central, got {mode!r}",
            line=stmt.line,
        )
    per_gate = mode == "per-gate"
    for i in range(n):  # cyclic: gate 1 is driven by gate n
        b.device(
            f"{stmt.name}.g{i + 1}", (taps[i - 1],), taps[i], supply_node, with_pulldown=per_gate
        )
    if not per_gate:
        for i in range(n):
            b.tube(f"{stmt.name}.tl{i + 1}", taps[i], f"{stmt.name}.c")
        b.tube(f"{stmt.name}.tp", f"{stmt.name}.c", b.atmosphere, "pulldown_length")


def _expand_statement(b: _Builder, stmt: Statement, sources: dict) -> None:
    """Add the elements of one statement to ``b``."""
    b.gp = gp = _GateParams(b.defaults, stmt)
    if stmt.kind == "source":
        resistance = stmt.get("resistance")
        sources[stmt.name] = src = SourceElement(
            stmt.name, stmt.name, gp["pressure"], resistance.si if resistance else 0.0
        )
        b.add(b.sources, src)
    elif stmt.kind == "tube":
        b.tube(stmt.name, stmt.get("from"), stmt.get("to"))
    elif stmt.kind == "balloon":
        b.add(b.balloons, Balloon(stmt.name, stmt.get("node"), gp.balloon, gp["init"]))
    elif stmt.kind == "valve":
        state_txt = stmt.get("state", "open")
        if state_txt not in ("open", "closed"):
            raise NetlistSyntaxError(
                f"valve {stmt.name}: state must be open or closed", line=stmt.line
            )
        b.add(b.valves, gp.valve(
            stmt.name, stmt.get("from"), stmt.get("to"), stmt.get("control"),
            state=ValveState(state_txt), initial_control_kpa=gp["init"],
        ))
    elif stmt.kind == "gate":
        _expand_gate(b, stmt, sources)
    elif stmt.kind == "ring":
        _expand_ring(b, stmt, sources)
    elif stmt.kind == "probe":
        b.probes.append(stmt.name)


def expand(ast: CircuitAst, defaults: PhysicalDefaults | None = None) -> PneumaticNetwork:
    """Elaborate an AST into a flat PneumaticNetwork.

    Gate and ring macros expand to tubes, valves and balloons with
    namespaced internal nodes (``<gate>.b`` and friends). Sources come
    first, so a gate or ring may name one declared anywhere. An element
    named as one another statement made raises DuplicateIdError at the
    later statement's line, naming the earlier one. A value an
    element rejects raises BadValueError at its statement's line, its
    message naming the element once. The returned network is validated.
    """
    defaults = defaults or PhysicalDefaults()
    b = _Builder(defaults)
    atm_stmts = ast.of_kind("atm")
    if atm_stmts:
        b.atmosphere = atm_stmts[0].name
    sources: dict[str, SourceElement] = {}
    for stmt in ast.of_kind("source") + [s for s in ast.statements if s.kind != "source"]:
        try:
            _expand_statement(b, stmt, sources)
        except ValueError as exc:
            # an element's message names the element where it is not already named
            msg, named = str(exc), f"{stmt.kind} {stmt.name}: "
            raise BadValueError(
                msg if msg.startswith(named) else named + msg, line=stmt.line
            ) from exc

    net = b.network()
    known = set(net.node_order())
    for stmt in ast.of_kind("probe"):
        if stmt.name not in known:
            raise UnboundPortError(
                f"probe references unknown node {stmt.name!r}", line=stmt.line
            )
    return net.validate()


# ---------------------------------------------------------------------------
# bill of materials
# ---------------------------------------------------------------------------

# Per-device consumables and unit prices. One switching device uses one
# straw, one balloon, 30 cm of tubing (two 7.5 cm device tubes plus the
# 15 cm pull-down) and 6 cm^2 of sealing film.
_BOM_UNITS = (
    ("boba straw", 1, "", Decimal("0.08")),
    ("twisting balloon", 1, "", Decimal("0.05")),
    ("PVC tubing (1 mm ID)", 30, "cm", Decimal("0.29")),
    ("sealing film", 6, "cm^2", Decimal("0.03")),
)

COST_PER_DEVICE = sum(price for *_, price in _BOM_UNITS)

BOM_NOTE = (
    "30 cm tubing per device = two 7.5 cm device tubes + one 15 cm pull-down"
)


@dataclass(frozen=True)
class BomLine:
    description: str
    quantity: int
    unit: str
    cost: Decimal


@dataclass(frozen=True)
class BillOfMaterials:
    device_count: int
    lines: tuple[BomLine, ...]
    total: Decimal
    note: str = BOM_NOTE


def bom(ast: CircuitAst, defaults: PhysicalDefaults | None = None) -> BillOfMaterials:
    """Count switching devices after macro expansion and price the build."""
    net = expand(ast, defaults)
    count = len(net.valves)
    lines = tuple(
        BomLine(desc, qty * count, unit, price * count)
        for desc, qty, unit, price in _BOM_UNITS
    )
    return BillOfMaterials(
        device_count=count,
        lines=lines,
        total=COST_PER_DEVICE * count,
    )

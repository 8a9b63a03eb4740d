import random
from decimal import Decimal

import pytest

from tblsim import (
    BadValueError,
    CircuitAst,
    DuplicateIdError,
    EvenRingError,
    NetlistError,
    NetlistSyntaxError,
    PhysicalDefaults,
    Quantity,
    SourceElement,
    Statement,
    SupplyMissingError,
    UnboundPortError,
    UnknownKeywordError,
    UnknownUnitError,
    bom,
    expand,
    fanout_limit,
    format_circuit,
    parse,
)
from tblsim.units import from_si


def test_parse_minimal_inverter():
    ast = parse(
        "# comment line\n"
        "source SUP pressure=145kPa   # trailing comment\n"
        "\n"
        "gate NOT inv in=a out=q supply=SUP\n"
        "probe q\n"
    )
    kinds = [s.kind for s in ast.statements]
    assert kinds == ["source", "gate", "probe"]
    gate = ast.statements[1]
    assert gate.gate_type == "NOT"
    assert gate.get("in") == ("a",)
    assert gate.get("out") == "q"
    assert ast.statements[0].get("pressure") == Quantity(145.0, "kPa")


def test_units_and_bare_si_numbers():
    ast = parse(
        "source S pressure=101325\n"          # bare number = SI pascals
        "tube t1 from=S to=ATM length=0.15\n"  # SI metres
        "tube t2 from=S to=ATM length=15cm id=1mm\n"
    )
    assert ast.statements[0].get("pressure").si == pytest.approx(101325.0)
    assert ast.statements[1].get("length").si == pytest.approx(0.15)
    assert ast.statements[2].get("length").si == pytest.approx(0.15)
    assert ast.statements[2].get("id").si == pytest.approx(1.0e-3)


def test_quantity_canonical_unit_selection():
    assert Quantity(0.15, "m").canonical().render() == "15cm"
    assert Quantity(0.5, "cm").canonical().render() == "5mm"
    assert Quantity(2.0, "mm").canonical().render() == "2mm"
    assert Quantity(85.0, "kPa").canonical().render() == "85kPa"
    assert Quantity(2.5e-6, "m").canonical().render() == "0.0025mm"


@pytest.mark.parametrize(
    "si, dimension, want",
    [
        (2.5, "raw", Quantity(2.5, "")),
        (145.0e3, "pressure", Quantity(145.0e3 / 1.0e3, "kPa")),
        (2.0e-6, "volume", Quantity(2.0e-6 / 1.0e-6, "mL")),
        (0.5, "time", Quantity(0.5, "s")),
        (0.15, "length", Quantity(0.15 / 1.0e-2, "cm")),
        (0.005, "length", Quantity(0.005 / 1.0e-3, "mm")),
    ],
)
def test_from_si_picks_the_canonical_unit(si, dimension, want):
    got = from_si(si, dimension)
    assert (got.value, got.unit) == (want.value, want.unit)  # bit for bit
    assert got.canonical() is got
    assert got.dimension == dimension


def test_from_si_rejects_an_unknown_dimension():
    with pytest.raises(ValueError, match="unknown dimension 'mass'"):
        from_si(1.0, "mass")


@pytest.mark.parametrize(
    "text, err, line, col",
    [
        ("tube t1 from=a to=b length=5parsecs", UnknownUnitError, 1, 28),
        ("gadget g1 in=a out=b", UnknownKeywordError, 1, 1),
        ("source S pressure=145kPa\nsource S pressure=10kPa", DuplicateIdError, 2, 8),
        ("tube t1 from=a to=b", NetlistSyntaxError, 1, 1),          # missing length
        ("tube t1 from=a to=b length=5kPa", NetlistSyntaxError, 1, 28),
        ("tube t1 from=a to=b length=5cm length=6cm", NetlistSyntaxError, 1, 32),
        ("tube t1 from=a to=b length=5cm bogus=1", UnknownKeywordError, 1, 32),
        ("gate XOR g in=a,b out=q supply=S", UnknownKeywordError, 1, 6),
        ("ring r n=2.5 supply=S", NetlistSyntaxError, 1, 10),
        ("probe", NetlistSyntaxError, 1, 6),
        ("gate", NetlistSyntaxError, 1, 5),
        ("tube t1 from=a to=b length=", NetlistSyntaxError, 1, 21),
    ],
)
def test_parse_errors_carry_positions(text, err, line, col):
    with pytest.raises(err) as e:
        parse(text)
    assert e.value.line == line
    assert e.value.column == col


@pytest.mark.parametrize(
    "text, quoted",
    [
        ("tube t1 from=5 to=b length=5cm", "got '5'"),
        ("tube t1 from=a,b to=c length=5cm", "got 'a,b'"),
        ("ring r n=2.5 supply=S", "got '2.5'"),
    ],
)
def test_value_diagnostics_quote_netlist_text(text, quoted):
    with pytest.raises(NetlistSyntaxError) as e:
        parse(text)
    assert quoted in str(e.value)
    assert "Quantity(" not in str(e.value)


def test_format_is_canonical_and_stable():
    ast = parse("tube   t1   to=b   from=a   length=0.15\nsource S pressure=145kPa\n")
    text = format_circuit(ast)
    assert text == "tube t1 from=a length=15cm to=b\nsource S pressure=145kPa\n"
    assert format_circuit(parse(text)) == text
    assert format_circuit(CircuitAst()) == ""


# ---------------------------------------------------------------------------
# round-trip fuzz (the full-size corpus runs in the acceptance suite)
# ---------------------------------------------------------------------------

from fuzztools import random_ast, statement as _statement


def test_round_trip_identity_on_fuzz_corpus():
    rng = random.Random(99173)
    for case in range(2000):
        ast = random_ast(rng)
        text = format_circuit(ast)
        back = parse(text)
        assert back == ast, f"case {case}:\n{text}"


def test_round_trip_through_two_cycles():
    rng = random.Random(5150)
    for _ in range(200):
        ast = CircuitAst(tuple(_statement(rng, i) for i in range(4)))
        once = format_circuit(ast)
        twice = format_circuit(parse(once))
        assert once == twice


# ---------------------------------------------------------------------------
# macro expansion
# ---------------------------------------------------------------------------


def test_not_macro_structure():
    net = expand(parse("source SUP pressure=145kPa\ngate NOT inv in=a out=q supply=SUP\n"))
    assert sorted(t.name for t in net.tubes) == ["inv.tc", "inv.tp", "inv.ts"]
    assert [v.name for v in net.valves] == ["inv.v"]
    v = net.valves[0]
    assert v.control_node == "inv.b"
    assert v.balloon is not None
    pull = next(t for t in net.tubes if t.name == "inv.tp")
    assert pull.node_b == "ATM"
    assert pull.length == pytest.approx(0.15)


_T, _V = "tube", "valve"

#: every element of each macro, in order: (kind, name, endpoints, control)
_WIRING = {
    "NOT": [
        (_T, "g.ts", "SUP", "g.s", None), (_T, "g.tc", "a", "g.b", None),
        (_T, "g.tp", "q", "ATM", None), (_V, "g.v", "g.s", "q", "g.b"),
    ],
    "NOR": [  # one supply path through both valves in series
        (_T, "g.ts", "SUP", "g.s", None), (_T, "g.tc1", "a", "g.b1", None),
        (_T, "g.tc2", "b", "g.b2", None), (_T, "g.tp", "q", "ATM", None),
        (_V, "g.v1", "g.s", "g.m", "g.b1"), (_V, "g.v2", "g.m", "q", "g.b2"),
    ],
    "NAND": [  # one supply path per valve, joined at the output
        (_T, "g.ts1", "SUP", "g.s1", None), (_T, "g.ts2", "SUP", "g.s2", None),
        (_T, "g.tc1", "a", "g.b1", None), (_T, "g.tc2", "b", "g.b2", None),
        (_T, "g.tp", "q", "ATM", None),
        (_V, "g.v1", "g.s1", "q", "g.b1"), (_V, "g.v2", "g.s2", "q", "g.b2"),
    ],
    "AND": [
        (_T, "g.n.ts1", "SUP", "g.n.s1", None), (_T, "g.n.ts2", "SUP", "g.n.s2", None),
        (_T, "g.n.tc1", "a", "g.n.b1", None), (_T, "g.n.tc2", "b", "g.n.b2", None),
        (_T, "g.n.tp", "g.q", "ATM", None), (_T, "g.i.ts", "SUP", "g.i.s", None),
        (_T, "g.i.tc", "g.q", "g.i.b", None), (_T, "g.i.tp", "q", "ATM", None),
        (_V, "g.n.v1", "g.n.s1", "g.q", "g.n.b1"), (_V, "g.n.v2", "g.n.s2", "g.q", "g.n.b2"),
        (_V, "g.i.v", "g.i.s", "q", "g.i.b"),
    ],
    "OR": [
        (_T, "g.n.ts", "SUP", "g.n.s", None), (_T, "g.n.tc1", "a", "g.n.b1", None),
        (_T, "g.n.tc2", "b", "g.n.b2", None), (_T, "g.n.tp", "g.q", "ATM", None),
        (_T, "g.i.ts", "SUP", "g.i.s", None), (_T, "g.i.tc", "g.q", "g.i.b", None),
        (_T, "g.i.tp", "q", "ATM", None),
        (_V, "g.n.v1", "g.n.s", "g.n.m", "g.n.b1"), (_V, "g.n.v2", "g.n.m", "g.q", "g.n.b2"),
        (_V, "g.i.v", "g.i.s", "q", "g.i.b"),
    ],
    "per-gate": [
        (_T, "r.g1.ts", "SUP", "r.g1.s", None), (_T, "r.g1.tc", "r.q3", "r.g1.b", None),
        (_T, "r.g1.tp", "r.q1", "ATM", None), (_T, "r.g2.ts", "SUP", "r.g2.s", None),
        (_T, "r.g2.tc", "r.q1", "r.g2.b", None), (_T, "r.g2.tp", "r.q2", "ATM", None),
        (_T, "r.g3.ts", "SUP", "r.g3.s", None), (_T, "r.g3.tc", "r.q2", "r.g3.b", None),
        (_T, "r.g3.tp", "r.q3", "ATM", None),
        (_V, "r.g1.v", "r.g1.s", "r.q1", "r.g1.b"), (_V, "r.g2.v", "r.g2.s", "r.q2", "r.g2.b"),
        (_V, "r.g3.v", "r.g3.s", "r.q3", "r.g3.b"),
    ],
    "central": [
        (_T, "r.g1.ts", "SUP", "r.g1.s", None), (_T, "r.g1.tc", "r.q3", "r.g1.b", None),
        (_T, "r.g2.ts", "SUP", "r.g2.s", None), (_T, "r.g2.tc", "r.q1", "r.g2.b", None),
        (_T, "r.g3.ts", "SUP", "r.g3.s", None), (_T, "r.g3.tc", "r.q2", "r.g3.b", None),
        (_T, "r.tl1", "r.q1", "r.c", None), (_T, "r.tl2", "r.q2", "r.c", None),
        (_T, "r.tl3", "r.q3", "r.c", None), (_T, "r.tp", "r.c", "ATM", None),
        (_V, "r.g1.v", "r.g1.s", "r.q1", "r.g1.b"), (_V, "r.g2.v", "r.g2.s", "r.q2", "r.g2.b"),
        (_V, "r.g3.v", "r.g3.s", "r.q3", "r.g3.b"),
    ],
}


@pytest.mark.parametrize("macro", list(_WIRING))
def test_macros_wire_their_devices_as_pinned(macro):
    if macro in ("per-gate", "central"):
        line = f"ring r n=3 supply=SUP pulldown={macro}"
    else:
        line = f"gate {macro} g in={'a' if macro == 'NOT' else 'a,b'} out=q supply=SUP"
    net = expand(parse(f"source SUP pressure=145kPa\n{line}\n"))
    got = [(_T, t.name, t.node_a, t.node_b, None) for t in net.tubes]
    got += [(_V, v.name, v.flow_from, v.flow_to, v.control_node) for v in net.valves]
    assert got == _WIRING[macro]


def test_a_statement_resolves_its_device_parameters_once():
    # every device of one statement shares its balloon and its band; each
    # statement has its own, equal where their values are
    text = "source SUP pressure=145kPa\nring r n=5 supply=SUP\ngate NOR g in=a,b out=q supply=SUP\n"
    net = expand(parse(text))
    ring, gate = net.valves[:5], net.valves[5:]
    assert all(v.balloon is ring[0].balloon and v.thresholds is ring[0].thresholds for v in ring)
    assert gate[1].balloon is gate[0].balloon and gate[0].balloon is not ring[0].balloon
    assert gate[0].balloon == ring[0].balloon and gate[0].thresholds == ring[0].thresholds


def test_ring_macro_wiring_is_cyclic():
    net = expand(parse("source SUP pressure=145kPa\nring r n=5 supply=SUP\n"))
    assert len(net.valves) == 5
    feeds = {t.name: t for t in net.tubes if ".tc" in t.name}
    assert feeds["r.g1.tc"].node_a == "r.q5"
    assert feeds["r.g3.tc"].node_a == "r.q2"


def test_ring_macro_central_pulldown():
    net = expand(
        parse("source SUP pressure=145kPa\nring r n=3 supply=SUP pulldown=central\n")
    )
    pulls = [t for t in net.tubes if t.name == "r.tp"]
    assert len(pulls) == 1
    assert pulls[0].node_b == "ATM"
    # gate outputs reach the shared pull-down through collector tubes
    assert len([t for t in net.tubes if t.name.startswith("r.tl")]) == 3


def test_ring_rejects_even_or_tiny_n():
    for n in (2, 4, 1, 0):
        with pytest.raises(EvenRingError):
            expand(parse(f"source SUP pressure=145kPa\nring r n={n} supply=SUP\n"))


def test_gate_without_declared_supply():
    with pytest.raises(SupplyMissingError):
        expand(parse("gate NOT inv in=a out=q supply=SUP\n"))


@pytest.mark.parametrize(
    "text, err, message",
    [
        ("ring r n=3 supply=SUP", SupplyMissingError,
         "ring r: supply 'SUP' is not a declared source"),
        ("ring r n=3 supply=S taps=a,b,c,d", UnboundPortError, "ring r: 4 taps for 3 gates"),
        ("ring r n=3 supply=S pulldown=shared", UnknownKeywordError,
         "ring r: pulldown must be per-gate or central, got 'shared'"),
    ],
    ids=["undeclared-supply", "too-many-taps", "bad-pulldown"],
)
def test_ring_statement_errors(text, err, message):
    with pytest.raises(err) as e:
        expand(parse("source S pressure=145kPa\n" + text + "\n"))
    assert str(e.value) == message
    assert e.value.line == 2


def test_atm_statement_renames_the_ambient_node():
    net = expand(
        parse("atm GND\nsource SUP pressure=145kPa\ngate NOT inv in=a out=q supply=SUP\n")
    )
    assert net.atmosphere == "GND"
    assert next(t for t in net.tubes if t.name == "inv.tp").node_b == "GND"
    assert "ATM" not in net.node_order()


def test_bad_element_value_is_a_netlist_error_and_a_value_error():
    with pytest.raises(BadValueError) as e:
        expand(parse("source S pressure=145kPa\n\ntube t from=S to=ATM length=-5cm\n"))
    assert isinstance(e.value, NetlistError) and isinstance(e.value, ValueError)
    assert str(e.value) == "tube t: length must be >= 0, got -0.05"
    assert e.value.line == 3
    # library callers that catch ValueError keep working
    with pytest.raises(ValueError, match="below vacuum"):
        fanout_limit(supply_kpa=-200.0)


def test_vacuum_source_is_named_once():
    with pytest.raises(BadValueError) as e:
        expand(parse("source S pressure=-200kPa\n"))
    assert str(e.value).startswith("source S: ") and str(e.value).count("source S") == 1
    with pytest.raises(ValueError) as e:
        SourceElement("S", "a", -200.0)
    assert str(e.value).count("source S") == 1


def test_gate_arity_is_enforced():
    with pytest.raises(UnboundPortError):
        expand(parse("source SUP pressure=145kPa\ngate NOR g in=a out=q supply=SUP\n"))
    with pytest.raises(UnboundPortError):
        expand(parse("source SUP pressure=145kPa\ngate NOT g in=a,b out=q supply=SUP\n"))


def test_probe_must_reference_a_real_node():
    with pytest.raises(UnboundPortError):
        expand(
            parse(
                "source SUP pressure=145kPa\n"
                "gate NOT inv in=a out=q supply=SUP\n"
                "probe nowhere\n"
            )
        )


def test_gate_parameter_overrides_flow_through():
    net = expand(
        parse(
            "source SUP pressure=145kPa\n"
            "gate NOT inv in=a out=q supply=SUP pulldown_length=30cm inflate=90kPa\n"
        )
    )
    pull = next(t for t in net.tubes if t.name == "inv.tp")
    assert pull.length == pytest.approx(0.30)
    assert net.valves[0].thresholds.p_inflate == pytest.approx(90.0)


def test_valve_statements_and_gates_take_defaults_alike():
    # neither default survives a kPa -> Pa -> kPa round trip
    defaults = PhysicalDefaults().merged({"inflate_kpa": 86.895802, "burst_kpa": 230.4824372526})
    net = expand(
        parse(
            "source SUP pressure=145kPa\n"
            "gate NOT inv in=a out=q supply=SUP\n"
            "valve v from=SUP to=x control=c\n"
            "tube t from=x to=ATM length=15cm\n"
        ),
        defaults,
    )
    gate, valve = net.valves
    assert valve.thresholds.p_inflate == defaults.inflate_kpa
    assert valve.balloon.burst_kpa == defaults.burst_kpa
    assert gate.thresholds == valve.thresholds
    assert gate.balloon == valve.balloon


def test_with_override_patches_parameters():
    ast = parse("source SUP pressure=145kPa\ngate NOT inv in=a out=q supply=SUP\n")
    patched = ast.with_override("SUP", "pressure", "120kPa")
    assert patched.statements[0].get("pressure") == Quantity(120.0, "kPa")
    with pytest.raises(UnknownKeywordError):
        ast.with_override("SUP", "bogus", "1")
    with pytest.raises(UnknownKeywordError):
        ast.with_override("nobody", "pressure", "1kPa")


def test_with_override_of_a_non_netlist_value_is_a_syntax_error():
    ast = parse("source SUP pressure=145kPa\n")
    with pytest.raises(NetlistSyntaxError, match="expected a number, got True"):
        ast.with_override("SUP", "pressure", True)


def test_with_override_takes_a_python_number_as_a_bare_si_number():
    ast = parse("source SUP pressure=145kPa\nring r n=3 supply=SUP\n")
    for value in (1.5e5, 150000):
        patched = ast.with_override("SUP", "pressure", value)
        assert patched == ast.with_override("SUP", "pressure", "1.5e5")
        assert patched.statements[0].get("pressure").si == 1.5e5
    assert ast.with_override("r", "n", 5) == ast.with_override("r", "n", "5")
    with pytest.raises(NetlistSyntaxError, match="expected an integer, got '2.5'"):
        ast.with_override("r", "n", 2.5)
    with pytest.raises(NetlistSyntaxError, match="expected an integer, got False"):
        ast.with_override("r", "n", False)


def test_expanded_networks_validate():
    # untouched nodes like gate inputs take their pressure from the balloon
    net = expand(parse("source SUP pressure=145kPa\ngate NOT inv in=a out=q supply=SUP\n"))
    assert "a" in net.node_order()


# ---------------------------------------------------------------------------
# bill of materials
# ---------------------------------------------------------------------------


def test_bom_single_inverter():
    ast = parse("source SUP pressure=145kPa\ngate NOT inv in=a out=q supply=SUP\n")
    bill = bom(ast)
    assert bill.device_count == 1
    assert bill.total == Decimal("0.45")
    assert {l.description: l.cost for l in bill.lines} == {
        "boba straw": Decimal("0.08"),
        "twisting balloon": Decimal("0.05"),
        "PVC tubing (1 mm ID)": Decimal("0.29"),
        "sealing film": Decimal("0.03"),
    }


def test_bom_ring_and_empty():
    ring = parse("source SUP pressure=145kPa\nring r n=3 supply=SUP\n")
    assert bom(ring).total == Decimal("1.35")
    assert bom(ring).device_count == 3
    empty = parse("")
    assert bom(empty).total == Decimal("0.00")
    assert bom(empty).device_count == 0


def test_bom_counts_composed_gates():
    ast = parse("source SUP pressure=145kPa\ngate AND g in=a,b out=q supply=SUP\n")
    assert bom(ast).device_count == 3
    assert bom(ast).total == Decimal("1.35")

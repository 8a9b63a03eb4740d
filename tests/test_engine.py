import contextlib
import dataclasses
import graphlib
import itertools
import math
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tblsim import (
    AstableCircuitError,
    Balloon,
    BalloonParams,
    CalibrationFailedError,
    HysteresisThresholds,
    KinkValveDevice,
    LogicLevels,
    NetworkError,
    NoOscillationError,
    PhysicalDefaults,
    PneumaticNetwork,
    SimConfig,
    SingularNetworkError,
    SourceElement,
    SteadyState,
    TooManyValvesError,
    TubeElement,
    ValveState,
    balloon_pressure,
    branch_flows,
    calibrate_oscillator,
    dc_operating_point,
    element_flow,
    expand,
    extract_frequency,
    measure_oscillation,
    node_residuals,
    parse,
    simulate,
    solve_pressures,
    truth_table,
    tube_resistance,
    valve_step,
)
from tblsim import engine, expsums
from tblsim.cli import _apply_overrides

MU = 1.81e-5
R1 = tube_resistance(0.075, 1.0e-3, MU)   # 7.5 cm device tube
R2 = tube_resistance(0.15, 1.0e-3, MU)    # 15 cm pull-down
G_OPEN = 1.0e-5


def build(text):
    return expand(parse(text))


def pinned_not(level_kpa):
    net = build(
        "source SUP pressure=145kPa\n"
        "gate NOT inv in=a out=q supply=SUP\n"
    )
    return net.with_pins({"a": level_kpa})


# ---------------------------------------------------------------------------
# DC operating points
# ---------------------------------------------------------------------------


def test_not_gate_low_input_divider():
    # independent oracle: series divider SUP -R1- s -1/g- q -R2- ATM
    want = 145.0 * R2 / (R1 + 1.0 / G_OPEN + R2)
    ss = dc_operating_point(pinned_not(0.0))
    assert ss.valve_states["inv.v"] is ValveState.OPEN
    assert ss.node_pressures_kpa["q"] == pytest.approx(want, rel=1e-9)
    assert want == pytest.approx(96.7, rel=0.01)


def test_not_gate_high_input_is_exactly_zero():
    ss = dc_operating_point(pinned_not(145.0))
    assert ss.valve_states["inv.v"] is ValveState.CLOSED
    assert ss.node_pressures_kpa["q"] == 0.0


def test_nor_and_nand_low_low_levels():
    nor = build(
        "source SUP pressure=145kPa\ngate NOR g in=a,b out=q supply=SUP\n"
    ).with_pins({"a": 0.0, "b": 0.0})
    want_nor = 145.0 * R2 / (R1 + 2.0 / G_OPEN + R2)
    assert dc_operating_point(nor).node_pressures_kpa["q"] == pytest.approx(
        want_nor, rel=1e-9
    )
    nand = build(
        "source SUP pressure=145kPa\ngate NAND g in=a,b out=q supply=SUP\n"
    ).with_pins({"a": 0.0, "b": 0.0})
    want_nand = 145.0 * R2 / ((R1 + 1.0 / G_OPEN) / 2.0 + R2)
    assert dc_operating_point(nand).node_pressures_kpa["q"] == pytest.approx(
        want_nand, rel=1e-9
    )


def test_cross_coupled_pair_has_two_fixed_points():
    net = build(
        "source SUP pressure=145kPa\n"
        "gate NOT g1 in=q2 out=q1 supply=SUP\n"
        "gate NOT g2 in=q1 out=q2 supply=SUP\n"
    )
    ss = dc_operating_point(net)
    assert isinstance(ss, SteadyState)
    assert len(ss.fixed_points) == 2
    for fp in ss.fixed_points:
        assert {fp["g1.v"], fp["g2.v"]} == {ValveState.OPEN, ValveState.CLOSED}
    # the two fixed points are mirror images
    assert ss.fixed_points[0] != ss.fixed_points[1]


def test_three_ring_is_astable_at_dc():
    net = build("source SUP pressure=145kPa\nring r n=3 supply=SUP\n")
    with pytest.raises(AstableCircuitError):
        dc_operating_point(net)


def test_too_many_valves_for_enumeration():
    net = build("source SUP pressure=145kPa\nring r n=17 supply=SUP\n")
    with pytest.raises(TooManyValvesError):
        dc_operating_point(net)


def test_dc_conservation_residuals():
    net = build(
        "source SUP pressure=145kPa\ngate NAND g in=a,b out=q supply=SUP\n"
    ).with_pins({"a": 145.0, "b": 0.0})
    ss = dc_operating_point(net)
    res = node_residuals(net, ss.valve_states, ss.node_pressures_kpa)
    flows = branch_flows(net, ss.valve_states, ss.node_pressures_kpa)
    fmax = max(abs(f) for f in flows.values())
    assert fmax > 0.0
    assert max(abs(r) for r in res.values()) <= 1.0e-9 * fmax


def test_branch_flows_match_element_flow():
    # a source with internal resistance, and a leaky valve held closed
    net = build(
        "source SUP pressure=145kPa resistance=2e6\n"
        "gate NOT inv in=a out=q supply=SUP leak=1e-8\n"
        "tube t1 from=SUP to=m length=15cm\n"
        "tube t2 from=m to=ATM length=15cm\n"
    ).with_pins({"a": 145.0})
    ss = dc_operating_point(net)
    assert ss.valve_states["inv.v"] is ValveState.CLOSED
    p = ss.node_pressures_kpa
    flows = branch_flows(net, ss.valve_states, p)
    want = {t.name: element_flow(t, p[t.node_a], p[t.node_b]) for t in net.tubes}
    want["SUP"] = (145.0 - p["SUP"]) * engine.KPA / 2e6
    want["inv.v"] = element_flow(net.valves[0], p["inv.s"], p["q"], ValveState.CLOSED)
    assert list(flows) == [t.name for t in net.tubes] + ["SUP", "inv.v"]
    assert want["inv.v"] > 0.0
    for name, q in want.items():
        assert flows[name] == pytest.approx(q, rel=1e-9)
    res = node_residuals(net, ss.valve_states, p)
    assert set(res) == set(net.node_order()) - {"ATM", "a"}
    assert max(abs(r) for r in res.values()) <= 1.0e-9 * max(abs(q) for q in want.values())


def test_solve_pressures_with_forced_states():
    net = pinned_not(145.0)
    # force the valve open even though the control says closed
    p = solve_pressures(net, {"inv.v": ValveState.OPEN})
    want = 145.0 * R2 / (R1 + 1.0 / G_OPEN + R2)
    assert p["q"] == pytest.approx(want, rel=1e-9)


def test_node_pressures_are_python_floats():
    # as annotated: a repr reads 96.6..., not np.float64(96.6...)
    net = pinned_not(145.0)
    rows = [dc_operating_point(net).node_pressures_kpa, solve_pressures(net, {"inv.v": ValveState.OPEN})]
    unpinned = build("source SUP pressure=145kPa\ngate NOT inv in=a out=q supply=SUP\n")
    rows += [s.node_pressures_kpa for s in engine._dc_rows(unpinned, ("a",), [[0.0], [145.0]])]
    for kpa in rows:
        assert kpa and all(type(v) is float for v in kpa.values())
    assert "np.float64" not in repr(rows)


def _dense_laplacian(net, valve_states):
    """Node names (the solver's order), the dense Laplacian and component
    labels over the conducting branches, and the fixed pressures (kPa),
    from the network's elements."""
    internal = [s for s in net.sources if s.internal_resistance > 0.0]
    names = net.node_order() + [s.name + ".__src" for s in internal]
    idx = {n: i for i, n in enumerate(names)}
    branches = [(t.node_a, t.node_b, 1.0 / t.resistance) for t in net.tubes]
    branches += [(s.name + ".__src", s.node, 1.0 / s.internal_resistance) for s in internal]
    branches += [
        (v.flow_from, v.flow_to, v.conductance(valve_states.get(v.name, v.state)))
        for v in net.valves
    ]
    L = np.zeros((len(names), len(names)))
    label = list(range(len(names)))

    def root(i):
        while label[i] != i:
            i = label[i]
        return i

    for a, b, g in branches:
        if g > 0.0:
            i, j = idx[a], idx[b]
            L[i, i] += g
            L[j, j] += g
            L[i, j] -= g
            L[j, i] -= g
            label[root(i)] = root(j)
    fixed = dict(net.fixed_pressures())
    fixed.update({s.name + ".__src": s.pressure_kpa for s in internal})
    return names, L, [root(i) for i in range(len(names))], fixed


def _dense_dc_reference(net, valve_states):
    """Node pressures (kPa) by a dense solve built from the network's
    elements: isolated balloons pinned at their compliance-weighted mean
    charge, sealed-off nodes at 0 kPa."""
    names, L, comp, fixed = _dense_laplacian(net, valve_states)
    idx = {n: i for i, n in enumerate(names)}
    p = np.zeros(len(names))
    known = np.zeros(len(names), dtype=bool)
    for name, kpa in fixed.items():
        p[idx[name]], known[idx[name]] = kpa * 1.0e3, True
    fixed_comps = {comp[idx[n]] for n in fixed}
    caps = net.capacitances()
    anchored = fixed_comps | {comp[idx[node]] for _o, node, _p, _i in caps}
    groups = {}
    for _owner, node, params, init in caps:
        if comp[idx[node]] not in fixed_comps:
            groups.setdefault(comp[idx[node]], []).append((idx[node], params.compliance, init))
    for members in groups.values():
        p_star = sum(c * q for _i, c, q in members) / sum(c for _i, c, _q in members)
        for i, _c, _q in members:
            p[i], known[i] = p_star * 1.0e3, True
    known |= np.array([c not in anchored for c in comp])
    u, k = np.flatnonzero(~known), np.flatnonzero(known)
    if len(u):
        G, rhs = L[np.ix_(u, u)], -L[np.ix_(u, k)] @ p[k]
        try:
            p[u] = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularNetworkError(str(exc)) from exc
        residual = np.abs(G @ p[u] - rhs).max()
        if not np.isfinite(p).all() or residual > 1e-6 * max(1.0, np.abs(rhs).max()):
            raise SingularNetworkError("dense reference is singular")
    return {n: p[idx[n]] / 1.0e3 for n in net.node_order()}


def test_sparse_dc_path_matches_dense():
    net = build("source SUP pressure=145kPa\nring r n=135 supply=SUP\n")
    states = {
        f"r.g{k}.v": ValveState.CLOSED if k % 3 == 0 else ValveState.OPEN
        for k in range(1, 136)
    }
    sparse = solve_pressures(net, states)
    dense = _dense_dc_reference(net, states)
    assert sparse.keys() == dense.keys()
    assert max(abs(sparse[n] - dense[n]) for n in sparse) <= 1e-9
    assert max(sparse.values()) > 50.0  # open stages carry real pressures


@pytest.mark.parametrize(
    "G, why",
    [
        # two nodes joined by one branch and tied to nothing: a zero pivot
        (np.array([[1.0, -1.0], [-1.0, 1.0]]), "singular"),
        # a subnormal pivot: the solve overflows to inf
        (np.array([[1.0e-320, 0.0], [0.0, 1.0]]), "numerically singular"),
    ],
)
def test_solve_rejects_a_singular_block(G, why):
    with pytest.raises(SingularNetworkError, match=f"system is {why}"):
        engine._solve(G, np.array([1.0, 1.0]))


def _read_circuit(name):
    with open(f"circuits/{name}.tbl", encoding="utf-8") as fh:
        return build(fh.read())


_DC_PROPERTY_NETS = {
    **{g: lambda g=g: _read_circuit(g) for g in ("not", "nand", "nor", "and", "or")},
    "ring135": lambda: build("source SUP pressure=145kPa\nring r n=135 supply=SUP\n"),
    # two balloons of unequal charge and compliance, tied by a tube, with
    # no path to a fixed node; c floats with them
    "isolated_balloons": lambda: build(
        "source SUP pressure=145kPa\n"
        "valve v1 from=SUP to=x state=closed control=b1 init=72kPa\n"
        "valve v2 from=x to=ATM state=closed control=b2 init=20kPa compliance=1e-10\n"
        "tube t1 from=b1 to=b2 length=7.5cm\n"
        "tube t2 from=c to=b1 length=7.5cm\n"
    ),
    # x-y is a blocked tube segment once both valves close: trapped air
    "dead_segment": lambda: build(
        "source SUP pressure=145kPa\n"
        "source CTL pressure=100kPa\n"
        "tube tc1 from=CTL to=k1 length=7.5cm\n"
        "tube tc2 from=CTL to=k2 length=7.5cm\n"
        "valve v1 from=SUP to=x control=k1\n"
        "tube t from=x to=y length=15cm\n"
        "valve v2 from=y to=ATM control=k2\n"
    ),
}


@pytest.mark.parametrize("name", list(_DC_PROPERTY_NETS))
def test_dc_solve_matches_a_dense_reference(name):
    net = _DC_PROPERTY_NETS[name]()
    rng = np.random.default_rng(23)
    inputs = sorted({"a", "b"} & set(net.node_order()))
    closed_seen = False
    for trial in range(12):
        pinned = net
        if inputs and trial % 2:
            pinned = net.with_pins({n: float(rng.choice([0.0, 72.5, 145.0])) for n in inputs})
        states = {
            v.name: ValveState.OPEN if bit else ValveState.CLOSED
            for v, bit in zip(net.valves, rng.integers(0, 2, size=len(net.valves)))
        }
        if trial == 0:
            states = {v.name: ValveState.CLOSED for v in net.valves}
        closed_seen |= all(s is ValveState.CLOSED for s in states.values())
        try:
            want = _dense_dc_reference(pinned, states)
        except SingularNetworkError:
            with pytest.raises(SingularNetworkError):
                solve_pressures(pinned, states)
            continue
        got = solve_pressures(pinned, states)
        assert got.keys() == want.keys()
        assert max(abs(got[n] - want[n]) for n in got) <= 1e-9
    assert closed_seen


def test_isolated_balloons_pin_their_mean_charge():
    net = _DC_PROPERTY_NETS["isolated_balloons"]()
    p = solve_pressures(net, {"v1": ValveState.CLOSED, "v2": ValveState.CLOSED})
    c1, c2 = 4.0e-10, 1.0e-10
    assert p["b1"] == pytest.approx((c1 * 72.0 + c2 * 20.0) / (c1 + c2), rel=1e-12)
    assert p["b2"] == p["b1"]
    assert p["c"] == pytest.approx(p["b1"], rel=1e-12)
    assert p["x"] == 0.0  # sealed between the two closed valves


def test_dead_segment_reads_ambient():
    net = _DC_PROPERTY_NETS["dead_segment"]()
    ss = dc_operating_point(net)
    assert set(ss.valve_states.values()) == {ValveState.CLOSED}
    assert ss.node_pressures_kpa["x"] == 0.0
    assert ss.node_pressures_kpa["y"] == 0.0


@pytest.mark.parametrize("edge", ["p_inflate", "p_deflate"])
@pytest.mark.parametrize("start", [ValveState.OPEN, ValveState.CLOSED])
def test_dc_valve_step_at_exact_thresholds(edge, start):
    # move the threshold onto the control pressure the solve gives, so the
    # comparison sits exactly on it
    net = pinned_not(85.0 if edge == "p_inflate" else 60.0)
    ctrl = {
        solve_pressures(net, {"inv.v": s})["inv.b"] for s in (ValveState.OPEN, ValveState.CLOSED)
    }
    assert len(ctrl) == 1
    (ctrl,) = ctrl
    (valve,) = net.valves
    thresholds = dataclasses.replace(valve.thresholds, **{edge: ctrl})
    net = dataclasses.replace(net, valves=(dataclasses.replace(valve, thresholds=thresholds),))
    ss = dc_operating_point(net, {"inv.v": start})
    assert ss.node_pressures_kpa["inv.b"] == getattr(thresholds, edge)
    want = valve_step(start, ctrl, thresholds)
    assert want is (ValveState.CLOSED if edge == "p_inflate" else ValveState.OPEN)
    assert ss.valve_states["inv.v"] is want


def test_dc_isolated_balloon_keeps_its_charge():
    # balloon behind a closed valve with no leak: its pressure is its own
    net = build(
        "source SUP pressure=145kPa\n"
        "valve v1 from=SUP to=x state=closed control=b init=72kPa\n"
        "tube tc from=c to=b length=7.5cm\n"
        "tube tp from=x to=ATM length=15cm\n"
    )
    ss = dc_operating_point(net)
    assert ss.valve_states["v1"] is ValveState.CLOSED
    assert ss.node_pressures_kpa["b"] == pytest.approx(72.0)
    assert ss.node_pressures_kpa["c"] == pytest.approx(72.0)  # floats with it
    assert ss.node_pressures_kpa["x"] == pytest.approx(0.0)


# -- the region-ordered warm start of the DC search ---------------------------


def _declared_state_search(compiled, is_open):
    """Reference DC search with no warm start: the synchronous iteration
    from ``is_open``, then the enumeration when it cycles."""

    def named(is_open):
        return {n: ValveState.OPEN if o else ValveState.CLOSED for n, o in zip(compiled.valve_names, is_open.tolist())}

    seen = set()
    while (key := np.packbits(is_open).tobytes()) not in seen:
        seen.add(key)
        p_pa = compiled.solve_dc(is_open)
        switch = compiled.margin(is_open, p_pa[compiled.control] / engine.KPA) >= 0.0
        if not switch.any():
            return SteadyState(named(is_open), compiled.pressures_kpa(p_pa))
        is_open = is_open ^ switch
    if len(is_open) > engine._MAX_ENUM_VALVES:
        raise TooManyValvesError("enumeration cap")
    fixed_points = []
    for bits in itertools.product((True, False), repeat=len(is_open)):
        assign = np.array(bits, dtype=bool)
        try:
            p_pa = compiled.solve_dc(assign)
        except SingularNetworkError:
            continue
        if not (compiled.margin(assign, p_pa[compiled.control] / engine.KPA) >= 0.0).any():
            fixed_points.append((assign, p_pa))
    if not fixed_points:
        raise AstableCircuitError("no self-consistent assignment")
    chosen, p_pa = fixed_points[0]
    return SteadyState(
        named(chosen), compiled.pressures_kpa(p_pa), tuple(named(fp) for fp, _p in fixed_points)
    )


def _reference_dc(net):
    compiled = engine._Compiled(net.validate())
    return _declared_state_search(compiled, compiled.initial_open)


def _one_search(compiled):
    """``engine._dc_search`` of one row: the declared states at the fixed pressures."""
    found = engine._dc_search(compiled, compiled.initial_open[None], compiled.fixed_pa[None])
    (steady,) = engine._steady_states(compiled, *found)
    return steady


def _outcome(search, net):
    """The search's SteadyState, or the class of the DC error it raised."""
    try:
        return search(net)
    except AstableCircuitError as exc:
        return type(exc)


def _cross_coupled_pair():
    return build(
        "source SUP pressure=145kPa\n"
        "gate NOT g1 in=q2 out=q1 supply=SUP\n"
        "gate NOT g2 in=q1 out=q2 supply=SUP\n"
    )


def _three_ring():
    return build("source SUP pressure=145kPa\nring r n=3 supply=SUP\n")


def _valve_on_its_own_outlet():
    # the valve reads its own outlet, in its own region; open, the short
    # pull-down keeps that outlet below p_deflate, so open is consistent
    return build(
        "source SUP pressure=145kPa\n"
        "tube ts from=SUP to=n length=7.5cm\n"
        "valve v from=n to=c control=c\n"
        "tube tq from=c to=ATM length=1cm\n"
    )


@pytest.mark.parametrize("gate", ["not", "nand", "nor", "and", "or"])
def test_dc_walk_matches_the_declared_state_search_on_the_gates(gate):
    net = _read_circuit(gate)
    inputs = ("a",) if gate == "not" else ("a", "b")
    rows = list(itertools.product((0.0, 145.0), repeat=len(inputs)))
    want = [_reference_dc(net.with_pins(dict(zip(inputs, row)))) for row in rows]
    assert [dc_operating_point(net.with_pins(dict(zip(inputs, row)))) for row in rows] == want
    assert list(engine._dc_rows(net, inputs, rows)) == want


@pytest.mark.parametrize("rows, error, match", [
    # a vacuum error comes before a clash in its own row
    ([[0.0, 0.0], [0.0, 0.0], [-200.0, 5.0], [0.0, 7.0]], ValueError, "pin a -200.0 kPa is below vacuum"),
    ([[0.0, 0.0], [0.0, 5.0], [-200.0, 0.0]], NetworkError, "node ATM pinned to conflicting pressures"),
    ([[0.0, 0.0]] * 300 + [[math.nan, 0.0], [0.0, 5.0]], ValueError, "pin a nan kPa is not a finite number"),
])
def test_dc_rows_raise_the_error_of_the_first_row_that_fails(rows, error, match):
    net = build("source SUP pressure=145kPa\ngate NOT inv in=a out=q supply=SUP\n")
    with pytest.raises(error, match=match):
        list(engine._dc_rows(net, ("a", "ATM"), rows))


_GATE_KINDS = ("NOT", "NAND", "NOR", "AND", "OR")


@st.composite
def _gate_trees(draw):
    """A feed-forward network of 1-12 gates: each gate output feeds at most
    one later gate, and every other gate input is a primary input pinned
    at 0 or 145 kPa."""
    lines = ["source SUP pressure=145kPa"]
    pool, pins = [], {}
    for g in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(_GATE_KINDS))
        args = []
        for _ in range(1 if kind == "NOT" else 2):
            if pool and draw(st.booleans()):
                args.append(pool.pop(draw(st.integers(0, len(pool) - 1))))
            else:
                args.append(f"i{len(pins)}")
                pins[args[-1]] = draw(st.sampled_from((0.0, 145.0)))
        lines.append(f"gate {kind} g{g} in={','.join(args)} out=n{g} supply=SUP")
        pool.append(f"n{g}")
    return build("\n".join(lines) + "\n").with_pins(pins)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_gate_trees())
def test_dc_walk_matches_the_declared_state_search_on_gate_trees(net):
    want = _reference_dc(net)
    # inside its hysteresis band a control keeps whatever state it is
    # reached in, and the two searches reach it along different paths
    for v in net.valves:
        ctrl = want.node_pressures_kpa[v.control_node]
        assert ctrl >= v.thresholds.p_inflate or ctrl <= v.thresholds.p_deflate
    assert dc_operating_point(net) == want


def test_the_search_confirms_a_walk_read_within_roundoff():
    # g2 reads g1's output, which the walk's layer map gives only within
    # roundoff of the exact solve; with p_inflate exactly on the exact
    # value, the search's own solve decides that g2 closes
    net = build(
        "source SUP pressure=145kPa\n"
        "gate NOT g1 in=a out=n1 supply=SUP\n"
        "gate NOT g2 in=n1 out=q supply=SUP\n"
    ).with_pins({"a": 0.0})
    ctrl = solve_pressures(net, {"g1.v": ValveState.OPEN, "g2.v": ValveState.OPEN})["g2.b"]
    valves = tuple(
        dataclasses.replace(v, thresholds=dataclasses.replace(v.thresholds, p_inflate=ctrl))
        if v.name == "g2.v" else v
        for v in net.valves
    )
    net = dataclasses.replace(net, valves=valves)
    ss = dc_operating_point(net)
    assert ss.valve_states["g2.v"] is ValveState.CLOSED
    assert ss == _reference_dc(net)


def _count_solves(monkeypatch):
    """The rows and the column count of every flow balance
    (``_Compiled.solve`` call) from now on: ``(R, 1)`` for the point solves
    of a stack of R rows, ``(1, 1 + the fixed nodes)`` for a layer map."""
    calls = []
    solve = engine._Compiled.solve

    def counting_solve(self, g, rows, P):
        copies = g.size // len(self.branch_a)
        calls.append((copies, P.reshape(copies * self.n, -1).shape[1]))
        return solve(self, g, rows, P)

    monkeypatch.setattr(engine._Compiled, "solve", counting_solve)
    return calls


def _five_gates():
    """Five gates in a chain, four primary inputs, one gate per level."""
    return build(
        "source SUP pressure=145kPa\n"
        "gate NAND g1 in=a,b out=n1 supply=SUP\n"
        "gate NOR g2 in=n1,c out=n2 supply=SUP\n"
        "gate AND g3 in=n2,d out=n3 supply=SUP\n"
        "gate OR g4 in=n3,a out=n4 supply=SUP\n"
        "gate NOT g5 in=n4 out=q supply=SUP\n"
    )


def test_feed_forward_truth_table_makes_one_solve_per_row(monkeypatch):
    net = _five_gates()
    inputs = ("a", "b", "c", "d")
    calls = _count_solves(monkeypatch)
    table = truth_table(net, inputs, "q")
    assert len(table.rows) == 16
    rows = [r for r, c in calls if c == 1]  # the search's solves
    layers = [c for r, c in calls if c > 1]  # the walk's layer maps
    assert rows == [16] and len(layers) <= 4
    calls.clear()
    for bits in itertools.product((0.0, 145.0), repeat=len(inputs)):
        _reference_dc(net.with_pins(dict(zip(inputs, bits))))
    assert len(calls) > 3 * 16  # the iteration alone settles a level per solve


def test_the_walk_fills_a_levels_new_layers_in_one_solve(monkeypatch):
    net, inputs = _five_gates(), ("a", "b", "c", "d")
    levels_with_new = []
    stack_rows = engine._stack_rows

    def watching_stack_rows(at, lay, fill):  # once per level of the walk
        levels_with_new.append(any(a not in at for a in lay.ravel().tolist()))
        return stack_rows(at, lay, fill)

    monkeypatch.setattr(engine, "_stack_rows", watching_stack_rows)
    calls = _count_solves(monkeypatch)
    rows = list(itertools.product((0.0, 145.0), repeat=len(inputs)))
    ((compiled, _found),) = engine._dc_chunks(net, inputs, rows)
    layer_solves = [r for r, c in calls if c > 1]
    assert 0 < len(layer_solves) <= sum(levels_with_new)
    assert sum(layer_solves) == len(compiled.walk.at)
    # each stacked map is bit for bit the map of its layer solved alone
    walk, nf, local = compiled.walk, len(compiled.fixed_idx), compiled.valve_bits[1]
    for a, row in walk.at.items():
        g = compiled.conductances(np.array([(a >> j) & 1 for j in local], dtype=bool))
        assert np.array_equal(walk.maps[row], compiled.dc_map(g, np.eye(nf, 1 + nf, 1)))


def _table_rows_alone(net, inputs, output, levels=LogicLevels()):
    """Each row of ``truth_table(net, inputs, output)``, its output level
    and kPa read from ``dc_operating_point`` of the row's pins alone."""
    rows = []
    for bits in itertools.product((0, 1), repeat=len(inputs)):
        pins = {n: levels.drive(b) for n, b in zip(inputs, bits)}
        kpa = dc_operating_point(net.with_pins(pins)).node_pressures_kpa[output]
        rows.append((bits, levels.read(kpa, output), kpa))
    return rows


def test_a_table_of_two_chunks_reads_each_row_as_alone(monkeypatch):
    # 9 inputs: 512 rows, searched as two chunks of 256
    net = build(
        "source SUP pressure=145kPa\n"
        "gate NAND g1 in=i0,i1 out=n1 supply=SUP\n"
        "gate NOR g2 in=n1,i2 out=n2 supply=SUP\n"
        "gate AND g3 in=n2,i3 out=n3 supply=SUP\n"
        "gate OR g4 in=n3,i4 out=n4 supply=SUP\n"
        "gate NAND g5 in=n4,i5 out=n5 supply=SUP\n"
        "gate NOR g6 in=n5,i6 out=n6 supply=SUP\n"
        "gate AND g7 in=n6,i7 out=n7 supply=SUP\n"
        "gate OR g8 in=n7,i8 out=q supply=SUP\n"
    )
    inputs = tuple(f"i{k}" for k in range(9))
    chunks = []
    search = engine._dc_search

    def counting_search(compiled, is_open, fixed_pa):
        chunks.append(len(is_open))
        return search(compiled, is_open, fixed_pa)

    monkeypatch.setattr(engine, "_dc_search", counting_search)
    table = truth_table(net, inputs, "q")
    assert chunks == [engine._DC_CHUNK, 512 - engine._DC_CHUNK]
    want = _table_rows_alone(net, inputs, "q")
    assert [(r.inputs, r.output, r.output_kpa) for r in table.rows] == want
    assert {r.output for r in table.rows} == {0, 1}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_gate_trees())
def test_a_table_reads_each_row_as_alone_on_gate_trees(net):
    # up to 4 of the tree's pinned inputs are the table's; its output is
    # the last gate's
    inputs = tuple(s.node for s in net.sources if s.name.startswith("__pin_"))[:4]
    net = dataclasses.replace(net, sources=tuple(s for s in net.sources if s.node not in inputs))
    output = max((n for n in net.node_order() if n[0] == "n" and n[1:].isdigit()), key=lambda n: int(n[1:]))
    table = truth_table(net, inputs, output)
    assert [(r.inputs, r.output, r.output_kpa) for r in table.rows] == _table_rows_alone(net, inputs, output)


def _rows_alone(net, pins, rows):
    """``dc_operating_point`` of ``net`` pinned at each row on its own."""
    return [dc_operating_point(net.with_pins(dict(zip(pins, row)))) for row in rows]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_gate_trees())
def test_a_table_searches_every_row_as_it_would_alone(net):
    # up to 4 of the tree's pinned inputs go through every row of a table;
    # the others keep the level they were drawn at
    driven = [s.node for s in net.sources if s.name.startswith("__pin_")][:4]
    sources = tuple(s for s in net.sources if s.name != f"__pin_{s.node}" or s.node not in driven)
    net = dataclasses.replace(net, sources=sources)
    rows = list(itertools.product((0.0, 145.0), repeat=len(driven)))
    assert list(engine._dc_rows(net, tuple(driven), rows)) == _rows_alone(net, driven, rows)


def test_a_latch_table_iterates_its_rows_together_and_enumerates_the_hold_row(monkeypatch):
    # an SR latch of two NOR gates has no walk; at S = R = 0 the synchronous
    # iteration cycles, so that row alone goes to the enumeration
    net = build(
        "source SUP pressure=145kPa\n"
        "gate NOR g1 in=R,qb out=q supply=SUP\n"
        "gate NOR g2 in=S,q out=qb supply=SUP\n"
    )
    rows = list(itertools.product((0.0, 145.0), repeat=2))
    want = _rows_alone(net, ("S", "R"), rows)
    calls = _count_solves(monkeypatch)
    got = list(engine._dc_rows(net, ("S", "R"), rows))
    assert got == want
    assert [len(ss.fixed_points) for ss in got] == [2, 0, 0, 0]
    assert calls[0] == (4, 1)  # the first round solves every row at once
    assert calls[-16:] == [(1, 1)] * 16  # the hold row's enumeration


def test_rows_of_one_table_confirm_their_walks_each_on_its_own(monkeypatch):
    # the network of the test above, driven at 0 and at 145 kPa: only the
    # row at 0 reads g2's control on its threshold, and only it is flipped
    # by the confirming solve and solved again
    net = build(
        "source SUP pressure=145kPa\n"
        "gate NOT g1 in=a out=n1 supply=SUP\n"
        "gate NOT g2 in=n1 out=q supply=SUP\n"
    )
    states = {"g1.v": ValveState.OPEN, "g2.v": ValveState.OPEN}
    ctrl = solve_pressures(net.with_pins({"a": 0.0}), states)["g2.b"]
    valves = tuple(
        dataclasses.replace(v, thresholds=dataclasses.replace(v.thresholds, p_inflate=ctrl))
        if v.name == "g2.v" else v
        for v in net.valves
    )
    net = dataclasses.replace(net, valves=valves)
    rows = [(0.0,), (145.0,)]
    want = _rows_alone(net, ("a",), rows)
    calls = _count_solves(monkeypatch)
    got = list(engine._dc_rows(net, ("a",), rows))
    assert got == want
    assert [ss.valve_states["g2.v"] for ss in got] == [ValveState.CLOSED, ValveState.OPEN]
    assert [r for r, c in calls if c == 1] == [2, 1]


@pytest.mark.parametrize(
    "make_net",
    [_cross_coupled_pair, _three_ring, _valve_on_its_own_outlet],
    ids=["cross-coupled-pair", "ring3", "own-region-control"],
)
def test_cyclic_region_graphs_take_the_declared_state_path(make_net, monkeypatch):
    net = make_net()
    calls = _count_solves(monkeypatch)
    want = _outcome(_reference_dc, net)
    want_solves = len(calls)
    calls.clear()
    assert _outcome(dc_operating_point, net) == want
    assert len(calls) == want_solves
    assert engine._Compiled(net).walk is None


@st.composite
def _valve_nets(draw):
    """Explicit valves over six inner nodes, a source and ATM. Each valve
    has a control node of its own; it mostly feeds the next valve's, which
    makes chains of regions, and its ends are otherwise random: two fixed
    nodes, or its own control node's region, which is a cycle. Random tubes
    join inner nodes into larger regions; each inner node drains to ATM,
    which joins no two regions."""
    inner = [f"n{k}" for k in range(6)]
    lines = ["source SUP pressure=145kPa"]
    lines += [f"tube d{k} from={node} to=ATM length=15cm" for k, node in enumerate(inner)]
    pair = st.lists(st.sampled_from(inner), min_size=2, max_size=2, unique=True)
    for k in range(draw(st.integers(0, 2))):
        a, b = draw(pair)
        lines.append(f"tube t{k} from={a} to={b} length=7.5cm")
    order = draw(st.permutations(inner))  # valve k's control node
    for k in range(draw(st.integers(1, 6))):
        b = draw(st.sampled_from([order[(k + 1) % 6]] * 6 + ["ATM"] + inner))
        a = draw(st.sampled_from(["SUP", "ATM"] * 6 + inner).filter(lambda a: a != b))
        lines.append(f"valve v{k} from={a} to={b} control={order[k]}")
    return build("\n".join(lines) + "\n")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_valve_nets())
def test_walk_levels_are_the_ready_batches_of_a_topological_sort(net):
    # the oracle: a region's batch of graphlib's get_ready order, over the
    # graph where a valve's region depends on its control node's region
    compiled = engine._Compiled(net)
    region, control = compiled.region, compiled.control
    home = np.maximum(region[compiled.branch_a], region[compiled.branch_b])[len(compiled.g_static):]
    sorter = graphlib.TopologicalSorter()
    for r, rc in zip(home.tolist(), region[control].tolist()):
        if rc >= 0:
            sorter.add(rc)
        if r >= 0:
            sorter.add(r, *([rc] if rc >= 0 else []))
    try:
        sorter.prepare()
    except graphlib.CycleError:
        assert compiled.walk is None
        return
    batch, k = {}, 0
    while sorter.is_active():
        ready = sorter.get_ready()
        batch.update(dict.fromkeys(ready, k))
        sorter.done(*ready)
        k += 1
    walk = compiled.walk
    assert walk is not None
    valve_level, node_level = np.full(len(home), -1), {}
    for level, (valves, nodes) in enumerate(walk.levels):
        assert (valve_level[valves] == -1).all() and not set(nodes.tolist()) & set(node_level)
        valve_level[valves] = level
        node_level.update(dict.fromkeys(nodes.tolist(), level))
    read = sorted(set(control[region[control] >= 0].tolist()))
    assert node_level == {node: batch[region[node]] for node in read}
    inside = home >= 0
    assert valve_level[inside].tolist() == [batch[r] for r in home[inside].tolist()]
    # valves that join two fixed nodes come last
    assert (valve_level[~inside] == len(walk.levels) - 1).all()
    assert len(walk.levels) - 1 >= k


def test_a_region_of_70_valves_walks_like_any_other():
    # 70 NOT gates share one output node, read by one more gate, so one
    # region holds 70 valves: only the layers a walk selects are solved,
    # never all 2**70, and a layer number needs more than 64 bits
    lines = [f"gate NOT g{k} in=i{k} out=q supply=SUP" for k in range(70)]
    lines.append("gate NOT gq in=q out=z supply=SUP")
    net = build("source SUP pressure=145kPa\n" + "\n".join(lines) + "\n")
    net = net.with_pins({f"i{k}": 145.0 if k % 3 else 0.0 for k in range(70)})
    compiled = engine._Compiled(net)
    assert _one_search(compiled) == _reference_dc(net)
    assert len(compiled.walk.at) == 2 and max(compiled.walk.at) >= 2**64


def test_a_singular_layer_drops_the_warm_start(monkeypatch):
    dc_map = engine._Compiled.dc_map

    def singular_layers(self, g, drive):
        if drive.ndim > g.ndim:  # a column per fixed node: the walk's layer maps
            raise SingularNetworkError("layer")
        return dc_map(self, g, drive)

    monkeypatch.setattr(engine._Compiled, "dc_map", singular_layers)
    net = _read_circuit("and").with_pins({"a": 145.0, "b": 0.0})
    compiled = engine._Compiled(net)
    assert _one_search(compiled) == _reference_dc(net)
    assert compiled.walk is None


# -- the region solve under every flow balance ---------------------------------


def _laplacian(compiled, g):
    """The dense node Laplacian of ``compiled``'s branches at conductances ``g``."""
    L = np.zeros((compiled.n, compiled.n))
    for a, b, gk in zip(compiled.branch_a.tolist(), compiled.branch_b.tolist(), g.tolist()):
        L[a, a] += gk
        L[b, b] += gk
        L[a, b] -= gk
        L[b, a] -= gk
    return L


@contextlib.contextmanager
def _solves_checked_against_dense():
    """Check every ``_Compiled.solve`` from now on against one dense solve of
    ``L[rows][:, rows]`` per row of a stack, each column within 1e-10 of
    its largest value (roundoff, at condition numbers far beyond these
    networks'); yields the list of the row counts solved, one per row of a
    stack."""
    calls = []
    solve = engine._Compiled.solve

    def checked(self, g, rows, P):
        copies = g.size // len(self.branch_a)
        want = P.reshape(copies, self.n, -1).copy()
        mine = [rows[rows // self.n == r] % self.n for r in range(copies)]
        for r, (gr, u) in enumerate(zip(g.reshape(copies, -1), mine)):
            L = _laplacian(self, gr)
            want[r, u] = np.linalg.solve(L[np.ix_(u, u)], -(L @ want[r])[u])
        solve(self, g, rows, P)
        got = P.reshape(copies, self.n, -1)
        for r, u in enumerate(mine):
            assert (np.abs(got[r] - want[r]) <= 1e-10 * np.abs(want[r]).max(axis=0)).all()
            calls.append(len(u))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Compiled, "solve", checked)
        yield calls


_CIRCUITS = sorted(p.stem for p in (Path(__file__).parents[1] / "circuits").glob("*.tbl"))


@pytest.mark.parametrize("name", _CIRCUITS)
def test_region_solve_matches_a_dense_solve_on_every_circuit(name):
    net = _read_circuit(name)
    inputs = sorted({"a", "b"} & set(net.node_order()))
    for levels in itertools.product((0.0, 145.0), repeat=len(inputs)):
        compiled = engine._Compiled(net.with_pins(dict(zip(inputs, levels))).validate())
        n_valves = len(compiled.valve_names)
        with _solves_checked_against_dense() as calls:
            for bits in itertools.product((True, False), repeat=n_valves):
                compiled.solve_dc(np.array(bits, dtype=bool))
        assert len(calls) == 2**n_valves and max(calls) > 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_gate_trees())
def test_region_solve_matches_a_dense_solve_on_gate_trees(net):
    # the walk's layer maps and the search's point solves
    with _solves_checked_against_dense() as calls:
        dc_operating_point(net)
    assert calls


def test_one_large_region_among_small_ones_is_stacked_unpadded(monkeypatch):
    # 300 NOT gates share one output: their valves join it and the 300
    # supply-side nodes into one region of 301 nodes, and each gate's
    # balloon, fed from a pinned input, is a region of its own
    lines = [f"gate NOT g{k} in=i{k} out=q supply=SUP" for k in range(300)]
    net = build("source SUP pressure=145kPa\n" + "\n".join(lines) + "\n")
    net = net.with_pins({f"i{k}": 145.0 if k % 3 else 0.0 for k in range(300)})
    compiled = engine._Compiled(net.validate())
    _labels, sizes = np.unique(compiled.region[compiled.region >= 0], return_counts=True)
    assert sorted(sizes.tolist()) == [1] * 300 + [301]
    shapes = []
    solve = engine._solve

    def recording_solve(G, rhs):
        shapes.append(G.shape)
        return solve(G, rhs)

    monkeypatch.setattr(engine, "_solve", recording_solve)
    with _solves_checked_against_dense():
        compiled.solve_dc(compiled.initial_open)
    assert sorted(shapes) == [(1, 301, 301), (300, 1, 1)]
    # the stacked entries total the sum of squared region sizes, 90,901,
    # where padding all 301 blocks to the largest would take 301 * 301**2
    assert sum(k * s * s for k, s, _s in shapes) == (sizes**2).sum()


# ---------------------------------------------------------------------------
# transient integration
# ---------------------------------------------------------------------------


RC_TEXT = (
    "source SUP pressure=145kPa\n"
    "tube t1 from=SUP to=x length=15cm\n"
    "balloon b1 node=x\n"
    "probe x\n"
)


def test_rc_charging_matches_the_exponential():
    net = build(RC_TEXT)
    rc = R2 * 4.0e-10
    tr = simulate(net, SimConfig(t_end=4 * rc, sample_interval=rc / 50))
    for k in (1.0, 3.0):
        want = 145.0 * (1.0 - math.exp(-k))
        got = float(np.interp(k * rc, tr.times, tr.column("x")))
        assert got == pytest.approx(want, rel=0.01)
        assert got == pytest.approx(want, rel=1e-4)  # much tighter in practice


def test_rc_volume_conservation():
    net = build(RC_TEXT)
    rc = R2 * 4.0e-10
    tr = simulate(net, SimConfig(t_end=3 * rc, sample_interval=rc / 80))
    p = tr.column("x")
    inflow = np.trapezoid((145.0e3 - p * 1e3) / R2, tr.times)
    stored = 4.0e-10 * float(p[-1]) * 1e3
    assert abs(inflow - stored) <= 0.005 * stored


def test_simulation_is_deterministic():
    net = build("source SUP pressure=145kPa\nring r n=3 supply=SUP\nprobe r.q1\n")
    cfg = SimConfig(t_end=0.6)
    a = simulate(net, cfg)
    b = simulate(net, cfg)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.pressures_kpa, b.pressures_kpa)
    assert a.events == b.events


def test_events_are_tightly_localized():
    net = build("source SUP pressure=145kPa\nring r n=3 supply=SUP\nprobe r.g2.b\n")
    tr = simulate(net, SimConfig(t_end=0.6))
    assert tr.events, "a ring must switch"
    ctrl = tr.column("r.g2.b")
    for t_e, name, state in tr.events:
        if name != "r.g2.v" or t_e == 0.0:
            continue
        # the control trace, interpolated at the event, sits at a threshold
        p_event = float(np.interp(t_e, tr.times, ctrl))
        target = 85.0 if state is ValveState.CLOSED else 60.0
        assert p_event == pytest.approx(target, abs=0.2)


def test_trace_csv_text_of_signed_zeros_and_nonfinite_values():
    trace = engine.Trace(
        probes=("a", "b"),
        times=np.array([-0.0, 1.0e-3]),
        pressures_kpa=np.array([[-0.0, np.nan], [np.inf, -np.inf]]),
        events=(),
    )
    assert trace.to_csv() == "time_s,a_kPa,b_kPa\n0.0,0.0,nan\n0.001,inf,-inf\n"


#: values whose text is tricky: signed zeros and NaNs, infinities,
#: subnormals, the smallest normal and the huge
_CSV_VALUES = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e300, -1e300, 145.0, 0.1, 85.00000000000001)


def _csv_one_cell_at_a_time(trace) -> str:
    lines = ["time_s," + ",".join(f"{p}_kPa" for p in trace.probes)]
    for t, row in zip(trace.times.tolist(), trace.pressures_kpa.tolist()):
        lines.append(",".join(map(repr, [t + 0.0] + [p + 0.0 for p in row])))
    return "\n".join(lines) + "\n"


def _pooled_trace(probes: int, rows: int, pool, seed: int):
    """A trace whose every value, time included, is drawn from ``pool``."""
    rng = np.random.default_rng(seed)
    return engine.Trace(
        probes=tuple(f"p{k}" for k in range(probes)),
        times=rng.choice(pool, rows),
        pressures_kpa=rng.choice(pool, (rows, probes)),
        events=(),
    )


@st.composite
def _repetitive_traces(draw):
    """A block size for ``to_csv``, the module's own or a small one, and a
    trace of a few drawn values, so they repeat, with a row count near a
    multiple of the rows per block."""
    block_values = draw(st.sampled_from([4, 64, engine._CSV_BLOCK_VALUES]))
    probes = draw(st.sampled_from([1, 2, 7, 300]))
    block_rows = max(1, block_values // (probes + 1))
    blocks = draw(st.integers(0, 2))
    rows = draw(st.integers(0, 3) if blocks == 0 else
                st.integers(blocks * block_rows - 1, blocks * block_rows + 1))
    pool = draw(st.lists(st.sampled_from(_CSV_VALUES) | st.floats(), min_size=1, max_size=6))
    return block_values, _pooled_trace(probes, rows, pool, draw(st.integers(0, 2**32 - 1)))


_BLOCK = engine._CSV_BLOCK_VALUES


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_repetitive_traces())
@example((_BLOCK, _pooled_trace(1, 1, (-0.0,), 0)))
@example((_BLOCK, _pooled_trace(1, _BLOCK // 2 + 1, _CSV_VALUES, 1)))
@example((_BLOCK, _pooled_trace(300, 2 * (_BLOCK // 301) - 1, _CSV_VALUES, 2)))
@example((4, engine.Trace(("a", "b"), np.array([0.1, 0.2], dtype=np.float32),
                          np.array([[0.1, -0.0], [7, 0.1]], dtype=np.float32), ())))
def test_trace_csv_is_one_repr_per_cell(case):
    block_values, trace = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_CSV_BLOCK_VALUES", block_values)
        assert trace.to_csv() == _csv_one_cell_at_a_time(trace)


def test_trace_times_strictly_increasing_and_bounded():
    net = build("source SUP pressure=145kPa\nring r n=3 supply=SUP\nprobe r.q1\n")
    tr = simulate(net, SimConfig(t_end=0.4))
    assert np.all(np.diff(tr.times) > 0)
    assert tr.times[0] == 0.0
    assert tr.times[-1] == pytest.approx(0.4)


def test_burst_warning_emitted_once_and_run_continues():
    net = build(
        "source SUP pressure=250kPa\n"
        "tube t1 from=SUP to=x length=5cm\n"
        "balloon b1 node=x\n"
        "probe x\n"
    )
    tr = simulate(net, SimConfig(t_end=0.2))
    assert len(tr.warnings) == 1
    assert "burst" in tr.warnings[0]
    assert float(tr.column("x")[-1]) == pytest.approx(250.0, rel=1e-3)


def test_control_inside_band_never_switches():
    net = build(
        "source SUP pressure=145kPa\n"
        "source CTL pressure=70kPa\n"
        "tube tc from=CTL to=b length=7.5cm\n"
        "valve v1 from=n1 to=q control=b\n"
        "tube ts from=SUP to=n1 length=7.5cm\n"
        "tube tp from=q to=ATM length=15cm\n"
        "probe q\n"
    )
    tr = simulate(net, SimConfig(t_end=0.5))
    assert tr.events == ()
    want = 145.0 * R2 / (R1 + 1.0 / G_OPEN + R2)
    assert float(tr.column("q")[-1]) == pytest.approx(want, rel=1e-6)


def test_vectorized_balloon_law_matches_the_scalar_law():
    net = build(
        "source SUP pressure=145kPa\n"
        "ring r n=3 supply=SUP compliance=5e-11\n"
        "balloon extra node=r.q1 volume=2mL compliance=3e-10\n"
    )
    compiled = engine._Compiled(net)
    params = [p for _owner, _node, p, _init in net.capacitances()]
    rng = np.random.default_rng(7)
    rest = compiled.rest_volume
    for volumes in (rest, 0.0 * rest, rest * rng.uniform(0.0, 1.5, size=(200, len(rest)))):
        for row in np.atleast_2d(volumes):
            want = [balloon_pressure(v, p) for v, p in zip(row, params)]
            got = engine._balloon_pa(row, compiled.rest_volume, compiled.compliance)
            assert np.array_equal(got / engine.KPA, want)


def test_vacuum_source_drains_a_balloon_to_empty():
    net = build(
        "source V pressure=-50kPa\n"
        "tube t from=V to=x length=7.5cm\n"
        "balloon b node=x init=10kPa\n"
        "probe x\n"
    )
    tr = simulate(net, SimConfig(t_end=0.1))
    assert tr.times[-1] == pytest.approx(0.1)
    assert tr.column("x")[0] == pytest.approx(10.0)
    assert float(tr.column("x")[-1]) == 0.0


def _ring3_calibrated():
    with open("circuits/ring3_calibrated.tbl", encoding="utf-8") as fh:
        return build(fh.read())


def _ring5():
    return build("source SUP pressure=145kPa\nring r n=5 supply=SUP\nprobe r.q1\nprobe r.g3.b\n")


def _rises_one_by_one(c, b, lam, h, f0, r=None):
    """``engine._first_rises`` without its closed form for one exponential:
    every row goes through the general root isolation."""
    r = np.zeros(len(c)) if r is None else r
    return np.array([expsums._first_rise(c[i], r[i], b[i], lam[i], h, f0[i]) for i in range(len(c))])


def _assert_close_trace(a, b):
    """Same transitions and warnings, with times and pressures within roundoff."""
    assert [e[1:] for e in a.events] == [e[1:] for e in b.events]
    assert max((abs(x[0] - y[0]) for x, y in zip(a.events, b.events)), default=0.0) <= 1.0e-12
    assert len(a.times) == len(b.times)
    assert np.abs(a.times - b.times).max() <= 1.0e-12
    assert np.abs(a.pressures_kpa - b.pressures_kpa).max() <= 1.0e-6
    assert a.warnings == b.warnings


# A valve on a balloon of its own has a margin of one exponential, whose
# rise is one logarithm; the general isolation must find the same rise.
@pytest.mark.parametrize("make_net", [_ring3_calibrated, _ring5], ids=["ring3_calibrated", "ring5"])
def test_balloon_event_path_matches_full_solve(make_net, monkeypatch):
    net = make_net()
    cfg = SimConfig(t_end=1.0)
    fast = simulate(net, cfg)
    monkeypatch.setattr(engine, "_first_rises", _rises_one_by_one)
    full = simulate(net, cfg)
    assert len(fast.events) > 20
    _assert_close_trace(fast, full)


def _assert_same_trace(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.pressures_kpa, b.pressures_kpa)
    assert a.events == b.events
    assert a.warnings == b.warnings


@st.composite
def _ring3_variants(draw):
    """``ring3_calibrated.tbl`` with each valve's compliance and open
    conductance scaled within ±20 %, and a start: every valve open and
    empty (symmetric), or one of them closed at 70 kPa (staggered)."""
    net = _ring3_calibrated()
    scale = st.floats(0.8, 1.2)
    valves = tuple(
        dataclasses.replace(
            v,
            open_conductance=v.open_conductance * draw(scale),
            balloon=dataclasses.replace(v.balloon, compliance=v.balloon.compliance * draw(scale)),
        )
        for v in net.valves
    )
    closed = draw(st.sampled_from([None] + [v.name for v in valves]))
    states = {v.name: ValveState.OPEN for v in valves}
    kpa = {v.name: 0.0 for v in valves}
    if closed is not None:
        states[closed], kpa[closed] = ValveState.CLOSED, 70.0
    cfg = SimConfig(t_end=0.5, initial_valve_states=states, initial_pressures_kpa=kpa)
    return dataclasses.replace(net, valves=valves), cfg


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_ring3_variants())
def test_balloon_event_path_matches_full_solve_on_ring3_variants(variant):
    net, cfg = variant
    fast = simulate(net, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_first_rises", _rises_one_by_one)
        full = simulate(net, cfg)
    assert len(fast.events) > 10
    _assert_close_trace(fast, full)
    _assert_same_trace(fast, simulate(net, cfg))


def _ring101():
    return build("source SUP pressure=145kPa\nring r n=101 supply=SUP\n")


def _full_solve_reference(net, states, volumes):
    """Node pressures (Pa) and balloon inflows by a dense solve per call,
    from the network's elements."""
    valve_states = {v.name: s for v, s in zip(net.valves, states)}
    names, L, comp, fixed = _dense_laplacian(net, valve_states)
    idx = {n: i for i, n in enumerate(names)}
    caps = net.capacitances()
    fixed_idx = np.array([idx[n] for n in fixed])
    cap_idx = np.array([idx[node] for _o, node, _p, _i in caps])
    anchored = {comp[i] for i in fixed_idx} | {comp[i] for i in cap_idx}
    known = set(fixed_idx.tolist()) | set(cap_idx.tolist())
    free = [i for i in range(len(names)) if i not in known and comp[i] in anchored]
    p = np.zeros(len(names))
    p[fixed_idx] = [kpa * 1.0e3 for kpa in fixed.values()]
    p[cap_idx] = [
        balloon_pressure(max(v, 0.0), c[2]) * 1.0e3 for v, c in zip(volumes, caps)
    ]
    k = np.concatenate([fixed_idx, cap_idx])
    p[free] = np.linalg.solve(L[np.ix_(free, free)], -L[np.ix_(free, k)] @ p[k])
    dv = -(L[cap_idx, :] @ p)
    dv[(volumes <= 0.0) & (dv < 0.0)] = 0.0
    return p, dv


@pytest.mark.parametrize(
    "make_net", [_ring3_calibrated, _ring5, _ring101], ids=["ring3_calibrated", "ring5", "ring101"]
)
def test_kron_reduced_rhs_matches_a_full_solve(make_net):
    net = make_net()
    compiled = engine._Compiled(net, net.node_order())
    rng = np.random.default_rng(11)
    rest = compiled.rest_volume
    n_valves = len(net.valves)
    for trial in range(6):
        if trial == 0:
            is_open = compiled.initial_states(None)
        else:
            is_open = rng.integers(0, 2, size=n_valves).astype(bool)
        states = tuple(ValveState.OPEN if o else ValveState.CLOSED for o in is_open)
        reg = compiled.regime(is_open)
        for _ in range(5):
            volumes = rest * rng.uniform(0.0, 1.6, size=len(rest))
            volumes[rng.integers(0, len(rest))] = 0.0  # an empty balloon
            want_p, want_dv = _full_solve_reference(net, states, volumes)
            want_p = want_p[compiled.watch]
            got_p = reg.pressures(volumes)
            got_dv = _densify(reg.K, reg.kcol, len(rest)) @ engine._balloon_pa(volumes, rest, compiled.compliance) + reg.k0
            assert np.abs(got_p - want_p).max() <= 1e-12 * np.abs(want_p).max()
            assert np.abs(got_dv - want_dv).max() <= 1e-12 * np.abs(want_dv).max()
    volumes = rest.copy()
    volumes[0] = np.nan
    with pytest.raises(SingularNetworkError):
        reg.pressures(volumes)


def _ring11():
    return build("source SUP pressure=145kPa\nring r n=11 supply=SUP\n")


def _densify(B, col, n):
    """A slot-compact map ``B`` (``_Regime``, ``_Modes``) as the dense
    matrix of ``n`` columns it holds: entry ``(i, col[i, s])`` is ``B[i, s]``, and every
    other entry is 0. A pad (-1) holds 0, and no balloon twice in a row."""
    assert B.shape == col.shape and (B[col < 0] == 0.0).all()
    rows, slots = np.nonzero(col >= 0)
    assert len(set(zip(rows.tolist(), col[rows, slots].tolist()))) == len(rows)
    dense = np.zeros((len(B), n))
    dense[rows, col[rows, slots]] = B[rows, slots]
    return dense


def _dense_regime(compiled, is_open):
    """A regime's ``a0``, ``A``, ``k0`` and ``K`` by one dense solve over
    every free node that reaches a fixed node or a balloon."""
    g = compiled.conductances(is_open)
    L = _laplacian(compiled, g)
    labels, _fixed, anchored = compiled.components(g)
    f = compiled.free_idx[anchored[labels[compiled.free_idx]]]
    nc = len(compiled.cap_idx)
    P = np.zeros((compiled.n, 1 + nc))
    P[compiled.fixed_idx, 0] = compiled.fixed_pa
    P[compiled.cap_idx, 1 + np.arange(nc)] = 1.0
    P[f] = np.linalg.solve(L[np.ix_(f, f)], -(L @ P)[f])
    Q = -(L @ P)[compiled.cap_idx]
    return P[compiled.watch, 0], P[compiled.watch, 1:], Q[:, 0], Q[:, 1:]


def _assert_regime_maps_match_the_dense_reduction(compiled, is_open):
    # the balloons of one region take columns of their own, those of two
    # regions may share one: each entry is the dense one, and one across
    # two regions is exactly 0
    reg = engine._Regime(compiled, is_open)
    cap_region = compiled.region[compiled.cap_idx]
    nc = len(compiled.cap_idx)
    dense = reg.a0, _densify(reg.A, reg.acol, nc), reg.k0, _densify(reg.K, reg.kcol, nc)
    for got, ref, rows in zip(dense, _dense_regime(compiled, is_open),
                              (None, compiled.watch, None, compiled.cap_idx)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
        if rows is not None:
            assert (got[compiled.region[rows][:, None] != cap_region] == 0.0).all()


@pytest.mark.parametrize(
    "make_net", [_ring3_calibrated, _ring11, _DC_PROPERTY_NETS["dead_segment"]],
    ids=["ring3_calibrated", "ring11", "dead_segment"],
)
def test_regime_maps_match_a_dense_reduction(make_net):
    # dead_segment: its x-y segment is cut off with both valves closed, and
    # its node order probes the supply; seed 5 draws all four valve states
    net = make_net()
    compiled = engine._Compiled(net, net.node_order())
    rng = np.random.default_rng(5)
    for trial in range(8):
        is_open = compiled.initial_open
        if trial:
            is_open = rng.integers(0, 2, size=len(net.valves)).astype(bool)
        _assert_regime_maps_match_the_dense_reduction(compiled, is_open)


def test_regime_network_arrays_match_their_whole_network_forms():
    # a regime solves the free nodes that its own valve states leave
    # anchored: x-y is cut off once both valves close, and then reads ambient
    dead = engine._Compiled(_DC_PROPERTY_NETS["dead_segment"](), ("x", "y"))
    labels, _fixed, anchored = dead.components(dead.conductances(np.zeros(2, dtype=bool)))
    assert not anchored[labels[[dead.index["x"], dead.index["y"]]]].any()
    volumes = dead.initial_volumes(None)
    assert (dead.regime(np.zeros(2, dtype=bool)).pressures(volumes)[-2:] == 0.0).all()
    assert (dead.regime(np.array([True, False])).pressures(volumes)[-2:] > 0.0).all()  # v1 drives it


def _rc_charge():
    return build(
        "source SUP pressure=145kPa\ntube t1 from=SUP to=x length=5cm\n"
        "tube t2 from=x to=ATM length=15cm\nballoon b1 node=x\nprobe x\nprobe SUP\n"
    )


@pytest.mark.parametrize(
    "make_net",
    [_ring3_calibrated, _ring5, _ring101, _rc_charge],
    ids=["ring3_calibrated", "ring5", "ring101", "rc"],
)
def test_batched_samples_match_a_per_sample_full_map(make_net, monkeypatch):
    # a segment's samples are one product of its probes' waves, and each
    # sample taken on its own gives the same bits; the rc run is one
    # event-free segment of 500 grid samples
    net = make_net()
    cfg = SimConfig(t_end=0.5, probes=None if net.probes else ("r.q1", "r.q50", "r.g7.b"))
    batched = simulate(net, cfg)
    values, batch = engine._values, []

    def one_time_at_a_time(c, b, lam, taus):
        batch.append(len(taus))
        one = [values(c, b, lam, taus[i : i + 1])[0] for i in range(len(taus))]
        return np.array(one).reshape(len(taus), len(c))

    monkeypatch.setattr(engine, "_values", one_time_at_a_time)
    reference = simulate(net, cfg)
    assert max(batch) > 1
    assert len(batched.times) > 400 and (len(batched.events) > 10 or not net.valves)
    assert np.array_equal(batched.times, reference.times)
    assert np.array_equal(batched.pressures_kpa, reference.pressures_kpa)
    assert batched.events == reference.events


# The scipy oracle: simulate solves each segment in closed form, so its
# error is roundoff; DOP853 at REF_RTOL, with every valve margin a terminal
# event, stands far below the bounds.
REF_RTOL = 1.0e-12


def _solve_ivp_reference(net, t_end, max_events):
    """Balloon volumes (a dense output per regime segment) and the first ``max_events`` valve transitions of ``net`` by
    scipy's DOP853 over the dense reference RHS, each valve margin a
    terminal event; integration restarts in the new regime after each flip."""
    integrate = pytest.importorskip("scipy.integrate")
    names = net.node_order()
    ctrl = [names.index(v.control_node) for v in net.valves]
    states = [v.state for v in net.valves]
    y = np.array([params.volume_at(kpa) for _o, _n, params, kpa in net.capacitances()])

    def margin(i, is_open, p_pa):
        band = net.valves[i].thresholds
        kpa = p_pa[ctrl[i]] / 1.0e3
        return kpa - band.p_inflate if is_open else band.p_deflate - kpa

    t, events, segments = 0.0, [], []
    while True:
        regime = tuple(states)
        open_ = [s is ValveState.OPEN for s in regime]

        def event(i):
            def crossing(_t, v):
                return margin(i, open_[i], _full_solve_reference(net, regime, v)[0])
            crossing.terminal, crossing.direction = True, 1.0
            return crossing

        sol = integrate.solve_ivp(
            lambda _t, v: _full_solve_reference(net, regime, v)[1], (t, t_end), y,
            method="DOP853", rtol=REF_RTOL, atol=1.0e-20, dense_output=True,
            events=[event(i) for i in range(len(states))],
        )
        assert sol.success
        segments.append(sol.sol)
        if sol.status != 1 or len(events) == max_events:  # t_end or enough events
            break
        t, i = min((te[0], i) for i, te in enumerate(sol.t_events) if len(te))
        y = sol.y_events[i][0]
        states[i] = ValveState.CLOSED if open_[i] else ValveState.OPEN
        events.append((t, net.valves[i].name, states[i]))
        # one valve at a time: no other margin may already be past 0
        p_pa = _full_solve_reference(net, tuple(states), y)[0]
        assert all(
            margin(k, states[k] is ValveState.OPEN, p_pa) < 0.0 for k in range(len(states))
        )
    return segments, events


def test_rc_samples_match_solve_ivp():
    net = _rc_charge()
    tr = simulate(net, SimConfig(t_end=0.1))
    (volumes,) = _solve_ivp_reference(net, 0.1, 0)[0]
    names = net.node_order()
    rows = [names.index(p) for p in tr.probes]
    want = np.array([_full_solve_reference(net, (), volumes(t))[0][rows] for t in tr.times])
    assert np.abs(tr.pressures_kpa - want / 1.0e3).max() <= 1.0e-9 * 145.0


def test_ring3_calibrated_events_match_solve_ivp():
    net = _ring3_calibrated()
    tr = simulate(net, SimConfig(t_end=0.35))
    _segments, want = _solve_ivp_reference(net, 0.35, 30)
    got = tr.events[:30]
    assert len(want) == len(got) == 30
    assert [(name, state) for _t, name, state in got] == [(n, s) for _t, n, s in want]
    for (t_got, _, _), (t_want, _, _) in zip(got, want):
        assert abs(t_got - t_want) <= 1.0e-8


def _fanout(loads):
    """A NOT gate ``d`` on a grounded input driving the inputs of one NOT
    gate per ``(compliance, volume, length)`` of ``loads``: their control
    balloons share the region of ``d``'s output, a coupled block of ``K``."""
    text = "source SUP pressure=145kPa\nsource A pressure=0kPa\ngate NOT d in=A out=q supply=SUP\n"
    for k, (c, v, length) in enumerate(loads):
        text += (
            f"gate NOT l{k} in=q out=o{k} supply=SUP compliance={c!r} "
            f"volume={v!r}mL length={length!r}cm\nprobe l{k}.b\n"
        )
    return build(text)


_loads = st.lists(
    st.tuples(st.floats(1.0e-10, 1.0e-9), st.floats(0.5, 3.0), st.floats(3.0, 15.0)),
    min_size=2, max_size=4,
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_loads, st.floats(0.0, 1.0), st.floats(1.0e-4, 0.1), st.integers(0, 2**32 - 1))
def test_coupled_segment_matches_the_matrix_exponential(loads, open_frac, tau, seed):
    linalg = pytest.importorskip("scipy.linalg")
    net = _fanout(loads)
    compiled = engine._Compiled(net)
    rng = np.random.default_rng(seed)
    is_open = rng.random(len(net.valves)) < open_frac
    reg = compiled.regime(is_open)
    assert np.bincount(compiled.region[compiled.cap_idx]).max() >= 2  # a block of two balloons or more
    modes = reg.modes(np.full(len(compiled.cap_idx), engine._ABOVE))
    x0 = compiled.compliance * rng.uniform(0.0, 150.0e3, size=len(compiled.compliance))
    got = modes.x(*modes.segment(x0), tau)
    n = len(x0)
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n], aug[:n, n] = _densify(reg.K, reg.kcol, n) / compiled.compliance, reg.k0
    want = (linalg.expm(tau * aug) @ np.append(x0, 1.0))[:n]
    assert np.abs(got - want).max() <= 1.0e-10 * np.abs(want).max()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_loads, st.integers(0, 2**32 - 1))
def test_regime_slot_layout_matches_a_dense_reduction_on_fanouts(loads, seed):
    net = _fanout(loads)
    compiled = engine._Compiled(net, net.node_order())
    assert "SUP" in compiled.probes
    # d's balloon is alone in its region and shares slot 0 with a load's
    _labels, sizes = np.unique(compiled.region[compiled.cap_idx], return_counts=True)
    assert sorted(sizes.tolist()) == [1, len(loads)] and compiled.slots[1] == len(loads)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        _assert_regime_maps_match_the_dense_reduction(compiled, rng.random(len(net.valves)) < 0.5)


def _scattered_regime(compiled, is_open):
    """A regime's ``a0``, ``A``, ``k0`` and ``K``, with ``A`` and ``K``
    dense: the slot solve's entries scattered to every (row, balloon) pair
    of one region, and 0 across two regions."""
    g = compiled.conductances(is_open)
    labels, _fixed, anchored = compiled.components(g)
    slot, width = compiled.slots[:2]
    P = np.zeros((compiled.n, 1 + width))
    P[compiled.fixed_idx, 0] = compiled.fixed_pa
    P[compiled.cap_idx, 1 + slot] = 1.0
    compiled.solve(g, compiled.free_idx[anchored[labels[compiled.free_idx]]], P)
    Q = compiled.inflow(g, P)
    region = compiled.region[compiled.cap_idx]
    A, K = (np.where(compiled.region[nodes][:, None] == region, M[nodes][:, 1 + slot], 0.0)
            for nodes, M in ((compiled.watch, P), (compiled.cap_idx, Q)))
    return P[compiled.watch, 0], A, Q[compiled.cap_idx, 0], K


def _mode_blocks(compiled, above):
    """The balloons above rest, one block per region, in balloon order: its
    indices, as rows ``(s, 1)`` and as slots of their region ``(1, s)``,
    their ``sqrt(C)`` by row and the scale ``2 sqrt(C_i C_j)`` of the
    block's symmetrized entries."""
    region, slot = compiled.region[compiled.cap_idx], compiled.slots[0]
    for r in np.unique(region[above]).tolist():
        idx = np.flatnonzero(above & (region == r))
        h = np.sqrt(compiled.compliance[idx])[:, None]
        yield idx, idx[:, None], slot[idx][None, :], h, 2.0 * h * h.T


def _dense_modes(compiled, reg, A, K, mode):
    """``lam``, ``T``, ``V``, ``W`` and ``M`` of the balloon modes ``mode``
    from the dense ``A`` and ``K``: one ``eigh`` per block, and every
    product over the balloons of a block as a dense matrix product."""
    nc, above, below = len(mode), mode == engine._ABOVE, mode == engine._BELOW
    D = above / reg.compliance
    lam, T = np.zeros(nc), np.zeros((nc, nc))
    AD, W = A * D / engine.KPA, np.zeros((len(A), nc))
    for idx, rows, _slots, h, hh in _mode_blocks(compiled, above):
        cols = idx[None, :]
        Kb = K[rows, cols]
        lb, U = np.linalg.eigh((Kb + Kb.T) / hh)
        lb[lb > -64.0 * engine._EPS * np.abs(lb).max()] = 0.0
        lam[idx], T[rows, cols] = lb, h * U
        W[:, idx] = AD[:, idx] @ (h * U)
    V = T.copy()
    V[below] = np.divide((K[below] * D) @ T, lam, out=np.zeros((below.sum(), nc)), where=lam != 0.0)
    return lam, T, V, W, reg.sign[:, None] * W[: len(reg.sign)]


def _assert_compact_maps_match_the_dense(compiled, rng, exact):
    """A random regime's ``A`` and ``K`` and a random set of balloon modes'
    ``T``, ``Tt``, ``V``, ``W`` and ``M``, densified, against their dense
    forms: ``A``, ``K``, ``lam`` and ``T`` bit for bit, the products bit for bit
    where ``exact`` and else within roundoff."""
    is_open = rng.random(len(compiled.valve_names)) < 0.5
    reg = compiled.regime(is_open)
    a0, A, k0, K = _scattered_regime(compiled, is_open)
    nc = len(compiled.cap_idx)
    assert np.array_equal(reg.a0, a0) and np.array_equal(reg.k0, k0)
    assert np.array_equal(_densify(reg.A, reg.acol, nc), A)
    assert np.array_equal(_densify(reg.K, reg.kcol, nc), K)
    mode = rng.choice([engine._ABOVE, engine._ABOVE, engine._BELOW, engine._EMPTY], size=nc)
    modes = reg.modes(mode)
    lam, T, V, W, M = _dense_modes(compiled, reg, A, K, mode)
    assert np.array_equal(modes.lam, lam)
    assert np.array_equal(_densify(modes.T, reg.kcol, nc), T)
    assert np.array_equal(_densify(modes.Tt, reg.kcol, nc), T.T)
    for got, col, want in ((modes.V, reg.kcol, V), (modes.W, reg.acol, W),
                           (modes.M, reg.acol[: len(M)], M)):
        got = _densify(got, col, nc)
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max(initial=0.0) <= 1.0e-12 * np.abs(want).max(initial=0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_loads, st.integers(0, 2**32 - 1))
def test_compact_maps_match_the_dense_layout_on_fanouts(loads, seed):
    # 2-4 loads on one output: a region of 2-4 balloons, its rows' sums in
    # another order than a dense product's
    compiled = engine._Compiled(_fanout(loads), ("q", "l0.b", "SUP"))
    assert compiled.slots[1] == len(loads)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        _assert_compact_maps_match_the_dense(compiled, rng, exact=False)


@pytest.mark.parametrize("make_net", [_ring3_calibrated, _ring11], ids=["ring3_calibrated", "ring11"])
def test_compact_maps_match_the_dense_layout_on_rings_bit_for_bit(make_net):
    # one balloon per region: every product has one term, in either layout
    net = make_net()
    compiled = engine._Compiled(net, net.node_order())
    assert compiled.slots[1] == 1
    rng = np.random.default_rng(7)
    for _ in range(8):
        _assert_compact_maps_match_the_dense(compiled, rng, exact=True)


def _regime_solved_alone(compiled, is_open):
    """A regime's ``a0``, ``A``, ``k0`` and ``K`` from a region solve of its
    own, over the free nodes that its valve states leave anchored, with one
    column for the fixed-node drive and one per balloon slot."""
    g = compiled.conductances(is_open)
    labels, _fixed, anchored = compiled.components(g)
    slot, width = compiled.slots[:2]
    P = np.zeros((compiled.n, 1 + width))
    P[compiled.fixed_idx, 0] = compiled.fixed_pa
    P[compiled.cap_idx, 1 + slot] = 1.0
    compiled.solve(g, compiled.free_idx[anchored[labels[compiled.free_idx]]], P)
    Q = compiled.inflow(g, P)[compiled.cap_idx]
    P = P[compiled.watch]
    return P[:, 0], P[:, 1:], Q[:, 0], Q[:, 1:]


def _modes_alone(compiled, sign, A, K, k0, mode):
    """``lam``, ``T``, ``Tt``, ``V``, ``zstar``, ``W`` and ``M`` of the
    balloon modes ``mode``, decomposed from one regime's own maps: one
    ``eigh`` per block of its ``K``, in the slot layout."""
    kcol, acol = compiled.slots[3], compiled.slots[2]
    above, below = mode == engine._ABOVE, mode == engine._BELOW
    D = above / compiled.compliance
    lam, T, Tt = np.zeros(len(mode)), np.zeros(K.shape), np.zeros(K.shape)
    for idx, rows, slots, h, hh in _mode_blocks(compiled, above):
        Kb = K[rows, slots]
        lb, U = np.linalg.eigh((Kb + Kb.T) / hh)
        lb[lb > -64.0 * engine._EPS * np.abs(lb).max()] = 0.0
        lam[idx], T[rows, slots] = lb, h * U
        Tt[idx[None, :], slots.T] = h * U
    W = np.matmul((A * D[acol] / engine.KPA)[:, None, :], T[acol])[:, 0]
    zstar = np.divide(-engine._gather(Tt, kcol, D * k0), lam, out=np.zeros(len(mode)), where=lam != 0.0)
    V = T.copy()
    if below.any():
        kb = kcol[below]
        R = np.matmul((K[below] * D[kb])[:, None, :], T[kb])[:, 0]
        V[below] = np.divide(R, lam[kb], out=np.zeros_like(R), where=lam[kb] != 0.0)
    return lam, T, Tt, V, zstar, W, sign[:, None] * W[: len(sign)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(st.none(), _loads), st.integers(0, 2**32 - 1))
def test_gathered_regimes_match_a_solve_of_their_own(loads, seed):
    # a fan-out of 2-4 loads puts several balloons in one region; None is
    # the dead_segment net, whose x-y segment no static branch anchors and
    # whose node order probes the fixed nodes
    if loads is None:
        net = _DC_PROPERTY_NETS["dead_segment"]()
        compiled = engine._Compiled(net, net.node_order())
        labels, _fixed, anchored = compiled.components(compiled.conductances(np.zeros(2, dtype=bool)))
        assert not anchored[labels[compiled.free_idx]].all()
    else:
        compiled = engine._Compiled(_fanout(loads), ("q", "l0.b", "SUP"))
        assert compiled.slots[1] == len(loads)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        is_open = rng.random(len(compiled.valve_names)) < 0.5
        reg = compiled.regime(is_open)
        a0, A, k0, K = want = _regime_solved_alone(compiled, is_open)
        for name, w in zip(("a0", "A", "k0", "K"), want):
            assert np.array_equal(getattr(reg, name), w), name
        mode = rng.choice([engine._ABOVE, engine._ABOVE, engine._BELOW, engine._EMPTY], size=len(k0))
        modes = reg.modes(mode)
        for name, w in zip(("lam", "T", "Tt", "V", "zstar", "W", "M"),
                           _modes_alone(compiled, reg.sign, A, K, k0, mode)):
            assert np.array_equal(getattr(modes, name), w), name
    # a region's j-th valve sets bit j of its layer: at most 2^k layers
    _homes, per_region = np.unique(compiled.valve_bits[0], return_counts=True)
    assert 0 < len(compiled.layers.at) <= 2 ** per_region.max()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-1, 5), max_size=40))
def test_rank_counts_the_earlier_items_of_each_group(group):
    # the reference: each item's equals among the items before it
    g = np.array(group, dtype=int)
    assert np.array_equal(engine._rank(g), np.tril(g[:, None] == g, -1).sum(axis=1))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_loads)
def test_valve_bits_and_balloon_slots_are_ranks_within_regions(loads):
    # the fan-out's loads put several balloons in the region of q
    compiled = engine._Compiled(_fanout(loads), ("q",))
    home, local, _weight = compiled.valve_bits
    region = compiled.region[compiled.cap_idx]
    assert local == engine._rank(home).tolist()
    assert np.array_equal(compiled.slots[0], engine._rank(region))
    assert compiled.slots[0].max() == len(loads) - 1


def test_a_singular_block_fails_only_the_regimes_that_take_it():
    # x1-x2 reaches the fixed nodes only through va and vb, of 1e-300 each:
    # with either open, the second pivot of its block rounds to exactly 0
    net = build(
        "source SUP pressure=145kPa\nsource CTL pressure=100kPa\n"
        + "".join(f"tube t{k} from=CTL to=k{k} length=7.5cm\n" for k in (1, 2, 3))
        + "valve va from=SUP to=x1 control=k1 open_conductance=1e-300\n"
        "tube tx from=x1 to=x2 length=7.5cm\n"
        "valve vb from=x2 to=ATM control=k2 open_conductance=1e-300\n"
        "valve vc from=SUP to=y control=k3\n"
        "tube ty from=y to=z length=7.5cm\nballoon bz node=z\ntube tz from=z to=ATM length=15cm\n"
    )
    compiled = engine._Compiled(net, ("x1", "x2", "y", "z"))
    with pytest.raises(SingularNetworkError, match="system is singular"):
        _regime_solved_alone(compiled, np.array([True, False, False]))
    # layers 0 and 1 fill as one stack, and layer 1 holds the singular block
    with pytest.raises(SingularNetworkError):
        compiled.regime(np.array([True, False, False]))
    assert len(compiled.layers.at) == 2
    # vc open takes layer 1 in y's region and layer 0 in x1-x2's
    is_open = np.array([False, False, True])
    reg = compiled.regime(is_open)
    for got, want in zip((reg.a0, reg.A, reg.k0, reg.K), _regime_solved_alone(compiled, is_open)):
        assert np.array_equal(got, want)
    assert reg.a0[-2] > 0.0  # y, fed by vc
    modes = reg.modes(np.full(1, engine._ABOVE))
    assert np.isfinite(modes.W).all() and np.isfinite(modes.lam).all()
    with pytest.raises(SingularNetworkError):
        compiled.regime(np.array([False, True, True]))


def test_no_cached_regime_array_grows_with_the_balloons_times_the_rows():
    # a 101-stage travelling wave caches a regime per valve-state pattern it
    # meets; each array a regime or its modes hold is at most rows x width
    n = 101
    stages = range(1, n + 1)
    cfg = SimConfig(
        t_end=1000.0, probes=tuple(f"r.q{k}" for k in stages),
        initial_valve_states={f"r.g{k}.v": ValveState.CLOSED if k % 2 else ValveState.OPEN for k in stages},
        initial_pressures_kpa={f"r.g{k}.v": 70.0 for k in stages},
    )
    compiled = engine._compile_probed(build(f"source SUP pressure=145kPa\nring r n={n} supply=SUP\n"), cfg)
    cycle = engine._limit_cycle(compiled, compiled.initial_states(cfg.initial_valve_states),
                                compiled.initial_volumes(cfg.initial_pressures_kpa), cfg.t_end)
    assert cycle.events > 400 and len(compiled._regimes) > 100
    rows, width = len(compiled.watch), compiled.slots[1]
    held = [a for reg in compiled._regimes.values() for obj in (reg, *reg._modes.values())
            for a in vars(obj).values() if isinstance(a, np.ndarray)]
    assert len(held) > 20 * len(compiled._regimes)
    assert max(a.size for a in held) <= rows * width == 2 * n


def test_fanout_events_match_solve_ivp():
    # three loads on one output: each load valve's margin is a sum of
    # exponentials over its region's three modes
    net = _fanout([(2.0e-10, 1.0, 7.5), (4.0e-10, 2.0, 5.0), (7.0e-10, 0.7, 12.0)])
    tr = simulate(net, SimConfig(t_end=0.5))
    _segments, want = _solve_ivp_reference(net, 0.5, 10)
    assert len(tr.events) == len(want) == 3
    assert [e[1:] for e in tr.events] == [e[1:] for e in want]
    for (t_got, _, _), (t_want, _, _) in zip(tr.events, want):
        assert abs(t_got - t_want) <= 1.0e-8


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.floats(-1.0, 1.0),
    st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-60.0, -0.5)), min_size=1, max_size=4),
)
def test_first_rise_is_the_first_upward_zero(c, terms):
    b, lam = (np.array(v) for v in zip(*terms))
    h = 1.0
    t = expsums._first_rise(c, 0.0, b, lam, h, c + b.sum())
    grid = np.linspace(0.0, h, 20001)
    f = c + np.exp(np.multiply.outer(grid, lam)) @ b
    below = np.flatnonzero(f < -1.0e-12)  # f is below 0 from grid[below[0]] on
    if not np.isfinite(t):
        # once below 0, f does not come back past roundoff
        assert not len(below) or (f[below[0]:] < 1.0e-12).all()
        return
    assert 0.0 <= t <= h
    assert c + np.exp(lam * t) @ b >= -1.0e-12
    if len(below):  # else f is below 0 by roundoff alone
        # a rise comes after f is below 0, and f stays below 0 until it
        assert t >= grid[below[0]] - grid[1]
        assert (f[below[0]:][grid[below[0]:] < t - 1.0e-6] < 1.0e-12).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 1.0e-6),
    st.sampled_from([0.0, 1.0e-3, -1.0e-3, 0.5, -1.0]),
    st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-60.0, -0.5)), min_size=1, max_size=4),
)
def test_unbounded_first_rise_matches_a_long_window(c, r, terms):
    # with no end the search stops where the sum keeps its sign for good;
    # 1e5 s lies past that for every drawn sum
    b, lam = (np.array(v) for v in zip(*terms))
    f0 = c + b.sum()
    t = expsums._first_rise(c, r, b, lam, math.inf, f0)
    t_long = expsums._first_rise(c, r, b, lam, 1.0e5, f0)
    assert t == t_long or abs(t - t_long) <= 1.0e-9 * max(1.0, t_long)


def test_first_rise_counts_a_rise_in_the_first_piece_whatever_f0():
    # f = 1 - 1.5 e^-τ - 0.5 e^-3τ rises from f(0) = -1 through 0 in its
    # one monotone piece; a caller's f0 at or above 0 does not hide that
    # rise, and the rise is the one found with f0 below 0
    c, b, lam = 1.0, np.array([-1.5, -0.5]), np.array([-1.0, -3.0])
    t = expsums._first_rise(c, 0.0, b, lam, 2.0, -1.0)
    assert 0.0 < t < 2.0
    assert abs(c + b @ np.exp(lam * t)) <= 1.0e-12
    for f0 in (0.0, 1.0):
        assert expsums._first_rise(c, 0.0, b, lam, 2.0, f0) == t
    # f0 below 0 and f(0) not: the rise is at 0
    assert expsums._first_rise(1.0, 0.0, -b, lam, 2.0, -1.0) == 0.0


#: rates and coefficients drawn from small sets, so that rates repeat and
#: terms of one rate can cancel to exactly 0
_RATES = st.sampled_from([-0.5, -1.0, -3.0, -7.5, -60.0])
_COEFFS = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5, 0.25]), st.floats(-2.0, 2.0))


@st.composite
def _rise_rows(draw):
    """``(c, b, lam, h, f0, r)`` for ``_first_rises``: rows with their own
    rates, zero and repeated coefficients, ``b = M * d`` with ``d``'s
    entries exactly 0 in places, ``f0`` the rows' value at 0, finite or
    infinite ``h``, and ``r`` or none. A ``c`` within float spacing of the
    terms' total rises late, if at all: past the horizon of an unbounded
    search (``_horizon``) for a row of one exponential, which neither form
    may then cut short."""
    rows, terms = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    lam = np.array(draw(st.lists(_RATES, min_size=rows * terms, max_size=rows * terms))).reshape(rows, terms)
    M = np.array(draw(st.lists(_COEFFS, min_size=rows * terms, max_size=rows * terms))).reshape(rows, terms)
    d = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -0.5, 2.0]), min_size=terms, max_size=terms)))
    c = st.one_of(st.just(0.0), st.floats(-1.0, 1.0).filter(lambda c: abs(c) >= 1.0e-6),
                  st.sampled_from([6.8e-299, -6.8e-299, 1.0e-12, -1.0e-12]))
    c = np.array(draw(st.lists(c, min_size=rows, max_size=rows)))
    h = draw(st.sampled_from([math.inf, 0.3, 2.0]))
    r = draw(st.one_of(st.none(), st.lists(st.sampled_from([0.0, 1.0e-3, -1.0e-3, 0.5, -1.0]),
                                           min_size=rows, max_size=rows).map(np.array)))
    b = M * d
    return c, b, lam, h, c + b.sum(axis=1), r


def _rise_case(c, b, lam):
    """One row of ``_rise_rows``, ``c + Σ_j b_j e^(λ_j τ)``, with no end
    time and no ``r``."""
    c, b = np.array([c]), np.array([b])
    return c, b, np.array([lam]), math.inf, c + b.sum(axis=1), None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rise_rows())
# one exponential rising at 1372.5 s, past the unbounded search's horizon
@example(_rise_case(6.8e-299, [-0.75], [-0.5]))
# c = 0 and subnormal terms, whose float spacing underflows to 0
@example(_rise_case(0.0, [2.2e-311, 2.2e-311], [-0.5, -1.0]))
def test_first_rises_match_the_row_by_row_reference(args):
    # the closed form of a one-exponential row against the root isolation
    # of _first_rise, row by row: the same rises, within roundoff
    got, want = expsums._first_rises(*args), _rises_one_by_one(*args)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1.0e-9 * np.maximum(1.0, want[finite]))


def test_regime_margin_is_the_hysteresis_rule_bit_for_bit():
    compiled = engine._Compiled(_ring3_calibrated())
    ctrl = np.array([85.0, 60.0, 0.0, -0.0, 72.5, 1.0e300, math.inf, -math.inf, math.nan])
    for bits in itertools.product((False, True), repeat=3):
        is_open = np.array(bits)
        reg = compiled.regime(is_open)
        for k in itertools.product(range(len(ctrl)), repeat=3):
            want = compiled.margin(is_open, ctrl[list(k)])
            assert reg.margin(ctrl[list(k)]).tobytes() == want.tobytes()


def test_ring101_flips_in_lock_step():
    # one stage's K entry sits an ulp from the others': the valves rising
    # within engine._EVENT_TOL of a flip flip with it, which keeps the ring's
    # 101 stages flipping together, in two regimes
    tr = simulate(_ring101(), SimConfig(t_end=1.0, probes=("r.q1",)))
    flipped = {}
    for t, name, _state in tr.events:
        flipped.setdefault(t, set()).add(name)
    assert len(tr.events) == 2929
    assert all(len(names) == 101 for names in flipped.values())


VACUUM_TEXT = (
    "source V pressure=-20kPa\nsource SUP pressure=150kPa\n"
    "tube t1 from=V to=x length=5cm\ntube t2 from=x to=y length=7.5cm\n"
    "tube t3 from=y to=SUP length=15cm\n"
    "balloon bx node=x volume=0.1mL init=5kPa\nballoon by node=y compliance=2e-9\n"
    "probe x\nprobe y\n"
)


def test_vacuum_balloon_drains_below_rest_and_refills_as_the_solver_does():
    # x is pulled below rest by V, then refills once y has charged: the
    # closed form's mode changes against the solver's clamped right-hand side
    net = build(VACUUM_TEXT)
    tr = simulate(net, SimConfig(t_end=0.5))
    (volumes,) = _solve_ivp_reference(net, 0.5, 0)[0]
    names = net.node_order()
    rows = [names.index(p) for p in tr.probes]
    want = np.array([_full_solve_reference(net, (), volumes(t))[0][rows] for t in tr.times])
    x = tr.column("x")
    assert x[0] == pytest.approx(5.0) and (x == 0.0).any() and x[-1] > 1.0
    assert np.abs(tr.pressures_kpa - want / 1.0e3).max() <= 1.0e-6 * 150.0


@pytest.mark.parametrize("relative, warned", [(1.0e-10, 1), (-1.0e-10, 0)])
def test_burst_warning_at_the_burst_level_itself(relative, warned):
    # the balloon settles at the supply, a hair above or below its 200 kPa burst level
    supply = 200.0 * (1.0 + relative)
    net = build(
        f"source SUP pressure={supply!r}kPa\n"
        "tube t1 from=SUP to=x length=5cm\n"
        "balloon b1 node=x\n"
        "probe x\n"
    )
    tr = simulate(net, SimConfig(t_end=1.0))
    assert (float(tr.column("x")[-1]) > 200.0) == bool(warned)
    assert len(tr.warnings) == warned
    if warned:
        assert tr.warnings[0].startswith("balloon b1 passed its burst pressure (200.0 kPa) at t=")


def test_balloon_starting_past_its_burst_level_warns_at_the_start_as_it_drains():
    net = build(
        "source SUP pressure=145kPa\ntube t1 from=SUP to=x length=7.5cm\n"
        "balloon b1 node=x init=210kPa\nprobe x\n"
    )
    want = ("balloon b1 passed its burst pressure (200.0 kPa) at t=0 s",)
    tr = simulate(net, SimConfig(t_end=0.5))
    x = tr.column("x")
    assert x[0] == pytest.approx(210.0) and x[-1] == pytest.approx(145.0, rel=1e-3)
    assert tr.warnings == want
    with pytest.raises(NoOscillationError, match="comes to rest") as err:
        measure_oscillation(net, SimConfig(t_end=0.5))
    assert err.value.warnings == want


@pytest.mark.parametrize("t_end, warned", [(0.05, False), (2.0, True)])
def test_limit_cycle_checks_bursts_up_to_t_end(t_end, warned):
    # a slow RC at rest passes its 100 kPa burst level near t = 0.518 s;
    # the run ends at t_end, and so does its burst check
    net = build(
        "source SUP pressure=145kPa\ntube t1 from=SUP to=x length=15cm\n"
        "balloon b1 node=x burst=100kPa compliance=4e-9\nprobe x\n"
    )
    with pytest.raises(NoOscillationError, match="comes to rest") as err:
        measure_oscillation(net, SimConfig(t_end=t_end))
    assert len(err.value.warnings) == warned
    if warned:
        assert err.value.warnings == (
            "balloon b1 passed its burst pressure (100.0 kPa) at t=0.517729 s",)


def test_no_spurious_flip_after_an_event():
    tr = simulate(_ring3_calibrated(), SimConfig(t_end=1.5))
    last_flip = {}
    for t, name, _state in tr.events:
        assert name not in last_flip or t - last_flip[name] > 1.0e-5
        last_flip[name] = t
    assert len(tr.events) == 134


def test_settle_give_up_is_warned_and_the_run_finishes():
    # the valve reads its own outlet, a free node: open, the outlet rises
    # past p_inflate; closed, it drops to ambient, below p_deflate
    def tube(name, a, b, length):
        return TubeElement.from_geometry(name, a, b, length, 1.0e-3, MU)

    net = PneumaticNetwork(
        tubes=(tube("ts", "S", "n", 0.075), tube("tq", "c", "ATM", 0.15)),
        valves=(KinkValveDevice("v", "n", "c", "c", balloon=None),),
        sources=(SourceElement("SUP", "S", 145.0),),
        probes=("c",),
    )
    tr = simulate(net, SimConfig(t_end=0.05))
    assert tr.times[-1] == pytest.approx(0.05)
    assert len(tr.warnings) == 1
    assert "did not settle at t=0 s" in tr.warnings[0]
    assert tr.warnings[0].endswith("still changing: v")
    assert len(tr.events) == 4
    assert {t for t, _name, _state in tr.events} == {0.0}


def test_free_control_node_event_is_located():
    # SUP -t1- x(balloon) -t2- c -t3- ATM: the valve reads the divider tap c,
    # a free node, through its own row of the regime's map
    def tube(name, a, b, length):
        return TubeElement.from_geometry(name, a, b, length, 1.0e-3, MU)

    t1, t2, t3 = tube("t1", "S", "x", 0.05), tube("t2", "x", "c", 0.025), tube("t3", "c", "ATM", 0.15)
    valve = KinkValveDevice("v", "n", "q", "c", balloon=None)
    net = PneumaticNetwork(
        tubes=(t1, t2, t3, tube("ts", "S", "n", 0.075), tube("tq", "q", "ATM", 0.15)),
        valves=(valve,),
        balloons=(Balloon("bx", "x", BalloonParams()),),
        sources=(SourceElement("SUP", "S", 145.0),),
        probes=("c", "q"),
    )
    tr = simulate(net, SimConfig(t_end=0.05))
    # x charges as a first-order RC; c reads x through the t2/t3 divider
    r23 = t2.resistance + t3.resistance
    tau = BalloonParams().compliance * t1.resistance * r23 / (t1.resistance + r23)
    c_final = 145.0 * t3.resistance / (t1.resistance + r23)
    t_cross = -tau * math.log(1.0 - valve.thresholds.p_inflate / c_final)
    assert len(tr.events) == 1
    t_e, name, state = tr.events[0]
    assert (name, state) == ("v", ValveState.CLOSED)
    assert abs(t_e - t_cross) <= 1.0e-9
    assert float(tr.column("q")[-1]) == 0.0


@pytest.mark.parametrize(
    "state, init, thresholds, switches",
    [
        (ValveState.OPEN, 85.0, (85.0, 60.0), True),
        (ValveState.CLOSED, 60.0, (85.0, 60.0), True),
        (ValveState.OPEN, 85.0, (np.nextafter(85.0, np.inf), 60.0), False),
        (ValveState.CLOSED, 60.0, (85.0, np.nextafter(60.0, 0.0)), False),
    ],
    ids=["at-p_inflate", "at-p_deflate", "ulp-below-p_inflate", "ulp-above-p_deflate"],
)
def test_transient_valve_switches_at_exact_thresholds(state, init, thresholds, switches):
    # power-of-two volume and compliance make the kPa -> volume -> kPa round
    # trip exact, so the control reads the threshold itself; the control
    # balloon has no tube, so it keeps that charge
    params = BalloonParams(rest_volume=2.0**-20, compliance=2.0**-31)
    assert balloon_pressure(params.volume_at(init), params) == init
    valve = KinkValveDevice(
        "v", "S", "q", "b", balloon=params, state=state, initial_control_kpa=init,
        thresholds=HysteresisThresholds(*thresholds),
    )
    net = PneumaticNetwork(
        tubes=(TubeElement.from_geometry("tq", "q", "ATM", 0.15, 1.0e-3, MU),),
        valves=(valve,),
        sources=(SourceElement("SUP", "S", 145.0),),
        probes=("b", "q"),
    )
    tr = simulate(net, SimConfig(t_end=0.01))
    assert tr.column("b")[0] == init
    flipped = ValveState.CLOSED if state is ValveState.OPEN else ValveState.OPEN
    assert tr.events == (((0.0, "v", flipped),) if switches else ())


def test_initial_state_overrides_are_checked():
    net = build("source SUP pressure=145kPa\nring r n=3 supply=SUP\n")
    with pytest.raises(ValueError):
        simulate(net, SimConfig(t_end=0.1, initial_valve_states={"nope": ValveState.OPEN}))
    with pytest.raises(ValueError):
        simulate(net, SimConfig(t_end=0.1, initial_pressures_kpa={"nope": 10.0}))


@pytest.mark.parametrize("field", ["t_end", "sample_interval"])
def test_sim_config_fields_must_be_finite(field):
    with pytest.raises(ValueError, match=f"SimConfig.{field} must be positive and finite"):
        SimConfig(**{"t_end": 1.0, field: math.inf})


def test_short_runs_end_at_t_end():
    # t + (t_end - t) can round an ulp short of t_end: the run must still
    # end at t_end itself, whatever its length.
    rc = build(
        "source SUP pressure=100kPa\ntube t from=SUP to=x length=7.5cm\n"
        "balloon b node=x\nprobe x\n"
    )
    inverter = _read_circuit("not").with_pins({"a": 0.0})
    for net, n in ((rc, 400), (inverter, 200)):
        for t_end in np.linspace(1.0e-3, 0.019, n).tolist():
            tr = simulate(net, SimConfig(t_end=t_end))
            assert tr.times[-1] == t_end


def test_static_network_trace_is_flat():
    net = build(
        "source SUP pressure=100kPa\n"
        "tube a1 from=SUP to=x length=10cm\n"
        "tube a2 from=x to=ATM length=10cm\n"
        "probe x\n"
    )
    tr = simulate(net, SimConfig(t_end=0.05))
    assert np.allclose(tr.column("x"), 50.0)


# ---------------------------------------------------------------------------
# oscillation extraction and ring behavior
# ---------------------------------------------------------------------------


def stock_ring(n=3, stagger=True):
    net = build(
        "source SUP pressure=145kPa\n"
        f"ring r n={n} supply=SUP\n"
        + "".join(f"probe r.q{i}\n" for i in range(1, n + 1))
    )
    if not stagger:
        return net, SimConfig(t_end=2.0)
    cfg = SimConfig(
        t_end=2.0,
        initial_valve_states={"r.g1.v": ValveState.CLOSED},
        initial_pressures_kpa={"r.g1.v": 70.0},
    )
    return net, cfg


def test_symmetric_start_locks_in_phase():
    net, cfg = stock_ring(stagger=False)
    rep = extract_frequency(simulate(net, cfg), "r.q1")
    for probe in ("r.q1", "r.q2", "r.q3"):
        assert rep.phase_deg[probe] == pytest.approx(0.0, abs=1.0)


def test_staggered_start_gives_travelling_mode():
    net, cfg = stock_ring()
    rep = extract_frequency(simulate(net, cfg), "r.q1")
    offsets = sorted(rep.phase_deg.values())
    assert offsets[0] == pytest.approx(0.0, abs=5.0)
    assert offsets[1] == pytest.approx(120.0, abs=15.0)
    assert offsets[2] == pytest.approx(240.0, abs=15.0)
    assert rep.cycles >= 3
    assert 0.0 < rep.duty < 1.0


def test_extraction_agrees_with_event_log_period():
    net, cfg = stock_ring()
    tr = simulate(net, cfg)
    rep = extract_frequency(tr, "r.q1")
    # closing events of one valve are one period apart
    closes = [t for t, name, s in tr.events if name == "r.g2.v" and s is ValveState.CLOSED]
    periods = np.diff([t for t in closes if t > 0.2 * tr.times[-1]])
    assert rep.frequency_hz == pytest.approx(1.0 / np.mean(periods), rel=0.02)


def test_no_oscillation_raises():
    net = build(RC_TEXT)
    tr = simulate(net, SimConfig(t_end=0.2))
    with pytest.raises(NoOscillationError):
        extract_frequency(tr, "x")


def test_flat_latch_raises_no_oscillation():
    net = build(
        "source SUP pressure=145kPa\n"
        "gate NOT g1 in=q2 out=q1 supply=SUP\n"
        "gate NOT g2 in=q1 out=q2 supply=SUP\n"
        "probe q1\n"
    )
    cfg = SimConfig(
        t_end=1.0,
        initial_valve_states={"g1.v": ValveState.CLOSED},
        initial_pressures_kpa={"g1.v": 70.0},
    )
    with pytest.raises(NoOscillationError):
        extract_frequency(simulate(net, cfg), "q1")


def _rising_crossings_one_by_one(t, y, level):
    idx = np.nonzero((y[:-1] < level) & (y[1:] >= level))[0]
    if len(idx) == 0:
        return np.zeros(0)
    frac = (level - y[idx]) / (y[idx + 1] - y[idx])
    return t[idx] + frac * (t[idx + 1] - t[idx])


def _extract_cycle_by_cycle(trace, probe, min_amplitude_kpa):
    """``extract_frequency`` probe by probe and cycle by cycle, with a mask
    per cycle: the reference of its array form."""
    engine._check_floor(min_amplitude_kpa)
    if probe not in trace.probes:
        raise ValueError(f"probe {probe!r} not in trace")
    if len(trace.times) < 2:
        raise ValueError("trace needs at least two samples")
    t = np.asarray(trace.times, dtype=float)
    start = t[0] + 0.2 * (t[-1] - t[0])
    keep = t >= start
    t = t[keep]
    ref = np.asarray(trace.column(probe), dtype=float)[keep]
    if len(t) < 2:
        raise NoOscillationError("trace too short after transient removal")
    engine._check_swing(float(ref.max() - ref.min()), min_amplitude_kpa)
    mid = 0.5 * float(ref.max() + ref.min())
    crossings = _rising_crossings_one_by_one(t, ref, mid)
    if len(crossings) < 3:
        raise NoOscillationError(f"only {len(crossings)} midline crossings; need at least 3")
    period = float(np.mean(np.diff(crossings)))
    above = ref > mid
    seg = np.diff(t)
    w = 0.5 * (above[:-1].astype(float) + above[1:].astype(float))
    duty = float(np.sum(seg * w) / np.sum(seg))
    peaks, troughs, phases = {}, {}, {}
    for name in trace.probes:
        y = np.asarray(trace.column(name), dtype=float)[keep]
        cyc_max, cyc_min = [], []
        for a, b in zip(crossings[:-1], crossings[1:]):
            m = (t >= a) & (t < b)
            if m.any():
                cyc_max.append(float(y[m].max()))
                cyc_min.append(float(y[m].min()))
        peaks[name] = float(np.mean(cyc_max)) if cyc_max else float(y.max())
        troughs[name] = float(np.mean(cyc_min)) if cyc_min else float(y.min())
        own = _rising_crossings_one_by_one(t, y, 0.5 * float(y.max() + y.min()))
        phases[name] = 0.0 if name == probe else engine._phase_deg(crossings, own, period)
    return engine.OscillationReport(probe, 1.0 / period, duty, peaks, troughs, phases,
                                    len(crossings) - 1)


def _extraction(extract, trace, probe, min_amplitude_kpa):
    try:
        return repr(extract(trace, probe, min_amplitude_kpa))
    except (NoOscillationError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


#: levels a drawn sample often takes: they repeat, and the midline of a
#: column spanning 0 to 4 is one of them
_LEVELS = (0.0, 1.0, 2.0, 3.0, 4.0)


@st.composite
def _sampled_traces(draw):
    n = draw(st.integers(2, 60))
    steps = draw(st.lists(st.sampled_from([0.25, 1.0]) | st.floats(1.0e-3, 10.0),
                          min_size=n - 1, max_size=n - 1))
    times = np.cumsum([draw(st.floats(-5.0, 5.0)), *steps])
    value = st.sampled_from(_LEVELS) | st.floats(-5.0, 10.0)
    probes = tuple(f"p{k}" for k in range(draw(st.integers(1, 4))))
    columns = [draw(st.lists(value, min_size=n, max_size=n)) for _ in probes]
    pressures = np.array(columns).T
    if draw(st.booleans()):  # a simulated trace's layout, rows contiguous
        pressures = np.ascontiguousarray(pressures)
    trace = engine.Trace(probes, times, pressures, events=())
    return trace, draw(st.sampled_from(probes)), draw(st.sampled_from([0.0, 1.0, 3.0]))


def _square_wave_trace():
    """The reference rising through its midline exactly three times after
    the first 20 % of the trace, and two columns both named ``b``, of which
    ``Trace.column`` reads the first."""
    times = np.arange(9) * 0.5
    ref = np.array([0.0, 4.0, 0.0, 4.0, 0.0, 4.0, 0.0, 4.0, 0.0])
    columns = np.column_stack((ref, np.roll(ref, 1) + 1.0, 2.0 * ref))
    return engine.Trace(("a", "b", "b"), times, columns, events=()), "a", 1.0


def _empty_cycle_trace():
    """A trace whose first two rising crossings round to one time: the
    first rises to the midline exactly, so it lies at its second sample,
    where ``a + (b - a)`` rounds past ``b``; the second starts just below
    the midline at the next sample, so it lies on that sample. The cycle
    between them holds no sample."""
    a, b = 0.5 + 1.5 * 2.0**-52, 1.5 + 3.0 * 2.0**-52
    times = np.array([0.0, 0.25, a, b, np.nextafter(b, 2.0), 2.0, 2.2, 2.4, 2.5])
    ref = [0.0, 0.0, 0.0, 1.0, np.nextafter(1.0, 0.0), 2.0, 0.0, 2.0, 0.0]
    return engine.Trace(("a",), times, np.array(ref)[:, None], events=()), "a", 1.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sampled_traces())
@example(_square_wave_trace())
@example(_empty_cycle_trace())
def test_extract_frequency_matches_the_cycle_by_cycle_reference(case):
    trace, probe, floor = case
    assert (_extraction(extract_frequency, trace, probe, floor)
            == _extraction(_extract_cycle_by_cycle, trace, probe, floor))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def test_calibration_bounds_make_1khz_unreachable():
    net = expand(parse(open("circuits/ring3_calibrated.tbl").read()))
    with pytest.raises(CalibrationFailedError) as err:
        calibrate_oscillator(net, target_frequency_hz=1000.0, target_peak_kpa=35.0)
    best = err.value.best
    assert best is not None
    assert best.frequency_hz < 100.0  # nowhere near the request


def test_calibration_fails_fast_on_an_unreachable_frequency():
    net = expand(parse(open("circuits/ring3_calibrated.tbl").read()))
    with pytest.raises(CalibrationFailedError) as err:
        calibrate_oscillator(net, target_frequency_hz=1000.0, target_peak_kpa=35.0)
    assert 1 <= len(err.value.evaluations) <= 3
    best = err.value.best
    assert best.open_conductance == engine.CalibrationBounds().open_conductance[1]
    assert best.frequency_hz * best.compliance / engine.CalibrationBounds().compliance[0] < 1000.0


def test_calibration_fails_fast_below_the_slowest_reachable_frequency():
    # ring3_calibrated runs at 15 Hz with its own compliance; at most 1.5x
    # that compliance slows the fitted peak's point to about 10 Hz
    net = expand(parse(open("circuits/ring3_calibrated.tbl").read()))
    c0 = engine.template_compliance(net)
    bounds = engine.CalibrationBounds(compliance=(c0 / 1.5, c0 * 1.5))
    with pytest.raises(CalibrationFailedError, match="at least") as err:
        calibrate_oscillator(
            net, target_frequency_hz=5.0, target_peak_kpa=35.0, probe="m1", bounds=bounds
        )
    best = err.value.best
    assert best.compliance == c0  # no rescale was tried
    assert best.peak_kpa == pytest.approx(35.0, rel=0.02)
    assert best.frequency_hz * c0 / bounds.compliance[1] > 5.0 * 1.02


@pytest.mark.parametrize("f, peak", [(10.0, 16.5), (8.0, 16.2), (3.0, 16.0)])
def test_calibration_with_a_sub_atmospheric_source_meets_a_fine_tolerance(f, peak):
    # pull-downs to -30 kPa drain balloons below rest, to refill a slack
    # volume that does not scale with C: one rescale misses by about 1 %,
    # so the fit repeats it until the frequency is met
    with open("circuits/ring3_calibrated.tbl", encoding="utf-8") as fh:
        text = fh.read().replace("to=ATM", "to=VAC")
    net = build(text + "source VAC pressure=-30kPa\n")
    fit = calibrate_oscillator(net, f, peak, tolerance=0.005)
    assert fit.frequency_hz == pytest.approx(f, rel=0.005)
    assert fit.peak_kpa == pytest.approx(peak, rel=0.005)
    assert len(fit.evaluations) <= 12


def test_a_far_too_slow_target_fails_within_a_few_cycles_per_evaluation():
    # 0.05 Hz is 300x below the circuit's own 15 Hz; each evaluation still
    # runs only until its limit cycle repeats, so the fit fails in a few
    # hundred valve events, not in minutes of simulated time
    net = expand(parse(open("circuits/ring3_calibrated.tbl").read()))
    start = time.perf_counter()
    with pytest.raises(CalibrationFailedError, match="at least") as err:
        calibrate_oscillator(net, target_frequency_hz=0.05, target_peak_kpa=35.0)
    wall = time.perf_counter() - start
    evaluations = err.value.evaluations
    assert evaluations and all(ev.cycles <= 8 for ev in evaluations)
    assert sum(ev.events for ev in evaluations) <= 200
    assert err.value.best.evaluations == evaluations  # recorded after the last evaluation
    assert wall < 10.0  # loose: the event bound above is the real check


def test_peak_out_of_reach_keeps_the_upper_conductance_bound():
    # ring3_calibrated peaks near 39 kPa at the largest conductance: 200 kPa
    # is out of reach, so no bisection runs and the frequency is still fitted
    net = expand(parse(open("circuits/ring3_calibrated.tbl").read()))
    with pytest.raises(CalibrationFailedError) as err:
        calibrate_oscillator(net, target_frequency_hz=15.0, target_peak_kpa=200.0)
    best = err.value.best
    assert best.open_conductance == 1e-3
    assert best.frequency_hz == pytest.approx(15.0, rel=0.02)
    assert best.peak_kpa < 100.0
    # the upper bound and the rescaled point: a uniform compliance only
    # rescales time, so a second round could only repeat the first
    assert len(err.value.evaluations) == 2
    assert err.value.best.evaluations == err.value.evaluations


_C_BOUNDS = engine.CalibrationBounds().compliance


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.floats(*_C_BOUNDS))
def test_uniform_compliance_only_rescales_time(c):
    # above rest a balloon's pressure is (v - rest) / C: with one C on every
    # balloon the run in pressure space is the same, and time scales with C
    net = _ring3_calibrated()
    c0 = engine.template_compliance(net)
    cfg = SimConfig(t_end=1.0e4)
    ref = measure_oscillation(net, cfg)
    rep = measure_oscillation(net.with_uniform_params(compliance=c), cfg)
    assert (rep.cycles, rep.events) == (ref.cycles, ref.events)
    assert rep.frequency_hz * c == pytest.approx(ref.frequency_hz * c0, rel=1e-9)
    assert rep.peaks_kpa == pytest.approx(ref.peaks_kpa, abs=1e-9)


@pytest.mark.parametrize(
    "bounds",
    [dict(compliance=(1.0e-8, 5.0e-11)), dict(compliance=(5.0e-11, 5.0e-11)),
     dict(compliance=(math.nan, 1.0e-8)), dict(compliance=(5.0e-11, math.inf)),
     dict(open_conductance=(0.0, 1.0e-3)), dict(open_conductance=(-1.0e-8, 1.0e-3))],
    ids=["reversed", "empty", "nan", "inf", "zero", "negative"],
)
def test_calibration_bounds_need_finite_positive_increasing_ends(bounds):
    with pytest.raises(ValueError, match="0 < lo < hi"):
        engine.CalibrationBounds(**bounds)


def _no_evaluation(monkeypatch):
    def evaluate(*_args):
        raise AssertionError("an input check ran after an evaluation")

    monkeypatch.setattr(engine, "_limit_cycle", evaluate)


@pytest.mark.parametrize(
    "kwargs, what",
    [(dict(target_frequency_hz=math.nan), "targets"), (dict(target_frequency_hz=math.inf), "targets"),
     (dict(target_frequency_hz=0.0), "targets"), (dict(target_peak_kpa=math.nan), "targets"),
     (dict(target_peak_kpa=-35.0), "targets"), (dict(tolerance=-0.1), "tolerance"),
     (dict(tolerance=0.0), "tolerance"), (dict(tolerance=1.0), "tolerance"),
     (dict(tolerance=math.nan), "tolerance"), (dict(min_amplitude_kpa=math.nan), "min_amplitude"),
     (dict(min_amplitude_kpa=-5.0), "min_amplitude"), (dict(min_amplitude_kpa=math.inf), "min_amplitude")],
    ids=["f-nan", "f-inf", "f-zero", "peak-nan", "peak-negative", "tol-negative", "tol-zero",
         "tol-one", "tol-nan", "floor-nan", "floor-negative", "floor-inf"],
)
def test_calibration_rejects_bad_inputs_before_any_evaluation(kwargs, what, monkeypatch):
    net = _ring3_calibrated()
    _no_evaluation(monkeypatch)
    args = dict(target_frequency_hz=15.0, target_peak_kpa=35.0) | kwargs
    with pytest.raises(ValueError, match=what):
        calibrate_oscillator(net, **args)


@pytest.mark.parametrize("floor", [math.nan, -5.0, math.inf])
def test_oscillation_reports_reject_a_bad_amplitude_floor(floor, monkeypatch):
    net = _ring3_calibrated()
    tr = simulate(net, SimConfig(t_end=0.5))
    _no_evaluation(monkeypatch)
    with pytest.raises(ValueError, match="min_amplitude_kpa"):
        measure_oscillation(net, SimConfig(t_end=2.0), min_amplitude_kpa=floor)
    with pytest.raises(ValueError, match="min_amplitude_kpa"):
        extract_frequency(tr, "m1", min_amplitude_kpa=floor)


def test_probe_named_twice_is_rejected():
    with pytest.raises(ValueError, match="m1 more than once"):
        SimConfig(t_end=1.0, probes=("m1", "m2", "m1"))


def test_dead_evaluation_is_one_run_with_no_event():
    # the NOT gate's input is tied to ambient: its valve stays open for good
    net = build(
        "source SUP pressure=145kPa\n"
        "source A pressure=0kPa\n"
        "tube ta from=A to=a length=5cm\n"
        "gate NOT g in=a out=q supply=SUP\n"
        "probe q\n"
    )
    with pytest.raises(CalibrationFailedError) as err:
        calibrate_oscillator(net, target_frequency_hz=15.0, target_peak_kpa=35.0)
    assert err.value.best is None
    (ev,) = err.value.evaluations
    assert (ev.cycles, ev.events, ev.frequency_hz, ev.peak_kpa) == (0, 0, None, None)


def _count_segments(monkeypatch):
    """The segments each ``engine._segments`` run yields, one list per run."""
    runs = []
    segments = engine._segments

    def counting(*args):
        runs.append([])
        for seg in segments(*args):
            runs[-1].append(seg)
            yield seg

    monkeypatch.setattr(engine, "_segments", counting)
    return runs


def test_network_with_no_valve_is_at_rest_after_one_segment(monkeypatch):
    # an RC charge: no valve can ever rise, so its first segment never ends
    runs = _count_segments(monkeypatch)
    with pytest.raises(CalibrationFailedError) as err:
        calibrate_oscillator(build(RC_TEXT), 15.0, 35.0)
    (ev,) = err.value.evaluations
    assert (ev.cycles, ev.events, ev.frequency_hz, ev.peak_kpa) == (0, 0, None, None)
    assert [len(run) for run in runs] == [1]
    assert runs[0][0].tau == math.inf


def _ring3_set_variant():
    """``ring3_calibrated.tbl`` with two valves changed through ``--set``."""
    sets = ["v1.compliance=6.0e-11", "v2.open_conductance=5.8e-8"]
    ast, defaults = _apply_overrides(
        parse(open("circuits/ring3_calibrated.tbl").read()), PhysicalDefaults(), sets
    )
    return expand(ast, defaults)


@pytest.mark.parametrize(
    "make_net", [_ring3_calibrated, _ring3_set_variant], ids=["ring3_calibrated", "set_variant"]
)
def test_measured_limit_cycle_matches_a_long_run(make_net):
    net = make_net()
    rep = measure_oscillation(net, SimConfig(t_end=2.0))
    assert rep.probe == "m1"
    cycles, f, peak = rep.cycles, rep.frequency_hz, rep.peaks_kpa["m1"]
    assert 2 <= cycles <= 8
    tr = simulate(net, SimConfig(t_end=2.0))
    # the period between the last two occurrences of the run's last event
    last = tr.events[-1][1:]
    at = [t for t, *key in tr.events if tuple(key) == last]
    assert 1.0 / f == pytest.approx(at[-1] - at[-2], rel=1e-9)
    # the closed-form peak bounds every sample of that cycle; the two runs'
    # orbits agree to within roundoff, not bit for bit
    cycle = tr.column("m1")[(tr.times >= at[-2]) & (tr.times <= at[-1])]
    assert peak >= cycle.max() * (1.0 - 1e-12)
    assert peak == pytest.approx(extract_frequency(tr, "m1").peaks_kpa["m1"], rel=0.005)


def test_unconverged_run_reports_its_last_full_cycle(monkeypatch):
    # a run stopped at its cycle budget before converging still measures
    # the last cycle whose events repeat the one before
    net = _ring3_calibrated()
    monkeypatch.setattr(engine, "_MAX_CYCLES", 2)
    rep = measure_oscillation(net, SimConfig(t_end=2.0))
    assert rep.probe == "m1"
    cycles, f, peak = rep.cycles, rep.frequency_hz, rep.peaks_kpa["m1"]
    assert cycles == 2
    assert f == pytest.approx(15.0, rel=0.02)
    assert peak == pytest.approx(35.0, rel=0.02)


def test_swing_under_the_amplitude_floor_is_no_oscillation():
    with pytest.raises(CalibrationFailedError) as err:
        calibrate_oscillator(_ring3_calibrated(), 15.0, 35.0, probe="m1", min_amplitude_kpa=100.0)
    (ev,) = err.value.evaluations
    assert ev.events > 0
    assert (ev.frequency_hz, ev.peak_kpa) == (None, None)
    with pytest.raises(NoOscillationError, match="below the 100 kPa oscillation floor"):
        measure_oscillation(_ring3_calibrated(), SimConfig(t_end=2.0), min_amplitude_kpa=100.0)


def _ring3_per_stage(sets):
    """``ring3_calibrated.tbl`` with every valve's compliance and conductance
    set on its own through ``--set``, each within 5 % of the file's."""
    ast, defaults = _apply_overrides(
        parse(open("circuits/ring3_calibrated.tbl").read()), PhysicalDefaults(), list(sets)
    )
    return expand(ast, defaults)


_PER_STAGE = {
    "per_stage_a": ("v1.compliance=5.40e-11", "v2.compliance=5.80e-11", "v3.compliance=5.62e-11",
                    "v1.open_conductance=6.25e-8", "v2.open_conductance=5.81e-8",
                    "v3.open_conductance=6.07e-8"),
    "per_stage_b": ("v1.compliance=5.88e-11", "v2.compliance=5.47e-11", "v3.compliance=5.71e-11",
                    "v1.open_conductance=5.79e-8", "v2.open_conductance=6.30e-8",
                    "v3.open_conductance=5.95e-8"),
}


@pytest.mark.parametrize(
    "make_net",
    [_ring3_calibrated, *(lambda sets=sets: _ring3_per_stage(sets) for sets in _PER_STAGE.values()),
     lambda: build(open("circuits/ring3.tbl").read()),
     lambda: build(open("circuits/ring5.tbl").read())],
    ids=["ring3_calibrated", *_PER_STAGE, "ring3", "ring5"],
)
def test_limit_cycle_report_agrees_with_a_sampled_run(make_net):
    net = make_net()
    rep = measure_oscillation(net, SimConfig(t_end=2.0))
    ref = extract_frequency(simulate(net, SimConfig(t_end=3.0)), rep.probe)
    assert rep.warnings == ()
    assert rep.frequency_hz == pytest.approx(ref.frequency_hz, rel=1e-9)
    assert list(rep.peaks_kpa) == list(ref.peaks_kpa)
    for name in ref.peaks_kpa:
        assert rep.peaks_kpa[name] == pytest.approx(ref.peaks_kpa[name], abs=1e-6)
        assert rep.troughs_kpa[name] == pytest.approx(ref.troughs_kpa[name], abs=1e-6)
        # the circular distance between the two phases
        assert abs((rep.phase_deg[name] - ref.phase_deg[name] + 180.0) % 360.0 - 180.0) <= 0.01
    # samples straddle each valve flip, so the sampled duty is off by a few 1e-3
    assert rep.duty == pytest.approx(ref.duty, abs=0.01)


def test_limit_cycle_report_of_waves_with_several_exponentials(monkeypatch):
    # a load gate on q1 gives q1's region two balloons, so q1, q2 and z read
    # two exponentials in some segments: their extremes and crossings go
    # through the general search, against a finely sampled run. The load's
    # balloon is stiffer than the ring's: two equal balloons fed alike keep
    # equal volumes, and their second mode is then never excited
    net = build("source SUP pressure=145kPa\nring r n=3 supply=SUP taps=q1,q2,q3\n"
                "gate NOT load in=q1 out=z supply=SUP compliance=3e-10\nprobe q1\nprobe q2\nprobe z\n")
    calls = []
    extremes = engine._extremes
    monkeypatch.setattr(engine, "_extremes", lambda *args: calls.append(args) or extremes(*args))
    rep = measure_oscillation(net, SimConfig(t_end=2.0))
    assert calls
    ref = extract_frequency(simulate(net, SimConfig(t_end=2.0, sample_interval=1.0e-5)), "q1")
    assert rep.frequency_hz == pytest.approx(ref.frequency_hz, rel=1e-5)
    for name in ("q1", "q2", "z"):
        assert rep.peaks_kpa[name] == pytest.approx(ref.peaks_kpa[name], abs=1e-3)
        assert rep.troughs_kpa[name] == pytest.approx(ref.troughs_kpa[name], abs=1e-3)
        assert abs((rep.phase_deg[name] - ref.phase_deg[name] + 180.0) % 360.0 - 180.0) <= 0.01


#: the fan-out ring of the test above, whose q1, q2 and z read one exponential
#: in some segments and two in others
_FANOUT_RING = ("source SUP pressure=145kPa\nring r n=3 supply=SUP taps=q1,q2,q3\n"
                "gate NOT load in=q1 out=z supply=SUP compliance=3e-10\nprobe q1\nprobe q2\nprobe z\n")


def _start_b_ring(n):
    # valves alternating closed and open from gate 1, every balloon at 70 kPa,
    # every stage probed: a travelling wave
    stages = range(1, n + 1)
    return build(f"source SUP pressure=145kPa\nring r n={n} supply=SUP\n"), SimConfig(
        t_end=1000.0, probes=tuple(f"r.q{k}" for k in stages),
        initial_valve_states={f"r.g{k}.v": ValveState.CLOSED if k % 2 else ValveState.OPEN for k in stages},
        initial_pressures_kpa={f"r.g{k}.v": 70.0 for k in stages},
    )


def _report_probe_by_probe(compiled, cycle):
    """``engine._report``'s troughs, peaks, rising crossings and duty, read
    probe by probe and segment by segment: the reference of its array form."""
    troughs, peaks, rising = [], [], []
    for row in range(len(compiled.control), len(compiled.watch)):
        c, terms, lams = (np.array(v) for v in zip(*(seg.wave(row) for seg in cycle.segments)))
        tau = np.array([seg.tau for seg in cycle.segments])
        count, first = np.count_nonzero(terms, axis=1), (terms != 0.0).argmax(axis=1)
        at = np.arange(len(tau)), first
        b, l = np.where(count == 1, terms[at], 0.0), np.where(count == 1, lams[at], 0.0)
        many = {k: expsums._distinct(terms[k], lams[k]) for k in np.flatnonzero(count > 1).tolist()}
        lo, hi = math.inf, -math.inf
        for k, (v0, v1) in enumerate(zip((c + b).tolist(), (c + np.exp(tau * l) * b).tolist())):
            ends = (min(v0, v1), max(v0, v1))
            seg_lo, seg_hi = expsums._extremes(c[k], *many[k], tau[k]) if k in many else ends
            lo, hi = min(lo, seg_lo), max(hi, seg_hi)
        cs = c - 0.5 * (lo + hi)
        t, length, v = [], [], []
        for k, seg in enumerate(cycle.segments):
            if k in many:
                cuts = [0.0, *expsums._zeros(cs[k], 0.0, *many[k], seg.tau), seg.tau]
            else:
                cuts = [0.0, *expsums._one_zero(cs[k].item(), b[k].item(), l[k].item(), seg.tau), seg.tau]
            middles = np.array([0.5 * (a + z) for a, z in zip(cuts, cuts[1:])])
            v += list(expsums._values(cs[k], *many[k], middles) if k in many
                      else cs[k] + np.exp(middles * l[k]) * b[k])
            t += [seg.t + a for a in cuts[:-1]]
            length += [z - a for a, z in zip(cuts, cuts[1:])]
        keep = np.array(length) > 0.0
        t, length, v = np.array(t)[keep], np.array(length)[keep], np.array(v)[keep]
        troughs.append(lo)
        peaks.append(hi)
        rising.append(t[(v >= 0.0) & (np.roll(v, 1) < 0.0)])  # the cycle wraps around
        if len(rising) == 1:
            duty = float(length[v > 0.0].sum() / length.sum())
    return troughs, peaks, rising, duty


@pytest.mark.parametrize(
    "make_run",
    [lambda: (_ring3_calibrated(), SimConfig(t_end=2.0)),
     lambda: (_ring5(), SimConfig(t_end=2.0)),
     lambda: (_ring3_per_stage(_PER_STAGE["per_stage_a"]), SimConfig(t_end=2.0)),
     lambda: _start_b_ring(31),
     lambda: (build(_FANOUT_RING), SimConfig(t_end=2.0))],
    ids=["ring3_calibrated", "ring5", "per_stage_a", "start_b_31", "fanout"],
)
def test_limit_cycle_report_reads_every_probe_as_the_probe_by_probe_reference(make_run):
    net, cfg = make_run()
    compiled = engine._compile_probed(net, cfg)
    cycle = engine._limit_cycle(compiled, compiled.initial_states(cfg.initial_valve_states),
                                compiled.initial_volumes(cfg.initial_pressures_kpa), cfg.t_end)
    troughs, peaks, rising, duty = engine._cycle_block(cycle.segments, slice(len(compiled.control), None))
    want = _report_probe_by_probe(compiled, cycle)
    assert (troughs, peaks, duty) == (want[0], want[1], want[3])
    assert len(rising) == len(want[2]) and all(np.array_equal(a, b) for a, b in zip(rising, want[2]))
    assert all(len(own) for own in rising)  # every probe rises through its midline


class _WaveSegment(NamedTuple):
    """A stand-in for ``engine._Segment`` as ``_cycle_block`` reads it: one
    node whose wave over ``[0, tau]`` from ``t`` is ``c + Σ_j b_j e^(lam_j τ)``."""

    t: float
    tau: float
    c: float
    b: tuple[float, ...]
    lam: tuple[float, ...]

    def wave(self, rows):
        return np.array([self.c])[rows], np.array([self.b])[rows], np.array([self.lam])[rows]


def _rise_then_fall_to_the_midline(rng, halves):
    """A one-node cycle: a rise from 0 toward ``H``, a fall from ``top``
    whose end lies within roundoff of the midline ``top / 2``, on either
    side, and a fast fall. With ``halves`` each term is two equal halves."""
    H = rng.uniform(50.0, 150.0)
    top, rates = H * rng.uniform(1.0, 1.5), -rng.uniform(5.0, 50.0, 2)
    t1, t2 = rng.uniform(0.02, 0.2), math.log(0.5) / rates[1] * (1.0 + rng.choice([-1.0, 1.0]) * 1e-13)
    pieces = [(0.0, t1, H, -H, rates[0]), (t1, t2, 0.0, top, rates[1]),
              (t1 + t2, rng.uniform(0.01, 0.05), 0.0, 0.5 * top, -rng.uniform(1e3, 1e4))]
    return [_WaveSegment(t, tau, c, (0.5 * b, 0.5 * b) if halves else (b,), (lam, lam) if halves else (lam,))
            for t, tau, c, b, lam in pieces]


def test_a_cell_ending_within_roundoff_of_the_midline_is_searched_for_its_crossing():
    # a cell of one exponential is searched where its ends lie within a
    # margin of the midline, not only where they straddle it; the oracle:
    # the same waves as two equal halves per term, which send every cell
    # through the general path (_distinct, _zeros) that searches them all
    for seed in range(1000):
        got = engine._cycle_block(_rise_then_fall_to_the_midline(np.random.default_rng(seed), False), slice(0, 1))
        want = engine._cycle_block(_rise_then_fall_to_the_midline(np.random.default_rng(seed), True), slice(0, 1))
        assert (got[0], got[1], got[3]) == (want[0], want[1], want[3]), seed
        assert np.array_equal(got[2][0], want[2][0]), seed


@pytest.mark.parametrize(
    "make_run",
    [lambda: _start_b_ring(31),
     lambda: (build(_FANOUT_RING), SimConfig(t_end=2.0))],  # cells of one term and of two share a block
    ids=["start_b_31", "fanout"],
)
def test_limit_cycle_report_is_the_same_read_in_blocks_of_any_size(make_run, monkeypatch):
    net, cfg = make_run()
    blocks, read = [], engine._cycle_block
    monkeypatch.setattr(engine, "_cycle_block", lambda segments, rows: blocks.append((len(segments), rows))
                        or read(segments, rows))
    whole = measure_oscillation(net, cfg)
    (cells, rows), = blocks  # one block at the default bound
    probes = len(whole.peaks_kpa)
    assert probes >= 3 and rows.stop - rows.start >= probes
    for per_block, n_blocks in [(1, probes), ((probes + 1) // 2, 2)]:  # one probe each; a split in mid-ring
        monkeypatch.setattr(engine, "_REPORT_BLOCK_CELLS", per_block * cells)
        blocks.clear()
        assert measure_oscillation(net, cfg) == whole
        assert [r.start for _, r in blocks] == list(range(rows.start, rows.start + probes, per_block))
        assert len(blocks) == n_blocks


@pytest.mark.parametrize(
    "make_net",
    [_ring3_calibrated, lambda: _ring3_per_stage(_PER_STAGE["per_stage_a"]),
     lambda: build(VACUUM_TEXT)],
    ids=["ring3_calibrated", "per_stage_a", "vacuum"],
)
def test_sampling_reads_the_run_without_changing_it(make_net, monkeypatch):
    # the segments and valve events of simulate's run are those of the
    # same run read unsampled, bit for bit
    net = make_net()
    cfg = SimConfig(t_end=0.5)
    runs = _count_segments(monkeypatch)
    tr = simulate(net, cfg)
    compiled = engine._compile_probed(net, cfg)
    unsampled = []
    for seg in engine._segments(compiled, compiled.initial_states(None),
                                compiled.initial_volumes(None), cfg.t_end):
        unsampled.extend((seg.t, compiled.valve_names[v], ValveState.OPEN if o else ValveState.CLOSED)
                         for v, o in seg.flips)
    sampled, read = ([(seg.t, seg.tau, seg.event, seg.change) for seg in run] for run in runs)
    assert len(sampled) > 4 and (len(tr.events) > 20 or not net.valves)
    assert sampled == read
    assert list(tr.events) == unsampled


def test_phase_skips_crossings_before_the_reference_and_wraps_when_given_one():
    period = 1.0
    ref = np.array([1.0, 2.0])
    # extract_frequency's convention: a crossing before the first reference
    # crossing has no offset and is left out
    assert engine._phase_deg(ref, np.array([0.5, 1.25, 2.25]), period) == pytest.approx(90.0)
    assert math.isnan(engine._phase_deg(ref, np.array([0.5]), period))
    assert math.isnan(engine._phase_deg(ref, np.array([]), period))
    # _report's convention: the cycle wraps around, so the last reference
    # crossing less one period stands before the first
    ref = np.array([0.6])
    wrapped = np.r_[ref[-1:] - period, ref]
    assert math.isnan(engine._phase_deg(ref, np.array([0.1]), period))
    assert engine._phase_deg(wrapped, np.array([0.1]), period) == pytest.approx(180.0)
    assert engine._phase_deg(wrapped, np.array([0.1, 0.85]), period) == pytest.approx(135.0)
    assert math.isnan(engine._phase_deg(np.r_[ref[:0] - period, ref[:0]], np.array([0.1]), period))


def test_event_cap_after_a_full_cycle_reports_it_with_a_warning(monkeypatch):
    net = _ring3_calibrated()
    full = measure_oscillation(net, SimConfig(t_end=2.0))
    monkeypatch.setattr(engine, "_MAX_EVENTS", 20)  # past the first full cycle, short of 23
    rep = measure_oscillation(net, SimConfig(t_end=2.0))
    assert rep.events == 20 < full.events
    assert rep.warnings == (
        "the run stopped at 20 valve events before its last two cycles matched; "
        "its last full cycle is reported",
    )
    assert rep.frequency_hz == pytest.approx(full.frequency_hz, rel=1e-6)
    assert rep.peaks_kpa == pytest.approx(full.peaks_kpa, abs=1e-3)


def test_circuit_at_rest_is_no_oscillation():
    with pytest.raises(NoOscillationError, match="comes to rest"):
        measure_oscillation(build(RC_TEXT), SimConfig(t_end=2.0, probes=("x",)))


def test_calibrated_circuit_reproduces_its_targets():
    net = expand(parse(open("circuits/ring3_calibrated.tbl").read()))
    tr = simulate(net, SimConfig(t_end=1.5))
    rep = extract_frequency(tr, "m1")
    assert rep.frequency_hz == pytest.approx(15.0, rel=0.02)
    for probe in ("m1", "m2", "m3"):
        assert rep.peaks_kpa[probe] == pytest.approx(35.0, rel=0.02)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tblsim import (
    IndeterminateLevelError,
    LogicLevels,
    NetworkError,
    PhysicalDefaults,
    SourceElement,
    ValveState,
    UnknownVariableError,
    VerifyError,
    check_against_boolean,
    expand,
    fanout_limit,
    parse,
    solve_pressures,
    truth_table,
    tube_resistance,
)
from tblsim import engine, verify

MU = 1.81e-5
R1 = tube_resistance(0.075, 1.0e-3, MU)
R2 = tube_resistance(0.15, 1.0e-3, MU)
RB = R1 + 1.0e5 + R2         # one full gate branch, valve open
FRAC = R2 / RB               # output divider fraction of the supply


def gate_net(gt, two=True):
    ins = "a,b" if two else "a"
    return expand(
        parse(f"source SUP pressure=145kPa\ngate {gt} g in={ins} out=q supply=SUP\n")
    )


REFERENCE = {
    "NOT": ("!a", False),
    "NOR": ("!(a|b)", True),
    "NAND": ("!(a&b)", True),
    "AND": ("a&b", True),
    "OR": ("a|b", True),
}


@pytest.mark.parametrize("gt", list(REFERENCE))
def test_gate_truth_tables_match_boolean_references(gt):
    expr, two = REFERENCE[gt]
    net = gate_net(gt, two)
    inputs = ("a", "b") if two else ("a",)
    table = truth_table(net, inputs, "q")
    assert len(table.rows) == (4 if two else 2)
    report = check_against_boolean(table, expr)
    assert report.passed, report.mismatches
    # levels clear the read thresholds with margin to spare
    for row in table.rows:
        if row.output == 1:
            assert row.output_kpa >= 85.0 + 1.0
        else:
            assert row.output_kpa <= 60.0 - 1.0


def test_mismatch_report_contains_the_offending_rows():
    table = truth_table(gate_net("NOR"), ("a", "b"), "q")
    report = check_against_boolean(table, "!(a&b)")  # wrong reference on purpose
    assert not report.passed
    assert {m.inputs for m in report.mismatches} == {(0, 1), (1, 0)}
    for m in report.mismatches:
        assert (m.expected, m.actual) == (1, 0)


def test_indeterminate_band_is_refused():
    # a supply too weak to drive a valid HIGH must not be rounded up
    net = expand(
        parse("source SUP pressure=120kPa\ngate NOT g in=a out=q supply=SUP\n")
    )
    with pytest.raises(IndeterminateLevelError) as err:
        truth_table(net, ("a",), "q")
    assert 60.0 < err.value.pressure_kpa < 85.0
    assert err.value.node == "q"


def test_logic_levels_validation():
    with pytest.raises(ValueError):
        LogicLevels(read_high_min_kpa=50.0, read_low_max_kpa=60.0)
    lv = LogicLevels()
    assert lv.read(90.0, "n") == 1
    assert lv.read(85.0, "n") == 1
    assert lv.read(60.0, "n") == 0
    with pytest.raises(IndeterminateLevelError):
        lv.read(72.0, "n")


def test_boolean_parser_and_errors():
    table = truth_table(gate_net("NOR"), ("a", "b"), "q")
    assert check_against_boolean(table, "!(a) & !(b)").passed
    assert check_against_boolean(table, "!a&!b").passed
    assert not check_against_boolean(table, "0").passed
    with pytest.raises(UnknownVariableError):
        check_against_boolean(table, "!(a|c)")
    with pytest.raises(VerifyError):
        check_against_boolean(table, "a |")
    with pytest.raises(VerifyError):
        check_against_boolean(table, "(a|b")
    # the same checks, with no table
    with pytest.raises(UnknownVariableError):
        verify.parse_reference("!(a|c)", ("a", "b"))
    with pytest.raises(VerifyError):
        verify.parse_reference("a&&b", ("a", "b"))


def test_one_compiled_network_per_truth_table(monkeypatch):
    compiles = []
    init = engine._Compiled.__init__

    def counting_init(self, net):
        compiles.append(net)
        init(self, net)

    monkeypatch.setattr(engine._Compiled, "__init__", counting_init)
    table = truth_table(gate_net("NAND"), ("a", "b"), "q")
    assert len(table.rows) == 4
    assert len(compiles) == 1


def test_truth_table_rows_equal_a_pinned_network_each():
    net = gate_net("OR")
    table = truth_table(net, ("a", "b"), "q")
    for row in table.rows:
        pins = {n: LogicLevels().drive(b) for n, b in zip(("a", "b"), row.inputs)}
        want = engine.dc_operating_point(net.with_pins(pins)).node_pressures_kpa["q"]
        assert row.output_kpa == want


def test_truth_table_rejects_bad_node_names():
    net = gate_net("NOT", two=False)
    with pytest.raises(ValueError, match="zz"):
        truth_table(net, ("a",), "zz")
    with pytest.raises(ValueError, match="repeat"):
        truth_table(net, ("a", "a"), "q")
    # the pinned drive would read back as the output
    with pytest.raises(ValueError, match="output node 'q' is also an input"):
        truth_table(net, ("a", "q"), "q")


def test_an_unused_input_leaves_the_output_as_it_is():
    net = gate_net("NOT", two=False)
    table = truth_table(net, ("a", "unused"), "q")
    assert table.bits() == {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0}


def test_pins_keep_their_per_row_checks():
    net = gate_net("NOT", two=False)
    # an input on the supply: the low row drives it away from its pressure
    with pytest.raises(NetworkError, match="pinned to conflicting pressures"):
        truth_table(net, ("SUP",), "q")
    # an input on the atmosphere conflicts only in its high rows
    with pytest.raises(NetworkError, match="node ATM pinned to conflicting pressures"):
        truth_table(net, ("a", "ATM"), "q")
    with pytest.raises(ValueError, match="below vacuum"):
        truth_table(net, ("a",), "q", LogicLevels(drive_low_kpa=-200.0))


# ---------------------------------------------------------------------------
# fan-out
# ---------------------------------------------------------------------------


def engineered_rint(target_kpa=84.0):
    """Source resistance that puts the one-load control node at target_kpa."""
    s = target_kpa / FRAC
    return (RB / 2.0) * (145.0 / s - 1.0)


def test_fanout_zero_when_one_load_misses_threshold():
    rep = fanout_limit(internal_resistance=engineered_rint(84.0))
    assert rep.limit == 0
    assert not rep.unbounded
    assert rep.sample_dict()[1] == pytest.approx(84.0, abs=1e-6)


def test_fanout_ideal_source_is_unbounded():
    rep = fanout_limit()
    assert rep.unbounded
    assert rep.limit >= 1
    # no droop: every sample sits at the unloaded divider level
    for _n, kpa in rep.samples:
        assert kpa == pytest.approx(145.0 * FRAC, rel=1e-9)


@pytest.mark.parametrize(
    "override, threshold",
    [({"inflate_kpa": 100.0}, 100.0), ({"supply_kpa": 120.0}, 85.0)],
    ids=["inflate", "supply"],
)
def test_fanout_takes_its_threshold_and_supply_from_defaults(override, threshold):
    # a high output near 97 kPa misses a 100 kPa threshold, and a 120 kPa
    # supply drives a high output below 85 kPa: no load switches either way
    rep = fanout_limit(internal_resistance=1.2e5, defaults=PhysicalDefaults().merged(override))
    assert rep.threshold_kpa == threshold
    assert rep.limit == 0
    assert LogicLevels.from_defaults(PhysicalDefaults()) == LogicLevels()


def test_fanout_is_zero_when_the_threshold_is_above_the_supply():
    # the sweep reads only the inflate threshold: no drive level is checked
    rep = fanout_limit(defaults=PhysicalDefaults().merged({"inflate_kpa": 150.0}))
    assert rep.threshold_kpa == 150.0
    assert rep.limit == 0 and not rep.unbounded
    assert rep.sample_dict()[1] < 145.0


def test_fanout_finite_limit_and_monotone_droop():
    rep = fanout_limit(internal_resistance=1.971e6)
    assert not rep.unbounded
    assert 1 <= rep.limit < 1024
    # independent check of the reported boundary: divider with N+1 branches
    def control(n):
        r_par = RB / (n + 1.0)
        return 145.0 * r_par / (1.971e6 + r_par) * FRAC

    assert control(rep.limit) >= 85.0
    assert control(rep.limit + 1) < 85.0
    kpas = [kpa for _n, kpa in rep.samples]
    assert all(a >= b - 1e-12 for a, b in zip(kpas, kpas[1:]))


def test_fanout_samples_match_the_analytic_divider():
    rint = 5.0e6
    rep = fanout_limit(internal_resistance=rint)
    for n, kpa in rep.samples:
        want = 145.0 * (RB / (n + 1.0)) / (rint + RB / (n + 1.0)) * FRAC
        assert kpa == pytest.approx(want, rel=1e-9)


def _explicit_loads_control_kpa(n, rint):
    """The first load's control pressure (kPa) of a netlist with n
    explicit inverter loads, every valve held open."""
    lines = [f"source SUP pressure=145kPa resistance={rint!r}",
             "gate NOT drv in=x out=y supply=SUP"]
    lines += [f"gate NOT load{i} in=y out=z{i} supply=SUP" for i in range(1, n + 1)]
    net = expand(parse("\n".join(lines) + "\n")).with_pins({"x": 0.0})
    return solve_pressures(net, {v.name: ValveState.OPEN for v in net.valves})["load1.b"]


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_one_scaled_load_stands_for_n_explicit_loads(n):
    rint = 1.2e5
    net = verify._fanout_network(145.0, rint, PhysicalDefaults())
    got = verify._load_control_kpa(net, n)
    assert got == pytest.approx(_explicit_loads_control_kpa(n, rint), rel=1e-9)


def test_fanout_samples_match_explicit_load_netlists():
    rint = 1.971e6
    rep = fanout_limit(internal_resistance=rint)
    assert [n for n, _kpa in rep.samples] == [1, 2, 4, 8, 10, 11, 12, 16]
    for n, kpa in rep.samples:
        assert kpa == pytest.approx(_explicit_loads_control_kpa(n, rint), rel=1e-9)


def test_one_expand_per_fanout_sweep(monkeypatch):
    calls = []
    real = verify.expand

    def counting_expand(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "expand", counting_expand)
    rep = fanout_limit(internal_resistance=1.2e5)
    assert rep.limit == 187
    assert len(rep.samples) > 10
    assert len(calls) == 1


def _one_count_at_a_time(supply_kpa, rint, defaults):
    """``fanout_limit`` as a plain doubling-then-bisection that solves each
    count it visits on its own, one ``dc_map`` per count."""
    threshold = defaults.inflate_kpa
    net = verify._fanout_network(supply_kpa, rint, defaults)
    samples = {}

    def ok(n):
        g = np.where(net.load, net.g * n, net.g)
        samples[n] = float(net.compiled.dc_map(g, net.compiled.fixed_pa)[net.control] / 1.0e3)
        return samples[n] >= threshold

    lo, hi = 0, 1
    while ok(hi):
        lo = hi
        if lo == verify._FANOUT_CAP:
            break
        hi = min(hi * 2, verify._FANOUT_CAP)
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return verify.FanoutReport(lo, lo == verify._FANOUT_CAP, threshold, tuple(sorted(samples.items())))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    log_rint=st.floats(3.0, 8.0),
    supply_kpa=st.floats(90.0, 200.0),
    inflate_kpa=st.floats(61.0, 140.0),
)
def test_stacked_fanout_probes_give_the_one_count_at_a_time_sweep(log_rint, supply_kpa, inflate_kpa):
    defaults = PhysicalDefaults().merged({"inflate_kpa": inflate_kpa})
    rint = 10.0 ** log_rint
    rep = fanout_limit(supply_kpa, rint, defaults)
    assert rep == _one_count_at_a_time(supply_kpa, rint, defaults)


@pytest.mark.parametrize("rint, most", [(1.2e5, 4), (0.0, 1)])
def test_a_fanout_sweep_takes_a_few_stacked_solves(monkeypatch, rint, most):
    rows = []
    real = engine._Compiled.dc_map

    def counting_dc_map(self, g, drive):
        rows.append(len(np.atleast_2d(g)))
        return real(self, g, drive)

    monkeypatch.setattr(engine._Compiled, "dc_map", counting_dc_map)
    rep = fanout_limit(internal_resistance=rint)
    assert len(rows) <= most
    assert rows[0] == 11  # every doubling count, 1 to 1024, at once
    assert sum(rows) >= len(rep.samples)


@pytest.mark.parametrize(
    "make, what",
    [
        (lambda: fanout_limit(internal_resistance=math.nan), "internal_resistance must be a finite number"),
        (lambda: fanout_limit(internal_resistance=math.inf), "internal_resistance must be a finite number"),
        (lambda: fanout_limit(supply_kpa=math.nan), "pressure nan kPa is not a finite number"),
        (lambda: fanout_limit(supply_kpa=math.inf), "pressure inf kPa is not a finite number"),
        (lambda: SourceElement("S", "S", 145.0, math.nan), "internal_resistance must be a finite number"),
    ],
    ids=["rint-nan", "rint-inf", "supply-nan", "supply-inf", "source-rint-nan"],
)
def test_non_finite_element_values_are_refused(make, what):
    with pytest.raises(ValueError, match=what):
        make()

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tblsim import (
    Balloon,
    BalloonParams,
    HysteresisThresholds,
    KinkValveDevice,
    NetworkError,
    PneumaticNetwork,
    SourceElement,
    TubeElement,
    ValveState,
    balloon_pressure,
    element_flow,
    expand,
    parse,
    solve_pressures,
    tube_resistance,
    valve_step,
)
from tblsim.elements import node_components

MU = 1.81e-5


def test_tube_resistance_against_hand_value():
    # 128 * mu * L / (pi * d^4) for the 15 cm x 1 mm pull-down
    want = 128.0 * MU * 0.15 / (math.pi * (1.0e-3) ** 4)
    got = tube_resistance(0.15, 1.0e-3, MU)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(1.10619e8, rel=1e-4)


def test_tube_resistance_scaling():
    r = tube_resistance(0.075, 1.0e-3, MU)
    assert tube_resistance(0.15, 1.0e-3, MU) == pytest.approx(2 * r, rel=1e-12)
    # d^4: halving the bore multiplies resistance by 16
    assert tube_resistance(0.075, 0.5e-3, MU) == pytest.approx(16 * r, rel=1e-12)
    assert tube_resistance(0.0, 1.0e-3, MU) == 0.0


@pytest.mark.parametrize("d, mu", [(0.0, MU), (-1e-3, MU), (1e-3, 0.0), (1e-3, -1.0)])
def test_tube_resistance_rejects_bad_geometry(d, mu):
    with pytest.raises(ValueError):
        tube_resistance(0.1, d, mu)


@pytest.mark.parametrize("length, d", [(0.05, 1e-300), (0.0, 1e-300), (0.05, 1e-80), (0.05, 1e300)],
                         ids=["d4-underflows", "zero-length", "resistance-overflows", "d4-overflows"])
def test_tube_resistance_out_of_the_float_range_is_a_value_error(length, d):
    with pytest.raises(ValueError) as err:
        tube_resistance(length, d, MU)
    assert str(err.value) == f"inner_diameter {d!r} puts the resistance out of the float range"


def test_balloon_pressure_piecewise():
    p = BalloonParams(rest_volume=1.0e-6, compliance=4.0e-10)
    assert balloon_pressure(0.0, p) == 0.0
    assert balloon_pressure(1.0e-6, p) == 0.0
    assert balloon_pressure(0.5e-6, p) == 0.0  # slack below the rest volume
    # (V - V0)/C, reported in kPa
    assert balloon_pressure(1.0e-6 + 4.0e-10 * 85.0e3, p) == pytest.approx(85.0)
    assert p.volume_at(85.0) == pytest.approx(1.0e-6 + 4.0e-10 * 85.0e3)
    assert p.volume_at(0.0) == p.rest_volume


def test_balloon_roundtrip_pressure_volume():
    p = BalloonParams()
    rng = random.Random(7)
    for _ in range(200):
        kpa = rng.uniform(0.0, 180.0)
        assert balloon_pressure(p.volume_at(kpa), p) == pytest.approx(kpa, abs=1e-9)


def test_valve_step_thresholds():
    thr = HysteresisThresholds(p_inflate=85.0, p_deflate=60.0)
    assert valve_step(ValveState.OPEN, 85.0, thr) is ValveState.CLOSED
    assert valve_step(ValveState.OPEN, 84.999, thr) is ValveState.OPEN
    assert valve_step(ValveState.CLOSED, 60.0, thr) is ValveState.OPEN
    assert valve_step(ValveState.CLOSED, 60.001, thr) is ValveState.CLOSED
    # deep inside the band, both states are self-maintaining
    assert valve_step(ValveState.OPEN, 70.0, thr) is ValveState.OPEN
    assert valve_step(ValveState.CLOSED, 70.0, thr) is ValveState.CLOSED


def test_hysteresis_never_switches_inside_the_band():
    """Randomized trajectories: state changes only happen at the rails."""
    thr = HysteresisThresholds(p_inflate=85.0, p_deflate=60.0)
    rng = random.Random(20260815)
    cases = 0
    for _ in range(1200):
        state = rng.choice([ValveState.OPEN, ValveState.CLOSED])
        p = rng.uniform(0.0, 145.0)
        for _ in range(rng.randint(5, 40)):
            p = min(145.0, max(0.0, p + rng.uniform(-40.0, 40.0)))
            new = valve_step(state, p, thr)
            if new is not state:
                if new is ValveState.CLOSED:
                    assert p >= thr.p_inflate
                else:
                    assert p <= thr.p_deflate
            state = new
            cases += 1
    assert cases >= 1000


def test_thresholds_must_be_ordered():
    with pytest.raises(ValueError):
        HysteresisThresholds(p_inflate=60.0, p_deflate=85.0)
    with pytest.raises(ValueError):
        HysteresisThresholds(p_inflate=70.0, p_deflate=70.0)


def test_element_flow_signs_and_magnitudes():
    tube = TubeElement.from_geometry("t", "a", "b", 0.15, 1.0e-3, MU)
    dp = 50.0e3
    q = element_flow(tube, 50.0, 0.0)
    assert q == pytest.approx(dp / tube.resistance)
    assert element_flow(tube, 0.0, 50.0) == pytest.approx(-q)

    v = KinkValveDevice("v", "a", "b", "c", open_conductance=1.0e-5)
    assert element_flow(v, 50.0, 0.0, ValveState.OPEN) == pytest.approx(1.0e-5 * dp)
    assert element_flow(v, 50.0, 0.0, ValveState.CLOSED) == 0.0
    leaky = KinkValveDevice("v2", "a", "b", "c", leak_conductance=1.0e-8)
    assert element_flow(leaky, 50.0, 0.0, ValveState.CLOSED) == pytest.approx(1.0e-8 * dp)


def test_valve_rejects_leak_above_open():
    with pytest.raises(ValueError):
        KinkValveDevice("v", "a", "b", "c", open_conductance=1e-6, leak_conductance=1e-5)


def _net(**kw):
    base = dict(tubes=(), valves=(), balloons=(), sources=(), probes=())
    base.update(kw)
    return PneumaticNetwork(**base)


def test_validate_rejects_duplicate_names():
    t1 = TubeElement.from_geometry("x", "a", "ATM", 0.1, 1e-3, MU)
    s1 = SourceElement("x", "a", 100.0)
    with pytest.raises(NetworkError):
        _net(tubes=(t1,), sources=(s1,)).validate()


def test_validate_rejects_self_loop_and_zero_resistance():
    with pytest.raises(NetworkError):
        _net(tubes=(TubeElement("t", "a", "a", 0.1, 1e-3, 1e8),)).validate()
    with pytest.raises(NetworkError):
        _net(
            tubes=(TubeElement("t", "a", "ATM", 0.0, 1e-3, 0.0),),
            sources=(SourceElement("s", "a", 10.0),),
        ).validate()


def test_validate_rejects_unanchored_node():
    # two tubes in a chain with no source, no balloon, nothing at ATM
    t1 = TubeElement.from_geometry("t1", "a", "b", 0.1, 1e-3, MU)
    ok = _net(tubes=(t1,), sources=(SourceElement("s", "a", 10.0),)).validate()
    assert ok is not None
    with pytest.raises(NetworkError):
        _net(tubes=(TubeElement.from_geometry("t2", "c", "d", 0.1, 1e-3, MU),)).validate()


def test_validate_names_the_first_unanchored_node():
    # c, d and e float; d comes first in node order, then c
    tubes = (
        TubeElement.from_geometry("t1", "a", "b", 0.1, 1e-3, MU),
        TubeElement.from_geometry("t2", "d", "c", 0.1, 1e-3, MU),
        TubeElement.from_geometry("t3", "c", "e", 0.1, 1e-3, MU),
    )
    net = _net(tubes=tubes, sources=(SourceElement("s", "a", 10.0),))
    assert net.node_order().index("d") < net.node_order().index("c")
    with pytest.raises(NetworkError, match=r"^node d has no path"):
        net.validate()


def test_validate_balloon_anchors_a_component():
    # a balloon is enough to define the pressure of everything tied to it
    t1 = TubeElement.from_geometry("t1", "a", "b", 0.1, 1e-3, MU)
    b = Balloon("bal", "b", BalloonParams())
    _net(tubes=(t1,), balloons=(b,)).validate()


def test_validate_rejects_balloon_on_fixed_node():
    b = Balloon("bal", "a", BalloonParams())
    s = SourceElement("s", "a", 100.0)
    with pytest.raises(NetworkError):
        _net(balloons=(b,), sources=(s,)).validate()


def test_validate_rejects_two_balloons_per_node():
    t1 = TubeElement.from_geometry("t1", "a", "ATM", 0.1, 1e-3, MU)
    bs = (Balloon("b1", "a", BalloonParams()), Balloon("b2", "a", BalloonParams()))
    with pytest.raises(NetworkError):
        _net(tubes=(t1,), balloons=bs).validate()


def test_validate_rejects_conflicting_fixed_pressures():
    s1 = SourceElement("s1", "a", 100.0)
    s2 = SourceElement("s2", "a", 90.0)
    with pytest.raises(NetworkError):
        _net(sources=(s1, s2)).fixed_pressures()


def test_source_below_vacuum_rejected():
    with pytest.raises(ValueError):
        SourceElement("s", "a", -150.0)


def test_node_order_is_first_appearance():
    t1 = TubeElement.from_geometry("t1", "x", "y", 0.1, 1e-3, MU)
    t2 = TubeElement.from_geometry("t2", "y", "ATM", 0.1, 1e-3, MU)
    net = _net(tubes=(t1, t2), sources=(SourceElement("s", "x", 10.0),))
    order = net.node_order()
    assert order.index("ATM") == 0  # atmosphere is always first
    assert order.index("x") < order.index("y")


# ---------------------------------------------------------------------------
# parallel elements
# ---------------------------------------------------------------------------


def test_node_components_with_parallel_edges():
    labels = node_components(3, np.array([1, 1]), np.array([0, 0]))
    assert labels[0] == labels[1] != labels[2]


def _union_find_lowest(n, a, b):
    """The lowest node index of each node's component, by union-find."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(a.tolist(), b.tolist()):
        ri, rj = root(i), root(j)
        parent[max(ri, rj)] = min(ri, rj)
    return np.array([root(i) for i in range(n)], dtype=int)


def test_node_components_match_union_find_on_random_multigraphs():
    rng = np.random.default_rng(5)
    for trial in range(300):
        n = 1 if trial < 5 else int(rng.integers(1, 40))
        m = int(rng.integers(0, 2 * n + 1))
        # self-loops, parallel edges and isolated nodes all occur
        a, b = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        if trial % 3 == 0 and m:
            a[: m // 2] = b[: m // 2]
        assert np.array_equal(node_components(n, a, b), _union_find_lowest(n, a, b))


def test_node_components_on_a_long_randomly_numbered_path():
    n = 100_000
    order = np.random.default_rng(7).permutation(n)
    start = time.perf_counter()
    labels = node_components(n, order[:-1], order[1:])
    assert time.perf_counter() - start < 2.0
    assert (labels == 0).all()


def test_parallel_tubes_act_as_one_of_half_the_resistance():
    twin = expand(parse(
        "source SUP pressure=145kPa\n"
        "tube t1 from=SUP to=q length=15cm\ntube t2 from=SUP to=q length=15cm\n"
        "tube tp from=q to=ATM length=15cm\n"
    ))
    single = expand(parse(
        "source SUP pressure=145kPa\n"
        "tube t1 from=SUP to=q length=7.5cm\ntube tp from=q to=ATM length=15cm\n"
    ))
    assert abs(solve_pressures(twin, {})["q"] - solve_pressures(single, {})["q"]) <= 1e-9


def test_tube_in_parallel_with_a_valve_expands_promptly():
    # run apart, so that a hang fails this test instead of stopping the suite
    code = (
        "import time\n"
        "from tblsim import expand, parse\n"
        "text = ('source SUP pressure=145kPa\\ntube t1 from=SUP to=q length=15cm\\n'\n"
        "        'valve v from=SUP to=q control=c\\ntube tc from=SUP to=c length=15cm\\n'\n"
        "        'tube tp from=q to=ATM length=15cm\\n')\n"
        "t0 = time.perf_counter()\n"
        "expand(parse(text))\n"
        "print(time.perf_counter() - t0)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 1.0


def test_importing_tblsim_leaves_scipy_unloaded():
    code = "import sys\nimport tblsim\nprint(sorted(m for m in sys.modules if 'scipy' in m))\n"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

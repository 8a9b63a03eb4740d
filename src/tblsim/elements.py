"""Network domain types and constitutive models.

Elements of a pneumatic logic circuit: straight tubes acting as laminar
flow resistors, balloons acting as capacitors with a piecewise-linear
pressure/volume curve, kink-valve switching devices with a hysteretic
control threshold, and pressure sources. Pressures at module boundaries
are gauge kPa; geometry and derived coefficients are SI.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .defaults import PhysicalDefaults
from .errors import NetworkError

#: gauge pressure of a perfect vacuum, the lowest physical value
VACUUM_KPA = -101.325

KPA = 1.0e3  # Pa per kPa

_DEFAULTS = PhysicalDefaults()


class ValveState(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


def _finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _positive(name: str, value: float) -> None:
    _finite(name, value)
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _nonnegative(name: str, value: float) -> None:
    _finite(name, value)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_pressure(value_kpa: float, what: str = "pressure") -> float:
    """Reject gauge pressures that are not finite or lie below perfect vacuum."""
    if not math.isfinite(value_kpa):
        raise ValueError(f"{what} {value_kpa!r} kPa is not a finite number")
    if not value_kpa >= VACUUM_KPA:
        raise ValueError(f"{what} {value_kpa!r} kPa is below vacuum ({VACUUM_KPA} kPa)")
    return value_kpa


# ---------------------------------------------------------------------------
# constitutive models
# ---------------------------------------------------------------------------


def tube_resistance(length: float, inner_diameter: float, viscosity: float) -> float:
    """Laminar flow resistance of a straight circular tube, Pa*s/m3.

    R = 128 * mu * L / (pi * d**4). Zero length gives zero resistance;
    diameter and viscosity must be positive, and a resistance or ``d**4``
    out of the float range raises ValueError.
    """
    _nonnegative("length", length)
    _positive("inner_diameter", inner_diameter)
    _positive("viscosity", viscosity)
    try:
        resistance = 128.0 * viscosity * length / (math.pi * inner_diameter**4)
    except (OverflowError, ZeroDivisionError):  # d**4 overflows, or underflows to 0
        resistance = math.inf
    if not math.isfinite(resistance):
        raise ValueError(f"inner_diameter {inner_diameter!r} puts the resistance out of the float range")
    return resistance


@dataclass(frozen=True)
class HysteresisThresholds:
    """Control-pressure switching band of a kink valve, in kPa.

    The valve kinks shut once its control balloon reaches ``p_inflate``
    and reopens only after the control pressure falls back to
    ``p_deflate``; in between, the current state persists.
    """

    p_inflate: float = _DEFAULTS.inflate_kpa
    p_deflate: float = _DEFAULTS.deflate_kpa

    def __post_init__(self):
        _positive("p_inflate", self.p_inflate)
        _positive("p_deflate", self.p_deflate)
        if not self.p_deflate < self.p_inflate:
            raise ValueError(
                f"p_deflate ({self.p_deflate}) must be below p_inflate ({self.p_inflate})"
            )


@dataclass(frozen=True)
class BalloonParams:
    """Piecewise-linear balloon: slack below rest_volume, linear above.

    compliance is dV/dP in m3/Pa; burst_pressure only marks a warning
    level, the balloon keeps its linear curve beyond it.
    """

    rest_volume: float = _DEFAULTS.balloon_rest_volume
    compliance: float = _DEFAULTS.balloon_compliance
    burst_kpa: float = _DEFAULTS.burst_kpa

    def __post_init__(self):
        _positive("rest_volume", self.rest_volume)
        _positive("compliance", self.compliance)
        _positive("burst_kpa", self.burst_kpa)

    def volume_at(self, pressure_kpa: float) -> float:
        """Inverse of balloon_pressure for non-negative gauge pressures."""
        _nonnegative("pressure_kpa", pressure_kpa)
        return self.rest_volume + self.compliance * pressure_kpa * KPA


def balloon_pressure(volume: float, params: BalloonParams) -> float:
    """Gauge pressure (kPa) of a balloon holding ``volume`` m3 of air.

    Below the rest volume the envelope is slack and holds no pressure;
    above it the membrane stretches linearly with compliance dV/dP.
    """
    _nonnegative("volume", volume)
    if volume <= params.rest_volume:
        return 0.0
    return (volume - params.rest_volume) / params.compliance / KPA


def valve_step(
    state: ValveState, control_kpa: float, thresholds: HysteresisThresholds
) -> ValveState:
    """Advance the hysteresis relay one step for a given control pressure.

    OPEN switches to CLOSED only at or above p_inflate; CLOSED switches
    to OPEN only at or below p_deflate. Inside the band the state is
    sticky, which is what gives the device memory.
    """
    if state is ValveState.OPEN:
        if control_kpa >= thresholds.p_inflate:
            return ValveState.CLOSED
        return ValveState.OPEN
    if control_kpa <= thresholds.p_deflate:
        return ValveState.OPEN
    return ValveState.CLOSED


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TubeElement:
    """A straight tube between two nodes, acting as a flow resistor."""

    name: str
    node_a: str
    node_b: str
    length: float
    inner_diameter: float
    resistance: float  # Pa*s/m3, derived from geometry unless given directly

    @classmethod
    def from_geometry(
        cls, name: str, node_a: str, node_b: str, length: float,
        inner_diameter: float, viscosity: float,
    ) -> "TubeElement":
        r = tube_resistance(length, inner_diameter, viscosity)
        return cls(name, node_a, node_b, length, inner_diameter, r)


@dataclass(frozen=True)
class SourceElement:
    """A regulated pressure source pinning a node, gauge kPa.

    internal_resistance (Pa*s/m3) models the droop of a real regulator
    under load; zero means an ideal source.
    """

    name: str
    node: str
    pressure_kpa: float
    internal_resistance: float = 0.0

    def __post_init__(self):
        check_pressure(self.pressure_kpa, f"source {self.name}: pressure")
        _nonnegative("internal_resistance", self.internal_resistance)


@dataclass(frozen=True)
class Balloon:
    """A standalone balloon capacitance attached to a node."""

    name: str
    node: str
    params: BalloonParams
    initial_kpa: float = 0.0

    def __post_init__(self):
        _nonnegative("initial_kpa", self.initial_kpa)


@dataclass(frozen=True)
class KinkValveDevice:
    """The switching device: a kinkable supply path plus a control balloon.

    Flow passes between flow_from and flow_to with ``open_conductance``
    while the valve is unkinked, and with ``leak_conductance`` (default
    zero, a perfect seal) once the control balloon has inflated past the
    kink threshold. The control balloon sits at ``control_node``; pass
    ``balloon=None`` when the control capacitance is supplied by a
    separate Balloon element or by a driven node.
    """

    name: str
    flow_from: str
    flow_to: str
    control_node: str
    balloon: BalloonParams | None = field(default_factory=BalloonParams)
    thresholds: HysteresisThresholds = field(default_factory=HysteresisThresholds)
    open_conductance: float = _DEFAULTS.open_conductance
    leak_conductance: float = _DEFAULTS.leak_conductance
    state: ValveState = ValveState.OPEN
    initial_control_kpa: float = 0.0

    def __post_init__(self):
        _positive("open_conductance", self.open_conductance)
        _nonnegative("leak_conductance", self.leak_conductance)
        _nonnegative("initial_control_kpa", self.initial_control_kpa)
        if self.leak_conductance >= self.open_conductance:
            raise ValueError("leak_conductance must be below open_conductance")

    def conductance(self, state: ValveState) -> float:
        return self.open_conductance if state is ValveState.OPEN else self.leak_conductance


def element_flow(element, p_from_kpa: float, p_to_kpa: float, state: ValveState | None = None) -> float:
    """Volumetric flow (m3/s) through an element, positive from -> to.

    Tubes follow the linear laminar law Q = dP / R; valves use their
    state-dependent conductance. ``state`` overrides the valve's stored
    initial state when given.
    """
    dp_pa = (p_from_kpa - p_to_kpa) * KPA
    if isinstance(element, TubeElement):
        if element.resistance <= 0.0:
            raise ValueError(f"tube {element.name} has no finite resistance")
        return dp_pa / element.resistance
    if isinstance(element, KinkValveDevice):
        s = element.state if state is None else state
        return element.conductance(s) * dp_pa
    raise TypeError(f"element {element!r} does not carry flow")


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


def node_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes, joined by the
    undirected edges ``a[k]``-``b[k]``: the lowest node index of its
    component. Each round hooks every edge's higher root onto its lower
    one, then jumps pointers until each node points at a root: a long path
    takes a few rounds, not the one per node of label propagation."""
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        if (la == lb).all():
            return label
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while (label[label] != label).any():
            label = label[label]


@dataclass(frozen=True)
class PneumaticNetwork:
    """An immutable lumped network of sources, tubes, valves and balloons.

    The atmosphere node is always present and fixed at 0 kPa gauge.
    ``probes`` lists nodes whose pressures a simulation should record.
    """

    tubes: tuple[TubeElement, ...] = ()
    valves: tuple[KinkValveDevice, ...] = ()
    balloons: tuple[Balloon, ...] = ()
    sources: tuple[SourceElement, ...] = ()
    atmosphere: str = "ATM"
    probes: tuple[str, ...] = ()

    def node_order(self) -> list[str]:
        """All node names, deterministically ordered by first appearance."""
        seen: dict[str, None] = {self.atmosphere: None}
        for src in self.sources:
            seen.setdefault(src.node, None)
        for t in self.tubes:
            seen.setdefault(t.node_a, None)
            seen.setdefault(t.node_b, None)
        for v in self.valves:
            seen.setdefault(v.flow_from, None)
            seen.setdefault(v.flow_to, None)
            seen.setdefault(v.control_node, None)
        for b in self.balloons:
            seen.setdefault(b.node, None)
        return list(seen)

    def fixed_pressures(self) -> dict[str, float]:
        """Nodes pinned to a known gauge pressure (kPa): atmosphere and
        ideal sources. Sources with internal resistance do not pin their
        node; they connect it to an internal regulated reference."""
        fixed = {self.atmosphere: 0.0}
        for src in self.sources:
            if src.internal_resistance == 0.0:
                if src.node in fixed and fixed[src.node] != src.pressure_kpa:
                    raise NetworkError(
                        f"node {src.node} pinned to conflicting pressures"
                    )
                fixed[src.node] = src.pressure_kpa
        return fixed

    def capacitances(self) -> list[tuple[str, str, BalloonParams, float]]:
        """(owner name, node, params, initial kPa) for every balloon,
        including the control balloons integral to valves."""
        caps: list[tuple[str, str, BalloonParams, float]] = []
        for v in self.valves:
            if v.balloon is not None:
                caps.append((v.name, v.control_node, v.balloon, v.initial_control_kpa))
        for b in self.balloons:
            caps.append((b.name, b.node, b.params, b.initial_kpa))
        return caps

    def validate(self) -> "PneumaticNetwork":
        """Check structural invariants; returns self so calls can chain."""
        names: set[str] = set()
        for group in (self.tubes, self.valves, self.balloons, self.sources):
            for el in group:
                if el.name in names:
                    raise NetworkError(f"duplicate element name {el.name!r}")
                names.add(el.name)
        for t in self.tubes:
            if t.resistance <= 0.0:
                raise NetworkError(
                    f"tube {t.name} has zero resistance; fold zero-length "
                    "segments into a neighbouring tube"
                )
            if t.node_a == t.node_b:
                raise NetworkError(f"tube {t.name} connects a node to itself")
        for v in self.valves:
            if v.flow_from == v.flow_to:
                raise NetworkError(f"valve {v.name} connects a node to itself")
        fixed = self.fixed_pressures()
        cap_nodes: set[str] = set()
        for owner, node, _params, _init in self.capacitances():
            if node in fixed:
                raise NetworkError(
                    f"balloon {owner} sits on fixed node {node}; a pinned node "
                    "cannot also be capacitive"
                )
            if node in cap_nodes:
                raise NetworkError(
                    f"node {node} carries more than one balloon; merge them "
                    "into a single equivalent compliance"
                )
            cap_nodes.add(node)
        order = self.node_order()
        for p in self.probes:
            if p not in order:
                raise NetworkError(f"probe references unknown node {p!r}")
        # every node needs something that defines its pressure: a path to a
        # fixed node or to a balloon, counting closed valves as connections
        # (regime-dependent isolation is the solver's Singular, not ours);
        # a source's own node reaches its pressure, through any internal
        # resistance
        index = {n: i for i, n in enumerate(order)}
        edges = [(t.node_a, t.node_b) for t in self.tubes]
        edges += [(v.flow_from, v.flow_to) for v in self.valves]
        labels = node_components(
            len(index),
            np.array([index[a] for a, _b in edges], dtype=int),
            np.array([index[b] for _a, b in edges], dtype=int),
        )
        anchors = [index[a] for a in [*fixed, *cap_nodes, *(s.node for s in self.sources)]]
        anchored = np.zeros(len(index), dtype=bool)
        anchored[labels[anchors]] = True
        loose = np.flatnonzero(~anchored[labels])
        if len(loose):
            raise NetworkError(
                f"node {order[loose[0]]} has no path to any pressure-defining element"
            )
        return self

    # -- derived variants ---------------------------------------------------

    def with_pins(self, pins: dict[str, float]) -> "PneumaticNetwork":
        """Return a copy with extra ideal sources pinning the given nodes."""
        extra = tuple(
            SourceElement(f"__pin_{node}", node, check_pressure(p, f"pin {node}"))
            for node, p in pins.items()
        )
        return replace(self, sources=self.sources + extra)

    def with_uniform_params(
        self,
        compliance: float | None = None,
        open_conductance: float | None = None,
    ) -> "PneumaticNetwork":
        """Copy the network with every balloon compliance and/or valve
        open conductance replaced, for calibration sweeps."""
        valves = []
        for v in self.valves:
            upd = {}
            if open_conductance is not None:
                upd["open_conductance"] = open_conductance
            if compliance is not None and v.balloon is not None:
                upd["balloon"] = replace(v.balloon, compliance=compliance)
            valves.append(replace(v, **upd) if upd else v)
        balloons = []
        for b in self.balloons:
            if compliance is not None:
                balloons.append(replace(b, params=replace(b.params, compliance=compliance)))
            else:
                balloons.append(b)
        return replace(self, valves=tuple(valves), balloons=tuple(balloons))

"""DC operating points, transient simulation and waveform analysis.

A network is compiled once into index arrays: branch endpoints (the
constant-conductance branches, then one per valve), their conductances,
and the valves' and balloons' parameters. A valve-state assignment is a
boolean open-state array; it selects each valve's open or leak
conductance, which gives the node Laplacian ``L(s) = Bᵀ diag(g(s)) B``.
The DC search and the transient regimes solve it through one method,
``_Compiled.solve``. Fixed nodes cut the network into regions, and the
flow balance is block-diagonal by region: the solve assembles every block
at once and factors the blocks of each region size by one stacked dense
LU, so its cost grows with the cube of each region's size, not of the
network's.

Every valve is a hysteretic relay, and one rule, ``_Compiled.margin``,
decides its switching everywhere: the signed distance of its control
pressure past the threshold of its pending transition (``p_inflate`` while
open, ``p_deflate`` while closed); the valve switches where that margin is
at or above 0, and a NaN control never switches. The DC search, the
transient settling after a flip and the transient event search all decide
through it (a transient regime holds it for its own valve states as
``_Regime.margin``, the same floats), on the boolean open-state array,
which is the only form of valve state inside this module; ``ValveState``
appears only in the inputs and the results.

The DC search steps all valves at once on the pressures of one solve per
assignment, starting where a walk over the regions (the parts that fixed
nodes cut a network into) leaves it, for all rows of a truth table in one
stacked solve: on a feed-forward circuit it only confirms the walk. The
conducting branches decide which nodes a solve leaves out: balloons cut
off from every fixed node keep their charge, and nodes sealed off from
every fixed node and every balloon read ambient. The walk (``_Walk``)
steps the regions level by level, a level being the regions of one depth
in their control graph, and each level reads its control nodes from one
stack of layer maps, the whole-network solves of the layers met so far.
A layer opens the j-th valve of every region iff its bit j is set, and
``_Compiled.layer_of`` and ``_Compiled.layer_states`` are the only
conversions between valve states and layer numbers.

The continuous state of a circuit is the vector of balloon volumes; all
other node pressures are algebraic. Each regime (one set of valve states)
is Kron-reduced onto the balloon nodes (``_Regime``), region by region
from the layer maps its regions' valves select (``_Layers``), and each
stretch between valve transitions is solved in closed form
(``_Modes``), so a transient run has no step size and no tolerance, and
identical inputs give bit-identical traces. Over a segment each watched
node's kPa is one wave, a constant plus exponentials in time
(``_Segment.wave``): the valve margins, ``simulate``'s samples and a limit
cycle's extrema and crossings all read it. Read unsampled until its valve
events repeat (``_limit_cycle``), the same run gives an oscillator's limit
cycle; ``measure_oscillation`` reports it (``_report``), reading every
probe's waves over the cycle as stacked arrays, a block of probes at a
time (``_cycle_block``), and calibration takes its frequency and peak
from that same report.

Each array is built once, on the object whose lifetime matches what it
depends on, and the event loop only reads it. ``_Compiled`` owns what
depends on the network alone: its index arrays, the region solve's block
layout and its tiled copies per stack size, the balloons' column slots
of a regime, the layer numbering (``valve_bits``), the DC walk's levels
and its stack of layer maps (``_Walk``), and the transient's layer maps
(``_Layers``), which fill each layer's rows and, per set of balloon
modes, their eigenbases as regimes need them.
``_Regime`` owns what depends on one valve-state assignment: its reduced
maps and the two terms of each valve's margin. ``_Modes`` owns what
depends on that and on the balloons' modes: the eigenbasis, the waves'
terms ``W`` and the valves' signed margin rows. A segment, a settling and
a cycle report compute only what depends on where they start.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from typing import NamedTuple, NoReturn

import numpy as np

from .elements import (
    KPA,
    PneumaticNetwork,
    ValveState,
    check_pressure,
    node_components,
)
from .expsums import _distinct, _extremes, _first_rises, _values, _zeros
from .errors import (
    AstableCircuitError,
    CalibrationFailedError,
    NoOscillationError,
    SingularNetworkError,
    TooManyValvesError,
)

#: exhaustive valve-state enumeration is capped at 2**16 assignments
_MAX_ENUM_VALVES = 16

#: ``Trace.to_csv`` renders at most this many values (a row at least) per
#: block, so its sort and its strings stay small however long the trace
_CSV_BLOCK_VALUES = 1 << 12

#: ``_report`` reads a cycle's waves at most this many cells at a time (a
#: probe over a segment each; a probe's at least), so its arrays stay small
_REPORT_BLOCK_CELLS = 1 << 14


# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Transient run settings, in seconds. The run is solved in closed
    form, so no setting trades accuracy for time."""

    t_end: float
    sample_interval: float = 1.0e-3
    probes: tuple[str, ...] | None = None
    initial_valve_states: dict[str, ValveState] | None = None
    initial_pressures_kpa: dict[str, float] | None = None

    def __post_init__(self):
        for name in ("t_end", "sample_interval"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"SimConfig.{name} must be positive and finite")
        twice = sorted(p for p, k in Counter(self.probes or ()).items() if k > 1)  # one pass
        if twice:
            raise ValueError(f"SimConfig.probes names {', '.join(twice)} more than once")


@dataclass(frozen=True)
class Trace:
    """Sampled node pressures plus the valve transition log."""

    probes: tuple[str, ...]
    times: np.ndarray                       # strictly increasing, seconds
    pressures_kpa: np.ndarray               # shape (len(times), len(probes))
    events: tuple[tuple[float, str, ValveState], ...]
    warnings: tuple[str, ...] = ()

    def column(self, probe: str) -> np.ndarray:
        return self.pressures_kpa[:, self.probes.index(probe)]

    def to_csv(self) -> str:
        """Render the samples as CSV with LF line endings, each value as its
        ``repr`` (``-0.0`` as ``0.0``). The rows go in blocks of at most
        ``_CSV_BLOCK_VALUES`` values, and each distinct value of a block is
        rendered once: a logic trace holds few levels, so most cells share
        a string. The bytes are those of one ``repr`` per cell."""
        lines = ["time_s," + ",".join(f"{p}_kPa" for p in self.probes)]
        step = max(1, _CSV_BLOCK_VALUES // (len(self.probes) + 1))
        for start in range(0, len(self.times), step):
            rows = slice(start, start + step)
            block = np.column_stack((self.times[rows], self.pressures_kpa[rows]))
            block = np.add(block, 0.0, dtype=np.float64)
            # one string per bit pattern: + 0.0 has made -0.0 into 0.0, so only
            # NaNs share a text ("nan") but not their bits; sorting the bits,
            # unlike the floats, left a sim's peak memory as it was
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            text = np.fromiter(map(repr, bits.view(np.float64).tolist()), dtype=object,
                               count=len(bits))
            lines += map(",".join, text[inverse.reshape(block.shape)].tolist())
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SteadyState:
    valve_states: dict[str, ValveState]
    node_pressures_kpa: dict[str, float]
    #: every self-consistent assignment found when enumeration ran
    fixed_points: tuple[dict[str, ValveState], ...] = ()


@dataclass(frozen=True)
class OscillationReport:
    """An oscillation at ``probe``, the reference, with every probe's
    extrema and phase against it. ``events`` and ``warnings`` are those of
    a ``measure_oscillation`` run; ``extract_frequency`` leaves them unset."""

    probe: str
    frequency_hz: float
    duty: float
    peaks_kpa: dict[str, float]
    troughs_kpa: dict[str, float]
    phase_deg: dict[str, float]
    cycles: int
    events: int | None = None
    warnings: tuple[str, ...] = ()


class CalibrationEvaluation(NamedTuple):
    """One evaluation of a calibration: the circuit at ``compliance`` and
    ``open_conductance``, the cycles and valve events its run took, and the
    frequency and peak of its limit cycle, None where it shows none."""

    compliance: float
    open_conductance: float
    cycles: int
    events: int
    frequency_hz: float | None
    peak_kpa: float | None


@dataclass(frozen=True)
class CalibrationResult:
    compliance: float
    open_conductance: float
    frequency_hz: float
    peak_kpa: float
    target_frequency_hz: float
    target_peak_kpa: float
    iterations: int
    notes: tuple[str, ...] = ()
    #: every evaluation up to this one, in order
    evaluations: tuple[CalibrationEvaluation, ...] = ()

    @property
    def relative_errors(self) -> tuple[float, float]:
        return (
            abs(self.frequency_hz - self.target_frequency_hz) / self.target_frequency_hz,
            abs(self.peak_kpa - self.target_peak_kpa) / self.target_peak_kpa,
        )


# ---------------------------------------------------------------------------
# compiled form of a network
# ---------------------------------------------------------------------------


def _balloon_pa(volumes: np.ndarray, rest_volume, compliance) -> np.ndarray:
    """Balloon pressures in Pa, elementwise: the balloon law of
    ``balloon_pressure``, which these equal bit for bit once divided by
    ``KPA``. Volumes below empty read as an empty balloon, which holds no
    pressure."""
    return np.maximum(volumes - rest_volume, 0.0) / compliance


def _solve(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the flow balance ``G x = rhs`` by dense LU: one system, or a
    stack of them, each with one or more columns; a singular or inaccurate
    solve raises SingularNetworkError. Each block of a stack is checked
    as it would be alone: its residual within 1e-6 of its right-hand
    side's largest entry, or of 1 if that is smaller."""
    try:
        x = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:  # the factor is exactly singular
        raise SingularNetworkError(f"flow-balance system is singular: {exc}") from exc
    if not np.isfinite(x).all():
        raise SingularNetworkError("flow-balance system is numerically singular")
    res, each = np.abs(G @ x - rhs), G.shape[:-2] + (-1,)
    if res.max() > 1.0e-6:  # else every block passes, as no bound is below 1e-6
        scale = np.abs(rhs).reshape(each).max(axis=-1, initial=1.0)
        if (res.reshape(each).max(axis=-1) > 1.0e-6 * scale).any():
            raise SingularNetworkError("flow-balance system is numerically singular")
    return x


def _rank(group: np.ndarray) -> np.ndarray:
    """Each item's index among the earlier items of its group."""
    order = np.argsort(group, kind="stable")
    rank = np.empty(len(group), dtype=int)
    rank[order] = np.arange(len(group)) - np.searchsorted(group[order], group[order])
    return rank


def _grouped(label: np.ndarray):
    """Items in groups of one ``label`` each, every label >= 0: the order
    that puts the groups by size, then by label, so by rank, and each
    group's items in turn; each item's group size in that order; and the
    group sizes met, ascending, with the items of groups of each."""
    size = np.bincount(label)[label]
    order = np.lexsort((label, size))
    count = np.bincount(size)
    sizes = count.nonzero()[0]
    return order, size[order], sizes, count[sizes]


class _Tiled(NamedTuple):
    """A network's index arrays over a stack of its copies, each index in
    each copy's range, copy after copy (``_Compiled.tiled``): branch ends
    and the fixed, balloon and unfixed nodes over its nodes; each node's
    row of the stacked right-hand sides over the unfixed nodes; and the
    entries of ``_Compiled._blocks`` over its flat blocks."""

    a: np.ndarray
    b: np.ndarray
    fixed: np.ndarray
    cap: np.ndarray
    nodes: np.ndarray
    row: np.ndarray
    da: np.ndarray
    db: np.ndarray
    ab: np.ndarray
    ba: np.ndarray
    dn: np.ndarray


class _Compiled:
    """Index arrays of a network, built once, for the linear solves.

    Branch ``k`` joins nodes ``branch_a[k]`` and ``branch_b[k]``: the
    constant-conductance branches (tubes and source internal paths) come
    first, then one branch per valve. A valve-state assignment is a boolean
    open-state array; it gives the conductance vector ``g`` and the node
    Laplacian ``L(s) = Bᵀ diag(g(s)) B`` over the incidence ``B`` of these
    branches. Fixed nodes cut the network into regions, and a solve
    assembles and factors ``L`` region by region, as stacks of blocks.

    ``watch`` lists the nodes a transient run reads: every valve's control
    node, in valve order, then the ``probes`` nodes.

    Everything that depends on the network alone is built here once, at
    its first use: the region solve's block layout (``_blocks``), the
    index arrays of each stack size that a stacked solve meets
    (``tiled``), the balloons' column slots of a regime solve (``slots``);
    the layer maps, each region's maps for each state of its valves,
    solved as the regimes need them (``layers``); and each valve-state
    assignment's ``_Regime``, gathered from them.
    """

    def __init__(self, net: PneumaticNetwork, probes: Sequence[str] = ()):
        nodes = net.node_order()
        internal = [s for s in net.sources if s.internal_resistance > 0.0]
        self.nodes = nodes + [s.name + ".__src" for s in internal]
        self.index = {n: i for i, n in enumerate(self.nodes)}
        self.named = [n for n in self.nodes if not n.endswith(".__src")]
        self.named_idx = np.array([self.index[n] for n in self.named], dtype=int)
        self.n = len(self.nodes)
        index = self.index

        fixed = dict(net.fixed_pressures())
        for s in internal:
            fixed[s.name + ".__src"] = s.pressure_kpa
        self.fixed_idx = np.array([index[n] for n in fixed], dtype=int)
        self.fixed_pa = np.array([fixed[n] * KPA for n in fixed], dtype=float)

        branches = [(t.name, t.node_a, t.node_b) for t in net.tubes]
        branches += [(s.name, s.name + ".__src", s.node) for s in internal]
        branches += [(v.name, v.flow_from, v.flow_to) for v in net.valves]
        self.branch_names = [name for name, _a, _b in branches]
        ends = [[index[a] for _n, a, _b in branches], [index[b] for _n, _a, b in branches]]
        self.branch_a, self.branch_b = np.array(ends, dtype=int).reshape(2, -1)
        r_static = [t.resistance for t in net.tubes] + [s.internal_resistance for s in internal]
        self.g_static = np.array([1.0 / r for r in r_static], dtype=float)
        self.g_open = np.array([v.open_conductance for v in net.valves], dtype=float)
        self.g_leak = np.array([v.leak_conductance for v in net.valves], dtype=float)
        self.control = np.array([index[v.control_node] for v in net.valves], dtype=int)
        missing = [p for p in probes if p not in index]
        if missing:
            raise ValueError(f"unknown probe node(s): {', '.join(missing)}")
        self.probes = tuple(probes)
        self.watch = np.concatenate([self.control, [index[p] for p in probes]]).astype(int)
        self.p_inflate = np.array([v.thresholds.p_inflate for v in net.valves], dtype=float)
        self.p_deflate = np.array([v.thresholds.p_deflate for v in net.valves], dtype=float)

        self.valve_names = [v.name for v in net.valves]
        self.initial_open = np.array([v.state is ValveState.OPEN for v in net.valves], dtype=bool)

        caps = net.capacitances()
        self.cap_names = [name for name, _node, _params, _init in caps]
        self.cap_idx = np.array([index[node] for _name, node, _p, _i in caps], dtype=int)
        self.rest_volume = np.array([params.rest_volume for _n, _node, params, _i in caps])
        self.compliance = np.array([params.compliance for _n, _node, params, _i in caps])
        self.burst_kpa = np.array([params.burst_kpa for _n, _node, params, _i in caps])
        self.initial_kpa = np.array([init for _n, _node, _p, init in caps], dtype=float)
        free = np.ones(self.n, dtype=bool)
        free[self.fixed_idx] = False
        free[self.cap_idx] = False
        self.free_idx = np.flatnonzero(free)
        self._regimes: dict[bytes, _Regime] = {}
        self._tiled: dict[int, _Tiled] = {}

    # -- assembly ------------------------------------------------------------

    def conductances(self, is_open: np.ndarray) -> np.ndarray:
        """Branch conductances for a boolean valve open-state array, or a stack of them."""
        valves = np.where(is_open, self.g_open, self.g_leak)
        g = np.empty(valves.shape[:-1] + self.branch_a.shape)
        g[..., : len(self.g_static)], g[..., len(self.g_static) :] = self.g_static, valves
        return g

    def margin(self, is_open, ctrl_kpa, valves=slice(None)):
        """The hysteresis rule, for the valves ``valves`` in the states
        ``is_open`` at control pressures ``ctrl_kpa``: how far each control
        is past the threshold of its pending transition, ``ctrl - p_inflate``
        for an open valve and ``p_deflate - ctrl`` for a closed one. A valve
        switches where this is >= 0; a NaN control never switches."""
        return np.where(
            is_open, ctrl_kpa - self.p_inflate[valves], self.p_deflate[valves] - ctrl_kpa
        )

    def components(self, g: np.ndarray):
        """Component labels over the conducting branches, and per label
        whether it holds a fixed node and whether it holds a fixed node or
        a balloon; for a stack of rows, over one copy of the nodes per row."""
        on = g.ravel() > 0.0
        copies = on.size // len(self.branch_a)
        t = self.tiled(copies)
        labels = node_components(copies * self.n, t.a[on], t.b[on])
        fixed = np.zeros(copies * self.n, dtype=bool)
        fixed[labels[t.fixed]] = True
        anchored = fixed.copy()
        anchored[labels[t.cap]] = True
        return labels, fixed, anchored

    @cached_property
    def region(self) -> np.ndarray:
        """Each node's region, -1 at the fixed nodes: the components of the
        branches that join no fixed node, whatever their conductance."""
        fixed = np.zeros(self.n, dtype=bool)
        fixed[self.fixed_idx] = True
        inner = ~(fixed[self.branch_a] | fixed[self.branch_b])
        region = node_components(self.n, self.branch_a[inner], self.branch_b[inner])
        region[fixed] = -1
        return region

    @cached_property
    def _blocks(self):
        """The layout of the region solve. Regions of one size ``s`` stack
        as ``(k, s, s)`` blocks, and every stack lies in one flat array of
        the blocks' entries, no block padded, of the size given last. Per
        node, its row in the stacked right-hand sides (-1 if fixed); per
        branch, its ends' diagonal entries, and its two off-diagonal ones
        where it joins two unfixed nodes (else -1); the unfixed nodes and
        their diagonal entries; per stack, ``(s, k, first row, first entry)``."""
        region = self.region
        nodes = (region >= 0).nonzero()[0]
        order, size, sizes, nrows = _grouped(region[nodes])  # by size, then region, then node
        nodes = nodes[order]
        row0, entry0 = np.cumsum(nrows) - nrows, np.cumsum(nrows * sizes) - nrows * sizes
        stacks = list(zip(sizes.tolist(), (nrows // sizes).tolist(), row0.tolist(), entry0.tolist()))
        # a stack's regions lie in turn, so a node's place in its region is its row in the stack
        # modulo s; entry (i, j) of a block: its first entry + place_i * s + place_j
        within = np.arange(len(nodes)) - np.repeat(row0, nrows)
        place = within % size
        dn = np.repeat(entry0, nrows) + within * size + place
        row, diag, at = np.full((3, self.n), -1)
        row[nodes], diag[nodes], at[nodes] = np.arange(len(nodes)), dn, place
        a, b = self.branch_a, self.branch_b
        inner = (row[a] >= 0) & (row[b] >= 0)
        ab = np.where(inner, diag[a] - at[a] + at[b], -1)
        ba = np.where(inner, diag[b] - at[b] + at[a], -1)
        return row, diag[a], diag[b], ab, ba, nodes, dn, stacks, int(nrows @ sizes)

    def tiled(self, copies: int) -> _Tiled:
        """The index arrays of a stack of ``copies`` rows, tiled at the
        first stacked call of that many rows and kept for the next."""
        t = self._tiled.get(copies)
        if t is None:
            row, da, db, ab, ba, nodes, dn, _stacks, size = self._blocks
            n, m = self.n, len(nodes)
            spans = ((self.branch_a, n), (self.branch_b, n), (self.fixed_idx, n), (self.cap_idx, n),
                     (nodes, n), (row, m), (da, size), (db, size), (ab, size), (ba, size), (dn, size))
            copy = np.arange(copies)[:, None]
            t = self._tiled[copies] = _Tiled(*((idx + span * copy).ravel() for idx, span in spans))
        return t

    def solve(self, g: np.ndarray, rows: np.ndarray, P: np.ndarray) -> None:
        """Fill ``P[rows]`` from the flow balance of those nodes, every other
        row of ``P`` given and ``P[rows]`` zero on entry, for all of ``P``'s
        columns at once. ``G = L[rows][:, rows]`` is block-diagonal by
        region: each region's block is assembled with the other nodes of
        the region on a unit diagonal, and the blocks of each region size
        are factored by one stacked dense LU. For a stack of ``R`` rows of
        ``g``, ``P`` is ``(R, n, ...)``, ``rows`` index its ``R * n`` nodes,
        and each region size is one LU over ``(R, k, s, s)``."""
        if not len(rows):
            return
        _row, _da, _db, _ab, _ba, nodes, _dn, stacks, size = self._blocks
        copies, n, m = g.size // len(self.branch_a), self.n, len(nodes)
        t = self.tiled(copies)
        unknown = np.zeros(copies * n, dtype=bool)
        unknown[rows] = True
        gf = g.ravel()
        on = gf > 0.0
        ta, tb = on & unknown[t.a], on & unknown[t.b]
        both = ta & tb
        known = t.dn[~unknown[t.nodes]]
        entries = np.bincount(
            np.concatenate([t.da[ta], t.db[tb], t.ab[both], t.ba[both], known]),
            np.concatenate([gf[ta], gf[tb], -gf[both], -gf[both], np.ones(len(known))]),
            minlength=copies * size,
        ).reshape(copies, size)
        P2 = P.reshape(copies * n, -1)  # a view with an explicit column axis
        cols = P2.shape[1]
        at = t.row[rows]  # each unknown's row of the stacked right-hand sides
        rhs = np.zeros((copies * m, cols))
        rhs[at] = self.inflow(g, P2)[rows]
        x = np.empty_like(rhs)
        rhs3, x3, lead = rhs.reshape(copies, m, cols), x.reshape(copies, m, cols), g.shape[:-1]
        for s, k, r, e in stacks:
            G = entries[:, e : e + k * s * s].reshape(lead + (k, s, s))
            b = rhs3[:, r : r + k * s].reshape(lead + (k, s, cols))
            x3[:, r : r + k * s] = _solve(G, b).reshape(copies, k * s, cols)
        P2[rows] = x[at]

    def inflow(self, g: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Net inflow ``-L(s) P = -Bᵀ diag(g) B P`` at every node, for node
        values ``P`` with one row per node and one or more columns; for a
        stack of conductance rows, one row per node of the stack."""
        t = self.tiled(g.size // len(self.branch_a))
        a, b = t.a, t.b
        gk = g.reshape((-1,) + (1,) * (P.ndim - 1))
        flow = gk * (P[a] - P[b])  # from a to b
        out = np.zeros_like(P)
        np.add.at(out, b, flow)
        np.subtract.at(out, a, flow)
        return out

    # -- DC solve (balloons act as open circuits) ------------------------------

    def dc_map(self, g: np.ndarray, drive: np.ndarray) -> np.ndarray:
        """Node values (Pa) under the DC flow balance of the branch
        conductances ``g``: ``drive`` gives the fixed nodes' rows, with one or
        more columns; pinned balloons add their pressures to the first
        column, and ``solve`` fills in the rest. For a stack of rows of
        ``g``, ``drive`` and the result stack one per row.

        Balloons in components that reach a fixed node equilibrate (zero
        flow, so they are plain unknowns); balloons cut off from every
        fixed node keep their charge and pin their component, at the
        compliance-weighted mean of its initial charges (the limit it
        relaxes to with no external exchange). Nodes sealed off from every
        fixed node and every balloon hold trapped air with no state and no
        flow, and read ambient (0) rather than making the solve singular.
        """
        labels, fixed, anchored = self.components(g)
        copies = len(labels) // self.n
        fixed_idx, cap_idx = self.tiled(copies)[2:4]
        known = ~anchored[labels]  # dead nodes
        known[fixed_idx] = True
        P = np.zeros(g.shape[:-1] + (self.n,) + drive.shape[g.ndim :])
        P2 = P.reshape(copies * self.n, -1)  # a view with an explicit column axis
        P2[fixed_idx] = drive.reshape(len(fixed_idx), -1)
        cap_labels = labels[cap_idx]
        pinned = ~fixed[cap_labels]
        if pinned.any():
            lab, c = cap_labels[pinned], np.tile(self.compliance, copies)[pinned]
            c_total = np.bincount(lab, weights=c)
            charge = np.bincount(lab, weights=c * np.tile(self.initial_kpa, copies)[pinned])
            P2[cap_idx[pinned], 0] = charge[lab] / c_total[lab] * KPA
            known[cap_idx[pinned]] = True
        self.solve(g, np.flatnonzero(~known), P)
        return P

    def solve_dc(self, is_open: np.ndarray) -> np.ndarray:
        """Full node-pressure vector (Pa) for a boolean valve open-state
        array at the fixed pressures."""
        return self.dc_map(self.conductances(is_open), self.fixed_pa)

    def pressures_kpa(self, p_pa: np.ndarray) -> dict[str, float]:
        """Node pressures (kPa) by name, leaving out source internal nodes."""
        return dict(zip(self.named, (p_pa[self.named_idx] / KPA).tolist()))

    @cached_property
    def valve_bits(self):
        """The layer numbering of the DC walk and the transient: layer
        ``a`` opens every region's j-th valve iff bit j of ``a`` is set.
        Each valve's region (-1 where it joins two fixed nodes), its index j
        among its region's valves, and its bit ``1 << j`` in a layer number
        (a Python int past 63 bits), 0 where it joins two fixed nodes.
        ``layer_of`` and ``layer_states`` convert by it, and nothing else."""
        nb = len(self.g_static)
        home = np.maximum(self.region[self.branch_a[nb:]], self.region[self.branch_b[nb:]])
        local = _rank(home)
        one = np.array(1, object if local.max(initial=0) > 62 else int)
        return home, local.tolist(), (home >= 0) * (one << local)

    def layer_of(self, is_open: np.ndarray, valves=slice(None)) -> np.ndarray:
        """Each region's layer under the open states ``is_open`` of the
        valves ``valves``, the bits of its open valves summed; the last
        entry, for the fixed nodes, is 0. For a stack of rows, one row each."""
        home, _local, weight = self.valve_bits
        lay = np.zeros(is_open.shape[:-1] + (self.n + 1,), weight.dtype)
        np.add.at(lay, (..., home[valves]), is_open * weight[valves])
        return lay

    def layer_states(self, layers) -> np.ndarray:
        """The open-state array of each of the layer numbers ``layers``, one
        row each; a valve that joins two fixed nodes is closed in every layer."""
        weight = self.valve_bits[2]
        return (np.array(layers, weight.dtype)[:, None] & weight) != 0

    @cached_property
    def walk(self) -> "_Walk | None":
        """The DC search's region-ordered warm start, built at the first
        search; None when the region graph has a cycle."""
        return _Walk.build(self)

    # -- transient regime (balloon nodes pinned by their volumes) -------------

    @cached_property
    def slots(self):
        """The balloon columns of a regime solve: regions do not couple, so
        the j-th balloon of every region takes column ``1 + j``. Each
        balloon's slot, the slot count ``width``, and the column maps of
        ``A``'s rows (``watch``) and ``K``'s (balloons): the balloon in each
        slot of the row's region, or -1, a pad."""
        region = self.region[self.cap_idx]
        slot = _rank(region)
        width = int(slot.max(initial=-1)) + 1
        by_region = np.full((self.n + 1, width), -1)  # the last row, for fixed nodes, all pads
        by_region[region, slot] = np.arange(len(region))
        return slot, width, by_region[self.region[self.watch]], by_region[region]

    @cached_property
    def layers(self) -> "_Layers":
        return _Layers(self)

    def regime(self, is_open: np.ndarray) -> "_Regime":
        key = is_open.tobytes()
        reg = self._regimes.get(key)
        if reg is None:
            reg = _Regime(self, is_open)
            if len(self._regimes) < 4096:
                self._regimes[key] = reg
        return reg

    def initial_states(self, overrides: dict[str, ValveState] | None) -> np.ndarray:
        """The boolean open-state array, with ``overrides`` by valve name."""
        given = _by_name(self.valve_names, overrides, "valve name(s) in initial states")
        return np.array(
            [o if s is None else s is ValveState.OPEN for o, s in zip(self.initial_open, given)],
            dtype=bool,
        )

    def initial_volumes(self, overrides: dict[str, float] | None) -> np.ndarray:
        given = _by_name(self.cap_names, overrides, "balloon name(s) in initial pressures")
        kpa = np.array([k if p is None else p for k, p in zip(self.initial_kpa, given)])
        if (kpa < 0.0).any():
            raise ValueError(f"pressure_kpa must be >= 0, got {float(kpa.min())!r}")
        return self.rest_volume + self.compliance * kpa * KPA


def _by_name(names: list[str], overrides: dict | None, what: str) -> list:
    """The override for each of ``names`` (None where not given); an
    override naming nothing is a ValueError."""
    overrides = overrides or {}
    bad = sorted(set(overrides) - set(names))
    if bad:
        raise ValueError(f"unknown {what}: {', '.join(bad)}")
    return [overrides.get(n) for n in names]


#: a balloon's mode in a segment: above its rest volume, where its pressure
#: is affine in its volume; below it, reading 0; or empty and holding
_ABOVE, _BELOW, _EMPTY = 0, 1, 2

_EPS = np.finfo(float).eps

#: the sets of balloon modes whose ``_Modes`` a regime keeps, and whose
#: eigenbases a network's layer maps keep
_MAX_MODES = 64


def _gather(B: np.ndarray, col: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``B @ v`` for a slot-compact ``B`` with the column map ``col``."""
    return np.vecdot(B, v[col])


def _stack_rows(at: dict[int, int], lay: np.ndarray, fill) -> np.ndarray:
    """Each layer number of ``lay`` as its row of a stack whose rows ``at``
    holds by layer: ``fill`` first stacks the layers not yet in it, as one
    sorted list, and they take the next rows."""
    layers = sorted(set(lay.ravel().tolist()))
    if new := [a for a in layers if a not in at]:
        fill(new)
        at.update(zip(new, range(len(at), len(at) + len(new))))
    rows = np.array([at[a] for a in layers], np.min_scalar_type(len(at)))  # a regime keeps them
    return rows[np.searchsorted(layers, lay)]


class _Layers:
    """The layer maps of a network (``_Compiled.layers``), from which its
    transient regimes are gathered: per layer, stacked, its watch rows
    ``P`` (``a0``, ``A``) and balloon rows ``Q`` (``k0``, ``K``), the
    singular region blocks met, as (layer, region) pairs (``bad``), and
    per set of balloon modes its eigenbasis.
    A row takes the layer of its region (``_Compiled.layer_of``), and a new
    layer solves the free nodes that its valve states
    (``_Compiled.layer_states``) leave anchored. It keeps the network
    arrays it reads: the balloons' regions (``cap``), slots and
    compliances, and the column maps ``acol`` and ``kcol``."""

    def __init__(self, c: _Compiled):
        region = c.region
        # each row's region, watch rows then balloons; a fixed node's is that of the last balloon,
        # whose rows its pads (-1) read
        self.cap = cap = region[c.cap_idx]
        watch = np.where(region[c.watch] >= 0, region[c.watch], cap[-1] if len(cap) else -1)
        self.rows, self.iw, self.ic = np.concatenate([watch, cap]), np.arange(len(watch)), np.arange(len(cap))
        self.slot, width, self.acol, self.kcol = c.slots
        self.compliance = c.compliance
        self.P, self.Q = (np.zeros((0, len(rows), 1 + width)) for rows in (watch, cap))
        self.bad: set[tuple[int, int]] = set()
        self.at: dict[int, int] = {}  # each filled layer's index in the stacks
        self._modes: dict[bytes, tuple] = {}

    def take(self, c: _Compiled, is_open: np.ndarray) -> np.ndarray:
        """The layer that each row takes under the valve states ``is_open``,
        as its index in the stacks, those not yet filled solved first as one
        stack; SingularNetworkError where a row takes a singular block."""

        def fill(new: list[int]) -> None:
            n, width = c.n, self.P.shape[2] - 1
            g = c.conductances(c.layer_states(new))
            P = np.zeros((len(new), n, 1 + width))
            P[:, c.fixed_idx, 0], P[:, c.cap_idx, 1 + self.slot] = c.fixed_pa, 1.0
            # nodes sealed off in a layer carry no flow; they read ambient
            labels, _fixed, anchored = c.components(g)
            f = (c.free_idx + n * np.arange(len(new))[:, None]).ravel()
            f = f[anchored[labels[f]]]
            try:
                c.solve(g, f, P)
            except SingularNetworkError:  # it fails the stack: each block alone fails only its rows
                layer, region = f // n, c.region[f % n]
                for i, r in set(zip(layer.tolist(), region.tolist())):
                    try:
                        c.solve(g[i], f[(layer == i) & (region == r)] % n, P[i])
                    except SingularNetworkError:
                        self.bad.add((len(self.at) + i, r))
            Q = c.inflow(g, P.reshape(-1, 1 + width)).reshape(P.shape)[:, c.cap_idx]
            self.P, self.Q = np.concatenate([self.P, P[:, c.watch]]), np.concatenate([self.Q, Q])

        at = _stack_rows(self.at, c.layer_of(is_open)[self.rows], fill)
        if self.bad and not self.bad.isdisjoint(zip(at.tolist(), self.rows.tolist())):
            raise SingularNetworkError("flow-balance system is singular")
        return at

    def modes(self, mode: np.ndarray) -> tuple:
        """``lam``, ``T``, ``Tt``, ``V``, ``zstar``, ``W`` and ``R`` of the
        balloon modes ``mode``, stacked over the layers, each as ``_Modes``
        of a regime of that layer alone would build it, and each built once.
        The balloons above rest form blocks by region, and the blocks of each
        size ``s`` are decomposed as one stack: their indices ``(k, s)``, as
        rows ``(k, s, 1)`` and as slots of their region ``(k, 1, s)``."""
        key = mode.tobytes()
        old = self._modes.get(key, ())
        if (done := len(old[0]) if old else 0) == len(self.at):
            return old
        K, A, k0 = self.Q[done:, :, 1:], self.P[done:, :, 1:], self.Q[done:, :, 0]
        kcol, acol, above, below = self.kcol, self.acol, mode == _ABOVE, mode == _BELOW
        D = above / self.compliance
        lam, T, Tt = np.zeros(k0.shape), np.zeros(K.shape), np.zeros(K.shape)
        bal = np.flatnonzero(above)
        order, _size, sizes, count = _grouped(self.cap[bal])  # by block size, then block, in balloon order
        bal, ends = bal[order], np.cumsum(count)
        for s, lo, hi in zip(sizes.tolist(), (ends - count).tolist(), ends.tolist()):
            idx = bal[lo:hi].reshape(-1, s)
            rows, slots = idx[:, :, None], self.slot[idx][:, None, :]
            h = np.sqrt(self.compliance[rows])
            Kb = K[:, rows, slots]
            lb, U = np.linalg.eigh((Kb + Kb.swapaxes(-1, -2)) / (2.0 * h * h.transpose(0, 2, 1)))
            lb[lb > -64.0 * _EPS * np.abs(lb).max(axis=-1, keepdims=True)] = 0.0
            hU = h * U
            lam[:, idx], T[:, rows, slots] = lb, hU
            Tt[:, idx[:, None, :], slots.transpose(0, 2, 1)] = hU
        # x = T z above rest, z = Tᵀ D x, and the watched kPa per mode A D T / KPA; gathered
        # by np.take, C-ordered, so that each product runs as one layer's alone would
        W = np.matmul((A * D[acol] / KPA)[..., None, :], np.take(T, acol, axis=1))[..., 0, :]
        zstar = np.divide(-np.vecdot(Tt, np.take(D * k0, kcol, axis=1)), lam, out=np.zeros(lam.shape),
                          where=lam != 0.0)
        V, R = T, np.zeros((len(K), 0, K.shape[2]))
        if below.any():
            # below rest, x' = R z + k0, integrated term by term
            kb = kcol[below]
            R = np.matmul((K[:, below] * D[kb])[..., None, :], np.take(T, kb, axis=1))[..., 0, :]
            V = T.copy()
            V[:, below] = np.divide(R, lam[:, kb], out=np.zeros_like(R), where=lam[:, kb] != 0.0)
        new = lam, T, Tt, V, zstar, W, R
        if old:  # the layers that grew since
            new = tuple(np.concatenate(x) for x in zip(old, new))
        if old or len(self._modes) < _MAX_MODES:
            self._modes[key] = new
        return new


class _Regime:
    """The linear network of one valve-state assignment, reduced once.

    With the balloon pressures given, every node pressure is affine in
    them: ``p = A @ cap_pa + a0``. Only the rows of the compiled network's
    ``watch`` nodes are kept, control nodes first and probes after, so a
    run reads the margins and the samples as two row slices of one map.
    Kron reduction onto the balloon nodes gives their net inflows as
    ``K @ cap_pa + k0``; ``K`` is symmetric and block-diagonal by region.
    Regions do not couple, so a regime solves nothing: each row is that of
    the layer its region's valves select (``_Layers``). The j-th balloons
    of all regions share a column, and every entry of ``A`` and ``K``
    across two regions is 0.

    So ``A`` (watch × width) and ``K`` (balloons × width) are kept as the
    layers give them (the ELLPACK layout), with the column maps ``acol`` and
    ``kcol``; a pad's entry is 0, and ``A @ v`` is a gather (``_gather``).
    A balloon's own column in its row of ``K`` is its ``slot``.

    Besides these maps a regime owns what depends on its valve states and
    nothing else: ``sign``, +1 for an open valve and -1 for a closed one,
    and ``offset``, ``-p_inflate`` or ``p_deflate``, the two terms of each
    valve's margin (``margin``), and a ``_Modes`` per set of balloon modes
    that its segments meet (``modes``), built at the first.
    """

    def __init__(self, compiled: _Compiled, is_open: np.ndarray):
        # only the reduced matrices and the network's arrays are kept, never
        # the _Compiled that caches this regime: a reference cycle would keep
        # both, and their matrices, alive until the next full gc pass
        self.rest_volume, self.compliance = compiled.rest_volume, compiled.compliance
        self.sign = np.where(is_open, 1.0, -1.0)
        self.offset = np.where(is_open, -compiled.p_inflate, compiled.p_deflate)
        self._modes: dict[bytes, _Modes] = {}
        self.slot, _width, self.acol, self.kcol = compiled.slots
        self.layers = layers = compiled.layers
        at = layers.take(compiled, is_open)  # each row's layer, watch rows then balloons
        self.apick, self.kpick = (at[: len(layers.iw)], layers.iw), (at[len(layers.iw) :], layers.ic)
        P, Q = layers.P[self.apick], layers.Q[self.kpick]
        self.a0, self.A, self.k0, self.K = P[:, 0], P[:, 1:], Q[:, 0], Q[:, 1:]

    def margin(self, ctrl_kpa: np.ndarray) -> np.ndarray:
        """``_Compiled.margin`` of every valve in this regime's states:
        ``ctrl - p_inflate`` is ``ctrl + -p_inflate`` and ``p_deflate -
        ctrl`` is ``-ctrl + p_deflate``, bit for bit, NaN included."""
        return self.sign * ctrl_kpa + self.offset

    def pressures(self, volumes: np.ndarray) -> np.ndarray:
        """The pressures (Pa) of the watched nodes at one vector of balloon volumes."""
        p = _gather(self.A, self.acol, _balloon_pa(volumes, self.rest_volume, self.compliance)) + self.a0
        if not np.logical_and.reduce(np.isfinite(p)):
            raise SingularNetworkError("flow-balance system is numerically singular")
        return p

    def modes(self, mode: np.ndarray) -> "_Modes":
        """The ``_Modes`` of the balloon modes ``mode``, built once."""
        key = mode.tobytes()
        modes = self._modes.get(key)
        if modes is None:
            modes = _Modes(self, mode.copy())
            if len(self._modes) < _MAX_MODES:
                self._modes[key] = modes
        return modes

    def modes_at(self, volumes: np.ndarray) -> np.ndarray:
        """Each balloon's mode at ``volumes``: at rest volume it is above
        rest unless its inflow is negative, at 0 empty unless it is positive."""
        x = volumes - self.rest_volume
        pa = _balloon_pa(volumes, self.rest_volume, self.compliance)
        inflow = _gather(self.K, self.kcol, pa) + self.k0
        empty = (volumes <= 0.0) & (inflow <= 0.0)
        return np.where((x > 0.0) | ((x == 0.0) & (inflow >= 0.0)), _ABOVE, _BELOW + empty)


class _Modes:
    """A regime's balloon volumes in closed form, for one mode per balloon.

    With ``x = v - rest`` and ``D = diag(1/C)`` over the balloons above
    rest (0 elsewhere), those obey ``x' = K D x + k0``. Per block of ``K``,
    ``S = C^-½ K C^-½ = U diag(λ) Uᵀ``, so the mode coordinates ``z = Uᵀ
    C^-½ x`` relax apart, ``z' = λ z + f``; a layer decomposes the blocks
    of each size by one stacked ``eigh`` (``_Layers.modes``), and mode
    ``j`` of a block sits at the index of its ``j``-th balloon. A balloon
    below rest integrates its inflow, affine in ``z``; an empty one holds.
    So a segment from ``x0`` is ``x(τ) = xc + τ w + V (d ∘ e^(λτ))``.
    ``K`` is negative semidefinite: an eigenvalue within roundoff of 0 is
    0, and its mode, on balloons sealed off from every fixed node and so
    undriven, holds. ``W`` maps the modes to every ``watch`` node's kPa,
    the terms of its wave (``_Segment.wave``).

    Everything that depends on the regime and the modes alone is gathered
    here once, row by row from its layers' (``_Layers.modes``), and read
    by every segment that starts in them. A mode couples only the balloons
    of its region, so each is slot-compact:
    ``T``, ``Tt`` (``Tᵀ``) and ``V`` by ``kcol``, and ``W`` and the
    valves' signed margin rows ``M`` (``W``'s control rows times the
    regime's ``sign``) by ``acol``; ``lam_k`` and ``lam_a`` hold the rates
    of their entries. What every segment would recompute is kept too: the
    control rows' column map and rates (``ccol``, ``lam_c``), whether every
    mode moves (``all_moving``) and whether any balloon is below rest
    (``any_below``). Where every mode moves, ``segment`` takes ``d`` with no
    ``np.where``, and where none is below rest, ``x`` adds no ``τ w``, as
    ``w`` is 0 there.
    """

    def __init__(self, reg: _Regime, mode: np.ndarray):
        nc, nv, kcol, acol = len(mode), len(reg.sign), reg.kcol, reg.acol
        self.mode, above, self.below = mode, mode == _ABOVE, mode == _BELOW
        self.kcol, self.acol, self.ccol = kcol, acol, acol[:nv]
        self.D = above / reg.compliance
        lam, T, Tt, V, zstar, W, R = reg.layers.modes(mode)
        lam, self.T, self.Tt, self.zstar = (x[reg.kpick] for x in (lam, T, Tt, zstar))
        self.any_below = bool(self.below.any())
        self.V = V[reg.kpick] if self.any_below else self.T  # the same where none is below rest
        self.W = W[reg.apick]
        self.lam, self.moving, self.lam_k, self.lam_a = lam, lam != 0.0, lam[kcol], lam[acol]
        self.lam_c, self.all_moving = self.lam_a[:nv], bool(self.moving.all())
        self.no_w = np.zeros(nc)  # w with no balloon below rest, read only
        self.M = reg.sign[:, None] * self.W[:nv]
        if self.any_below:
            self.kb, self.k0 = kcol[self.below], reg.k0[self.below]
            self.R = R[reg.kpick[0][self.below], np.arange(len(self.kb))]

    def segment(self, x0: np.ndarray):
        """``(xc, w, d)`` of the segment that starts from ``x0``."""
        z0 = _gather(self.Tt, self.kcol, self.D * x0)
        d = z0 - self.zstar if self.all_moving else np.where(self.moving, z0 - self.zstar, 0.0)
        w = self.no_w
        if self.any_below:
            w = np.zeros_like(x0)
            w[self.below] = _gather(self.R, self.kb, np.where(self.moving, self.zstar, z0)) + self.k0
        return x0 - _gather(self.V, self.kcol, d), w, d

    def x(self, xc, w, d, tau: float) -> np.ndarray:
        """``x`` at the time ``tau`` into the segment; ``w`` is 0 unless a
        balloon is below rest."""
        moved = _gather(self.V, self.kcol, d * np.exp(tau * self.lam))
        return xc + tau * w + moved if self.any_below else xc + moved

    def exits(self, reg: _Regime):
        """Each way out of a balloon's mode, as a row ``f = alpha + beta·x``
        that rises through 0 there, its balloon and the mode it goes to:
        above rest to below; below rest to above or to empty; and empty, once
        its inflow turns positive, to below rest; ``beta`` by ``kcol``."""
        above, below, empty = (np.flatnonzero(self.mode == m) for m in (_ABOVE, _BELOW, _EMPTY))
        who = np.concatenate([above, below, below, empty])
        eye = (np.arange(reg.K.shape[1]) == reg.slot[who[: len(who) - len(empty)], None])
        sign = np.repeat([-1.0, 1.0, -1.0], [len(above), len(below), len(below)])
        beta = np.concatenate([sign[:, None] * eye, reg.K[empty] * self.D[self.kcol[empty]]])
        alpha = np.concatenate([np.zeros(len(above) + len(below)), -reg.rest_volume[below], reg.k0[empty]])
        goes = np.repeat([_BELOW, _ABOVE, _EMPTY, _BELOW], [len(above), len(below), len(below), len(empty)])
        return beta, alpha, who, goes


# ---------------------------------------------------------------------------
# DC operating point
# ---------------------------------------------------------------------------


class _Walk:
    """The DC search's warm start: each valve stepped once, in region order.

    Fixed nodes cut a network into regions, the components of its branches
    with no fixed endpoint. At DC a balloon draws no flow, so a region's
    node pressures depend only on its own valves and on the fixed
    pressures, and the flow balance over the unknown nodes is
    block-diagonal by region. A valve controlled from region R makes the
    region of its branch depend on R. When that region graph is acyclic,
    the regions are walked by depth, one more than the deepest region their
    valves are controlled from (0 for a region controlled from none): each
    valve of a region is stepped once by ``_Compiled.margin``, from its
    given state, on its settled control pressure, and the region then reads
    its control nodes from the layer its own valves select. A level, the
    regions of one depth, is one step for a stack of rows: a mask over the
    valves and the control nodes in those regions that it reads. The
    valves that join two fixed nodes move no pressure and go last.

    Each row of ``maps``, the stack of the filled layers, is a whole
    ``_Compiled.dc_map`` of a layer (``_Compiled.layer_states``): its node
    pressures in every region at once, as an affine map of the fixed
    pressures, a constant column and then one column per fixed node. ``at``
    holds each filled layer's row. The new layers of a level are filled as
    one stacked ``dc_map`` and serve every later walk of the same compiled
    network, whatever its fixed pressures.
    """

    def __init__(self, compiled: _Compiled, depth: np.ndarray):
        home, region, nf = compiled.valve_bits[0], compiled.region, len(compiled.fixed_idx)
        read = np.unique(compiled.control[region[compiled.control] >= 0])
        level = np.where(home >= 0, depth[home], depth.max() + 1)
        self.levels = [(level == d, read[depth[region[read]] == d]) for d in range(depth.max() + 2)]
        self.maps, self.at = np.zeros((0, compiled.n, 1 + nf)), {}

    @classmethod
    def build(cls, compiled: _Compiled) -> "_Walk | None":
        """The walk over ``compiled``'s regions, or None when a region
        depends on itself, directly or through other regions. Each round of
        ``np.maximum.at`` over the control edges lifts a region's depth to
        one past that of each region it is controlled from. An acyclic
        graph settles within one round more than its longest path, which
        has at most as many edges as the graph; a cycle never settles."""
        c = compiled
        home, rc = c.valve_bits[0], c.region[c.control]  # -1: joining two fixed nodes, or fixed
        edge = (home >= 0) & (rc >= 0)
        depth = np.zeros(c.n + 1, dtype=int)  # by region, the last for -1
        for _ in range(int(edge.sum()) + 1):
            before = depth.copy()
            np.maximum.at(depth, home[edge], depth[rc[edge]] + 1)
            if np.array_equal(depth, before):
                return cls(c, depth)
        return None

    def start(self, compiled: _Compiled, is_open: np.ndarray, fixed_pa: np.ndarray) -> np.ndarray:
        """The open-state arrays after stepping each valve once, in region
        order, from each row of ``is_open`` at the fixed pressures of the
        same row of ``fixed_pa``."""
        c, nf = compiled, len(compiled.fixed_idx)

        def fill(new: list[int]) -> None:
            drive = np.broadcast_to(np.eye(nf, 1 + nf, 1), (len(new), nf, 1 + nf))
            self.maps = np.concatenate([self.maps, c.dc_map(c.conductances(c.layer_states(new)), drive)])

        drive = np.hstack([np.ones((len(fixed_pa), 1)), fixed_pa])
        p = np.zeros((len(fixed_pa), c.n))
        p[:, c.fixed_idx] = fixed_pa
        is_open = is_open.copy()
        for valves, nodes in self.levels:
            is_open[:, valves] ^= c.margin(is_open[:, valves], p[:, c.control[valves]] / KPA, valves) >= 0.0
            # each control node's layer, that of its region's valves, and its value there
            rows = _stack_rows(self.at, c.layer_of(is_open[:, valves], valves)[:, c.region[nodes]], fill)
            p[:, nodes] = (self.maps[rows, nodes] * drive[:, None]).sum(-1)
        return is_open


def dc_operating_point(
    net: PneumaticNetwork,
    initial_states: dict[str, ValveState] | None = None,
) -> SteadyState:
    """Find a valve-state assignment consistent with its own pressures.

    A valve switches where ``_Compiled.margin`` is >= 0: an open valve at
    or above ``p_inflate``, a closed one at or below ``p_deflate``. The
    search first walks the network's regions (the parts that fixed nodes
    cut it into) in dependency order and steps each valve once, from its
    initial state, on its settled control pressure. A synchronous
    fixed-point iteration then starts from that assignment: every valve
    steps at once on its control pressure. On a feed-forward circuit its
    first solve confirms the walk and switches nothing. When the region
    graph has a cycle (rings, latches, a valve controlled from its own
    region) there is no walk, and the iteration starts from the initial
    states. A control settling strictly inside its hysteresis band keeps
    the state the walk leaves it in, which an iteration from the initial
    states could have flipped on an upstream level not yet settled.

    If the iteration cycles, it falls back to exhaustive enumeration of
    all assignments (up to 16 valves), keeping those the same rule leaves
    unchanged. Multiple fixed points are all listed, with the first in
    enumeration order reported as the operating point when the iteration
    itself did not converge. Each assignment is one ``_Compiled.dc_map``:
    one flow balance over its unknown nodes, solved region by region.
    ``truth_table`` runs the same search for all its rows at once.

    Raises AstableCircuit when no assignment is self-consistent, Singular
    when the flow-balance system cannot be solved uniquely, and
    TooManyValves when enumeration would be needed but is intractable.
    """
    compiled = _Compiled(net.validate())
    found = _dc_search(compiled, compiled.initial_states(initial_states)[None], compiled.fixed_pa[None])
    return next(_steady_states(compiled, *found))


#: rows that ``_dc_chunks`` searches together: a table's memory stays bounded
_DC_CHUNK = 256


def _dc_chunks(net: PneumaticNetwork, pins: tuple[str, ...], rows: Iterable[Sequence[float]]):
    """The search of ``dc_operating_point(net.with_pins(...))`` for each row
    of pressures (kPa) of ``rows`` on the distinct nodes ``pins``: per chunk
    of up to ``_DC_CHUNK`` rows, the compiled network and one ``_dc_search``
    of them. The pinned network is validated and compiled once; a row gets
    the checks of ``with_pins`` and ``fixed_pressures``, with their errors,
    and changes only the fixed pressures. The checks run once per distinct
    (pin, value), and the first row that fails one is pinned on its own,
    which raises its error."""
    rows = iter(rows)
    compiled = None
    while chunk := list(islice(rows, _DC_CHUNK)):
        if compiled is None:
            pinned, unpinned = net.with_pins(dict(zip(pins, chunk[0]))), net.fixed_pressures()
            fixed = list(pinned.fixed_pressures())
            compiled, cols = _Compiled(pinned.validate()), [fixed.index(n) for n in pins]
        kpa = np.array(chunk, dtype=float).reshape(len(chunk), len(pins))
        bad = np.zeros(len(chunk), dtype=bool)
        for j, node in enumerate(pins):
            values, at = np.unique(kpa[:, j], return_inverse=True)
            bad |= np.array([not _pin_ok(node, p, unpinned) for p in values.tolist()], dtype=bool)[at]
        if bad.any():
            net.with_pins(dict(zip(pins, chunk[int(bad.argmax())]))).fixed_pressures()
        fixed_pa = np.tile(compiled.fixed_pa, (len(chunk), 1))
        fixed_pa[:, cols] = kpa * KPA
        yield compiled, _dc_search(compiled, np.tile(compiled.initial_open, (len(chunk), 1)), fixed_pa)


def _pin_ok(node: str, kpa: float, unpinned: dict[str, float]) -> bool:
    """Whether ``with_pins`` and ``fixed_pressures`` take ``node`` pinned at ``kpa``."""
    try:
        return check_pressure(kpa) == unpinned.get(node, kpa)
    except ValueError:
        return False


def _dc_rows(net: PneumaticNetwork, pins: tuple[str, ...], rows: Iterable[Sequence[float]]):
    """Each row's ``dc_operating_point(net.with_pins(...))``, by ``_dc_chunks``."""
    for compiled, found in _dc_chunks(net, pins, rows):
        yield from _steady_states(compiled, *found)


#: a valve's state by its open bit
_STATES = np.array([ValveState.CLOSED, ValveState.OPEN], dtype=object)


def _dc_search(compiled: _Compiled, is_open: np.ndarray, fixed_pa: np.ndarray):
    """``dc_operating_point``'s search for a stack of rows, from the
    open-state arrays ``is_open`` at the fixed pressures ``fixed_pa``, one
    row of each per row: each row's open states, node pressures (Pa) and
    (open states, pressures) of its fixed points, none unless enumerated.
    The walk steps every row at once, and each round of the iteration is
    one stacked ``dc_map`` of the rows that still switch, each with its own
    seen keys; a row whose iteration cycles is enumerated on its own. So
    each row's result is bit-identical to its search alone.

    The iteration's first solve confirms ``compiled.walk``: a control
    within roundoff of a threshold can read differently in a layer map and
    in the exact solve. A layer that cannot be solved drops the walk for
    good, for every row of the stack, leaving any error to the iteration.
    """
    is_open = is_open.copy()
    if compiled.walk is not None:
        try:
            is_open = compiled.walk.start(compiled, is_open, fixed_pa)
        except SingularNetworkError:
            compiled.walk = None

    p_pa, seen, cycled, todo = np.zeros((len(is_open), compiled.n)), set(), [], np.arange(len(is_open))
    while len(todo):
        keys = [(i, k.tobytes()) for i, k in zip(todo.tolist(), np.packbits(is_open[todo], axis=1))]
        again = np.array([key in seen for key in keys], dtype=bool)
        seen.update(keys)
        cycled += todo[again].tolist()
        if not len(todo := todo[~again]):
            break
        p = compiled.dc_map(compiled.conductances(is_open[todo]), fixed_pa[todo])
        switch = compiled.margin(is_open[todo], p[:, compiled.control] / KPA) >= 0.0
        settled = ~switch.any(axis=1)
        p_pa[todo[settled]] = p[settled]
        is_open[todo] ^= switch
        todo = todo[~settled]

    # a row whose iteration cycled: enumerate every assignment
    fixed_points = [[] for _ in is_open]
    if cycled and is_open.shape[1] > _MAX_ENUM_VALVES:
        raise TooManyValvesError(
            f"{is_open.shape[1]} valves exceed the exhaustive search cap of {_MAX_ENUM_VALVES}"
        )
    for i in sorted(cycled):
        for bits in product((True, False), repeat=is_open.shape[1]):
            assign = np.array(bits, dtype=bool)
            try:
                p = compiled.dc_map(compiled.conductances(assign), fixed_pa[i])
            except SingularNetworkError:
                continue  # a floating regime cannot be an operating point
            if not (compiled.margin(assign, p[compiled.control] / KPA) >= 0.0).any():
                fixed_points[i].append((assign, p))
        if not fixed_points[i]:
            raise AstableCircuitError(
                "no self-consistent valve-state assignment exists; the circuit is astable at DC"
            )
        is_open[i], p_pa[i] = fixed_points[i][0]
    return is_open, p_pa, fixed_points


def _steady_states(compiled: _Compiled, is_open, p_pa, fixed_points) -> Iterator[SteadyState]:
    """One SteadyState per row of the arrays ``_dc_search`` returns."""
    def named(is_open):
        return dict(zip(compiled.valve_names, _STATES[is_open.astype(np.intp)].tolist()))

    kpa = (p_pa[:, compiled.named_idx] / KPA).tolist()
    for o, row, fps in zip(is_open, kpa, fixed_points):
        yield SteadyState(named(o), dict(zip(compiled.named, row)), tuple(named(fp) for fp, _p in fps))


def solve_pressures(
    net: PneumaticNetwork, valve_states: dict[str, ValveState]
) -> dict[str, float]:
    """Node pressures (kPa) for a forced valve-state assignment.

    No fixed-point search: the given states are taken as-is. Useful for
    worst-case analyses where valves are held in a particular state.
    """
    compiled = _Compiled(net.validate())
    return compiled.pressures_kpa(compiled.solve_dc(compiled.initial_states(valve_states)))


def _at_pressures(net: PneumaticNetwork, valve_states, pressures_kpa):
    """The compiled network, its branch conductances in ``valve_states``
    and its node pressures (Pa): ``pressures_kpa`` at every named node, and
    each internal-resistance source's regulated reference at its pressure."""
    compiled = _Compiled(net)
    g = compiled.conductances(compiled.initial_states(valve_states))
    P = np.zeros(compiled.n)
    P[compiled.fixed_idx] = compiled.fixed_pa
    for name in net.node_order():
        P[compiled.index[name]] = pressures_kpa[name] * KPA
    return compiled, g, P


def branch_flows(
    net: PneumaticNetwork,
    valve_states: dict[str, ValveState],
    pressures_kpa: dict[str, float],
) -> dict[str, float]:
    """Flow (m3/s) through every branch at the given pressures, in compiled
    order: tubes (positive from ``node_a``), the internal path of each source
    with internal resistance (positive into its node), then valves
    (positive from ``flow_from``)."""
    compiled, g, P = _at_pressures(net, valve_states, pressures_kpa)
    flows = g * (P[compiled.branch_a] - P[compiled.branch_b])
    return dict(zip(compiled.branch_names, flows.tolist()))


def node_residuals(
    net: PneumaticNetwork,
    valve_states: dict[str, ValveState],
    pressures_kpa: dict[str, float],
) -> dict[str, float]:
    """Net inflow (m3/s) at every non-fixed node; ~0 at an operating point."""
    compiled, g, P = _at_pressures(net, valve_states, pressures_kpa)
    inflow = compiled.inflow(g, P).tolist()
    fixed = set(compiled.fixed_idx.tolist())
    return {n: inflow[i] for n, i in compiled.index.items() if i not in fixed}


# ---------------------------------------------------------------------------
# transient simulation
# ---------------------------------------------------------------------------


#: valves rising within this many seconds of a flip flip with it, and
#: ``simulate``'s post-event sample sits this far after its event
_EVENT_TOL = 1.0e-6


@dataclass(eq=False, slots=True)
class _Segment:
    """One stretch of a run with fixed valve states and balloon modes, from
    ``t`` to ``t_next``, in closed form: ``x(τ) = xc + τ w + V (d ∘
    e^(λτ))`` of ``modes``, for ``τ`` in ``[0, tau]``.

    ``flips`` lists the valve transitions logged as it starts, ``(valve,
    now open)`` in order. ``kpa`` holds the watched nodes' kPa at its start
    once settled; it is None where a balloon mode change starts it. ``c``
    holds the watched nodes' kPa at ``xc``, the constant of their waves
    (``wave``). A valve event (``event``) or a mode change (``change``) by
    the run's end time ends it; where neither does, it is the run's last
    and runs to that end, which ``_segments`` owns. It is at ``rest`` where
    no valve or mode would rise again, however long it ran; then, with no
    end time, ``tau`` is inf. ``warnings`` are the run's own from within
    it: a settling that gave up as it starts, and each balloon first
    reaching its burst pressure by its end.
    """

    t: float
    tau: float
    t_next: float
    event: bool
    change: bool
    rest: bool
    flips: tuple[tuple[int, bool], ...]
    warnings: list[str]
    kpa: np.ndarray | None
    modes: _Modes
    xc: np.ndarray
    d: np.ndarray
    c: np.ndarray

    def wave(self, rows):
        """The kPa of the watched nodes ``rows`` (an index or a slice of
        ``watch``) over the segment as ``c + Σ_j b_j e^(λ_j τ)``: ``(c, b,
        lam)``, a term per slot of the node's region, with one row of ``b``
        and of ``lam`` per node of a slice."""
        m = self.modes
        return self.c[rows], m.W[rows] * self.d[m.acol[rows]], m.lam_a[rows]


def _segments(
    compiled: _Compiled, is_open: np.ndarray, volumes: np.ndarray, t_end: float
) -> Iterator[_Segment]:
    """The run from the valve states ``is_open`` and balloon ``volumes`` at
    t = 0 to the caller's ``t_end``, one ``_Segment`` at a time; with
    ``t_end`` inf it goes on while it is read, or until it comes to rest.

    Each regime segment is a linear ODE with constant coefficients, solved
    exactly (``_Modes``), so every valve margin is a constant plus a sum of
    exponentials in time. Every switching decision is one rule,
    ``_Compiled.margin``: a valve switches where its control is at or past
    the threshold of its pending transition. The first margin to rise from
    below 0 to 0 or above ends the segment (``_first_rises``); the valves
    that rise within ``_EVENT_TOL`` of it flip with it, and the valves are
    settled in the new regime. With a sub-atmospheric source a balloon
    crossing its rest volume or emptying ends a segment too. Rises are
    searched without bound, so a segment nothing ends is marked ``rest``,
    and ``t_end`` only cuts the last segment short. The run goes on from a
    segment's end volumes, one closed-form evaluation at its end here, so
    what a reader does with the segments cannot change the run.

    Each segment carries its warnings: the settling's, and the burst check
    up to its end, so never past ``t_end``. A balloon at or past its burst
    level as a segment starts warns at that start, whether it then rises or
    drains: at t = 0 for one that starts the run there. The network is
    passive, so no balloon rises above the highest of the fixed pressures
    and the balloons' own at the start; one whose burst level lies above
    that is never checked.
    """
    ctrl_rows = slice(0, len(compiled.control))
    v_rest = compiled.rest_volume
    vacuum = bool((compiled.fixed_pa < 0.0).any())  # else no balloon goes below rest
    top = max(compiled.fixed_pa.max(),
              _balloon_pa(volumes, v_rest, compiled.compliance).max(initial=0.0))
    watch = np.flatnonzero(compiled.burst_kpa * KPA <= top * (1.0 + 1.0e-9))  # not yet warned

    def bursts(t: float, tau: float, modes: _Modes, xc: np.ndarray, d: np.ndarray) -> list[str]:
        """The warnings of the balloons that first reach their burst
        pressure within the segment ``xc, d`` of ``modes`` from ``t`` for
        ``tau``."""
        nonlocal watch
        ks = watch[modes.mode[watch] == _ABOVE]
        if not len(ks):
            return []
        c = xc[ks] - compiled.compliance[ks] * compiled.burst_kpa[ks] * KPA
        b = modes.V[ks] * d[modes.kcol[ks]]
        f0 = c + np.add.reduce(b, axis=1)  # at the segment's start
        t_ks = t + np.where(f0 >= 0.0, 0.0, _first_rises(c, b, modes.lam_k[ks], tau, f0))
        hit = t_ks < math.inf
        watch = np.setdiff1d(watch, ks[hit])
        return [f"balloon {compiled.cap_names[k]} passed its burst pressure "
                f"({compiled.burst_kpa[k].tolist()} kPa) at t={tk:.6g} s"
                for k, tk in zip(ks[hit].tolist(), t_ks[hit].tolist())]

    def settle(t: float, is_open: np.ndarray, volumes: np.ndarray, switch: np.ndarray):
        """Flip the valves ``switch`` at time ``t``, then every valve whose
        margin is >= 0 at ``volumes``, until none is, in the run's own
        ``is_open``, in place. Returns the regime of the valve states, the
        margins, the watched nodes' kPa at ``volumes``, the transitions
        logged, as a tuple, and the warning, in a list, of a relaxation
        that gave up.

        Balloon controls cannot react to flips; free-node controls get a
        bounded relaxation. When that gives up, the warning names the valves
        still changing, and they are left past their thresholds: a valve
        flips only where its margin rises from below 0.
        """
        flips, notes = (), []
        limit = 4 * max(1, len(is_open))
        for relaxation in range(limit + 1):
            is_open[switch] ^= True
            flips += tuple(zip(switch.tolist(), is_open[switch].tolist()))
            reg = compiled.regime(is_open)
            kpa = reg.pressures(volumes) / KPA
            m = reg.margin(kpa[ctrl_rows])
            switch = (m >= 0.0).nonzero()[0]
            if not len(switch):
                break
            if relaxation == limit:
                names = ", ".join(compiled.valve_names[vi] for vi in switch.tolist())
                notes.append(f"valve states did not settle at t={t:.6g} s after {limit} "
                             f"relaxations; still changing: {names}")
                break
        return reg, m, kpa, flips, notes

    t = 0.0
    is_open = is_open.copy()  # the run's valve states, which settle flips in place
    reg, m0, kpa, flips, notes = settle(t, is_open, volumes, np.zeros(0, dtype=int))
    mode = reg.modes_at(volumes) if vacuum else np.full(len(v_rest), _ABOVE)
    while True:
        modes = reg.modes(mode)
        xc, w, d = modes.segment(volumes - v_rest)
        c = (reg.a0 + _gather(reg.A, reg.acol, modes.D * xc)) / KPA  # the watched nodes' kPa at xc
        # the valve margins, each a constant plus exponentials
        t_valve = _first_rises(reg.margin(c[ctrl_rows]), modes.M * d[modes.ccol], modes.lam_c, math.inf, m0)
        t_flip = np.minimum.reduce(t_valve, initial=math.inf)
        t_mode = math.inf
        if vacuum:
            beta, alpha, who, goes = modes.exits(reg)
            col = reg.kcol[who]
            cm, bm = alpha + _gather(beta, col, xc), np.matmul(beta[:, None, :], modes.V[col])[:, 0] * d[col]
            t_exit = _first_rises(cm, bm, modes.lam_k[who], math.inf, cm + np.add.reduce(bm, axis=1),
                                  _gather(beta, col, w))
            t_mode = np.minimum.reduce(t_exit, initial=math.inf)
        tau = min(t_flip, t_mode)
        rest = tau == math.inf
        ends = not rest and tau <= t_end - t  # an event or a mode change by t_end
        event, change = ends and t_flip <= t_mode, ends and t_mode < t_flip
        tau, t_next = (tau, t + tau) if ends else (t_end - t, t_end)
        if len(watch):
            notes = notes + bursts(t, tau, modes, xc, d)
        yield _Segment(t, tau, t_next, event, change, rest, flips, notes, kpa, modes, xc, d, c)
        if not ends:
            return
        volumes = np.maximum(modes.x(xc, w, d, tau) + v_rest, 0.0)
        t = t_next

        if event:
            switch = (t_valve <= t_flip + _EVENT_TOL).nonzero()[0]
            reg, m0, kpa, flips, notes = settle(t, is_open, volumes, switch)
            if vacuum:
                mode = reg.modes_at(volumes)
        else:
            # the balloons leaving their mode start it from its edge
            hit = t_exit == t_mode
            k, to = who[hit], goes[hit]
            volumes[k] = np.where((to == _ABOVE) | (mode[k] == _ABOVE), v_rest[k], 0.0)
            mode[k] = to
            m0 = reg.margin(reg.pressures(volumes)[ctrl_rows] / KPA)
            flips, notes, kpa = (), [], None


def _compile_probed(net: PneumaticNetwork, cfg: SimConfig) -> _Compiled:
    """``net``, validated and compiled with the probes of ``cfg``, or else
    the network's own, which must not be empty."""
    net.validate()
    probes = cfg.probes if cfg.probes is not None else net.probes
    if not probes:
        raise ValueError("no probes: set PneumaticNetwork.probes or SimConfig.probes")
    return _Compiled(net, probes)


#: ``simulate`` refuses a sample grid of more values (samples times probes)
_MAX_SAMPLE_VALUES = 10**7


def simulate(net: PneumaticNetwork, cfg: SimConfig) -> Trace:
    """Solve the circuit in closed form and return a sampled Trace.

    The run is ``_segments``' closed-form segments, sampled; sampling
    reads the run and does not change it. ``Trace.warnings`` are the
    segments' own: a relaxation that does not settle, and the time each
    balloon first reaches its burst pressure, or t = 0 for one that starts
    at or past it. Samples land on a regular grid plus a pre/post pair at
    each event, so switching edges stay sharp: a segment's grid samples and
    its last sample are one product, the probes' waves (``_Segment.wave``)
    at those times, and the post-event sample, 1 µs (``_EVENT_TOL``) later,
    reads the settling. Identical inputs give identical traces. A grid of
    more than ``_MAX_SAMPLE_VALUES`` values, its samples times the probes,
    raises ValueError before the run.
    """
    compiled = _compile_probed(net, cfg)
    probes = compiled.probes
    ratio = cfg.t_end / cfg.sample_interval  # floored only once it is known to be small
    samples = math.floor(ratio) + 1 if ratio < _MAX_SAMPLE_VALUES else ratio + 1.0
    if samples * len(probes) > _MAX_SAMPLE_VALUES:
        raise ValueError(f"the sample grid of {samples:.3g} samples of {len(probes)} probe(s) exceeds the "
                         f"cap of {_MAX_SAMPLE_VALUES} values; raise sample_interval or lower t_end")
    probe_rows = slice(len(compiled.control), None)

    times: list[float] = []
    rows: list[np.ndarray] = []  # blocks of probe rows, kPa
    events: list[tuple[float, str, ValveState]] = []
    warnings: list[str] = []
    # each flip's (valve, now open) as its logged (name, state)
    logged = {(v, o): (name, _STATES[o]) for v, name in enumerate(compiled.valve_names) for o in (0, 1)}

    def emit(ts: list[float], kpa: np.ndarray) -> None:
        """Record the probe readings ``kpa`` (kPa, one row each) at the
        increasing times ``ts``; times not after the last sample are dropped."""
        first = bisect_right(ts, times[-1]) if times else 0
        if first < len(ts):
            times.extend(ts[first:])
            rows.append(kpa[first:])

    is_open = compiled.initial_states(cfg.initial_valve_states)
    volumes = compiled.initial_volumes(cfg.initial_pressures_kpa)
    next_sample = cfg.sample_interval
    post = 0.0  # the settled start is sampled at 0, each later settling this long after its event
    for seg in _segments(compiled, is_open, volumes, cfg.t_end):
        t = seg.t
        events += [(t,) + logged[flip] for flip in seg.flips]
        warnings.extend(seg.warnings)
        if seg.kpa is not None:
            emit([t + post], seg.kpa[None, probe_rows])
            post = min(_EVENT_TOL, cfg.sample_interval / 8.0)

        # the grid samples up to the segment's end, then its last sample
        grid = []
        while next_sample < seg.t_next - (1.0e-15 if seg.event else 0.0):
            grid.append(next_sample)
            next_sample += cfg.sample_interval
        taus = np.array(grid) - t
        if not seg.change:
            grid.append(seg.t_next)
            taus = np.append(taus, seg.tau)
        kpa = _values(*seg.wave(probe_rows), taus)
        if not np.isfinite(kpa).all():
            raise SingularNetworkError("flow-balance system is numerically singular")
        emit(grid, kpa)

    kpa = np.concatenate(rows) if rows else np.zeros((0, len(probes)))
    return Trace(tuple(probes), np.array(times), kpa, tuple(events), tuple(warnings))


# ---------------------------------------------------------------------------
# limit cycles
# ---------------------------------------------------------------------------


#: a run read for its limit cycle ends at this many recurrences of one valve
#: event, or at this many valve events, if its cycle has not converged by then
_MAX_CYCLES, _MAX_EVENTS = 64, 4096


def _last_cycle(keys: list, times: list[float], earlier: list[int]) -> tuple[int, bool]:
    """The length ``p``, in events, of the shortest cycle that ends at the
    last event and repeats the keys of the ``p`` events before it (0 if
    none does), and whether the two cycles' event-to-event durations agree
    within 1e-9 of the cycle's length. ``earlier`` lists where the last
    event's key occurred before."""
    n = len(keys) - 1
    for j in reversed(earlier):
        p = n - j
        if 2 * p > n:
            break
        if all(keys[n - i] == keys[j - i] for i in range(1, p)):
            tol = 1.0e-9 * (times[n] - times[j])
            agree = all(abs(times[n - i] - times[n - i - 1] - times[j - i] + times[j - i - 1]) <= tol
                        for i in range(p))
            return p, agree
    return 0, False


class _Cycle(NamedTuple):
    """What ``_limit_cycle`` read of a run: the segments of its last full
    cycle, in order, and that cycle's length (none and 0 where it has no
    full cycle); the cycles and valve events it ran; the cap that stopped
    it before its last two cycles matched, None where none did; and its
    settling and burst warnings."""

    segments: list[_Segment]
    period: float
    cycles: int
    events: int
    cap: str | None
    warnings: list[str]


def _limit_cycle(
    compiled: _Compiled, is_open: np.ndarray, volumes: np.ndarray, t_end: float
) -> _Cycle:
    """The run from ``is_open`` and ``volumes``, read unsampled until its
    valve events repeat.

    Each valve event is keyed by the (valve, new state) pairs it logs. The
    run stops once its last two cycles have the same keys in the same
    order (``_last_cycle``). A run at ``rest`` has no cycle. One whose
    segment ends in neither an event nor a mode change, so ``_segments``
    ended it at ``t_end``, or that reaches ``_MAX_CYCLES`` or
    ``_MAX_EVENTS``, stops there, names that cap and keeps its last full
    cycle. ``cycles`` counts the earlier occurrences of the last event's
    key: the cycles run, where each key occurs once a cycle. The warnings
    are the segments' own, as ``simulate`` reports them, up to where the
    run stops. Only the segments that a reported cycle can still include
    are kept: those of the last full cycle, and those from the middle one
    of the valve events read on, since a cycle spans at most half of them.
    """
    segments: list[_Segment] = []  # the run's segments from segment ``dropped`` on
    dropped = 0
    keys, times, starts = [], [], []  # per valve event: its key, time and segment
    seen: dict[tuple, list[int]] = {}
    warnings: list[str] = []
    cycles = events = 0
    full = None  # the last event that closed a full cycle, and that cycle's length in events
    cap = None
    for seg in _segments(compiled, is_open, volumes, t_end):
        warnings.extend(seg.warnings)
        if seg.rest:
            return _Cycle([], 0.0, cycles, events, None, warnings)
        segments.append(seg)
        if seg.flips:
            events += len(seg.flips)
            keys.append(seg.flips)
            times.append(float(seg.t))  # _last_cycle's arithmetic, on floats
            starts.append(dropped + len(segments) - 1)
            earlier = seen.setdefault(keys[-1], [])
            p, converged = _last_cycle(keys, times, earlier)
            cycles = len(earlier)
            earlier.append(len(keys) - 1)
            if p:
                full = len(keys) - 1, p
            stale = starts[min(len(keys) // 2, full[0] - full[1] if full else len(keys))] - dropped
            if 4 * stale > len(segments):  # so the list is cut once per growth by half
                del segments[:stale]
                dropped += stale
            if converged:
                break
            if cycles >= _MAX_CYCLES:
                cap = f"{_MAX_CYCLES} recurrences of one valve event"
                break
            if events >= _MAX_EVENTS:
                cap = f"{_MAX_EVENTS} valve events"
                break
        if not (seg.event or seg.change):
            cap = f"t_end = {t_end:g} s"
            break
    if full is None:
        return _Cycle([], 0.0, cycles, events, cap, warnings)
    n, p = full
    return _Cycle(segments[starts[n - p] - dropped : starts[n] - dropped], float(times[n] - times[n - p]),
                  cycles, events, cap, warnings)


def _cycle_block(segments: list[_Segment], rows: slice):
    """The watched nodes ``rows`` over a cycle's ``segments``, read in one
    pass over their cells, a node over a segment each, as stacked arrays:
    each node's least and greatest kPa, the start times of its rising
    pieces, and its first node's duty.

    Cell ``k`` is node ``k // cells`` over segment ``k % cells``. A cell's
    wave (``_Segment.wave``) of two terms or more is summed by rate
    (``_distinct``, kept in ``many``) and read by ``_extremes``, ``_zeros``
    and ``_values``. One of one exponential or none, whose sums over the
    terms are that term ``b`` and its rate ``l``, has its extremes at its
    ends, ``c + b`` at 0 (``e^(l 0)`` is 1) and ``c + e^(l tau) b``, and
    crosses its node's midline, halfway between them, once at most, where
    ``_zeros`` puts it in closed form (``_one_zero``); where its ends lie
    on one side of the midline by more than roundoff, it does not. The
    crossings cut the cells into pieces: with each cell's bounds in a row,
    0, its cuts, then its end, repeated to pad, the pieces are where the
    rows, laid end to end, step up, so the empty ones drop out. A piece
    rises where its middle is at or above the midline and its node's last
    piece before it, the cycle wrapping around, is below.
    """
    c, terms, lams = (np.concatenate(v) for v in zip(*(seg.wave(rows) for seg in segments)))
    cells = len(segments)
    nodes = len(c) // cells
    c, terms, lams = (x.reshape(cells, nodes, -1).swapaxes(0, 1).reshape(x.shape) for x in (c, terms, lams))
    t, tau = np.tile([[seg.t for seg in segments], [seg.tau for seg in segments]], nodes)
    nonzero = terms != 0.0
    count = np.add.reduce(nonzero, axis=1)
    b, l = np.add.reduce(terms, axis=1, where=nonzero), np.add.reduce(lams, axis=1, where=nonzero)
    many = {k: _distinct(terms[k], lams[k]) for k in (count > 1).nonzero()[0].tolist()}
    start, end = c + b, c + np.exp(tau * l) * b
    low, high = np.minimum(start, end), np.maximum(start, end)
    for k, bl in many.items():
        low[k], high[k] = _extremes(c[k], *bl, tau[k])
    lo, hi = low.reshape(nodes, cells).min(axis=1), high.reshape(nodes, cells).max(axis=1)

    level = np.repeat(0.5 * (lo + hi), cells)
    cs, near = c - level, 1.0e-9 * (np.abs(c) + np.abs(b) + np.abs(level))
    maybe = ((count == 1) & (low <= level + near) & (high >= level - near)).nonzero()[0].tolist()
    cuts = {k: _zeros(cs[k], 0.0, *many.get(k, (b[k : k + 1], l[k : k + 1])), tau[k])
            for k in [*many, *maybe]}
    width = 2 + max(map(len, cuts.values()), default=0)
    bounds = np.where(np.arange(width) > 0, tau[:, None], 0.0)
    for k, z in cuts.items():
        bounds[k, 1 : 1 + len(z)] = z
    at = (bounds.ravel()[1:] > bounds.ravel()[:-1]).nonzero()[0]
    cell, lo_t, hi_t = at // width, bounds.ravel()[at], bounds.ravel()[at + 1]
    length, middle = hi_t - lo_t, 0.5 * (lo_t + hi_t)
    v = cs[cell] + np.exp(middle * l[cell]) * b[cell]
    for k, bl in many.items():
        i, j = np.searchsorted(cell, [k, k + 1])
        v[i:j] = _values(cs[k], *bl, middle[i:j])

    node, t = cell // cells, t[cell] + lo_t
    counts = np.bincount(node, minlength=nodes)
    before = np.arange(-1, len(v) - 1)
    before[counts.cumsum() - counts] += counts  # the cycle wraps around
    rise = (v >= 0.0) & (v[before] < 0.0)
    rising = np.split(t[rise], np.bincount(node[rise], minlength=nodes).cumsum()[:-1])
    ref = slice(0, counts[0])
    return lo.tolist(), hi.tolist(), rising, float(length[ref][v[ref] > 0.0].sum() / length[ref].sum())


# ---------------------------------------------------------------------------
# waveform analysis
# ---------------------------------------------------------------------------


def _check_floor(min_amplitude_kpa: float) -> None:
    if not 0.0 <= min_amplitude_kpa < math.inf:
        raise ValueError(f"min_amplitude_kpa must be finite and at least 0, got {min_amplitude_kpa!r}")


def _check_swing(span: float, floor: float, warnings=()) -> None:
    """Raise NoOscillation, with ``warnings``, where the reference's
    peak-to-trough ``span`` is under the oscillation ``floor``."""
    if span < floor:
        raise NoOscillationError(f"peak-to-trough span {span:.3g} kPa is below the "
                                 f"{floor:.3g} kPa oscillation floor", warnings)


def _phase_deg(ref: np.ndarray, own: np.ndarray, period: float) -> float:
    """The circular mean, in degrees, of each crossing in ``own``'s offset
    from the last in ``ref`` at or before it, both sorted; those before
    ``ref[0]`` are left out, and with none left the phase is NaN."""
    prior = np.searchsorted(ref, own, side="right") - 1
    angle = (own[prior >= 0] - ref[prior[prior >= 0]]) % period / period * 2.0 * math.pi
    if not len(angle):
        return math.nan
    return math.degrees(math.atan2(np.sin(angle).mean(), np.cos(angle).mean())) % 360.0


def extract_frequency(
    trace: Trace, probe: str, min_amplitude_kpa: float = 1.0
) -> OscillationReport:
    """Estimate frequency, per-cycle extrema, duty and phase offsets.

    The first 20% of the trace is dropped as startup transient. Frequency
    is the reciprocal of the mean interval between rising crossings of the
    midline; fewer than 3 crossings, or a peak-to-trough span under
    ``min_amplitude_kpa``, raises NoOscillation. Peaks and troughs are
    averaged over cycles; phases of the other probes are reported in
    degrees relative to ``probe`` (``_phase_deg``). A ``min_amplitude_kpa``
    that is negative or not finite raises ValueError.
    """
    _check_floor(min_amplitude_kpa)
    if probe not in trace.probes:
        raise ValueError(f"probe {probe!r} not in trace")
    if len(trace.times) < 2:
        raise ValueError("trace needs at least two samples")
    t = np.asarray(trace.times, dtype=float)
    keep = np.searchsorted(t, t[0] + 0.2 * (t[-1] - t[0]))  # the times increase
    t = t[keep:]
    if len(t) < 2:
        raise NoOscillationError("trace too short after transient removal")
    y = np.asarray(trace.pressures_kpa, dtype=float)[keep:].T  # a view, one row per column
    rows = [trace.probes.index(name) for name in trace.probes]  # the rows ``Trace.column`` reads
    hi, lo = y.max(axis=1), y.min(axis=1)
    mid = 0.5 * (hi + lo)
    r = trace.probes.index(probe)
    _check_swing(float(hi[r] - lo[r]), min_amplitude_kpa)
    p, i = np.nonzero((y[:, :-1] < mid[:, None]) & (y[:, 1:] >= mid[:, None]))
    at = t[i] + (mid[p] - y[p, i]) / (y[p, i + 1] - y[p, i]) * (t[i + 1] - t[i])
    rising = np.split(at, np.bincount(p, minlength=len(y)).cumsum()[:-1])
    crossings = rising[r]
    if len(crossings) < 3:
        raise NoOscillationError(
            f"only {len(crossings)} midline crossings; need at least 3"
        )
    period = float(np.mean(np.diff(crossings)))
    frequency = 1.0 / period

    # duty: fraction of time the reference spends above its midline
    above = y[r] > mid[r]
    seg = np.diff(t)
    w = 0.5 * (above[:-1].astype(float) + above[1:].astype(float))
    duty = float(np.sum(seg * w) / np.sum(seg))

    # a cycle runs from one rising crossing to the next; in floats one can
    # hold no sample, so repeated starts are dropped (np.unique would import
    # numpy.ma). reduceat's output is C-ordered, so each mean sums a probe's
    # cycles in the order that ``np.mean`` of a list does
    starts = np.searchsorted(t, crossings)
    starts = starts[np.r_[True, starts[1:] > starts[:-1]]]
    cycles = y[:, :starts[-1]]
    peaks = np.maximum.reduceat(cycles, starts[:-1], axis=1).mean(axis=1)[rows]
    troughs = np.minimum.reduceat(cycles, starts[:-1], axis=1).mean(axis=1)[rows]
    return OscillationReport(
        probe=probe,
        frequency_hz=frequency,
        duty=duty,
        peaks_kpa=dict(zip(trace.probes, peaks.tolist())),
        troughs_kpa=dict(zip(trace.probes, troughs.tolist())),
        phase_deg={name: 0.0 if name == probe else _phase_deg(crossings, rising[k], period)
                   for name, k in zip(trace.probes, rows)},
        cycles=len(crossings) - 1,
    )


def measure_oscillation(
    net: PneumaticNetwork, cfg: SimConfig, min_amplitude_kpa: float = 1.0
) -> OscillationReport:
    """The limit cycle of ``net`` at every probe, in closed form.

    The run starts from ``cfg``'s initial state and is read unsampled until
    its valve events repeat (``_limit_cycle``): ``cfg.t_end`` caps its
    simulated time, and ``cfg.sample_interval`` is not read. The first
    probe is the reference, and the frequency is the reciprocal of the
    last cycle's length. Over that cycle, each probe's peak and trough are
    exact (``_extremes``), and its midline lies halfway between them. It
    rises through its midline within a segment or jumps across it as a
    valve flips; its phase is the circular mean of those crossings' offsets
    from the reference's last crossing before each. Duty is the share of
    the cycle the reference spends above its midline.

    Raises NoOscillation, with the run's warnings, when the run comes to
    rest or stops at a cap before one full cycle, or when the reference
    swings less than ``min_amplitude_kpa``. A run stopped at a cap after a
    full cycle reports that cycle, and its last warning names the cap. A
    ``min_amplitude_kpa`` that is negative or not finite raises ValueError
    before the run.
    """
    _check_floor(min_amplitude_kpa)
    compiled = _compile_probed(net, cfg)
    cycle = _limit_cycle(compiled, compiled.initial_states(cfg.initial_valve_states),
                         compiled.initial_volumes(cfg.initial_pressures_kpa), cfg.t_end)
    return _report(compiled, cycle, min_amplitude_kpa)


def _report(compiled: _Compiled, cycle: _Cycle, min_amplitude_kpa: float) -> OscillationReport:
    """``measure_oscillation``'s analysis of the ``cycle`` read from a run
    of ``compiled``, at its probes, the first the reference; it raises
    NoOscillation as ``measure_oscillation`` describes. The probes are read
    in blocks of ``_REPORT_BLOCK_CELLS`` cells, a probe over a segment
    each (``_cycle_block``), so its arrays stay small however large the
    ring; each phase is then summed probe by probe (``_phase_deg``)."""
    warnings = tuple(cycle.warnings)
    if not cycle.segments:
        if cycle.cap is None:
            raise NoOscillationError("the circuit comes to rest: no valve switches again", warnings)
        raise NoOscillationError(f"no full cycle of valve events within {cycle.cap}", warnings)
    if cycle.cap is not None:
        warnings += (f"the run stopped at {cycle.cap} before its last two cycles matched; "
                     f"its last full cycle is reported",)

    period, probe, nv = cycle.period, compiled.probes[0], len(compiled.control)
    step = max(1, _REPORT_BLOCK_CELLS // len(cycle.segments))
    blocks = [_cycle_block(cycle.segments, slice(first, first + step))
              for first in range(nv, nv + len(compiled.probes), step)]
    troughs, peaks, rising = ([x for block in blocks for x in block[i]] for i in range(3))
    _check_swing(peaks[0] - troughs[0], min_amplitude_kpa, warnings)
    ref = np.concatenate((rising[0][-1:] - period, rising[0]))  # the cycle wraps around
    return OscillationReport(
        probe=probe,
        frequency_hz=1.0 / period,
        duty=blocks[0][3],
        peaks_kpa=dict(zip(compiled.probes, peaks)),
        troughs_kpa=dict(zip(compiled.probes, troughs)),
        phase_deg={name: 0.0 if name == probe else _phase_deg(ref, own, period)
                   for name, own in zip(compiled.probes, rising)},
        cycles=cycle.cycles,
        events=cycle.events,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationBounds:
    """The ``(lo, hi)`` range of each fitted parameter, with ``0 < lo < hi``."""

    compliance: tuple[float, float] = (5.0e-11, 1.0e-8)
    open_conductance: tuple[float, float] = (1.0e-8, 1.0e-3)

    def __post_init__(self):
        for name in ("compliance", "open_conductance"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo < hi < math.inf:
                raise ValueError(f"CalibrationBounds.{name} needs 0 < lo < hi, finite, got {(lo, hi)!r}")


def calibrate_oscillator(
    template: PneumaticNetwork,
    target_frequency_hz: float,
    target_peak_kpa: float,
    probe: str | None = None,
    bounds: CalibrationBounds = CalibrationBounds(),
    tolerance: float = 0.02,
    min_amplitude_kpa: float = 1.0,
) -> CalibrationResult:
    """Fit balloon compliance and valve open conductance to measurements.

    Free parameters are applied uniformly to every balloon and valve in
    the template. Above its rest volume a balloon's pressure is ``(v -
    rest) / C``, so with one ``C`` on every balloon the run in pressure
    space does not depend on ``C``, and its time scales with ``C``: the
    peak at the probe is set by the conductance alone. So the fit is one
    round: a bisection on the conductance against the peak target, then a
    rescale of the compliance against the frequency target, ``C f /
    f_target``, and a verify evaluation at the rescaled point. The scaling
    is exact only while no balloon is below rest: a sub-atmospheric source
    can pull one there, to refill a slack volume that does not scale. So
    while the verified frequency misses, the rescale repeats at the fitted
    conductance as a secant on log C, through the last two points, for at
    most 8 rescales; it stops where a compliance bound holds it, or where
    the frequency stops falling with C. Raises CalibrationFailed, carrying
    the last point recorded and every evaluation, if both targets cannot
    be met within ``tolerance``.

    Each evaluation runs the circuit from its declared state, with no end
    time, until its valve events repeat (``_limit_cycle``), and takes its
    frequency and its peak at ``probe`` from the report that
    ``measure_oscillation`` makes of that limit cycle (``_report``), as
    ``tblsim freq`` reads them. One that raises NoOscillation, at rest,
    with no full cycle or with a swing under ``min_amplitude_kpa``, shows
    no oscillation. The result's ``evaluations`` logs each one in order.

    The fit fails fast on a frequency out of reach. It assumes that the
    frequency rises with the conductance, so the point measured at the
    upper conductance bound is the fastest at its compliance: if the target
    exceeds that frequency rescaled to the lower compliance bound,
    ``f * C / C_lo``, by more than ``tolerance``, no pair within the bounds
    reaches it. Likewise the point at the conductance fitted to the peak
    sets the frequency at that peak: if the target falls below ``f * C /
    C_hi`` by more than ``tolerance``, it is out of reach. Either way
    CalibrationFailed is raised at once. Targets that are not finite and
    positive, a ``tolerance`` outside (0, 1) or a bad ``min_amplitude_kpa``
    raise ValueError before any evaluation.
    """
    if not (0.0 < target_frequency_hz < math.inf and 0.0 < target_peak_kpa < math.inf):
        raise ValueError("calibration targets must be finite and positive")
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tolerance!r}")
    _check_floor(min_amplitude_kpa)
    if probe is None:
        if not template.probes:
            raise ValueError("template has no probes")
        probe = template.probes[0]

    c_lo, c_hi = bounds.compliance
    g_lo, g_hi = bounds.open_conductance
    compliance = min(max(template_compliance(template), c_lo), c_hi)
    notes = (
        "peak fitted at the declared probe node; the bench measurement point "
        "is downstream of the pull-down resistance, not at the valve outlet",
        "valve reopening threshold (p_deflate) is a modeling assumption",
    )
    log: list[CalibrationEvaluation] = []

    def evaluate(c: float, g: float) -> CalibrationEvaluation | None:
        net = template.with_uniform_params(compliance=c, open_conductance=g)
        # with_uniform_params changes nothing validate checks: the first evaluation's check holds for all
        compiled = _Compiled(net if log else net.validate(), (probe,))
        cycle = _limit_cycle(compiled, compiled.initial_open, compiled.initial_volumes(None), math.inf)
        try:
            rep = _report(compiled, cycle, min_amplitude_kpa)
        except NoOscillationError:
            f = peak = None
        else:
            f, peak = rep.frequency_hz, rep.peaks_kpa[probe]
        log.append(CalibrationEvaluation(c, g, cycle.cycles, cycle.events, f, peak))
        return log[-1] if f is not None else None

    def record(ev: CalibrationEvaluation) -> CalibrationResult:
        return CalibrationResult(
            compliance=ev.compliance,
            open_conductance=ev.open_conductance,
            frequency_hz=ev.frequency_hz,
            peak_kpa=ev.peak_kpa,
            target_frequency_hz=target_frequency_hz,
            target_peak_kpa=target_peak_kpa,
            iterations=len(log),
            notes=notes,
            evaluations=tuple(log),
        )

    def fail(best: CalibrationResult | None, why: str = "") -> NoReturn:
        msg = "calibration could not reach the requested targets"
        if best is not None:
            ef, ep = best.relative_errors
            msg += (f": best fit {best.frequency_hz:.4g} Hz / {best.peak_kpa:.4g} kPa "
                    f"(relative errors {ef:.2%} / {ep:.2%})")
        raise CalibrationFailedError(msg + why, best=best, evaluations=tuple(log))

    # 1) bisect the conductance against the peak target
    lo, hi = g_lo, g_hi
    ev = evaluate(compliance, hi)
    if ev is None:
        fail(None)
    f_max = ev.frequency_hz * compliance / c_lo
    if target_frequency_hz > f_max * (1.0 + tolerance):
        fail(record(ev), f"; at most {f_max:.4g} Hz is reachable within the bounds")
    # a peak target at or above the upper bound's peak keeps that bound
    if ev.peak_kpa > target_peak_kpa:
        for _ in range(40):
            mid = math.sqrt(lo * hi)  # geometric: conductance spans decades
            ev_mid = evaluate(compliance, mid)
            if ev_mid is None or ev_mid.peak_kpa < target_peak_kpa:
                lo = mid
            else:
                hi, ev = mid, ev_mid
            if abs(ev.peak_kpa - target_peak_kpa) <= 0.25 * tolerance * target_peak_kpa:
                break
            if hi / lo < 1.0 + 1.0e-6:
                break
    f_min = ev.frequency_hz * compliance / c_hi
    if target_frequency_hz < f_min * (1.0 - tolerance):
        fail(record(ev), f"; at least {f_min:.4g} Hz at this peak within the bounds")

    # 2) the period scales with compliance: rescale and verify; while the
    # frequency misses, rescale again by the secant of log f on log C
    slope = -1.0  # of log f on log C: exact while no balloon is below rest
    for step in range(8):
        k = -1.0 / slope
        c = min(max(ev.compliance * ev.frequency_hz**k / target_frequency_hz**k, c_lo), c_hi)
        if step and c == ev.compliance:  # held at a compliance bound
            break
        prev, ev = ev, evaluate(c, ev.open_conductance)
        if ev is None:
            fail(None)
        result = record(ev)
        ef, ep = result.relative_errors
        if ef <= tolerance and ep <= tolerance:
            return result
        if ef <= tolerance or c == prev.compliance:
            break
        slope = math.log(ev.frequency_hz / prev.frequency_hz) / math.log(c / prev.compliance)
        if not slope < 0.0:
            break
    fail(result)


def template_compliance(net: PneumaticNetwork) -> float:
    """The compliance shared by the template's balloons (first one found)."""
    for v in net.valves:
        if v.balloon is not None:
            return v.balloon.compliance
    for b in net.balloons:
        return b.params.compliance
    raise ValueError("network has no balloons to calibrate")

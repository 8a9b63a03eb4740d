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
every fixed node and every balloon read ambient.

The continuous state of a circuit is the vector of balloon volumes; all
other node pressures are algebraic. Each regime (one set of valve states)
is factorized once and Kron-reduced onto the balloon nodes (``_Regime``),
and each stretch between valve transitions is solved in closed form
(``_Modes``), so a transient run has no step size and no tolerance, and
identical inputs give bit-identical traces. Over a segment each watched
node's kPa is one wave, a constant plus exponentials in time
(``_Segment.wave``): the valve margins, ``simulate``'s samples and a limit
cycle's extrema and crossings all read it. Read unsampled until its valve
events repeat (``_limit_cycle``), the same run gives an oscillator's limit
cycle; ``measure_oscillation`` reports it (``_report``), and calibration
takes its frequency and peak from that same report.

Each array is built once, on the object whose lifetime matches what it
depends on, and the event loop only reads it. ``_Compiled`` owns what
depends on the network alone: its index arrays, the region solve's block
layout and its tiled copies per stack size, the balloons' column slots
of a regime solve, the balloon modes' block layout per set of balloons
above rest (``_ModeBlocks``) and, where no valve can cut one off, the
free nodes that every regime solves.
``_Regime`` owns what depends on one valve-state assignment: its reduced
maps and the two terms of each valve's margin. ``_Modes`` owns what
depends on that and on the balloons' modes: the eigenbasis, the waves'
terms ``W`` and the valves' signed margin rows. A segment, a settling and
a cycle report compute only what depends on where they start.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
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
from .expsums import _distinct, _extremes, _first_rises, _one_zero, _values, _zeros
from .errors import (
    AstableCircuitError,
    CalibrationFailedError,
    NetworkError,
    NoOscillationError,
    SingularNetworkError,
    TooManyValvesError,
)

#: exhaustive valve-state enumeration is capped at 2**16 assignments
_MAX_ENUM_VALVES = 16

#: ``Trace.to_csv`` renders at most this many values (a row at least) per
#: block, so its sort and its strings stay small however long the trace
_CSV_BLOCK_VALUES = 1 << 12


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
        twice = sorted({p for p in self.probes or () if self.probes.count(p) > 1})
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
    solve raises SingularNetworkError. A 4-D stack ``(R, k, s, s)`` holds
    R networks, and each is checked as it would be alone."""
    try:
        x = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:  # the factor is exactly singular
        raise SingularNetworkError(f"flow-balance system is singular: {exc}") from exc
    each = G.shape[:-3] + (-1,)
    scale = np.abs(rhs).reshape(each).max(axis=-1, initial=1.0)
    if not np.isfinite(x).all() or (np.abs(G @ x - rhs).reshape(each).max(axis=-1) > 1.0e-6 * scale).any():
        raise SingularNetworkError("flow-balance system is numerically singular")
    return x


def _tile(idx: np.ndarray, copies: int, size: int) -> np.ndarray:
    """``idx`` in each of ``copies`` stacked ranges of ``size``, flat."""
    return idx if copies == 1 else (idx + size * np.arange(copies)[:, None]).ravel()


class _Tiled(NamedTuple):
    """A network's index arrays over a stack of its copies (``_tile``):
    branch ends and the fixed, balloon and unfixed nodes over its nodes;
    each node's row of the stacked right-hand sides over the unfixed
    nodes; and the entries of ``_Compiled._blocks`` over its flat blocks."""

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
    (``tiled``), the balloons' column slots of a regime solve (``slots``),
    the block layout of the balloon modes for each set of balloons above
    rest (``mode_blocks``) and the free nodes that no valve can cut off
    (``anchored_free``); and each valve-state assignment's ``_Regime``.
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
        pairs = np.array([(index[a], index[b]) for _n, a, b in branches], dtype=int).reshape(-1, 2)
        self.branch_a, self.branch_b = pairs[:, 0], pairs[:, 1]
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
        nodes = np.flatnonzero(region >= 0)
        _labels, inv, counts = np.unique(region[nodes], return_inverse=True, return_counts=True)
        size = counts[inv]
        order = np.lexsort((nodes, inv, size))  # by size, then region, then node
        nodes, inv, size = nodes[order], inv[order], size[order]
        stacked = np.arange(len(nodes))
        first = np.r_[True, inv[1:] != inv[:-1]]
        place = stacked - np.maximum.accumulate(np.where(first, stacked, 0))
        sizes, row0, nrows = np.unique(size, return_index=True, return_counts=True)
        entry0 = np.cumsum(nrows * sizes) - nrows * sizes
        stacks = list(zip(sizes.tolist(), (nrows // sizes).tolist(), row0.tolist(), entry0.tolist()))
        # entry (i, j) of a block: its first entry + place_i * s + place_j
        base = np.repeat(entry0, nrows) + (stacked - np.repeat(row0, nrows) - place) * size
        row, start, width, at = (np.full(self.n, -1) for _ in range(4))
        row[nodes], start[nodes], width[nodes], at[nodes] = stacked, base, size, place
        a, b = self.branch_a, self.branch_b
        inner = (row[a] >= 0) & (row[b] >= 0)
        ab = np.where(inner, start[a] + at[a] * width[a] + at[b], -1)
        ba = np.where(inner, start[b] + at[b] * width[b] + at[a], -1)
        diag = np.where(row >= 0, start + at * width + at, -1)
        return row, diag[a], diag[b], ab, ba, nodes, diag[nodes], stacks, int((nrows * sizes).sum())

    def tiled(self, copies: int) -> _Tiled:
        """The index arrays of a stack of ``copies`` rows, tiled at the
        first stacked call of that many rows and kept for the next."""
        t = self._tiled.get(copies)
        if t is None:
            row, da, db, ab, ba, nodes, dn, _stacks, size = self._blocks
            n, m = self.n, len(nodes)
            spans = ((self.branch_a, n), (self.branch_b, n), (self.fixed_idx, n), (self.cap_idx, n),
                     (nodes, n), (row, m), (da, size), (db, size), (ab, size), (ba, size), (dn, size))
            t = self._tiled[copies] = _Tiled(*(_tile(idx, copies, span) for idx, span in spans))
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
    def walk(self) -> "_Walk | None":
        """The DC search's region-ordered warm start, built at the first
        search; None when the region graph has a cycle."""
        return _Walk.build(self)

    # -- transient regime (balloon nodes pinned by their volumes) -------------

    @cached_property
    def anchored_free(self) -> np.ndarray | None:
        """The free nodes, where each reaches a fixed node or a balloon over
        the constant-conductance branches alone, and so does in every
        regime; else None, and each regime finds its own."""
        static = np.flatnonzero(self.g_static > 0.0)
        labels = node_components(self.n, self.branch_a[static], self.branch_b[static])
        anchored = np.zeros(self.n, dtype=bool)
        anchored[labels[np.r_[self.fixed_idx, self.cap_idx]]] = True
        return self.free_idx if anchored[labels[self.free_idx]].all() else None

    @cached_property
    def slots(self):
        """The balloon columns of a regime solve: regions do not couple, so
        the j-th balloon of every region takes column ``1 + j``. Each
        balloon's slot, the slot count ``width``, and the column maps of
        ``A``'s rows (``watch``) and ``K``'s (balloons): the balloon in each
        slot of the row's region, or -1, a pad."""
        region = self.region[self.cap_idx]
        slot = np.tril(region[:, None] == region, -1).sum(axis=1)  # earlier balloons of its region
        width = int(slot.max(initial=-1)) + 1
        by_region = np.full((self.n + 1, width), -1)  # the last row, for fixed nodes, all pads
        by_region[region, slot] = np.arange(len(region))
        return slot, width, by_region[self.region[self.watch]], by_region[region]

    @cached_property
    def mode_blocks(self) -> "_ModeBlocks":
        return _ModeBlocks(self.region[self.cap_idx], self.slots[0], self.compliance)

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
#: block layout a network keeps
_MAX_MODES = 64


class _ModeBlocks:
    """The block layout of a network's balloon modes (``_Modes``), one per
    set of balloons above rest, built at its first use: it depends on the
    network alone, so every regime of one ``_Compiled`` shares it. The
    balloons above rest form blocks by region; per block size ``s``, their
    indices ``(k, s)``, as rows ``(k, s, 1)`` and as slots of their
    region ``(k, 1, s)``, their ``sqrt(C)`` by row and the scale ``2
    sqrt(C_i C_j)`` of each block's symmetrized entries."""

    def __init__(self, region: np.ndarray, slot: np.ndarray, compliance: np.ndarray):
        self.region, self.slot, self.compliance = region, slot, compliance
        self._layouts: dict[bytes, list] = {}

    def __call__(self, above: np.ndarray) -> list:
        key = above.tobytes()
        layout = self._layouts.get(key)
        if layout is None:
            bal = np.flatnonzero(above)
            _labels, inv, counts = np.unique(self.region[bal], return_inverse=True, return_counts=True)
            order = np.lexsort((bal, inv, counts[inv]))  # by block size, then block
            bal, size = bal[order], counts[inv][order]
            layout = []
            for s in np.unique(size).tolist():
                idx = bal[size == s].reshape(-1, s)
                rows = idx[:, :, None]
                h = np.sqrt(self.compliance[rows])
                layout.append((idx, rows, self.slot[idx][:, None, :], h, 2.0 * h * h.transpose(0, 2, 1)))
            if len(self._layouts) < _MAX_MODES:
                self._layouts[key] = layout
        return layout


def _gather(B: np.ndarray, col: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``B @ v`` for a slot-compact ``B`` with the column map ``col``."""
    return np.vecdot(B, v[col])


class _Regime:
    """The linear network of one valve-state assignment, reduced once.

    With the balloon pressures given, every node pressure is affine in
    them: ``p = A @ cap_pa + a0``. Only the rows of the compiled network's
    ``watch`` nodes are kept, control nodes first and probes after, so a
    run reads the margins and the samples as two row slices of one map.
    Kron reduction onto the balloon nodes gives their net inflows as
    ``K @ cap_pa + k0``; ``K`` is symmetric and block-diagonal by region.
    The free nodes go through the same region solve as the DC solve, once,
    with one column for the fixed-node drive and one per balloon slot
    (``_Compiled.slots``): the j-th balloons of all regions share a
    column, and every entry of ``A`` and ``K`` across two regions is 0.

    So ``A`` (watch × width) and ``K`` (balloons × width) are kept as the
    solve gives them (the ELLPACK layout), with the column maps ``acol`` and
    ``kcol``; a pad's entry is 0, and ``A @ v`` is a gather (``_gather``).

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
        self.mode_blocks = compiled.mode_blocks
        self.sign = np.where(is_open, 1.0, -1.0)
        self.offset = np.where(is_open, -compiled.p_inflate, compiled.p_deflate)
        self._modes: dict[bytes, _Modes] = {}
        g = compiled.conductances(is_open)
        f = compiled.anchored_free
        if f is None:
            # nodes sealed off in this regime carry no flow; they read ambient
            labels, _fixed, anchored = compiled.components(g)
            f = compiled.free_idx[anchored[labels[compiled.free_idx]]]
        # columns: the fixed-node drive, then one per balloon slot (a pad's is 0)
        slot, width, self.acol, self.kcol = compiled.slots
        P = np.zeros((compiled.n, 1 + width))
        P[compiled.fixed_idx, 0] = compiled.fixed_pa
        P[compiled.cap_idx, 1 + slot] = 1.0
        compiled.solve(g, f, P)
        Q = compiled.inflow(g, P)[compiled.cap_idx]
        P = P[compiled.watch]
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
    C^-½ x`` relax apart, ``z' = λ z + f``; the blocks of each size are
    decomposed by one stacked ``eigh``, and mode ``j`` of a block sits at
    the index of its ``j``-th balloon. A balloon below rest integrates its
    inflow, affine in ``z``; an empty one holds. So a segment from ``x0``
    is ``x(τ) = xc + τ w + V (d ∘ e^(λτ))``. ``K`` is negative
    semidefinite: an eigenvalue within roundoff of 0 is 0, and its mode,
    on balloons sealed off from every fixed node and so undriven, holds.
    ``W`` maps the modes to every ``watch`` node's kPa, the terms of its
    wave (``_Segment.wave``).

    Everything that depends on the regime and the modes alone is built
    here once and read by every segment that starts in them. A mode
    couples only the balloons of its region, so each is slot-compact:
    ``T``, ``Tt`` (``Tᵀ``) and ``V`` by ``kcol``, and ``W`` and the
    valves' signed margin rows ``M`` (``W``'s control rows times the
    regime's ``sign``) by ``acol``; ``lam_k`` and ``lam_a`` hold the rates
    of their entries.
    """

    def __init__(self, reg: _Regime, mode: np.ndarray):
        nc, kcol, acol = len(mode), reg.kcol, reg.acol
        self.mode, above, self.below = mode, mode == _ABOVE, mode == _BELOW
        self.kcol, self.acol = kcol, acol
        self.D = above / reg.compliance
        lam, T, Tt = np.zeros(nc), np.zeros(reg.K.shape), np.zeros(reg.K.shape)
        for idx, rows, slots, h, hh in reg.mode_blocks(above):
            Kb = reg.K[rows, slots]
            lb, U = np.linalg.eigh((Kb + Kb.transpose(0, 2, 1)) / hh)
            lb[lb > -64.0 * _EPS * np.abs(lb).max(axis=1, keepdims=True)] = 0.0
            hU = h * U
            lam[idx], T[rows, slots] = lb, hU
            Tt[idx[:, None, :], slots.transpose(0, 2, 1)] = hU
        # x = T z above rest, z = Tᵀ D x, and the watched kPa per mode A D T / KPA
        self.lam, self.T, self.Tt, self.moving, self.V = lam, T, Tt, lam != 0.0, T
        self.lam_k, self.lam_a = lam[kcol], lam[acol]
        AD = reg.A * self.D[acol] / KPA
        self.W = np.matmul(AD[:, None, :], T[acol])[:, 0]
        self.no_w = np.zeros(nc)  # w with no balloon below rest, read only
        self.zstar = np.divide(-_gather(Tt, kcol, self.D * reg.k0), lam, out=np.zeros(nc), where=self.moving)
        self.M = reg.sign[:, None] * self.W[: len(reg.sign)]
        self.any_below = bool(self.below.any())
        if self.any_below:
            # below rest, x' = R z + k0, integrated term by term
            self.kb = kb = kcol[self.below]
            self.R = np.matmul((reg.K[self.below] * self.D[kb])[:, None, :], T[kb])[:, 0]
            self.k0 = reg.k0[self.below]
            self.V = T.copy()
            self.V[self.below] = np.divide(self.R, lam[kb], out=np.zeros_like(self.R), where=self.moving[kb])

    def segment(self, x0: np.ndarray):
        """``(xc, w, d)`` of the segment that starts from ``x0``."""
        z0 = _gather(self.Tt, self.kcol, self.D * x0)
        d = np.where(self.moving, z0 - self.zstar, 0.0)
        w = self.no_w
        if self.any_below:
            w = np.zeros_like(x0)
            w[self.below] = _gather(self.R, self.kb, np.where(self.moving, self.zstar, z0)) + self.k0
        return x0 - _gather(self.V, self.kcol, d), w, d

    def x(self, xc, w, d, tau: float) -> np.ndarray:
        """``x`` at the time ``tau`` into the segment."""
        return xc + tau * w + _gather(self.V, self.kcol, d * np.exp(tau * self.lam))

    def exits(self, reg: _Regime):
        """Each way out of a balloon's mode, as a row ``f = alpha + beta·x``
        that rises through 0 there, its balloon and the mode it goes to:
        above rest to below; below rest to above or to empty; and empty, once
        its inflow turns positive, to below rest; ``beta`` by ``kcol``."""
        above, below, empty = (np.flatnonzero(self.mode == m) for m in (_ABOVE, _BELOW, _EMPTY))
        who = np.concatenate([above, below, below, empty])
        eye = (np.arange(reg.K.shape[1]) == reg.mode_blocks.slot[who[: len(who) - len(empty)], None])
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
    the regions are walked in dependency order: each valve of a region is
    stepped once by ``_Compiled.margin``, from its given state, on its
    settled control pressure, and the region then reads its control nodes
    from the layer its own valves select. A level of that order, regions
    that depend only on earlier levels, is one step for a stack of rows.

    Layer ``a`` opens every region's j-th valve iff bit j of ``a`` is set.
    One ``_Compiled.dc_map`` gives its node pressures in
    every region at once, as an affine map of the fixed pressures: a
    constant column, then one column per fixed node. A layer is filled
    when a walk first needs it and serves every later walk of the same
    compiled network, whatever its fixed pressures.
    """

    def __init__(self, compiled: _Compiled, region: np.ndarray, home: np.ndarray, levels):
        # per level: its valves, their control nodes and bits, and its control
        # nodes, the span of their region's valves and their rows of a layer
        # map; last, the valves joining two fixed nodes (they move no pressure)
        self.read = np.unique(compiled.control[region[compiled.control] >= 0])
        valves = {r: [] for level in levels for r in level}
        self.local = []  # each valve's index j in its region
        for v, r in enumerate(home.tolist()):
            self.local.append(len(valves[r]))
            valves[r].append(v)
        rows = {r: [] for r in valves}
        for k, node in enumerate(self.read.tolist()):
            rows[int(region[node])].append(k)
        # each valve's bit in a layer number; past 63 bits, a Python int
        weight = np.array([1 << j for j in self.local], object if max(self.local, default=0) > 62 else int)
        self.levels = []
        for level in levels:
            vs, ks, lo, hi = [], [], [], []
            for r in level:
                ks, lo, vs = ks + rows[r], lo + [len(vs)] * len(rows[r]), vs + valves[r]
                hi += [len(vs)] * len(rows[r])
            vs, ks = np.array(vs, dtype=int), np.array(ks, dtype=int)
            self.levels.append((vs, compiled.control[vs], weight[vs], lo, hi, self.read[ks], ks))
        self.layers: dict[int, np.ndarray] = {}  # the filled layer maps, by layer

    @classmethod
    def build(cls, compiled: _Compiled) -> "_Walk | None":
        """The walk over ``compiled``'s regions, or None when a region
        depends on itself, directly or through other regions."""
        c = compiled
        region = c.region
        nb = len(c.g_static)
        # a valve branch between two fixed nodes lies in no region (-1)
        home = np.maximum(region[c.branch_a[nb:]], region[c.branch_b[nb:]])
        sorter = TopologicalSorter()
        for r, rc in zip(home.tolist(), region[c.control].tolist()):
            if rc >= 0:
                sorter.add(rc)
            if r >= 0:
                sorter.add(r, *([rc] if rc >= 0 else []))
        try:
            sorter.prepare()
        except CycleError:
            return None
        levels = []
        while sorter.is_active():
            levels.append(list(sorter.get_ready()))
            sorter.done(*levels[-1])
        return cls(c, region, home, levels + [[-1]])

    def fill(self, compiled: _Compiled, a: int) -> np.ndarray:
        """Layer ``a``'s map, solved the first time it is asked for; a
        singular layer raises SingularNetworkError."""
        if a not in self.layers:
            g = compiled.conductances(np.array([(a >> j) & 1 for j in self.local], dtype=bool))
            nf = len(compiled.fixed_idx)
            self.layers[a] = compiled.dc_map(g, np.eye(nf, 1 + nf, 1))[self.read]
        return self.layers[a]

    def start(self, compiled: _Compiled, is_open: np.ndarray, fixed_pa: np.ndarray) -> np.ndarray:
        """The open-state arrays after stepping each valve once, in region
        order, from each row of ``is_open`` at the fixed pressures of the
        same row of ``fixed_pa``."""
        drive = np.hstack([np.ones((len(fixed_pa), 1)), fixed_pa])
        p = np.zeros((len(fixed_pa), compiled.n))
        p[:, compiled.fixed_idx] = fixed_pa
        is_open = is_open.copy()
        for valves, ctrl, weight, lo, hi, nodes, k in self.levels:
            is_open[:, valves] ^= compiled.margin(is_open[:, valves], p[:, ctrl] / KPA, valves) >= 0.0
            # each control node's layer, the bits of its region's valves, and
            # its value there, by a sum whose order no stack size changes
            bits = np.zeros((len(p), len(valves) + 1), dtype=weight.dtype)
            np.cumsum(is_open[:, valves] * weight, axis=1, out=bits[:, 1:])
            layers, at = np.unique(bits[:, hi] - bits[:, lo], return_inverse=True)
            maps = [self.fill(compiled, a)[k] for a in layers.tolist()]
            maps = np.reshape(maps, (len(maps), len(k), drive.shape[1]))
            p[:, nodes] = (maps[at.reshape(len(p), -1), np.arange(len(k))] * drive[:, None]).sum(-1)
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
    return next(_dc_search(compiled, compiled.initial_states(initial_states)[None], compiled.fixed_pa[None]))


#: rows that ``_dc_rows`` searches together: a table's memory stays bounded
_DC_CHUNK = 256


def _dc_rows(
    net: PneumaticNetwork, pins: tuple[str, ...], rows: Iterable[Sequence[float]]
) -> Iterator[SteadyState]:
    """``dc_operating_point(net.with_pins(...))`` for each row of pressures
    (kPa) of ``rows`` on the nodes ``pins`` in turn. The pinned network is
    validated and compiled once; a row gets the checks of ``with_pins``
    and ``fixed_pressures``, with their errors, and changes only the fixed
    pressures. Up to ``_DC_CHUNK`` rows are searched together, by one
    ``_dc_search``, and an error in any of them raises before they are
    yielded."""
    rows = iter(rows)
    compiled = None
    while chunk := [dict(zip(pins, values)) for values in islice(rows, _DC_CHUNK)]:
        if compiled is None:
            pinned, unpinned = net.with_pins(chunk[0]), net.fixed_pressures()
            fixed, compiled = pinned.fixed_pressures(), _Compiled(pinned.validate())
        fixed_pa = np.tile(compiled.fixed_pa, (len(chunk), 1))
        for r, pin in enumerate(chunk):
            # every pin's vacuum check first, then its clash with a fixed node
            clash = [n for n, p in pin.items() if check_pressure(p, f"pin {n}") != unpinned.get(n, p)]
            if clash:
                raise NetworkError(f"node {clash[0]} pinned to conflicting pressures")
            fixed_pa[r, : len(fixed)] = [p * KPA for p in {**fixed, **pin}.values()]
        yield from _dc_search(compiled, np.tile(compiled.initial_open, (len(chunk), 1)), fixed_pa)


#: a valve's state by its open bit
_STATES = np.array([ValveState.CLOSED, ValveState.OPEN], dtype=object)


def _dc_search(
    compiled: _Compiled, is_open: np.ndarray, fixed_pa: np.ndarray
) -> Iterator[SteadyState]:
    """``dc_operating_point``'s search for a stack of rows, one result per
    row: from the open-state arrays ``is_open`` at the fixed pressures
    ``fixed_pa``, one row of each per row. The walk steps every row at
    once, and each round of the iteration is one stacked ``dc_map`` of the
    rows that still switch, each with its own seen keys; a row whose
    iteration cycles is enumerated on its own. So each row's result is
    bit-identical to its search alone. An error raises before any result.

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
    flips: list[tuple[int, bool]]
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
        margin is >= 0 at ``volumes``, until none is. Returns the valve
        states, their regime, the margins, the watched nodes' kPa at
        ``volumes``, the transitions logged and the warning, in a list, of
        a relaxation that gave up.

        Balloon controls cannot react to flips; free-node controls get a
        bounded relaxation. When that gives up, the warning names the valves
        still changing, and they are left past their thresholds: a valve
        flips only where its margin rises from below 0.
        """
        flips, notes = [], []
        limit = 4 * max(1, len(is_open))
        for relaxation in range(limit + 1):
            is_open = is_open.copy()
            is_open[switch] ^= True
            flips.extend(zip(switch.tolist(), is_open[switch].tolist()))
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
        return is_open, reg, m, kpa, flips, notes

    t = 0.0
    is_open, reg, m0, kpa, flips, notes = settle(t, is_open, volumes, np.zeros(0, dtype=int))
    mode = reg.modes_at(volumes) if vacuum else np.full(len(v_rest), _ABOVE)
    while True:
        modes = reg.modes(mode)
        xc, w, d = modes.segment(volumes - v_rest)
        c = (reg.a0 + _gather(reg.A, reg.acol, modes.D * xc)) / KPA  # the watched nodes' kPa at xc
        # the valve margins, each a constant plus exponentials
        b = modes.M * d[reg.acol[ctrl_rows]]
        t_valve = _first_rises(reg.margin(c[ctrl_rows]), b, modes.lam_a[ctrl_rows], math.inf, m0)
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
            switch = np.flatnonzero(t_valve <= t_flip + _EVENT_TOL)
            is_open, reg, m0, kpa, flips, notes = settle(t, is_open, volumes, switch)
            if vacuum:
                mode = reg.modes_at(volumes)
        else:
            # the balloons leaving their mode start it from its edge
            hit = t_exit == t_mode
            k, to = who[hit], goes[hit]
            volumes[k] = np.where((to == _ABOVE) | (mode[k] == _ABOVE), v_rest[k], 0.0)
            mode[k] = to
            m0 = reg.margin(reg.pressures(volumes)[ctrl_rows] / KPA)
            flips, notes, kpa = [], [], None


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
    run stops.
    """
    segments: list[_Segment] = []
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
            keys.append(tuple(seg.flips))
            times.append(seg.t)
            starts.append(len(segments) - 1)
            earlier = seen.setdefault(keys[-1], [])
            p, converged = _last_cycle(keys, times, earlier)
            cycles = len(earlier)
            earlier.append(len(keys) - 1)
            if p:
                full = len(keys) - 1, p
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
    return _Cycle(segments[starts[n - p] : starts[n]], float(times[n] - times[n - p]), cycles,
                  events, cap, warnings)


class _Waves(NamedTuple):
    """The kPa of one watched node over each segment of a cycle, summed by
    rate (``_distinct``): ``c`` per segment, and ``(b, l)``, its one
    exponential ``b e^(l τ)``, or 0.0 and 0.0 where it has none. Where it
    has more, ``many`` maps the segment to its ``(b, lam)``."""

    c: np.ndarray
    b: np.ndarray
    l: np.ndarray
    many: dict[int, tuple[np.ndarray, np.ndarray]]


def _waves(segments: list[_Segment], row: int) -> _Waves:
    """The watched node ``row``'s ``_Waves`` over ``segments``, from
    each segment's ``wave``: a grouping by rate only where a segment has
    two terms or more."""
    c, terms, lams = (np.array(v) for v in zip(*(seg.wave(row) for seg in segments)))
    nonzero = terms != 0.0
    count, first = np.add.reduce(nonzero, axis=1), nonzero.argmax(axis=1)
    one = count == 1
    at = np.arange(len(segments)), first
    b = np.where(one, terms[at], 0.0)
    l = np.where(one, lams[at], 0.0)
    many = {k: _distinct(terms[k], lams[k]) for k in np.flatnonzero(count > 1).tolist()}
    return _Waves(c, b, l, many)


def _span(segments: list[_Segment], waves: _Waves) -> tuple[float, float]:
    """The least and the greatest kPa of ``waves`` over ``segments``, in
    closed form: one exponential or none at its ends, more by
    ``_extremes``. Those ends are the values ``_extremes`` would give,
    ``c + b`` at 0 (``e^(l 0)`` is 1) and ``c + e^(l tau) b``."""
    tau = np.array([seg.tau for seg in segments])
    start, end = (waves.c + waves.b).tolist(), (waves.c + np.exp(tau * waves.l) * waves.b).tolist()
    lo, hi = math.inf, -math.inf
    for k, (v0, v1) in enumerate(zip(start, end)):
        if k in waves.many:
            seg_lo, seg_hi = _extremes(waves.c[k], *waves.many[k], segments[k].tau)
        else:
            seg_lo, seg_hi = min(v0, v1), max(v0, v1)
        lo, hi = min(lo, seg_lo), max(hi, seg_hi)
    return lo, hi


def _pieces(segments: list[_Segment], waves: _Waves, level: float):
    """``segments`` cut where ``waves`` cross ``level`` (``_zeros``), as
    arrays over the pieces, in order: each piece's start time, its length,
    and the node's kPa less ``level`` at its middle. Empty pieces are left
    out. One exponential or none crosses once at most (``_one_zero``),
    and the middles of all such pieces are read by one product."""
    t, length, middle, at, general = [], [], [], [], {}
    cs = waves.c - level
    for k, (seg, c, b, l) in enumerate(zip(segments, cs.tolist(), waves.b.tolist(), waves.l.tolist())):
        if k in waves.many:
            cuts = [0.0, *_zeros(cs[k], 0.0, *waves.many[k], seg.tau), seg.tau]
        else:
            cuts = [0.0, *_one_zero(c, b, l, seg.tau), seg.tau]
        middles = [0.5 * (lo + hi) for lo, hi in zip(cuts, cuts[1:])]
        if k in waves.many:
            general[len(t)] = _values(cs[k], *waves.many[k], np.array(middles))
        t += [seg.t + lo for lo in cuts[:-1]]
        length += [hi - lo for lo, hi in zip(cuts, cuts[1:])]
        middle += middles
        at += [k] * len(middles)
    at = np.array(at)
    v = cs[at] + np.exp(np.array(middle) * waves.l[at]) * waves.b[at]
    for i, vk in general.items():
        v[i : i + len(vk)] = vk
    t, length = np.array(t), np.array(length)
    keep = length > 0.0
    return t[keep], length[keep], v[keep]


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


def _rising_crossings(t: np.ndarray, y: np.ndarray, level: float) -> np.ndarray:
    idx = np.nonzero((y[:-1] < level) & (y[1:] >= level))[0]
    frac = (level - y[idx]) / (y[idx + 1] - y[idx])
    return t[idx] + frac * (t[idx + 1] - t[idx])


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
    ref = y[r]
    _check_swing(float(hi[r] - lo[r]), min_amplitude_kpa)
    crossings = _rising_crossings(t, ref, mid[r])
    if len(crossings) < 3:
        raise NoOscillationError(
            f"only {len(crossings)} midline crossings; need at least 3"
        )
    period = float(np.mean(np.diff(crossings)))
    frequency = 1.0 / period

    # duty: fraction of time the reference spends above its midline
    above = ref > mid[r]
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
    phases = {
        name: 0.0 if name == probe else _phase_deg(crossings, _rising_crossings(t, y[k], mid[k]), period)
        for name, k in zip(trace.probes, rows)
    }
    return OscillationReport(
        probe=probe,
        frequency_hz=frequency,
        duty=duty,
        peaks_kpa=dict(zip(trace.probes, peaks.tolist())),
        troughs_kpa=dict(zip(trace.probes, troughs.tolist())),
        phase_deg=phases,
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
    NoOscillation as ``measure_oscillation`` describes."""
    warnings = tuple(cycle.warnings)
    if not cycle.segments:
        if cycle.cap is None:
            raise NoOscillationError("the circuit comes to rest: no valve switches again", warnings)
        raise NoOscillationError(f"no full cycle of valve events within {cycle.cap}", warnings)
    if cycle.cap is not None:
        warnings += (f"the run stopped at {cycle.cap} before its last two cycles matched; "
                     f"its last full cycle is reported",)

    period, nv = cycle.period, len(compiled.control)
    peaks, troughs, phases, rising = {}, {}, {}, {}
    for row, name in enumerate(compiled.probes, nv):
        waves = _waves(cycle.segments, row)
        troughs[name], peaks[name] = lo, hi = _span(cycle.segments, waves)
        t, length, v = _pieces(cycle.segments, waves, 0.5 * (lo + hi))
        rising[name] = t[(v >= 0.0) & (np.roll(v, 1) < 0.0)]  # the cycle wraps around
        if row == nv:  # the reference
            _check_swing(hi - lo, min_amplitude_kpa, warnings)
            duty = float(length[v > 0.0].sum() / length.sum())
    probe, ref = compiled.probes[0], rising[compiled.probes[0]]
    ref = np.r_[ref[-1:] - period, ref]  # the cycle wraps around
    for name, own in rising.items():
        phases[name] = 0.0 if name == probe else _phase_deg(ref, own, period)
    return OscillationReport(
        probe=probe,
        frequency_hz=1.0 / period,
        duty=duty,
        peaks_kpa=peaks,
        troughs_kpa=troughs,
        phase_deg=phases,
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
        compiled = _Compiled(net.validate(), (probe,))
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

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
through it, on the boolean open-state array, which is the only form of
valve state inside this module; ``ValveState`` appears only in the inputs
and the results.

The DC search steps all valves at once on the pressures of one solve per
assignment, starting where a walk over the network's regions (the parts
that fixed nodes cut it into) leaves it: on a feed-forward circuit the
first solve only confirms the walk. Components over the conducting
branches decide which nodes a solve must leave out: balloons cut off from
every fixed node keep their charge, and nodes sealed off from every fixed
node and every balloon read ambient.

The continuous state of a circuit is the vector of balloon volumes; all
other node pressures are algebraic. Each regime (one set of valve states)
is factorized once and Kron-reduced onto the balloon nodes (``_Regime``),
and each stretch between valve transitions is solved in closed form
(``_Modes``), so a transient run has no step size and no tolerance, and
identical inputs give bit-identical traces.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import product

import numpy as np

from .elements import (
    KPA,
    PneumaticNetwork,
    ValveState,
    node_components,
)
from .errors import (
    AstableCircuitError,
    CalibrationFailedError,
    NoOscillationError,
    SingularNetworkError,
    TooManyValvesError,
)

#: exhaustive valve-state enumeration is capped at 2**16 assignments
_MAX_ENUM_VALVES = 16


# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Transient run settings, in seconds. The run is solved in closed
    form, so no setting trades accuracy for time."""

    t_end: float
    # valves rising within this of a flip flip with it; the post-event
    # sample sits this far after the event
    event_tol: float = 1.0e-6
    sample_interval: float = 1.0e-3
    probes: tuple[str, ...] | None = None
    initial_valve_states: dict[str, ValveState] | None = None
    initial_pressures_kpa: dict[str, float] | None = None

    def __post_init__(self):
        for name in ("t_end", "event_tol", "sample_interval"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"SimConfig.{name} must be positive and finite")


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
        """Render the samples as CSV with LF line endings."""
        lines = ["time_s," + ",".join(f"{p}_kPa" for p in self.probes)]
        for t, row in zip(self.times.tolist(), self.pressures_kpa):  # + 0.0: -0.0 reads 0.0
            lines.append(",".join(map(repr, [t + 0.0] + (row + 0.0).tolist())))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SteadyState:
    valve_states: dict[str, ValveState]
    node_pressures_kpa: dict[str, float]
    #: every self-consistent assignment found when enumeration ran
    fixed_points: tuple[dict[str, ValveState], ...] = ()


@dataclass(frozen=True)
class OscillationReport:
    probe: str
    frequency_hz: float
    duty: float
    peaks_kpa: dict[str, float]
    troughs_kpa: dict[str, float]
    phase_deg: dict[str, float]
    cycles: int


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

    @property
    def relative_errors(self) -> tuple[float, float]:
        return (
            abs(self.frequency_hz - self.target_frequency_hz) / self.target_frequency_hz,
            abs(self.peak_kpa - self.target_peak_kpa) / self.target_peak_kpa,
        )


# ---------------------------------------------------------------------------
# compiled form of a network
# ---------------------------------------------------------------------------


def _state(is_open: bool) -> ValveState:
    return ValveState.OPEN if is_open else ValveState.CLOSED


def _balloon_pa(volumes: np.ndarray, rest_volume, compliance) -> np.ndarray:
    """Balloon pressures in Pa, elementwise: the balloon law of
    ``balloon_pressure``, which these equal bit for bit once divided by
    ``KPA``. Volumes below empty read as an empty balloon, which holds no
    pressure."""
    return np.maximum(volumes - rest_volume, 0.0) / compliance


def _solve(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the flow balance ``G x = rhs`` by dense LU: one system, or a
    stack of them, each with one or more columns; a singular or inaccurate
    solve raises SingularNetworkError."""
    try:
        x = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:  # the factor is exactly singular
        raise SingularNetworkError(f"flow-balance system is singular: {exc}") from exc
    scale = max(1.0, np.abs(rhs).max())
    if not np.isfinite(x).all() or np.abs(G @ x - rhs).max() > 1.0e-6 * scale:
        raise SingularNetworkError("flow-balance system is numerically singular")
    return x


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

    # -- assembly ------------------------------------------------------------

    def conductances(self, is_open: np.ndarray) -> np.ndarray:
        """Branch conductances for a boolean valve open-state array."""
        return np.concatenate([self.g_static, np.where(is_open, self.g_open, self.g_leak)])

    def margin(self, is_open, ctrl_kpa, valves=slice(None)):
        """The hysteresis rule, for the valves ``valves`` in the states
        ``is_open`` at control pressures ``ctrl_kpa``: how far each control
        is past the threshold of its pending transition, ``ctrl - p_inflate``
        for an open valve and ``p_deflate - ctrl`` for a closed one. A valve
        switches where this is >= 0; a NaN control never switches.

        Elementwise over arrays. For one valve (``valves`` an int) it takes
        and gives scalars: the DC walk asks it valve by valve, and a numpy
        call there would cost more than the rest of the step.
        """
        if isinstance(valves, int):
            if is_open:
                return ctrl_kpa - self.p_inflate[valves]
            return self.p_deflate[valves] - ctrl_kpa
        return np.where(
            is_open, ctrl_kpa - self.p_inflate[valves], self.p_deflate[valves] - ctrl_kpa
        )

    def components(self, g: np.ndarray):
        """Component labels over the conducting branches, and per label
        whether it holds a fixed node and whether it holds a fixed node or
        a balloon."""
        on = g > 0.0
        labels = node_components(self.n, self.branch_a[on], self.branch_b[on])
        fixed = np.zeros(self.n, dtype=bool)
        fixed[labels[self.fixed_idx]] = True
        anchored = fixed.copy()
        anchored[labels[self.cap_idx]] = True
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
        the blocks' entries; no block is padded. Per node (-1 at the fixed
        nodes): its row in the stacked right-hand sides and its diagonal
        entry; per branch joining two unfixed nodes, its two off-diagonal
        entries; per stack, ``(s, k, first row, first entry)``."""
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
        return row, diag, ab, ba, nodes, stacks

    def solve(self, g: np.ndarray, rows: np.ndarray, P: np.ndarray) -> None:
        """Fill ``P[rows]`` from the flow balance of those nodes, every other
        row of ``P`` given and ``P[rows]`` zero on entry, for all of ``P``'s
        columns at once. ``G = L[rows][:, rows]`` is block-diagonal by
        region: each region's block is assembled with the other nodes of
        the region on a unit diagonal, and the blocks of each region size
        are factored by one stacked dense LU."""
        if not len(rows):
            return
        row, diag, ab, ba, nodes, stacks = self._blocks
        unknown = np.zeros(self.n, dtype=bool)
        unknown[rows] = True
        on = g > 0.0
        ta, tb = on & unknown[self.branch_a], on & unknown[self.branch_b]
        both = ta & tb
        known = nodes[~unknown[nodes]]
        entries = np.bincount(
            np.concatenate([diag[self.branch_a[ta]], diag[self.branch_b[tb]], ab[both], ba[both],
                            diag[known]]),
            np.concatenate([g[ta], g[tb], -g[both], -g[both], np.ones(len(known))]),
            minlength=sum(k * s * s for s, k, _r, _e in stacks),
        )
        P2 = P.reshape(self.n, -1)  # a view with an explicit column axis
        cols = P2.shape[1]
        rhs = np.zeros((len(nodes), cols))
        rhs[row[rows]] = self.inflow(g, P2)[rows]
        x = np.empty_like(rhs)
        for s, k, r, e in stacks:
            G = entries[e : e + k * s * s].reshape(k, s, s)
            x[r : r + k * s] = _solve(G, rhs[r : r + k * s].reshape(k, s, cols)).reshape(-1, cols)
        P2[rows] = x[row[rows]]

    def inflow(self, g: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Net inflow ``-L(s) P = -Bᵀ diag(g) B P`` at every node, for node
        values ``P`` with one row per node and one or more columns."""
        gk = g.reshape((-1,) + (1,) * (P.ndim - 1))
        flow = gk * (P[self.branch_a] - P[self.branch_b])  # from a to b
        out = np.zeros_like(P)
        np.add.at(out, self.branch_b, flow)
        np.subtract.at(out, self.branch_a, flow)
        return out

    # -- DC solve (balloons act as open circuits) ------------------------------

    def dc_map(self, g: np.ndarray, drive: np.ndarray) -> np.ndarray:
        """Node values (Pa) under the DC flow balance of the branch
        conductances ``g``: ``drive`` gives the fixed nodes' rows, with one or
        more columns; pinned balloons add their pressures to the first
        column, and ``solve`` fills in the rest.

        Balloons in components that reach a fixed node equilibrate (zero
        flow, so they are plain unknowns); balloons cut off from every
        fixed node keep their charge and pin their component, at the
        compliance-weighted mean of its initial charges (the limit it
        relaxes to with no external exchange). Nodes sealed off from every
        fixed node and every balloon hold trapped air with no state and no
        flow, and read ambient (0) rather than making the solve singular.
        """
        labels, fixed, anchored = self.components(g)
        known = ~anchored[labels]  # dead nodes
        known[self.fixed_idx] = True
        P = np.zeros((self.n,) + drive.shape[1:])
        P[self.fixed_idx] = drive
        cap_labels = labels[self.cap_idx]
        pinned = ~fixed[cap_labels]
        if pinned.any():
            lab, c = cap_labels[pinned], self.compliance[pinned]
            c_total = np.bincount(lab, weights=c)
            charge = np.bincount(lab, weights=c * self.initial_kpa[pinned])
            # column 0 of P, through a view that is 2-D even where P is 1-D
            P.reshape(self.n, -1)[self.cap_idx[pinned], 0] = charge[lab] / c_total[lab] * KPA
            known[self.cap_idx[pinned]] = True
        self.solve(g, np.flatnonzero(~known), P)
        return P

    def solve_dc(self, is_open: np.ndarray) -> np.ndarray:
        """Full node-pressure vector (Pa) for a boolean valve open-state
        array at the fixed pressures."""
        return self.dc_map(self.conductances(is_open), self.fixed_pa)

    def pressures_kpa(self, p_pa: np.ndarray) -> dict[str, float]:
        """Node pressures (kPa) by name, leaving out source internal nodes."""
        return dict(zip(self.named, p_pa[self.named_idx] / KPA))

    @cached_property
    def walk(self) -> "_Walk | None":
        """The DC search's region-ordered warm start, built at the first
        search; None when the region graph has a cycle."""
        return _Walk.build(self)

    # -- transient regime (balloon nodes pinned by their volumes) -------------

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


class _Regime:
    """The linear network of one valve-state assignment, reduced once.

    With the balloon pressures given, every node pressure is affine in
    them: ``p = A @ cap_pa + a0``. Only the rows of the compiled network's
    ``watch`` nodes are kept, control nodes first and probes after, so a
    run reads the margins and the samples as two row slices of one map.
    Kron reduction onto the balloon nodes gives their net inflows as
    ``K @ cap_pa + k0``; ``K`` is symmetric and block-diagonal by region.
    The free nodes go through the same region solve as the DC solve, once,
    with one column for the fixed-node drive and one per balloon.
    """

    def __init__(self, compiled: _Compiled, is_open: np.ndarray):
        # only the reduced matrices and the balloon arrays are kept, never
        # the _Compiled that caches this regime: a reference cycle would keep
        # both, and their matrices, alive until the next full gc pass
        self.rest_volume, self.compliance = compiled.rest_volume, compiled.compliance
        self.region, self.nv = compiled.region[compiled.cap_idx], len(compiled.control)
        n, nc = compiled.n, len(compiled.cap_idx)
        g = compiled.conductances(is_open)
        labels, _fixed, anchored = compiled.components(g)
        # columns: the fixed-node drive, then one per unit balloon pressure
        P = np.zeros((n, 1 + nc))
        P[compiled.fixed_idx, 0] = compiled.fixed_pa
        P[compiled.cap_idx, 1 + np.arange(nc)] = 1.0
        # nodes sealed off in this regime carry no flow; they read ambient
        f = compiled.free_idx[anchored[labels[compiled.free_idx]]]
        compiled.solve(g, f, P)
        Q = compiled.inflow(g, P)[compiled.cap_idx]
        self.a0, self.A = P[compiled.watch, 0], P[compiled.watch, 1:]
        self.k0, self.K = Q[:, 0].copy(), Q[:, 1:].copy()

    def pressures(self, volumes: np.ndarray, rows=slice(None)) -> np.ndarray:
        """The pressures (Pa) of the watched nodes ``rows`` (a slice of
        ``watch``), at one vector of balloon volumes or at one per row of a
        2-D ``volumes``."""
        p = _balloon_pa(volumes, self.rest_volume, self.compliance) @ self.A[rows].T + self.a0[rows]
        if not np.isfinite(p).all():
            raise SingularNetworkError("flow-balance system is numerically singular")
        return p

    @cached_property
    def above(self) -> "_Modes":
        return _Modes(self, np.full(len(self.k0), _ABOVE))

    def modes_at(self, volumes: np.ndarray) -> np.ndarray:
        """Each balloon's mode at ``volumes``: at rest volume it is above
        rest unless its inflow is negative, at 0 empty unless it is positive."""
        x = volumes - self.rest_volume
        inflow = self.K @ _balloon_pa(volumes, self.rest_volume, self.compliance) + self.k0
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
    """

    def __init__(self, reg: _Regime, mode: np.ndarray):
        nc = len(mode)
        self.mode, above, self.below = mode, mode == _ABOVE, mode == _BELOW
        self.D = above / reg.compliance
        lam, T = np.zeros(nc), np.zeros((nc, nc))
        # the control kPa per mode: AD T, with AD = A D / KPA zero off above rest
        AD, self.ADV = reg.A[: reg.nv] * self.D / KPA, np.zeros((reg.nv, nc))
        bal = np.flatnonzero(above)
        _labels, inv, counts = np.unique(reg.region[bal], return_inverse=True, return_counts=True)
        order = np.lexsort((bal, inv, counts[inv]))  # by block size, then block
        bal, size = bal[order], counts[inv][order]
        for s in np.unique(size).tolist():
            idx = bal[size == s].reshape(-1, s)
            rows, cols = idx[:, :, None], idx[:, None, :]
            h, Kb = np.sqrt(reg.compliance[rows]), reg.K[rows, cols]
            lb, U = np.linalg.eigh((Kb + Kb.transpose(0, 2, 1)) / (2.0 * h * h.transpose(0, 2, 1)))
            lb[lb > -64.0 * np.finfo(float).eps * np.abs(lb).max(axis=1, keepdims=True)] = 0.0
            lam[idx], T[rows, cols] = lb, h * U
            self.ADV[:, idx] = np.matmul(AD[:, idx].transpose(1, 0, 2), h * U).transpose(1, 0, 2)
        # x = T z above rest, and z = Tᵀ D x
        self.lam, self.T, self.moving = lam, T, lam != 0.0
        self.zstar = np.divide(-(T.T @ (self.D * reg.k0)), lam, out=np.zeros(nc), where=self.moving)
        # below rest, x' = R z + k0, integrated term by term
        self.R, self.k0 = (reg.K[self.below] * self.D) @ T, reg.k0[self.below]
        self.V = T.copy() if self.below.any() else T
        self.V[self.below] = np.divide(self.R, lam, out=np.zeros_like(self.R), where=self.moving)

    def segment(self, x0: np.ndarray):
        """``(xc, w, d)`` of the segment that starts from ``x0``."""
        z0 = self.T.T @ (self.D * x0)
        d = np.where(self.moving, z0 - self.zstar, 0.0)
        w = np.zeros_like(x0)
        w[self.below] = self.R @ np.where(self.moving, self.zstar, z0) + self.k0
        return x0 - self.V @ d, w, d

    def x(self, xc, w, d, taus: np.ndarray) -> np.ndarray:
        """``x`` at each of the times ``taus`` into the segment, one row each."""
        return xc + np.multiply.outer(taus, w) + (d * np.exp(np.multiply.outer(taus, self.lam))) @ self.V.T

    def exits(self, reg: _Regime):
        """Each way out of a balloon's mode, as a row ``f = alpha + beta·x``
        that rises through 0 there, its balloon and the mode it goes to:
        above rest to below; below rest to above or to empty; and empty, once
        its inflow turns positive, to below rest."""
        eye = np.eye(len(self.mode))
        above, below, empty = (np.flatnonzero(self.mode == m) for m in (_ABOVE, _BELOW, _EMPTY))
        beta = np.concatenate([-eye[above], eye[below], -eye[below], reg.K[empty] * self.D])
        alpha = np.concatenate([np.zeros(len(above) + len(below)), -reg.rest_volume[below], reg.k0[empty]])
        goes = np.repeat([_BELOW, _ABOVE, _EMPTY, _BELOW], [len(above), len(below), len(below), len(empty)])
        return beta, alpha, np.concatenate([above, below, below, empty]), goes


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
    from the layer its own valves select.

    Layer ``a`` opens every region's j-th valve iff bit j of ``a`` is set.
    One ``_Compiled.dc_map`` gives its node pressures in
    every region at once, as an affine map of the fixed pressures: a
    constant column, then one column per fixed node. A layer is filled
    when a walk first needs it and serves every later walk of the same
    compiled network, whatever its fixed pressures.
    """

    def __init__(self, compiled: _Compiled, region: np.ndarray, home: np.ndarray, order):
        # per region in dependency order, its valves and its control nodes as
        # (node, row of a layer map); the valves whose branch joins two fixed
        # nodes come last, as they change no pressure
        self.read = np.unique(compiled.control[region[compiled.control] >= 0])
        valves = {r: [] for r in order + [-1]}
        self.local = []  # each valve's index j in its region
        for v, r in enumerate(home.tolist()):
            self.local.append(len(valves[r]))
            valves[r].append(v)
        rows = {r: [] for r in order + [-1]}
        for k, node in enumerate(self.read.tolist()):
            rows[int(region[node])].append((node, k))
        self.steps = [(valves[r], rows[r]) for r in order + [-1]]
        self.control = compiled.control.tolist()
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
            order = list(sorter.static_order())
        except CycleError:
            return None
        return cls(c, region, home, order)

    def fill(self, compiled: _Compiled, a: int) -> None:
        """Solve layer ``a``; a singular layer raises SingularNetworkError."""
        is_open = np.array([(a >> j) & 1 for j in self.local], dtype=bool)
        nf = len(compiled.fixed_idx)
        g = compiled.conductances(is_open)
        self.layers[a] = compiled.dc_map(g, np.eye(nf, 1 + nf, 1))[self.read]

    def start(self, compiled: _Compiled, is_open: np.ndarray) -> np.ndarray:
        """The open-state array after stepping each valve once from
        ``is_open``, in region order, at ``compiled``'s fixed pressures.

        A region holds a valve or two, so the walk runs on Python scalars:
        per region, a numpy call would cost more than its arithmetic."""
        drive = np.concatenate([[1.0], compiled.fixed_pa])
        # the control-node pressures (Pa) of every filled layer
        at = {a: (m @ drive).tolist() for a, m in self.layers.items()}
        p = np.zeros(compiled.n)
        p[compiled.fixed_idx] = compiled.fixed_pa
        p = p.tolist()
        is_open = is_open.tolist()
        for valves, rows in self.steps:
            a = 0  # the layer this region's valves select
            for j, v in enumerate(valves):
                if compiled.margin(is_open[v], p[self.control[v]] / KPA, v) >= 0.0:
                    is_open[v] = not is_open[v]
                a |= is_open[v] << j
            if rows:
                if a not in at:
                    self.fill(compiled, a)
                    at[a] = (self.layers[a] @ drive).tolist()
                for node, k in rows:
                    p[node] = at[a][k]
        return np.array(is_open, dtype=bool)


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
    itself did not converge. Each assignment is one ``_Compiled.solve_dc``:
    one flow balance over its unknown nodes, solved region by region.

    Raises AstableCircuit when no assignment is self-consistent, Singular
    when the flow-balance system cannot be solved uniquely, and
    TooManyValves when enumeration would be needed but is intractable.
    """
    compiled = _Compiled(net.validate())
    return _dc_search(compiled, compiled.initial_states(initial_states))


def _dc_rows(
    net: PneumaticNetwork, pins: tuple[str, ...], rows: Iterable[Sequence[float]]
) -> Iterator[SteadyState]:
    """``dc_operating_point(net.with_pins(...))`` for each row of pressures
    (kPa) of ``rows`` on the nodes ``pins`` in turn. The pinned network is
    validated and compiled once; a row gets the checks of ``with_pins``
    and ``fixed_pressures`` and then changes only the fixed pressures."""
    compiled = None
    for values in rows:
        pinned = net.with_pins(dict(zip(pins, values)))
        fixed = pinned.fixed_pressures()
        if compiled is None:
            compiled = _Compiled(pinned.validate())
        compiled.fixed_pa[: len(fixed)] = [p * KPA for p in fixed.values()]
        yield _dc_search(compiled, compiled.initial_open)


def _dc_search(compiled: _Compiled, is_open: np.ndarray) -> SteadyState:
    """``dc_operating_point``'s search, from the open-state array ``is_open``.

    The iteration's first solve confirms ``compiled.walk``: a control
    within roundoff of a threshold can read differently in a layer map and
    in the exact solve. A layer that cannot be solved drops the walk for
    good, leaving any error to the iteration.
    """
    if compiled.walk is not None:
        try:
            is_open = compiled.walk.start(compiled, is_open)
        except SingularNetworkError:
            compiled.walk = None

    def named(is_open):
        return {n: _state(o) for n, o in zip(compiled.valve_names, is_open.tolist())}

    def result(is_open, p_pa, fixed_points=()):
        return SteadyState(
            named(is_open), compiled.pressures_kpa(p_pa), tuple(named(fp) for fp in fixed_points)
        )

    seen = set()
    while (key := np.packbits(is_open).tobytes()) not in seen:
        seen.add(key)
        p_pa = compiled.solve_dc(is_open)
        switch = compiled.margin(is_open, p_pa[compiled.control] / KPA) >= 0.0
        if not switch.any():
            return result(is_open, p_pa)
        is_open = is_open ^ switch

    # iteration cycled; enumerate every assignment
    if len(is_open) > _MAX_ENUM_VALVES:
        raise TooManyValvesError(
            f"{len(is_open)} valves exceed the exhaustive search cap of {_MAX_ENUM_VALVES}"
        )
    fixed_points = []
    for bits in product((True, False), repeat=len(is_open)):
        assign = np.array(bits, dtype=bool)
        try:
            p_pa = compiled.solve_dc(assign)
        except SingularNetworkError:
            continue  # a floating regime cannot be an operating point
        if not (compiled.margin(assign, p_pa[compiled.control] / KPA) >= 0.0).any():
            fixed_points.append((assign, p_pa))
    if not fixed_points:
        raise AstableCircuitError(
            "no self-consistent valve-state assignment exists; the circuit is astable at DC"
        )
    chosen, p_pa = fixed_points[0]
    return result(chosen, p_pa, [fp for fp, _p in fixed_points])


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

def _root(g, lo, hi, glo, ghi) -> float:
    """A zero of ``g`` where it changes sign between ``lo`` and ``hi``, by
    the Illinois variant of regula falsi; a secant point that rounds onto
    an end moves one float inside. Returns the last bracket's end on the
    side of ``hi``, once its ends are adjacent floats."""
    side = 0
    for _ in range(100):
        if ghi == glo:  # both underflowed to 0
            break
        t = (lo * ghi - hi * glo) / (ghi - glo)
        t = min(max(t, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if not lo < t < hi:
            break
        gt = g(t)
        if (gt < 0.0) == (ghi < 0.0):
            hi, ghi, glo, side = t, gt, 0.5 * glo if side == 1 else glo, 1
        else:
            lo, glo, ghi, side = t, gt, 0.5 * ghi if side == -1 else ghi, -1
    return hi


def _zeros(c, r, b: np.ndarray, lam: np.ndarray, h: float) -> list[float]:
    """The times in ``(0, h)`` at which ``f(τ) = c + r τ + Σ_j b_j e^(λ_j τ)``
    changes sign, in order, for distinct, nonzero, descending ``lam``: at
    most ``len(b) + 1`` (Pólya & Szegő). The zeros of ``f'`` split ``(0, h)``
    into pieces on which ``f`` is monotone, and ``f'`` is a sum of one term
    fewer: ``r + Σ_j b_j λ_j e^(λ_j τ)``, or where ``r`` is 0, ``e^(λ_0 τ)
    (b_0 λ_0 + Σ_{j>0} b_j λ_j e^((λ_j - λ_0) τ))``. One exponential alone
    has its zero in closed form."""
    keep = b != 0.0  # a term may underflow to 0
    b, lam = b[keep], lam[keep]
    if not r and len(b) <= 1:
        t = 0.0
        if len(b) and c != 0.0 and (c < 0.0) != (b[0] < 0.0):
            t = (math.log(abs(c)) - math.log(abs(b[0]))) / lam[0]
        return [t] if 0.0 < t < h else []
    turns = (_zeros(r, 0.0, b * lam, lam, h) if r else
             _zeros(b[0] * lam[0], 0.0, b[1:] * lam[1:], lam[1:] - lam[0], h))
    cuts = [0.0, *turns, h]

    def f(t):
        return c + r * t + b @ np.exp(lam * t)

    ends = [f(t) for t in cuts]
    return [_root(f, lo, hi, flo, fhi) for lo, hi, flo, fhi in zip(cuts, cuts[1:], ends, ends[1:])
            if (flo < 0.0) != (fhi < 0.0)]


def _first_rise(c, r, b: np.ndarray, lam: np.ndarray, h: float, f0) -> float:
    """The least ``τ`` in ``[0, h]`` at which ``f(τ) = c + r τ + Σ_j b_j
    e^(λ_j τ)`` rises from below 0 to 0 or above, or inf: the zeros of
    ``f'`` split ``[0, h]`` into monotone pieces, and the rise is bracketed
    in the first that ends at 0 or above from below 0. ``f0`` stands for
    ``f(0)``; where it is below 0 and ``f(0)`` is not, the rise is at 0."""
    keep = b != 0.0
    lam, at = np.unique(lam[keep], return_inverse=True)
    lam, b = lam[::-1], np.bincount(at, b[keep], minlength=len(lam))[::-1]

    def f(t):
        return c + r * t + b @ np.exp(lam * t)

    cuts = [0.0, *_zeros(r, 0.0, b * lam, lam, h), h]
    for lo, hi in zip(cuts, cuts[1:]):
        fhi = f(hi)
        if f0 < 0.0 <= fhi:
            flo = f(lo)
            return lo if flo >= 0.0 else _root(f, lo, hi, flo, fhi)
        f0 = fhi
    return math.inf


def _first_rises(c, M, d, lam, h, f0, r=None) -> np.ndarray:
    """``_first_rise`` of each row ``c_i + r_i τ + Σ_j M_ij d_j e^(λ_j τ)``,
    with ``f0`` per row. Every ``λ`` is at most 0, so a row that cannot
    reach 0 is skipped, and a row of one exponential and no ``r`` rises at
    ``log(-c/b)/λ``: that closed form is taken for all such rows at once."""
    r = np.zeros(len(c)) if r is None else r
    t = np.full(len(c), np.inf)
    can = np.flatnonzero(c + np.abs(M) @ np.abs(d) + np.maximum(r, 0.0) * h >= 0.0)
    b = M[can] * d
    one = (np.count_nonzero(b, axis=1) == 1) & (r[can] == 0.0)
    if one.any():
        i, bi, ci = can[one], b[one].sum(axis=1), c[can[one]]
        li = lam[np.argmax(b[one] != 0.0, axis=1)]
        rises = (f0[i] < 0.0) & (bi < 0.0) & (ci > 0.0)  # λ < 0: a rise toward c > 0
        ti = (np.log(np.where(rises, ci, 1.0)) - np.log(np.where(rises, -bi, 1.0))) / li
        t[i] = np.where(rises & (ti <= h), np.maximum(ti, 0.0), np.inf)
    for i, row in zip(can[~one].tolist(), b[~one]):
        t[i] = _first_rise(c[i], r[i], row, lam, h, f0[i])
    return t


def simulate(net: PneumaticNetwork, cfg: SimConfig) -> Trace:
    """Solve the circuit in closed form and return a sampled Trace.

    Each regime segment is a linear ODE with constant coefficients, solved
    exactly (``_Modes``), so every valve margin is a constant plus a sum of
    exponentials in time. Every switching decision is one rule,
    ``_Compiled.margin``: a valve switches where its control is at or past
    the threshold of its pending transition. The first margin to rise from
    below 0 to 0 or above ends the segment (``_first_rises``); the valves
    that rise within ``event_tol`` of it flip with it, and the valves are
    settled in the new regime. A relaxation that does not settle is
    reported in ``Trace.warnings``, as is the time each balloon first
    reaches its burst pressure. With a sub-atmospheric source a balloon
    crossing its rest volume or emptying ends a segment too. Samples land
    on a regular grid plus a pre/post pair at each event, so switching
    edges stay sharp: a segment's grid samples and its last sample are one
    closed-form evaluation, read through the probe rows of the regime's
    map, and the post-event sample, ``event_tol`` later, reads the
    settling. Identical inputs give identical traces.
    """
    net.validate()
    probes = cfg.probes if cfg.probes is not None else net.probes
    if not probes:
        raise ValueError("no probes: set PneumaticNetwork.probes or SimConfig.probes")
    compiled = _Compiled(net, probes)
    ctrl_rows, probe_rows = slice(0, len(compiled.control)), slice(len(compiled.control), None)
    rest = compiled.rest_volume

    is_open = compiled.initial_states(cfg.initial_valve_states)
    volumes = compiled.initial_volumes(cfg.initial_pressures_kpa)
    x_burst = compiled.compliance * compiled.burst_kpa * KPA
    vacuum = bool((compiled.fixed_pa < 0.0).any())  # else no balloon goes below rest

    times: list[float] = []
    rows: list[np.ndarray] = []  # blocks of probe rows, kPa
    events: list[tuple[float, str, ValveState]] = []
    warnings: list[str] = []
    burst_seen = np.zeros(len(rest), dtype=bool)

    def emit(ts: list[float], kpa: np.ndarray) -> None:
        """Record the probe readings ``kpa`` (kPa, one row each) at the
        increasing times ``ts``; times not after the last sample are dropped."""
        first = bisect_right(ts, times[-1]) if times else 0
        if first < len(ts):
            times.extend(ts[first:])
            rows.append(kpa[first:])

    def settle(t: float, is_open: np.ndarray, volumes: np.ndarray, switch: np.ndarray):
        """Flip the valves ``switch`` at time ``t``, then every valve whose
        margin is >= 0 at ``volumes``, until none is, logging transitions.
        Returns the valve states, their regime, the margins and the watched
        nodes' kPa at ``volumes``.

        Balloon controls cannot react to flips; free-node controls get a
        bounded relaxation. When that gives up, a warning names the valves
        still changing, and they are left past their thresholds: a valve
        flips only where its margin rises from below 0.
        """
        limit = 4 * max(1, len(is_open))
        for relaxation in range(limit + 1):
            is_open = is_open.copy()
            is_open[switch] = ~is_open[switch]
            events.extend((t, compiled.valve_names[v], _state(is_open[v])) for v in switch.tolist())
            reg = compiled.regime(is_open)
            kpa = reg.pressures(volumes) / KPA
            m = compiled.margin(is_open, kpa[ctrl_rows])
            switch = (m >= 0.0).nonzero()[0]
            if not len(switch):
                break
            if relaxation == limit:
                names = ", ".join(compiled.valve_names[vi] for vi in switch.tolist())
                warnings.append(
                    f"valve states did not settle at t={t:.6g} s after {limit} "
                    f"relaxations; still changing: {names}"
                )
                break
        return is_open, reg, m, kpa

    is_open, reg, m0, kpa = settle(0.0, is_open, volumes, np.zeros(0, dtype=int))
    emit([0.0], kpa[None, probe_rows])
    mode = reg.modes_at(volumes) if vacuum else np.full(len(rest), _ABOVE)
    t, next_sample = 0.0, cfg.sample_interval
    while True:
        modes = reg.above if (mode == _ABOVE).all() else _Modes(reg, mode)
        xc, w, d = modes.segment(volumes - rest)
        h = cfg.t_end - t
        # the valve margins, each a constant plus exponentials
        c = compiled.margin(is_open, (reg.a0[ctrl_rows] + reg.A[ctrl_rows] @ (modes.D * xc)) / KPA)
        M = np.where(is_open, 1.0, -1.0)[:, None] * modes.ADV
        t_valve = _first_rises(c, M, d, modes.lam, h, m0)
        t_flip = t_valve.min(initial=math.inf)
        t_mode = math.inf
        if vacuum:
            beta, alpha, who, goes = modes.exits(reg)
            cm, Mm = alpha + beta @ xc, beta @ modes.V
            t_exit = _first_rises(cm, Mm, d, modes.lam, h, cm + Mm @ d, beta @ w)
            t_mode = t_exit.min(initial=math.inf)
        event = t_flip <= min(t_mode, h)
        change = not event and t_mode <= h
        tau = t_flip if event else t_mode if change else h
        t_next = t + tau if event or change else cfg.t_end

        # the grid samples up to the segment's end, then its last sample
        grid = []
        while next_sample < t_next - (1.0e-15 if event else 0.0):
            grid.append(next_sample)
            next_sample += cfg.sample_interval
        x = modes.x(xc, w, d, np.append(np.array(grid) - t, tau))
        shown = grid if change else grid + [t_next]
        emit(shown, reg.pressures(x[: len(shown)] + rest, probe_rows) / KPA)
        # a balloon not yet past its burst level and already at it warns at once
        ks = np.flatnonzero(~burst_seen & (mode == _ABOVE))
        f0 = np.full(len(ks), -np.inf)
        t_ks = t + _first_rises(xc[ks] - x_burst[ks], modes.V[ks], d, modes.lam, tau, f0)
        for k, tk in zip(ks[t_ks < math.inf].tolist(), t_ks[t_ks < math.inf].tolist()):
            burst_seen[k] = True
            warnings.append(
                f"balloon {compiled.cap_names[k]} passed its burst pressure "
                f"({compiled.burst_kpa[k].tolist()} kPa) at t={tk:.6g} s"
            )
        volumes = np.maximum(x[-1] + rest, 0.0)
        if not (event or change):
            break
        t = t_next

        if event:
            flips = np.flatnonzero(t_valve <= t_flip + cfg.event_tol)
            is_open, reg, m0, kpa = settle(t, is_open, volumes, flips)
            emit([t + min(cfg.event_tol, cfg.sample_interval / 8.0)], kpa[None, probe_rows])
            if vacuum:
                mode = reg.modes_at(volumes)
        else:
            # the balloons leaving their mode start it from its edge
            hit = t_exit == t_mode
            k, to = who[hit], goes[hit]
            volumes[k] = np.where((to == _ABOVE) | (mode[k] == _ABOVE), rest[k], 0.0)
            mode[k] = to
            m0 = compiled.margin(is_open, reg.pressures(volumes, ctrl_rows) / KPA)

    kpa = np.concatenate(rows) if rows else np.zeros((0, len(probes)))
    return Trace(tuple(probes), np.array(times), kpa, tuple(events), tuple(warnings))


# ---------------------------------------------------------------------------
# waveform analysis
# ---------------------------------------------------------------------------


def _rising_crossings(t: np.ndarray, y: np.ndarray, level: float) -> np.ndarray:
    idx = np.nonzero((y[:-1] < level) & (y[1:] >= level))[0]
    if len(idx) == 0:
        return np.zeros(0)
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
    degrees relative to ``probe``.
    """
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

    span = float(ref.max() - ref.min())
    if span < min_amplitude_kpa:
        raise NoOscillationError(
            f"peak-to-trough span {span:.3g} kPa is below the "
            f"{min_amplitude_kpa:.3g} kPa oscillation floor"
        )
    mid = 0.5 * float(ref.max() + ref.min())
    crossings = _rising_crossings(t, ref, mid)
    if len(crossings) < 3:
        raise NoOscillationError(
            f"only {len(crossings)} midline crossings; need at least 3"
        )
    period = float(np.mean(np.diff(crossings)))
    frequency = 1.0 / period

    # duty: fraction of time the reference spends above its midline
    above = ref > mid
    seg = np.diff(t)
    w = 0.5 * (above[:-1].astype(float) + above[1:].astype(float))
    duty = float(np.sum(seg * w) / np.sum(seg))

    peaks: dict[str, float] = {}
    troughs: dict[str, float] = {}
    phases: dict[str, float] = {}
    cycle_edges = crossings
    for name in trace.probes:
        y = np.asarray(trace.column(name), dtype=float)[keep]
        cyc_max, cyc_min = [], []
        for a, b in zip(cycle_edges[:-1], cycle_edges[1:]):
            m = (t >= a) & (t < b)
            if m.any():
                cyc_max.append(float(y[m].max()))
                cyc_min.append(float(y[m].min()))
        peaks[name] = float(np.mean(cyc_max)) if cyc_max else float(y.max())
        troughs[name] = float(np.mean(cyc_min)) if cyc_min else float(y.min())
        if name == probe:
            phases[name] = 0.0
            continue
        own_mid = 0.5 * float(y.max() + y.min())
        own = _rising_crossings(t, y, own_mid)
        if len(own) == 0:
            phases[name] = float("nan")
            continue
        # circular mean of the offsets from the latest reference crossing
        deltas = []
        for tc in own:
            prior = crossings[crossings <= tc]
            if len(prior):
                deltas.append(((tc - prior[-1]) % period) / period * 2.0 * math.pi)
        if not deltas:
            phases[name] = float("nan")
        else:
            s = np.mean(np.sin(deltas))
            c = np.mean(np.cos(deltas))
            phases[name] = float(math.degrees(math.atan2(s, c)) % 360.0)

    return OscillationReport(
        probe=probe,
        frequency_hz=frequency,
        duty=duty,
        peaks_kpa=peaks,
        troughs_kpa=troughs,
        phase_deg=phases,
        cycles=len(crossings) - 1,
    )


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationBounds:
    compliance: tuple[float, float] = (5.0e-11, 1.0e-8)
    open_conductance: tuple[float, float] = (1.0e-8, 1.0e-3)


def _at_rest(trace: Trace, min_amplitude_kpa: float) -> bool:
    """Whether every probe of ``trace`` is flat over the last fifth of the
    window: its span there is within 1e-9 of the largest reading, or of the
    oscillation floor when that is larger."""
    t = trace.times
    tail = trace.pressures_kpa[t >= t[0] + 0.8 * (t[-1] - t[0])]
    scale = max(float(np.abs(tail).max()), min_amplitude_kpa)
    return float(np.ptp(tail, axis=0).max()) <= 1.0e-9 * scale


def _measure(
    net: PneumaticNetwork, probe: str, f_hint: float, min_amplitude_kpa: float
) -> OscillationReport | None:
    """Simulate ``net`` over a window sized from the expected frequency
    ``f_hint`` and measure its oscillation at ``probe``; None if it shows none.

    A window is 24 cycles of the hint long, with 250 samples per cycle. If
    it shows no oscillation, the hint may be far too high, so the window is
    widened 8x and then 64x; but a window that logs no valve event and
    whose probes have come to rest (``_at_rest``) shows a circuit at an
    equilibrium it cannot leave, and a longer one would only repeat it, so
    None is returned at once. A window that logged events, or was still
    moving, is widened.
    """
    for f_try in (f_hint, f_hint / 8.0, f_hint / 64.0):
        cfg = SimConfig(t_end=24.0 / f_try, sample_interval=1.0 / (f_try * 250.0))
        trace = simulate(net, cfg)
        try:
            return extract_frequency(trace, probe, min_amplitude_kpa)
        except NoOscillationError:
            if not trace.events and _at_rest(trace, min_amplitude_kpa):
                return None
    return None


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
    the template. Peak amplitude at the probe depends (in steady state)
    on the conductance alone, while the period scales linearly with
    compliance, so the search alternates a bisection on conductance
    against the peak target with a direct rescale of the compliance
    against the frequency target. Raises CalibrationFailed, carrying the
    best result found, if both targets cannot be met within ``tolerance``
    relative error.

    Each evaluation is one ``_measure``: its window is sized in cycles of
    the frequency expected there. That is the last measured frequency,
    and for the verification after a compliance rescale it is the one the
    scaling law predicts, ``f * C_old / C_new``. An evaluation whose
    circuit comes to rest without a valve event ends after one window.

    The fit fails fast on a frequency out of reach. It assumes that the
    frequency rises with the conductance, so the point measured at the
    upper conductance bound is the fastest at its compliance: if the target
    exceeds that frequency rescaled to the lower compliance bound,
    ``f * C / C_lo``, by more than ``tolerance``, no pair within the bounds
    reaches it. Likewise the point at the conductance fitted to the peak
    sets the frequency at that peak: if the target falls below ``f * C /
    C_hi`` by more than ``tolerance``, it is out of reach. Either way
    CalibrationFailed is raised at once.
    """
    if target_frequency_hz <= 0.0 or target_peak_kpa <= 0.0:
        raise ValueError("calibration targets must be positive")
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

    best: CalibrationResult | None = None
    f_hint = target_frequency_hz

    def evaluate(c: float, g: float) -> OscillationReport | None:
        nonlocal f_hint
        net = template.with_uniform_params(compliance=c, open_conductance=g)
        rep = _measure(net, probe, f_hint, min_amplitude_kpa)
        if rep is not None:
            f_hint = rep.frequency_hz
        return rep

    def record(c: float, g: float, rep: OscillationReport) -> CalibrationResult:
        nonlocal best
        result = CalibrationResult(
            compliance=c,
            open_conductance=g,
            frequency_hz=rep.frequency_hz,
            peak_kpa=rep.peaks_kpa[probe],
            target_frequency_hz=target_frequency_hz,
            target_peak_kpa=target_peak_kpa,
            iterations=iterations,
            notes=notes,
        )
        if best is None or sum(x * x for x in result.relative_errors) < sum(
            x * x for x in best.relative_errors
        ):
            best = result
        return result

    iterations = 0
    out_of_reach = ""
    for _outer in range(4):
        # 1) bisect the conductance against the peak target
        lo, hi = g_lo, g_hi
        rep_hi = evaluate(compliance, hi)
        iterations += 1
        if rep_hi is None:
            break
        f_max = rep_hi.frequency_hz * compliance / c_lo
        if target_frequency_hz > f_max * (1.0 + tolerance):
            record(compliance, hi, rep_hi)
            out_of_reach = f"; at most {f_max:.4g} Hz is reachable within the bounds"
            break
        g, rep = hi, rep_hi
        # a peak target at or above the upper bound's peak keeps that bound
        if rep_hi.peaks_kpa[probe] > target_peak_kpa:
            for _ in range(40):
                mid = math.sqrt(lo * hi)  # geometric: conductance spans decades
                rep_mid = evaluate(compliance, mid)
                iterations += 1
                if rep_mid is None or rep_mid.peaks_kpa[probe] < target_peak_kpa:
                    lo = mid
                else:
                    hi, g, rep = mid, mid, rep_mid
                if abs(rep.peaks_kpa[probe] - target_peak_kpa) <= 0.25 * tolerance * target_peak_kpa:
                    break
                if hi / lo < 1.0 + 1.0e-6:
                    break
        f_min = rep.frequency_hz * compliance / c_hi
        if target_frequency_hz < f_min * (1.0 - tolerance):
            record(compliance, g, rep)
            out_of_reach = f"; at least {f_min:.4g} Hz at this peak within the bounds"
            break

        # 2) the period scales with compliance: rescale and verify, with the
        # window sized from the frequency the scaling predicts
        rescaled = min(max(compliance * rep.frequency_hz / target_frequency_hz, c_lo), c_hi)
        f_hint = rep.frequency_hz * compliance / rescaled
        compliance = rescaled
        rep = evaluate(compliance, g)
        iterations += 1
        if rep is None:
            break
        result = record(compliance, g, rep)
        ef, ep = result.relative_errors
        if ef <= tolerance and ep <= tolerance:
            return result

    msg = "calibration could not reach the requested targets"
    if best is not None:
        ef, ep = best.relative_errors
        msg += (
            f": best fit {best.frequency_hz:.4g} Hz / {best.peak_kpa:.4g} kPa "
            f"(relative errors {ef:.2%} / {ep:.2%})"
        )
    raise CalibrationFailedError(msg + out_of_reach, best=best)


def template_compliance(net: PneumaticNetwork) -> float:
    """The compliance shared by the template's balloons (first one found)."""
    for v in net.valves:
        if v.balloon is not None:
            return v.balloon.compliance
    for b in net.balloons:
        return b.params.compliance
    raise ValueError("network has no balloons to calibrate")

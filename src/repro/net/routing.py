"""CTP-style dynamic collection routing.

Every node keeps EWMA estimates of its links' ETX (expected transmission
count) and, each beacon round, re-selects the parent minimizing
``cost(parent) + etx(node, parent)`` — with hysteresis, as the Collection
Tree Protocol does. Parent *churn* (the dynamics Dophy is designed for)
arises from three realistic sources, all configurable:

* estimation noise on each beacon round's ETX samples,
* genuine drift of the underlying link qualities (DriftingLink),
* data-driven ETX updates fed back from actual ARQ attempt counts.

The engine exposes the current tree, a timestamped parent-change log,
and churn-rate metrics, which both the simulator and the baselines'
"assumed topology" snapshots consume.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix

from repro.net.link import Channel
from repro.net.sim import Simulator
from repro.net.topology import Topology
from repro.utils.rng import RngRegistry
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["RoutingConfig", "RoutingEngine", "ParentChange"]

#: Cost assigned to unreachable nodes during relaxation.
_INFINITY = float("inf")


@dataclass(frozen=True)
class RoutingConfig:
    """Parameters of the collection routing engine."""

    #: Seconds between beacon rounds (route recomputations).
    beacon_period: float = 2.0
    #: EWMA weight of a new ETX sample (CTP uses ~0.1–0.25).
    etx_alpha: float = 0.25
    #: Lognormal sigma of per-round ETX sampling noise; 0 = perfect estimates.
    etx_noise_std: float = 0.3
    #: Hysteresis: switch parent only if the candidate beats the current
    #: route cost by more than this many expected transmissions.
    parent_switch_threshold: float = 0.5
    #: EWMA weight with which observed data-traffic attempt counts are
    #: blended into ETX estimates.
    data_alpha: float = 0.1

    def __post_init__(self) -> None:
        check_positive(self.beacon_period, "beacon_period")
        if not 0.0 < self.etx_alpha <= 1.0:
            raise ValueError("etx_alpha must be in (0, 1]")
        check_non_negative(self.etx_noise_std, "etx_noise_std")
        check_non_negative(self.parent_switch_threshold, "parent_switch_threshold")
        if not 0.0 < self.data_alpha <= 1.0:
            raise ValueError("data_alpha must be in (0, 1]")


@dataclass(frozen=True)
class ParentChange:
    """One parent-switch event (for churn accounting).

    ``new_parent`` is None when loop repair detached the node (it
    re-acquires a parent on a later round).
    """

    time: float
    node: int
    old_parent: Optional[int]
    new_parent: Optional[int]


class _SptArrays(NamedTuple):
    """Per-topology arrays of the array solver, built once.

    Slots are ``RoutingEngine._edges`` slots. ``topology.directed_edges()``
    is sorted by ``(u, v)`` and node indices follow sorted node ids, so
    the slots of one head ``u`` (the node choosing a parent) are
    contiguous and candidate ``v``s ascend within each group.
    """

    nodes: List[int]
    sink: int
    #: Node index of each slot's head ``u``.
    head: "np.ndarray"
    #: First slot of each head group, and that group's head index.
    starts: "np.ndarray"
    heads: "np.ndarray"
    #: One entry per slot: row = the slot's head, column (``indices``) =
    #: its tail, so ``graph.indices`` is also each slot's candidate
    #: parent. As a graph, slot ``(v, u)`` is the arc ``v -> u``; its
    #: ``data`` is rewritten before every solve with the estimate of the
    #: reverse slot ``(u, v)``, the cost of ``u`` routing through ``v``.
    graph: csr_matrix


class RoutingEngine:
    """Maintains the dynamic collection tree.

    ``spt_mode`` picks the shortest-path solver behind every tree
    recompute: ``"full"`` is the heap Dijkstra (:meth:`_solve_spt_full`),
    the event engine's solver and the differential oracle; ``"array"``
    is the array engine's compiled Dijkstra plus a vectorized
    tie-break (:meth:`_solve_spt_array`). Both return bit-identical
    ``(best_parent, dist)``, so every downstream decision is the same.
    """

    def __init__(
        self,
        topology: Topology,
        channel: Channel,
        rng_registry: RngRegistry,
        config: Optional[RoutingConfig] = None,
        *,
        spt_mode: str = "full",
    ):
        if spt_mode not in ("full", "array"):
            raise ValueError(f"unknown SPT mode: {spt_mode!r}")
        self.topology = topology
        self.channel = channel
        self.config = config or RoutingConfig()
        self._rng = rng_registry.get("routing", "beacons")
        # ETX estimates live in flat arrays indexed by directed-edge slot
        # (``topology.directed_edges()`` order). Array storage is the
        # authoritative state: scalar paths index element-wise and the
        # beacon EWMA / SPT solvers operate on whole arrays. Elementwise
        # float64 ops are the same IEEE-754 operations as the scalar
        # loop they replaced (NumPy ufuncs do not fuse multiply-add), so
        # the stored bits are unchanged.
        self._edges: List[Tuple[int, int]] = list(topology.directed_edges())
        self._edge_index: Dict[Tuple[int, int], int] = {
            edge: i for i, edge in enumerate(self._edges)
        }
        self._etx: "np.ndarray" = np.ones(len(self._edges), dtype=np.float64)
        # Hoisted EWMA constants for the per-hop data-sample path.
        self._data_alpha = self.config.data_alpha
        self._data_decay = 1.0 - self.config.data_alpha
        self._parent: Dict[int, Optional[int]] = {n: None for n in topology.nodes}
        self._cost: Dict[int, float] = {n: _INFINITY for n in topology.nodes}
        self._cost[topology.sink] = 0.0
        self._alive: Dict[int, bool] = {n: True for n in topology.nodes}
        self.parent_change_log: List[ParentChange] = []
        self._beacon_rounds = 0
        self._etx_sampler: Optional[
            Callable[[float], Union[Sequence[float], "np.ndarray"]]
        ] = None
        self._spt_mode = spt_mode
        self._spt_cache: Optional[_SptArrays] = None
        # Warm start: seed estimates with the true ETX at t=0 (as a network
        # that has been running its estimator for a while would have).
        # Each directed edge's t=0 loss is gathered once and paired with
        # its reverse edge's through a permutation; per element this is
        # the same IEEE-754 subtract/multiply/max/divide sequence as
        # _true_etx, so the stored bits equal the scalar formula's. The
        # permutation is kept: the array solver and the vectorized ETX
        # sampler gather through it too.
        losses = np.fromiter(
            (channel.true_loss(u, v, 0.0) for u, v in self._edges),
            dtype=np.float64,
            count=len(self._edges),
        )
        self._reverse: "np.ndarray" = np.fromiter(
            (self._edge_index[(v, u)] for u, v in self._edges),
            dtype=np.intp,
            count=len(self._edges),
        )
        p_data = 1.0 - losses
        success = np.maximum(1e-6, p_data * p_data[self._reverse])
        self._etx[:] = 1.0 / success
        self._recompute_tree(0.0)

    # -- link quality -----------------------------------------------------------

    def _true_etx(self, u: int, v: int, time: float) -> float:
        """ETX of the (u, v) hop: 1 / P(data delivered and ACK returned)."""
        p_data = 1.0 - self.channel.true_loss(u, v, time)
        p_ack = 1.0 - self.channel.true_loss(v, u, time)
        success = max(1e-6, p_data * p_ack)
        return 1.0 / success

    def estimated_etx(self, u: int, v: int) -> float:
        return float(self._etx[self._edge_index[(u, v)]])

    def set_etx_sampler(
        self,
        sampler: Optional[Callable[[float], Union[Sequence[float], "np.ndarray"]]],
    ) -> None:
        """Install a replacement ETX-sampling kernel for beacon rounds.

        ``sampler(time)`` must return one sample per directed edge, in
        ``self._edges`` order (= ``topology.directed_edges()``), drawing
        its noise from the same ``("routing", "beacons")`` stream the
        scalar loop uses — the array engine's vectorized sampler is
        bit-identical by contract (pinned by
        tests/net/test_fastsim_differential.py).
        """
        self._etx_sampler = sampler

    def beacon_round(self, time: float) -> None:
        """Sample every link's ETX (noisily), update EWMAs, rebuild the tree."""
        sigma = self.config.etx_noise_std
        alpha = self.config.etx_alpha
        decay = 1.0 - alpha
        if self._etx_sampler is not None:
            # Whole-array EWMA: fl(fl(decay*e) + fl(alpha*s)) per element
            # is exactly the scalar update's arithmetic (no fused ops).
            samples = np.asarray(self._etx_sampler(time), dtype=np.float64)
            self._etx = decay * self._etx + alpha * samples
        else:
            etx = self._etx
            for i, (u, v) in enumerate(self._edges):
                sample = self._true_etx(u, v, time)
                if sigma > 0:
                    # lognormal(0, s) draws exp(normal(0, s)) from the same
                    # stream with the same bits as the explicit two-step
                    # form, and unlike it also has a block-draw shape the
                    # vectorized sampler can match exactly.
                    sample *= float(self._rng.lognormal(0.0, sigma))
                etx[i] = decay * float(etx[i]) + alpha * sample
        self._beacon_rounds += 1
        self._recompute_tree(time)

    def on_data_sample(self, u: int, v: int, attempts: int, time: float) -> None:
        """Feed an observed ARQ attempt count back into the (u, v) estimate."""
        etx = self._etx
        i = self._edge_index[(u, v)]
        etx[i] = self._data_decay * float(etx[i]) + self._data_alpha * attempts

    # -- node liveness -------------------------------------------------------------

    def is_alive(self, node: int) -> bool:
        return self._alive[node]

    def set_alive(self, node: int, alive: bool, time: float) -> None:
        """Mark a node up/down and immediately re-form routes around it.

        (CTP reacts to a dead parent within a few transmissions via
        link-layer feedback; an immediate recompute is the idealization.)
        """
        if node == self.topology.sink and not alive:
            raise ValueError("the sink cannot fail")
        if self._alive[node] == alive:
            return
        self._alive[node] = alive
        self._recompute_tree(time)

    # -- tree computation ---------------------------------------------------------

    def _recompute_tree(self, time: float) -> None:
        """Shortest paths over estimated ETX, then hysteresis-gated updates.

        Dead nodes are skipped entirely: they cannot be parents, routes
        cannot pass through them, and their own (stale) parents are left
        untouched until they recover.
        """
        if self._spt_mode == "array":
            best_parent, dist = self._solve_spt_array()
        else:
            best_parent, dist = self._solve_spt_full()
        self._apply_parent_updates(best_parent, dist, time)

    def _solve_spt_full(
        self,
    ) -> Tuple[Dict[int, Optional[int]], Dict[int, float]]:
        """Heap Dijkstra over the alive subgraph (the reference solver)."""
        sink = self.topology.sink
        dist: Dict[int, float] = {n: _INFINITY for n in self.topology.nodes}
        best_parent: Dict[int, Optional[int]] = {n: None for n in self.topology.nodes}
        dist[sink] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, sink)]
        visited = set()
        etx = self._etx
        eidx = self._edge_index
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for nbr in self.topology.neighbors(node):
                if not self._alive[nbr]:
                    continue
                # Cost for nbr to route *through* node.
                cand = d + float(etx[eidx[(nbr, node)]])
                if cand < dist[nbr]:
                    dist[nbr] = cand
                    best_parent[nbr] = node
                    heapq.heappush(heap, (cand, nbr))
        return best_parent, dist

    def _spt_structure(self) -> _SptArrays:
        """The array solver's per-topology arrays (built on its first solve)."""
        if self._spt_cache is None:
            nodes = list(self.topology.nodes)
            ids = np.fromiter(
                (n for edge in self._edges for n in edge),
                dtype=np.int64,
                count=2 * len(self._edges),
            ).reshape(-1, 2)
            node_ids = np.asarray(nodes, dtype=np.int64)
            head = np.searchsorted(node_ids, ids[:, 0])
            tail = np.searchsorted(node_ids, ids[:, 1]).astype(np.int32)
            starts = np.flatnonzero(np.diff(head, prepend=-1))
            indptr = np.searchsorted(head, np.arange(len(nodes) + 1)).astype(np.int32)
            graph = csr_matrix(
                (np.empty(len(tail)), tail, indptr), shape=(len(nodes), len(nodes))
            )
            self._spt_cache = _SptArrays(
                nodes,
                nodes.index(self.topology.sink),
                head,
                starts,
                head[starts],
                graph,
            )
        return self._spt_cache

    def _solve_spt_array(
        self,
    ) -> Tuple[Dict[int, Optional[int]], Dict[int, float]]:
        """Compiled Dijkstra plus a vectorized tie-break, bit-identical to
        the heap Dijkstra.

        **Distances.** IEEE-754 addition is monotone and ``fl(d + w) >= d``
        for ``w >= 0``, so any label-setting Dijkstra settles nodes in
        nondecreasing distance and returns, for every node, the minimum
        over sink paths of the left-folded rounded sums
        ``fl(...fl(fl(0 + w1) + w2)... + wk)``: a node settled at ``d``
        relaxes each neighbour to at most ``fl(d + w)``, so by induction
        along any path every node's distance is at most that path's
        fold, and each distance is itself the fold of the path that set
        it. That quantity does not depend on the heap or the visiting
        order, so scipy's Dijkstra over the reversed arcs (sink to
        children) and the heap Dijkstra return the same bits.

        **Parents.** The heap Dijkstra pops in ``(dist, node)`` order and
        only a strict improvement rebinds a parent, so among minimal-cost
        candidates the winner is the first popped: the argmin under the
        key ``(fl(dist[p] + w), dist[p], p)``. scipy's predecessors are
        arbitrary under ties, so they are not used; three masked
        ``reduceat`` passes over each node's candidates apply that key
        exactly (node indices ascend with node ids).
        """
        # Imported here so processes that never run the array engine
        # (the sink, the event engine) do not load it.
        from scipy.sparse.csgraph import dijkstra

        arrays = self._spt_structure()
        nodes = arrays.nodes
        num = len(nodes)
        alive = np.fromiter((self._alive[n] for n in nodes), dtype=bool, count=num)
        # A dead node selects no parent: its candidates, and so its arcs
        # in the reversed graph, cost +inf, which also keeps its dist at
        # +inf so it never relays.
        weights = self._etx
        if not alive.all():
            weights = np.where(alive[arrays.head], weights, _INFINITY)
        graph = arrays.graph
        np.take(weights, self._reverse, out=graph.data)
        dist = dijkstra(graph, indices=arrays.sink)
        # Parent selection: argmin of (cand, dist[parent], parent index).
        head = arrays.head
        starts = arrays.starts
        heads = arrays.heads
        tail = graph.indices
        dist_tail = dist[tail]
        cand = dist_tail + weights
        c_min = np.full(num, _INFINITY)
        c_min[heads] = np.minimum.reduceat(cand, starts)
        tie1 = cand == c_min[head]
        d_masked = np.where(tie1, dist_tail, _INFINITY)
        d_min = np.full(num, _INFINITY)
        d_min[heads] = np.minimum.reduceat(d_masked, starts)
        tie2 = tie1 & (d_masked == d_min[head])
        p_masked = np.where(tie2, tail, num)
        p_min = np.full(num, num, dtype=p_masked.dtype)
        p_min[heads] = np.minimum.reduceat(p_masked, starts)
        sink = self.topology.sink
        best_parent: Dict[int, Optional[int]] = {
            n: None if n == sink or c == _INFINITY else nodes[p]
            for n, c, p in zip(nodes, c_min.tolist(), p_min.tolist())
        }
        return best_parent, dict(zip(nodes, dist.tolist()))

    def _apply_parent_updates(
        self,
        best_parent: Dict[int, Optional[int]],
        dist: Dict[int, float],
        time: float,
    ) -> None:
        """Hysteresis-gated parent switches, then loop repair.

        Shared verbatim by both SPT solvers so mode choice can only
        change *how* the solution is computed, never which parents are
        adopted.
        """
        sink = self.topology.sink
        threshold = self.config.parent_switch_threshold
        for node in self.topology.nodes:
            if node == sink or not self._alive[node]:
                continue
            current = self._parent[node]
            candidate = best_parent[node]
            if candidate is None:
                continue  # unreachable this round; keep stale parent
            current_dead = current is not None and not self._alive[current]
            if current is None or current_dead:
                # Bootstrap, or forced switch off a dead parent: no hysteresis.
                self._set_parent(node, candidate, True, time)
                self._cost[node] = dist[node]
                continue
            current_cost = self._cost_through(node, current)
            new_cost = dist[node]
            if candidate != current and new_cost < current_cost - threshold:
                self._set_parent(node, candidate, True, time)
                self._cost[node] = new_cost
            else:
                self._cost[node] = current_cost
        # Hysteresis mixes this round's choices with stale ones, which can
        # compose into routing loops (A keeps old parent B while B now
        # routes through A). CTP detects and breaks such loops via cost
        # checks on the datapath; we repair them here.
        self._repair_loops(best_parent, dist, time)

    def _find_cycle(self) -> Optional[List[int]]:
        """A cycle in the parent graph restricted to alive nodes, or None."""
        state: Dict[int, int] = {}  # 0=in progress stack id marker, 1=done
        for start in self.topology.nodes:
            if start in state:
                continue
            path: List[int] = []
            index: Dict[int, int] = {}
            current: Optional[int] = start
            while current is not None:
                if current in index:
                    return path[index[current]:]  # found a cycle
                if state.get(current) == 1 or current == self.topology.sink:
                    break
                index[current] = len(path)
                path.append(current)
                nxt = self._parent.get(current)
                if nxt is not None and not self._alive.get(nxt, True):
                    break  # chain ends at a dead (stale) parent
                current = nxt
            for node in path:
                state[node] = 1
        return None

    def _repair_loops(
        self,
        best_parent: Dict[int, Optional[int]],
        dist: Dict[int, float],
        time: float,
    ) -> None:
        """Force members of any parent cycle onto their fresh Dijkstra choice.

        Fresh edges (strictly increasing dist along child -> parent) can
        only form forests, so every cycle contains at least one stale
        edge; each pass converts the current cycle's stale members to
        fresh (or detaches them when unreachable this round). A node
        forced fresh never reverts within one repair, so the stale set
        shrinks monotonically — even when forcing two members onto a
        shared fresh parent splices a *new* cycle through other stale
        edges, later passes consume it. If a pass makes no progress at
        all (every member already fresh — possible only in the rounding
        corner where ``fl(dist[p] + w) == dist[p]`` makes a fresh-edge
        cycle cost-stationary), fall through to the detach phase, which
        breaks each remaining cycle by construction.
        """
        for _ in range(self.topology.num_nodes):
            cycle = self._find_cycle()
            if cycle is None:
                return
            progressed = False
            for node in cycle:
                candidate = best_parent.get(node)
                if candidate is not None and candidate != self._parent[node]:
                    self._set_parent(node, candidate, True, time)
                    self._cost[node] = dist[node]
                    progressed = True
                elif candidate is None and self._parent[node] is not None:
                    # Unreachable this round: detach rather than loop.
                    self._set_parent(node, None, True, time)
                    self._cost[node] = _INFINITY
                    progressed = True
            if not progressed:
                break
        # Guaranteed termination: detach one member per remaining cycle
        # (each detach removes a parent edge, and the parent graph has at
        # most num_nodes edges). Unreachable in ordinary float regimes,
        # but "repair" must mean repaired.
        cycle = self._find_cycle()
        while cycle is not None:
            node = min(cycle)
            self._set_parent(node, None, True, time)
            self._cost[node] = _INFINITY
            cycle = self._find_cycle()

    def _cost_through(self, node: int, parent: int) -> float:
        return self._cost.get(parent, _INFINITY) + float(
            self._etx[self._edge_index[(node, parent)]]
        )

    def _set_parent(
        self, node: int, new_parent: Optional[int], _valid: bool, time: float
    ) -> None:
        old = self._parent[node]
        if old == new_parent:
            return
        self._parent[node] = new_parent
        # The very first assignment (old=None) is bootstrap, not churn.
        if old is not None:
            self.parent_change_log.append(ParentChange(time, node, old, new_parent))

    # -- queries ------------------------------------------------------------------

    def parent(self, node: int) -> Optional[int]:
        """Current parent of ``node`` (None only for the sink)."""
        if node == self.topology.sink:
            return None
        return self._parent[node]

    def route_cost(self, node: int) -> float:
        return self._cost[node]

    def tree_snapshot(self) -> Dict[int, Optional[int]]:
        """Current node -> parent map (copy)."""
        return dict(self._parent)

    def path_to_sink(self, node: int, *, max_hops: Optional[int] = None) -> List[int]:
        """Follow current parents from ``node`` to the sink.

        Raises if a routing loop or a dead end is encountered (callers that
        tolerate this — tomography snapshots — catch it).
        """
        limit = max_hops if max_hops is not None else self.topology.num_nodes + 1
        path = [node]
        current = node
        for _ in range(limit):
            if current == self.topology.sink:
                return path
            nxt = self._parent[current]
            if nxt is None or nxt in path:
                raise RuntimeError(f"no valid route from {node} (stuck at {current})")
            path.append(nxt)
            current = nxt
        raise RuntimeError(f"path from {node} exceeds {limit} hops")

    @property
    def total_parent_changes(self) -> int:
        return len(self.parent_change_log)

    @property
    def beacon_rounds(self) -> int:
        return self._beacon_rounds

    def churn_rate(self, duration: float) -> float:
        """Parent changes per node per second over ``duration``."""
        check_positive(duration, "duration")
        non_sink = self.topology.num_nodes - 1
        return self.total_parent_changes / (non_sink * duration)

    # -- simulator integration ------------------------------------------------------

    def attach(self, sim: Simulator) -> None:
        """Schedule periodic beacon rounds on ``sim``."""
        period = self.config.beacon_period
        jitter_rng = self._rng

        sim.every(
            period,
            lambda: self.beacon_round(sim.now),
            start=period,
            jitter=lambda: float(jitter_rng.uniform(-0.05, 0.05)) * period,
        )

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

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


class RoutingEngine:
    """Maintains the dynamic collection tree."""

    def __init__(
        self,
        topology: Topology,
        channel: Channel,
        rng_registry: RngRegistry,
        config: Optional[RoutingConfig] = None,
    ):
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
        self._spt_mode = "full"
        self._spt_cache: Optional[
            Tuple[
                List[int],
                Dict[int, int],
                "np.ndarray",
                "np.ndarray",
                "np.ndarray",
                "np.ndarray",
                "np.ndarray",
                "np.ndarray",
            ]
        ] = None
        # Warm start: seed estimates with the true ETX at t=0 (as a network
        # that has been running its estimator for a while would have).
        # Each directed edge's t=0 loss is gathered once and paired with
        # its reverse edge's through a permutation; per element this is
        # the same IEEE-754 subtract/multiply/max/divide sequence as
        # _true_etx, so the stored bits equal the scalar formula's.
        losses = np.fromiter(
            (channel.true_loss(u, v, 0.0) for u, v in self._edges),
            dtype=np.float64,
            count=len(self._edges),
        )
        reverse = np.fromiter(
            (self._edge_index[(v, u)] for u, v in self._edges),
            dtype=np.intp,
            count=len(self._edges),
        )
        p_data = 1.0 - losses
        success = np.maximum(1e-6, p_data * p_data[reverse])
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

    def set_spt_mode(self, mode: str) -> None:
        """Select the shortest-path kernel backing ``_recompute_tree``.

        ``"full"`` is the reference heap Dijkstra (the differential
        oracle); ``"incremental"`` is the vectorized Bellman–Ford solver
        seeded from the previous round's tree. Both produce bit-identical
        ``(best_parent, dist)`` solutions (see
        :meth:`_solve_spt_incremental` for the argument), so the
        hysteresis and cycle-repair decisions downstream are identical.
        """
        if mode not in ("full", "incremental"):
            raise ValueError(f"unknown SPT mode: {mode!r}")
        self._spt_mode = mode

    def _recompute_tree(self, time: float) -> None:
        """Shortest paths over estimated ETX, then hysteresis-gated updates.

        Dead nodes are skipped entirely: they cannot be parents, routes
        cannot pass through them, and their own (stale) parents are left
        untouched until they recover.
        """
        if self._spt_mode == "incremental":
            best_parent, dist = self._solve_spt_incremental()
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

    def _spt_structure(
        self,
    ) -> Tuple[
        List[int],
        Dict[int, int],
        "np.ndarray",
        "np.ndarray",
        "np.ndarray",
        "np.ndarray",
        "np.ndarray",
        "np.ndarray",
    ]:
        """Static per-topology arrays for the vectorized solver (lazy).

        Directed edges are kept in ``self._edges`` slot order so the
        weight array is ``self._etx`` itself (no per-call gather), viewed
        through a stable sort by head node so ``np.minimum.reduceat``
        can reduce each node's incoming candidates in one shot.
        """
        if self._spt_cache is None:
            nodes = list(self.topology.nodes)
            index = {n: i for i, n in enumerate(nodes)}
            edges = self._edges
            # Estimate key (u, v) prices node u routing *through* v.
            head = np.asarray([index[u] for (u, v) in edges], dtype=np.intp)
            tail = np.asarray([index[v] for (u, v) in edges], dtype=np.intp)
            order = np.argsort(head, kind="stable")
            heads_sorted = head[order]
            unique_heads, starts = np.unique(heads_sorted, return_index=True)
            tail_ids_sorted = np.asarray(
                [edges[i][1] for i in order.tolist()], dtype=np.int64
            )
            self._spt_cache = (
                nodes,
                index,
                tail,
                order,
                heads_sorted,
                unique_heads,
                starts,
                tail_ids_sorted,
            )
        return self._spt_cache

    def _solve_spt_incremental(
        self,
    ) -> Tuple[Dict[int, Optional[int]], Dict[int, float]]:
        """Vectorized shortest paths, bit-identical to the heap Dijkstra.

        **Distances.** IEEE-754 addition is monotone and ``fl(d + w) >= d``
        for ``w >= 0``, so both Dijkstra and Bellman–Ford compute the same
        quantity: the minimum over sink paths of the left-folded rounded
        sums, i.e. the unique fixpoint of

            dist[n] = min_p fl(dist[p] + w(n, p))    (alive p, sink = 0)

        reached from any starting point between the fixpoint and the
        all-infinity start within ``num_nodes`` sweeps. We seed the sweeps
        with the fold of the *new* weights along the previous round's
        parent chains — every finite seed entry is the cost of a real
        alive path, hence an upper bound on the fixpoint — so after small
        churn the solver converges in a couple of sweeps instead of the
        graph eccentricity ("incremental" in solution, not in semantics).

        **Parents.** Dijkstra pops in ``(dist, node)`` order and only a
        strict improvement rebinds a parent, so among minimal-cost
        candidates the winner is the first popped: the argmin under the
        key ``(fl(dist[p]+w), dist[p], p)``. Three masked ``reduceat``
        passes replicate that key exactly.
        """
        (
            nodes,
            index,
            tail,
            order,
            heads_sorted,
            unique_heads,
            starts,
            tail_ids_sorted,
        ) = self._spt_structure()
        num = len(nodes)
        sink = self.topology.sink
        sink_i = index[sink]
        weights = self._etx
        alive = np.fromiter(
            (self._alive[n] for n in nodes), dtype=bool, count=num
        )
        # A dead node selects no parent: its incoming candidates are
        # masked to +inf, which also keeps its dist at +inf so it never
        # relays (dist[tail] = inf poisons every path through it).
        tail_s = tail[order]
        w_s = np.where(alive[heads_sorted], weights[order], _INFINITY)
        # Seed: fold the new weights along the old parent chains.
        parent_i = np.arange(num, dtype=np.intp)
        parent_w = np.full(num, _INFINITY)
        for i, n in enumerate(nodes):
            p = self._parent[n]
            if n != sink and p is not None and alive[i] and self._alive[p]:
                parent_i[i] = index[p]
                parent_w[i] = self._etx[self._edge_index[(n, p)]]
        dist = np.full(num, _INFINITY)
        dist[sink_i] = 0.0
        for _ in range(num):
            folded = np.minimum(dist, dist[parent_i] + parent_w)
            folded[sink_i] = 0.0
            if np.array_equal(folded, dist):
                break
            dist = folded
        # Bellman–Ford sweeps to the fixpoint.
        for _ in range(num):
            cand_s = dist[tail_s] + w_s
            new = np.full(num, _INFINITY)
            new[unique_heads] = np.minimum.reduceat(cand_s, starts)
            new[sink_i] = 0.0
            if np.array_equal(new, dist):
                break
            dist = new
        # Parent selection: argmin of (cand, dist[parent], parent id).
        dist_tail_s = dist[tail_s]
        cand_s = dist_tail_s + w_s
        c_min = np.full(num, _INFINITY)
        c_min[unique_heads] = np.minimum.reduceat(cand_s, starts)
        tie1 = cand_s == c_min[heads_sorted]
        d_masked = np.where(tie1, dist_tail_s, _INFINITY)
        d_min = np.full(num, _INFINITY)
        d_min[unique_heads] = np.minimum.reduceat(d_masked, starts)
        tie2 = tie1 & (d_masked == d_min[heads_sorted])
        id_sentinel = int(tail_ids_sorted.max()) + 1 if len(tail_ids_sorted) else 0
        id_masked = np.where(tie2, tail_ids_sorted, id_sentinel)
        id_min = np.full(num, id_sentinel, dtype=np.int64)
        id_min[unique_heads] = np.minimum.reduceat(id_masked, starts)
        dist_list = dist.tolist()
        c_list = c_min.tolist()
        id_list = id_min.tolist()
        best_parent: Dict[int, Optional[int]] = {}
        dist_out: Dict[int, float] = {}
        for i, n in enumerate(nodes):
            dist_out[n] = dist_list[i]
            best_parent[n] = (
                None if n == sink or c_list[i] == _INFINITY else int(id_list[i])
            )
        return best_parent, dist_out

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

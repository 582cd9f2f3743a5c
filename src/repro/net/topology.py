"""Network topologies: node placement and radio connectivity.

A :class:`Topology` is an undirected connectivity graph (who can hear
whom) plus node positions and a designated sink. Link *quality* lives in
:mod:`repro.net.link`; the topology only says which links exist.

Generators mirror the setups used in WSN simulation studies: random
geometric graphs (the TOSSIM-style "random deployment"), grids, and
lines (for controlled path-length experiments).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.utils.rng import derive_rng

__all__ = [
    "Topology",
    "random_geometric_topology",
    "grid_topology",
    "line_topology",
    "topology_from_edges",
]


class Topology:
    """Undirected connectivity graph with positions and a sink node.

    Instances are immutable after construction, so all derived views —
    the sorted edge lists, the sink-hop map — are computed once and
    memoized. The memoized sequences are tuples: callers can iterate,
    index and ``list()`` them but cannot mutate the shared copies.
    """

    def __init__(
        self,
        graph: nx.Graph,
        sink: int,
        positions: Optional[Dict[int, Tuple[float, float]]] = None,
    ):
        if sink not in graph:
            raise ValueError(f"sink {sink} is not a node of the graph")
        if graph.number_of_nodes() < 2:
            raise ValueError("topology needs at least two nodes")
        self.graph = graph
        self.sink = sink
        self.positions = positions or {}
        # One vectorized BFS yields both the hop counts and the
        # connectivity check (connected iff every node was reached),
        # replacing nx.is_connected + nx BFS — two Python-level graph
        # traversals — on the construction path.
        self._hops_to_sink: Dict[int, int] = self._bfs_hops()
        self._undirected: Optional[Tuple[Tuple[int, int], ...]] = None
        self._directed: Optional[Tuple[Tuple[int, int], ...]] = None

    def _bfs_hops(self) -> Dict[int, int]:
        """Hop counts from the sink for every node, via a frontier BFS
        over flat edge arrays. Raises if the graph is disconnected.

        Produces exactly the distances ``nx.single_source_shortest_path_length``
        returns (BFS levels are unique, whatever the traversal order).
        """
        nodes = sorted(self.graph.nodes)
        num = len(nodes)
        index = {n: i for i, n in enumerate(nodes)}
        if self.graph.number_of_edges() == 0:
            raise ValueError("topology must be connected")
        us, vs = zip(*self.graph.edges)
        u_idx = np.fromiter((index[u] for u in us), dtype=np.intp, count=len(us))
        v_idx = np.fromiter((index[v] for v in vs), dtype=np.intp, count=len(vs))
        src = np.concatenate([u_idx, v_idx])
        dst = np.concatenate([v_idx, u_idx])
        order = np.argsort(src, kind="stable")
        src_sorted = src[order]
        dst_sorted = dst[order]
        starts = np.searchsorted(src_sorted, np.arange(num + 1))
        dist = np.full(num, -1, dtype=np.int64)
        frontier = np.asarray([index[self.sink]], dtype=np.intp)
        dist[frontier] = 0
        level = 0
        while frontier.size:
            level += 1
            reached = np.concatenate(
                [dst_sorted[starts[i] : starts[i + 1]] for i in frontier.tolist()]
            )
            fresh = np.unique(reached[dist[reached] < 0])
            dist[fresh] = level
            frontier = fresh
        if (dist < 0).any():
            raise ValueError("topology must be connected")
        return {n: int(d) for n, d in zip(nodes, dist.tolist())}

    # -- queries -----------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def nodes(self) -> List[int]:
        return sorted(self.graph.nodes)

    @property
    def num_edges(self) -> int:
        return self.graph.number_of_edges()

    def neighbors(self, node: int) -> List[int]:
        return sorted(self.graph.neighbors(node))

    def undirected_edges(self) -> Tuple[Tuple[int, int], ...]:
        """Each physical link once, as (min, max). Memoized, immutable."""
        if self._undirected is None:
            self._undirected = tuple(
                sorted((min(u, v), max(u, v)) for u, v in self.graph.edges)
            )
        return self._undirected

    def directed_edges(self) -> Tuple[Tuple[int, int], ...]:
        """Both directions of every physical link. Memoized, immutable."""
        if self._directed is None:
            out: List[Tuple[int, int]] = []
            for u, v in self.graph.edges:
                out.append((u, v))
                out.append((v, u))
            self._directed = tuple(sorted(out))
        return self._directed

    def hops_to_sink(self, node: int) -> int:
        return self._hops_to_sink[node]

    @property
    def max_depth(self) -> int:
        """Eccentricity of the sink (longest shortest path)."""
        return max(self._hops_to_sink.values())

    def distance(self, u: int, v: int) -> float:
        """Euclidean distance, if positions are known."""
        if u not in self.positions or v not in self.positions:
            raise KeyError("positions unknown for requested nodes")
        (x1, y1), (x2, y2) = self.positions[u], self.positions[v]
        return math.hypot(x1 - x2, y1 - y2)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Topology(nodes={self.num_nodes}, edges={self.num_edges},"
            f" sink={self.sink}, depth={self.max_depth})"
        )


def random_geometric_topology(
    num_nodes: int,
    *,
    seed: int,
    radius: Optional[float] = None,
    side: float = 1.0,
    sink_position: str = "corner",
    max_attempts: int = 50,
) -> Topology:
    """Random geometric deployment in a ``side``×``side`` square.

    Nodes are placed uniformly at random; two nodes are connected iff
    within ``radius``. If ``radius`` is omitted it starts at the
    connectivity threshold ``side * sqrt(2 * ln(n) / n)`` and grows until
    the graph is connected (re-drawing placements on failure).

    ``sink_position`` is ``"corner"`` (node 0 pinned at the origin — the
    classic collection layout maximizing path diversity) or ``"center"``.
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    if sink_position not in ("corner", "center"):
        raise ValueError("sink_position must be 'corner' or 'center'")
    rng = derive_rng(seed, "topology", "rgg")
    base_radius = radius if radius is not None else side * math.sqrt(
        2.0 * math.log(max(num_nodes, 3)) / num_nodes
    )
    for attempt in range(max_attempts):
        grow = 1.0 + 0.15 * attempt
        r = base_radius * (grow if radius is None else 1.0)
        coords = rng.uniform(0.0, side, size=(num_nodes, 2))
        pos: Dict[int, Tuple[float, float]] = {
            i: (float(x), float(y)) for i, (x, y) in enumerate(coords)
        }
        pos[0] = (0.0, 0.0) if sink_position == "corner" else (side / 2, side / 2)
        xs = coords[:, 0].copy()
        ys = coords[:, 1].copy()
        xs[0], ys[0] = pos[0]
        graph = nx.Graph()
        graph.add_nodes_from(range(num_nodes))
        # Blocked pairwise radius test. Identical to the scalar double
        # loop it replaces: fl(fl(dx*dx) + fl(dy*dy)) <= fl(r*r) per
        # pair with the same IEEE-754 operations, and row-major
        # ``nonzero`` preserves the (i ascending, j ascending) edge
        # insertion order that fixes neighbor-iteration order downstream.
        # Row blocks bound the temporaries to O(block * n) instead of
        # O(n^2).
        r2 = r * r
        for start in range(0, num_nodes, 256):
            stop = min(start + 256, num_nodes)
            dx = xs[start:stop, None] - xs[None, :]
            d2 = dx * dx
            dy = ys[start:stop, None] - ys[None, :]
            d2 += dy * dy
            ii, jj = np.nonzero(d2 <= r2)
            ii += start
            keep = jj > ii
            graph.add_edges_from(zip(ii[keep].tolist(), jj[keep].tolist()))
        if nx.is_connected(graph):
            return Topology(graph, sink=0, positions=pos)
        if radius is not None:
            continue  # fixed radius: just re-draw placements
    raise RuntimeError(
        f"could not generate a connected RGG with n={num_nodes} after {max_attempts} attempts"
    )


def grid_topology(
    rows: int,
    cols: int,
    *,
    spacing: float = 1.0,
    diagonal: bool = False,
) -> Topology:
    """Regular ``rows``×``cols`` grid; sink at node 0 (top-left corner).

    With ``diagonal=True`` nodes also hear their diagonal neighbours
    (8-connectivity), giving each node multiple candidate parents — the
    regime where dynamic parent selection matters.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid must contain at least two nodes")
    num = rows * cols
    r = np.repeat(np.arange(rows), cols)
    c = np.tile(np.arange(cols), rows)
    # Positions: same per-element float products as the scalar loop
    # (``c * spacing``, ``r * spacing``), evaluated array-at-once.
    xs = c * spacing
    ys = r * spacing
    positions: Dict[int, Tuple[float, float]] = {
        i: (float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))
    }
    offsets = [(0, 1), (1, 0)]
    if diagonal:
        offsets += [(1, 1), (1, -1)]
    # Candidate neighbours as an (n, k) block; the row-major boolean
    # flatten replays the scalar loop's exact edge insertion order
    # (node-major, offsets inner).
    dr = np.asarray([d for d, _ in offsets])
    dc = np.asarray([d for _, d in offsets])
    rr = r[:, None] + dr[None, :]
    cc = c[:, None] + dc[None, :]
    valid = (rr >= 0) & (rr < rows) & (cc >= 0) & (cc < cols)
    nid = r * cols + c
    nbr = rr * cols + cc
    us = np.broadcast_to(nid[:, None], valid.shape)[valid]
    vs = nbr[valid]
    graph = nx.Graph()
    graph.add_nodes_from(range(num))
    graph.add_edges_from(zip(us.tolist(), vs.tolist()))
    return Topology(graph, sink=0, positions=positions)


def line_topology(num_nodes: int, *, spacing: float = 1.0) -> Topology:
    """A chain 0-1-2-...-(n-1) with the sink at node 0.

    The controlled setting for encoding-overhead-vs-path-length sweeps:
    node ``i`` is exactly ``i`` hops from the sink.
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    graph = nx.path_graph(num_nodes)
    # Same per-element product as ``i * spacing`` in the scalar dict
    # comprehension, drawn array-at-once.
    xs = np.arange(num_nodes) * spacing
    positions = {i: (float(x), 0.0) for i, x in enumerate(xs)}
    return Topology(graph, sink=0, positions=positions)


def topology_from_edges(
    edges: Iterable[Tuple[int, int]],
    *,
    sink: int = 0,
    positions: Optional[Dict[int, Tuple[float, float]]] = None,
) -> Topology:
    """Build a topology from an explicit edge list (for tests and traces)."""
    graph = nx.Graph()
    graph.add_edges_from(edges)
    return Topology(graph, sink=sink, positions=positions)

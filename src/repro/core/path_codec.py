"""Compressed path encoding (extension).

Explicit per-hop node ids cost ``ceil(log2 N)`` bits each — the dominant
annotation cost on large networks (7 bits/hop at 100 nodes). But the
sink knows the deployment's connectivity (topologies are surveyed, and
neighbor sets change far more slowly than parents), and a forwarding
choice is *very* predictable: packets overwhelmingly go to a neighbor
closer to the sink, usually the same one.

This codec therefore encodes, per hop, the receiver's **rank** in a
canonical ordering of the sender's neighbors — sorted sinkward
(hop-distance to sink, then node id) — as one more arithmetic-coded
symbol in the annotation stream, under a shared geometric-over-rank
model. Typical cost: 1–2 bits per hop regardless of network size. The
decoder reconstructs the path progressively: knowing the current node,
a decoded rank identifies the next one.

This mirrors the path-reconstruction line of work (iPath, PathZip) the
same research group produced, recast into Dophy's annotation stream.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.coding.freq import FrequencyTable
from repro.net.topology import Topology

__all__ = ["PathRankModel", "RANK_DECAY"]

#: Geometric ratio of the rank prior, P(rank k) ∝ RANK_DECAY^k. A small
#: decay says "almost always the best sinkward neighbor".
RANK_DECAY = 0.35
#: Quantization budget of the shared rank table.
_RANK_TABLE_PRECISION = 4096


class PathRankModel:
    """Canonical neighbor rankings plus a shared rank-symbol model."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._order: Dict[int, List[int]] = {}
        self._rank: Dict[Tuple[int, int], int] = {}
        for node in topology.nodes:
            ordered = sorted(
                topology.neighbors(node),
                key=lambda v: (topology.hops_to_sink(v), v),
            )
            self._order[node] = ordered
            for k, v in enumerate(ordered):
                self._rank[(node, v)] = k
        self.max_degree = max(len(v) for v in self._order.values())
        probs = [RANK_DECAY**k for k in range(self.max_degree)]
        self.table = FrequencyTable.from_probabilities(
            probs, precision=_RANK_TABLE_PRECISION
        )

    @property
    def num_symbols(self) -> int:
        return self.max_degree

    def rank(self, sender: int, receiver: int) -> int:
        """The rank symbol for the hop sender -> receiver."""
        try:
            return self._rank[(sender, receiver)]
        except KeyError:
            raise ValueError(
                f"{receiver} is not a neighbor of {sender}"
            ) from None

    def neighbor_at(self, sender: int, rank: int) -> int:
        """Invert :meth:`rank`."""
        ordered = self._order.get(sender)
        if ordered is None:
            raise ValueError(f"unknown node {sender}")
        if not 0 <= rank < len(ordered):
            raise ValueError(
                f"rank {rank} out of range for node {sender} (degree {len(ordered)})"
            )
        return ordered[rank]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PathRankModel(nodes={self.topology.num_nodes},"
            f" max_degree={self.max_degree})"
        )

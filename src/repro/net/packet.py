"""Packet and per-hop record structures.

A :class:`Packet` is a data-collection message travelling from an origin
node to the sink. The simulator appends a :class:`HopRecord` for every
link traversal (the ground truth). The packet carries no annotation:
an annotation strategy keeps its in-flight payloads itself, keyed by
:attr:`Packet.key` (``DophySystem`` does), so several observers can
share one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["HopRecord", "Packet"]


@dataclass
class HopRecord:
    """Ground truth for one link traversal (visible to the simulator only).

    One is built per hop and shared by the packet's hop log and
    :attr:`repro.net.trace.GroundTruth.hops`; slots keep it small.
    """

    __slots__ = ("sender", "receiver", "attempts", "time", "delivered")

    sender: int
    receiver: int
    #: Total MAC transmissions used (1 = no retransmission).
    attempts: int
    #: Simulation time when the hop completed.
    time: float
    #: Whether the hop ultimately succeeded (False => packet dropped here).
    delivered: bool

    @property
    def retransmissions(self) -> int:
        """Retransmission count = attempts - 1 (what Dophy encodes)."""
        return self.attempts - 1

    @property
    def link(self) -> Tuple[int, int]:
        return (self.sender, self.receiver)


@dataclass
class Packet:
    """A data packet in flight from ``origin`` to the sink."""

    origin: int
    seqno: int
    created_at: float
    #: Ground-truth hop log (simulator-side; not visible to the sink).
    hops: List[HopRecord] = field(default_factory=list)
    #: Set when the packet reaches the sink.
    delivered_at: Optional[float] = None
    #: Set when the packet is dropped (max retries exhausted / TTL).
    dropped_at: Optional[float] = None
    #: Reason string when dropped ("retries", "ttl", "no_route").
    drop_reason: Optional[str] = None

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None

    @property
    def dropped(self) -> bool:
        return self.dropped_at is not None

    @property
    def hop_count(self) -> int:
        """Number of successful link traversals so far."""
        return sum(1 for h in self.hops if h.delivered)

    @property
    def path(self) -> List[int]:
        """Node sequence origin..last-receiver over successful hops."""
        nodes = [self.origin]
        for hop in self.hops:
            if hop.delivered:
                nodes.append(hop.receiver)
        return nodes

    @property
    def total_transmissions(self) -> int:
        """All MAC transmissions spent on this packet (including failed hops)."""
        return sum(h.attempts for h in self.hops)

    @property
    def key(self) -> Tuple[int, int]:
        """Globally unique packet identity (origin, seqno)."""
        return (self.origin, self.seqno)

    def record_hop(
        self, sender: int, receiver: int, attempts: int, time: float, delivered: bool
    ) -> HopRecord:
        """Append and return a ground-truth hop record."""
        record = HopRecord(sender, receiver, attempts, time, delivered)
        self.hops.append(record)
        return record

"""Bounded ingest queue with explicit backpressure policy.

The decode→estimate pipeline is pull-based and deterministic, but the
arrival rate (``arrival_burst`` records per round) and the service rate
(``service_batch`` records per round, further throttled by shard
backoff) are configured independently — exactly like a real sink whose
reporting fan-in outpaces its estimator workers. The queue between them
is *bounded* and the overflow behaviour is a named policy, never an
accident:

* ``block`` — the **source is paced**: the sink checks :attr:`full`
  before it pulls a record and, while the queue is full, stops pulling
  until service catches up (each such round counts as ``blocked``).
  Nothing is lost; latency grows. (For a trace replay this is flow
  control; for a live UDP sink it would be socket-buffer pushback.)
* ``shed`` — a full queue **drops the newest arrival** (counted, and
  per-link shed evidence is observable via the sink's stats). Latency
  stays bounded; estimate quality degrades smoothly — bench A8 measures
  that curve.

``high_water`` records the deepest the queue ever got, the metric a
capacity planner actually wants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List

from repro.stream.records import PacketRecord

__all__ = ["BoundedPacketQueue", "QueueStats", "QUEUE_POLICIES"]

#: Backpressure policies a sink can run its queue under.
QUEUE_POLICIES = ("block", "shed")


@dataclass
class QueueStats:
    """Counters of everything the queue ever did."""

    offered: int = 0
    accepted: int = 0
    shed: int = 0
    #: Ingest rounds the sink paused on a full queue under ``block``.
    blocked: int = 0
    high_water: int = 0


class BoundedPacketQueue:
    """Capacity-bounded FIFO between ingestion and shard dispatch."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = QueueStats()
        self._items: Deque[PacketRecord] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def offer(self, record: PacketRecord) -> bool:
        """Try to enqueue; returns False when the record was shed.

        A full queue drops the offered record for good (counted as
        shed). Under ``block`` the sink never offers to a full queue.
        """
        self.stats.offered += 1
        if self.full:
            self.stats.shed += 1
            return False
        self._items.append(record)
        self.stats.accepted += 1
        if len(self._items) > self.stats.high_water:
            self.stats.high_water = len(self._items)
        return True

    def pop_batch(self, limit: int) -> List[PacketRecord]:
        """Dequeue up to ``limit`` records in FIFO order."""
        if limit < 0:
            raise ValueError("limit must be >= 0")
        out: List[PacketRecord] = []
        while self._items and len(out) < limit:
            out.append(self._items.popleft())
        return out

    def snapshot(self) -> List[PacketRecord]:
        """Current contents, oldest first (for the sink manifest)."""
        return list(self._items)

    def restore(self, records: List[PacketRecord]) -> None:
        """Replace contents from a manifest snapshot."""
        if len(records) > self.capacity:
            raise ValueError("snapshot exceeds queue capacity")
        self._items = deque(records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BoundedPacketQueue({len(self._items)}/{self.capacity})"

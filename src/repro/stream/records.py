"""Packet records and the stable shard hash.

The streaming sink holds packet evidence in its bounded ingest queue,
writes it to the per-shard write-ahead spool, and saves the queued part
in its manifest, so the unit of work must be a small, immutable and
JSON-able value. :class:`PacketRecord` is that unit: one packet's
journey reduced to exactly what the estimator consumes, fed to it by
:func:`~repro.net.tracefile.feed_estimator` (re-exported here), the
evidence rule trace replay uses too.

Shard assignment must be identical in every process and across restarts
(Python's builtin ``hash`` is salted per process), so :func:`shard_index`
uses the same unsalted FNV-1a construction as
:mod:`repro.utils.rng`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

from repro.net.tracefile import feed_estimator

__all__ = [
    "PacketRecord",
    "evidence_links",
    "feed_estimator",
    "record_from_dict",
    "record_to_dict",
    "shard_index",
]

#: (sender, receiver, attempts, delivered) — one hop of a packet's path.
Hop = Tuple[int, int, int, bool]


@dataclass(frozen=True)
class PacketRecord:
    """One packet's journey, reduced to what the sink's estimators need."""

    origin: int
    seqno: int
    created_at: float
    delivered: bool
    #: (sender, receiver, attempts, delivered) per hop attempt.
    hops: Tuple[Hop, ...]


def record_to_dict(record: PacketRecord) -> Dict[str, Any]:
    """JSON-able form (used by the WAL spool and the sink manifest)."""
    return {
        "origin": record.origin,
        "seqno": record.seqno,
        "created_at": record.created_at,
        "delivered": record.delivered,
        "hops": [[s, r, a, d] for s, r, a, d in record.hops],
    }


def record_from_dict(data: Dict[str, Any]) -> PacketRecord:
    """Inverse of :func:`record_to_dict` (raises on malformed input)."""
    return PacketRecord(
        origin=int(data["origin"]),
        seqno=int(data["seqno"]),
        created_at=float(data["created_at"]),
        delivered=bool(data["delivered"]),
        hops=tuple(
            (int(s), int(r), int(a), bool(d)) for s, r, a, d in data["hops"]
        ),
    )


def shard_index(origin: int, seqno: int, n_shards: int) -> int:
    """Stable shard for a packet: FNV-1a over (origin, seqno), mod shards.

    Process- and restart-invariant (no hash salting), and uniform enough
    that shards stay balanced under round-robin seqnos.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    acc = 0x811C9DC5
    for value in (origin, seqno):
        for byte in (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"):
            acc ^= byte
            acc = (acc * 0x01000193) & 0xFFFFFFFF
    return acc % n_shards


def evidence_links(records: Iterable[PacketRecord]) -> List[Tuple[int, int]]:
    """Sorted set of links the records would have contributed evidence to."""
    links = {
        (sender, receiver)
        for record in records
        if record.delivered
        for sender, receiver, _attempts, delivered in record.hops
        if delivered
    }
    return sorted(links)

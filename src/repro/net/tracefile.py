"""Trace record / replay (extension).

Researchers evaluate estimators on *recorded* testbed traces at least as
often as on live systems. This module serializes a simulation's
packet-level ground truth to a line-delimited JSON trace file and
replays it offline — estimators can be re-run, re-configured and
compared without re-simulating (or, with a hand-written trace, run on
data from an entirely different source).

Format: one JSON object per line. A header line (`"type": "header"`)
carries run metadata and precedes every packet line; each packet line
(`"type": "packet"`) records the origin, timestamps, outcome and per-hop
(sender, receiver, attempts, delivered) tuples.
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.net.packet import Packet
from repro.net.simulation import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a package cycle)
    from repro.core.estimator import PerLinkEstimator

__all__ = [
    "TraceHeader",
    "TracePacket",
    "save_trace",
    "load_trace",
    "feed_estimator",
    "replay_into_estimator",
    "truth_from_header",
]

PathLike = Union[str, pathlib.Path]
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TraceHeader:
    """Run metadata carried in the trace's first line."""

    num_nodes: int
    sink: int
    duration: float
    max_attempts: int
    format_version: int = FORMAT_VERSION
    #: Optional ground-truth loss map {"u,v": loss} for offline scoring.
    true_losses: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class TracePacket:
    """One packet's journey."""

    origin: int
    seqno: int
    created_at: float
    delivered_at: Optional[float]
    drop_reason: Optional[str]
    #: (sender, receiver, attempts, delivered) per hop attempt.
    hops: List[Tuple[int, int, int, bool]]

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None


def _packet_record(packet: Packet) -> dict:
    return {
        "type": "packet",
        "origin": packet.origin,
        "seqno": packet.seqno,
        "created_at": packet.created_at,
        "delivered_at": packet.delivered_at,
        "drop_reason": packet.drop_reason,
        "hops": [
            [h.sender, h.receiver, h.attempts, h.delivered] for h in packet.hops
        ],
    }


def save_trace(
    result: SimulationResult,
    path: PathLike,
    *,
    include_truth: bool = True,
) -> pathlib.Path:
    """Write a run's packets (and optionally ground truth) as a trace file."""
    path = pathlib.Path(path)
    truth = (
        {
            f"{u},{v}": loss
            for (u, v), loss in result.ground_truth.true_loss_map().items()
        }
        if include_truth
        else {}
    )
    header = {
        "type": "header",
        "format_version": FORMAT_VERSION,
        "num_nodes": result.topology.num_nodes,
        "sink": result.topology.sink,
        "duration": result.duration,
        "max_attempts": result.config.mac.max_attempts,
        "true_losses": truth,
    }
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for packet in result.packets:
            fh.write(json.dumps(_packet_record(packet)) + "\n")
    return path


#: JSON number types (``bool`` is excluded: ``type(True)`` is ``bool``).
_NUMBER = (int, float)

#: A ``true_losses`` key: ``"u,v"`` with integer ``u`` and ``v``.
_LINK_KEY = re.compile(r"-?[0-9]+,-?[0-9]+")


def _parse_hops(
    lineno: int, hops: Any, max_attempts: int
) -> List[Tuple[int, int, int, bool]]:
    """A packet line's hops as tuples.

    Rejects a hop that is not ``[sender, receiver, attempts, delivered]``
    with integer endpoints and a boolean outcome, and a delivered hop
    whose attempt count lies outside ``[1, max_attempts]``, which no
    estimator can take.
    """
    if type(hops) is not list:
        raise ValueError(f"line {lineno}: hops {hops!r} is not a list")
    out = []
    for hop in hops:
        if type(hop) is not list or len(hop) != 4:
            raise ValueError(
                f"line {lineno}: hop {hop!r} is not "
                "[sender, receiver, attempts, delivered]"
            )
        sender, receiver, attempts, delivered = hop
        if type(sender) is not int or type(receiver) is not int:
            raise ValueError(
                f"line {lineno}: hop {hop!r} has a non-integer sender or receiver"
            )
        if type(delivered) is not bool:
            raise ValueError(
                f"line {lineno}: hop {hop!r} has a non-boolean delivered flag"
            )
        if delivered and not (type(attempts) is int and 1 <= attempts <= max_attempts):
            raise ValueError(
                f"line {lineno}: delivered hop {hop!r} has attempt count "
                f"{attempts!r} outside [1, {max_attempts}]"
            )
        out.append((sender, receiver, attempts, delivered))
    return out


def _parse_header(lineno: int, record: Dict[str, Any]) -> TraceHeader:
    if record.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"line {lineno}: unsupported trace format version "
            f"{record.get('format_version')!r}"
        )
    try:
        header = TraceHeader(
            num_nodes=record["num_nodes"],
            sink=record["sink"],
            duration=record["duration"],
            max_attempts=record["max_attempts"],
            true_losses=record.get("true_losses", {}),
        )
    except KeyError as exc:
        raise ValueError(f"line {lineno}: header has no {exc.args[0]!r}") from None
    if type(header.max_attempts) is not int or header.max_attempts < 1:
        raise ValueError(
            f"line {lineno}: max_attempts {header.max_attempts!r} is not a "
            "positive integer"
        )
    # truth_from_header reads this map after the load; check it here so
    # a bad entry names its line before any state exists.
    losses = header.true_losses
    if type(losses) is not dict:
        raise ValueError(f"line {lineno}: true_losses {losses!r} is not a JSON object")
    for key, loss in losses.items():
        if not _LINK_KEY.fullmatch(key) or type(loss) not in _NUMBER:
            raise ValueError(
                f"line {lineno}: true_losses entry {key!r}: {loss!r} must map "
                '"u,v" with integer u and v to a number'
            )
    return header


def _parse_packet(
    lineno: int, record: Dict[str, Any], max_attempts: int
) -> TracePacket:
    try:
        origin = record["origin"]
        seqno = record["seqno"]
        created_at = record["created_at"]
        hops = record["hops"]
    except KeyError as exc:
        raise ValueError(f"line {lineno}: packet has no {exc.args[0]!r}") from None
    delivered_at = record.get("delivered_at")
    if type(origin) is not int or type(seqno) is not int:
        raise ValueError(
            f"line {lineno}: origin {origin!r} and seqno {seqno!r} must be integers"
        )
    if type(created_at) not in _NUMBER:
        raise ValueError(f"line {lineno}: created_at {created_at!r} is not a number")
    if delivered_at is not None and type(delivered_at) not in _NUMBER:
        raise ValueError(
            f"line {lineno}: delivered_at {delivered_at!r} is neither a number nor null"
        )
    return TracePacket(
        origin=origin,
        seqno=seqno,
        created_at=created_at,
        delivered_at=delivered_at,
        drop_reason=record.get("drop_reason"),
        hops=_parse_hops(lineno, hops, max_attempts),
    )


def load_trace(path: PathLike) -> Tuple[TraceHeader, List[TracePacket]]:
    """Read a trace file back into structured records.

    Raises ``ValueError`` naming the line of a malformed record: one that
    is not a JSON object, lacks a key its type needs or holds a value of
    the wrong type. The header must come before the first packet.
    """
    path = pathlib.Path(path)
    header: Optional[TraceHeader] = None
    packets: List[TracePacket] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: not JSON ({exc})") from None
            if type(record) is not dict:
                raise ValueError(f"line {lineno}: {record!r} is not a JSON object")
            kind = record.get("type")
            if kind == "header":
                header = _parse_header(lineno, record)
            elif kind == "packet":
                if header is None:
                    raise ValueError(f"line {lineno}: no header line before this packet")
                packets.append(_parse_packet(lineno, record, header.max_attempts))
            else:
                raise ValueError(f"line {lineno}: unknown record type {kind!r}")
    if header is None:
        raise ValueError("trace has no header line")
    return header, packets


def feed_estimator(
    estimator: "PerLinkEstimator",
    packets: Iterable[Any],
    *,
    delivered_only: bool = True,
) -> int:
    """Feed recorded packets' hop evidence into an estimator; returns hops added.

    This is the **single** evidence rule for recorded hops: the batch
    replay below and the streaming sink (which imports it as
    ``repro.stream.records.feed_estimator``) both go through it, which is
    what makes "zero-fault streaming is bit-identical to the batch sink"
    a structural property rather than a coincidence. A packet is anything
    with ``delivered``, ``created_at`` and ``(sender, receiver, attempts,
    delivered)`` ``hops``: a :class:`TracePacket` or a streaming record.

    ``delivered_only=True`` replicates what an in-band annotation system
    can observe (evidence from dropped packets never reaches the sink);
    False replays every successful hop — the out-of-band upper bound.
    Only successful hops carry an attempt count.
    """
    added = 0
    for packet in packets:
        if delivered_only and not packet.delivered:
            continue
        for sender, receiver, attempts, delivered in packet.hops:
            if not delivered:
                continue
            estimator.add_exact(
                (sender, receiver), attempts - 1, packet.created_at
            )
            added += 1
    return added


def replay_into_estimator(
    header: TraceHeader,
    packets: Iterable[TracePacket],
    *,
    estimator: "Optional[PerLinkEstimator]" = None,
    delivered_only: bool = True,
) -> "PerLinkEstimator":
    """Feed a trace's hop evidence into a per-link estimator
    (:func:`feed_estimator`; a new one when ``estimator`` is None).

    Hop attempts in traces are sender-side counts, which equal the
    receiver's first-arrival attempt under perfect ACKs (the simulator
    default); with lossy ACKs replayed estimates skew slightly high.
    """
    from repro.core.estimator import PerLinkEstimator

    est = estimator or PerLinkEstimator(max_attempts=header.max_attempts)
    feed_estimator(est, packets, delivered_only=delivered_only)
    return est


def truth_from_header(header: TraceHeader) -> Dict[Tuple[int, int], float]:
    """Decode the header's ground-truth map back to link tuples."""
    out: Dict[Tuple[int, int], float] = {}
    for key, loss in header.true_losses.items():
        u, v = key.split(",")
        out[(int(u), int(v))] = float(loss)
    return out

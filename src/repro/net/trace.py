"""Ground-truth trace collection.

The simulator appends every hop-level ARQ exchange's
:class:`~repro.net.packet.HopRecord` to :attr:`GroundTruth.hops`, in
exchange order: how many frames were sent, and whether the hop
succeeded (with perfect ACKs a delivered hop's attempt count is the
attempt that first got through). Per-link tallies
(:attr:`GroundTruth.link_usage`) are folded from that list when read.
Estimators are scored against either the configured (model) loss ratios
or the *empirical* realized frame-loss fractions — the latter is the
fair finite-sample reference, since even a perfect estimator can only
know what the channel actually did.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.link import Channel
from repro.net.packet import HopRecord, Packet

__all__ = ["GroundTruth", "LinkUsage"]


@dataclass
class LinkUsage:
    """Aggregated ground truth for one directed link."""

    #: Number of hop-level ARQ exchanges (packets attempted on this link).
    exchanges: int = 0
    #: Total data frames sent.
    frames_sent: int = 0
    #: Exchanges in which the receiver got at least one copy.
    received: int = 0
    #: Sum of (first_received_attempt - 1) over received exchanges.
    retransmissions_observed: int = 0
    #: Per-exchange first-received attempt numbers (1-based), None for failures.
    attempt_samples: List[Optional[int]] = field(default_factory=list)

    @property
    def hop_delivery_ratio(self) -> Optional[float]:
        """Fraction of exchanges that delivered (after all retries)."""
        if self.exchanges == 0:
            return None
        return self.received / self.exchanges

    @property
    def mean_retransmissions(self) -> Optional[float]:
        if self.received == 0:
            return None
        return self.retransmissions_observed / self.received


class GroundTruth:
    """Accumulates simulator-side truth over one run."""

    def __init__(self, channel: Channel):
        self.channel = channel
        #: Every hop-level ARQ exchange of the run, in exchange order.
        self.hops: List[HopRecord] = []
        self.packets_generated = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.drop_reasons: Dict[str, int] = defaultdict(int)
        self._t_start: Optional[float] = None
        self._t_end: Optional[float] = None
        self._usage: Dict[Tuple[int, int], LinkUsage] = defaultdict(LinkUsage)
        self._folded = 0

    # -- recording ---------------------------------------------------------------

    def record_generated(self, packet: Packet) -> None:
        self.packets_generated += 1
        if self._t_start is None or packet.created_at < self._t_start:
            self._t_start = packet.created_at

    @property
    def link_usage(self) -> Dict[Tuple[int, int], LinkUsage]:
        """Per-link tallies, keyed in order of each link's first exchange.

        Hops appended since the last read are folded in, in exchange
        order, so a read part-way through a run and another at its end
        give what one fold of the whole list gives.
        """
        self._fold()
        return self._usage

    def _fold(self) -> None:
        hops = self.hops
        if self._folded == len(hops):
            return
        usage_map = self._usage
        t_end = self._t_end or 0.0
        for hop in hops[self._folded:]:
            usage = usage_map[(hop.sender, hop.receiver)]
            usage.exchanges += 1
            usage.frames_sent += hop.attempts
            if hop.delivered:
                usage.attempt_samples.append(hop.attempts)
                usage.received += 1
                usage.retransmissions_observed += hop.attempts - 1
            else:
                usage.attempt_samples.append(None)
            t_end = max(t_end, hop.time)
        self._t_end = t_end
        self._folded = len(hops)

    def record_delivered(self, packet: Packet) -> None:
        self.packets_delivered += 1

    def record_dropped(self, packet: Packet) -> None:
        self.packets_dropped += 1
        self.drop_reasons[packet.drop_reason or "unknown"] += 1

    # -- references for scoring ------------------------------------------------------

    def used_links(self) -> List[Tuple[int, int]]:
        """Directed links that carried at least one data exchange."""
        return sorted({(hop.sender, hop.receiver) for hop in self.hops})

    def true_loss(self, link: Tuple[int, int], *, kind: str = "empirical") -> Optional[float]:
        """Ground-truth loss ratio for a directed link.

        ``kind='empirical'`` — realized frame-loss fraction (None if the link
        never carried a frame). ``kind='model'`` — the configured model loss
        averaged over the observation window.
        """
        u, v = link
        if kind == "empirical":
            return self.channel.empirical_loss(u, v)
        if kind == "model":
            self._fold()
            t0 = self._t_start if self._t_start is not None else 0.0
            t1 = self._t_end if self._t_end is not None else t0
            return self.channel.mean_loss(u, v, t0, t1)
        raise ValueError(f"unknown ground-truth kind {kind!r}")

    def true_loss_map(self, *, kind: str = "empirical") -> Dict[Tuple[int, int], float]:
        """Ground-truth losses for every link that carried traffic."""
        out: Dict[Tuple[int, int], float] = {}
        for link in self.used_links():
            value = self.true_loss(link, kind=kind)
            if value is not None:
                out[link] = value
        return out

    # -- summary -----------------------------------------------------------------------

    @property
    def delivery_ratio(self) -> Optional[float]:
        if self.packets_generated == 0:
            return None
        return self.packets_delivered / self.packets_generated

    @property
    def observation_window(self) -> Tuple[float, float]:
        self._fold()
        return (self._t_start or 0.0, self._t_end or 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GroundTruth(generated={self.packets_generated},"
            f" delivered={self.packets_delivered}, hops={len(self.hops)})"
        )

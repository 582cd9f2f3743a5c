"""Stop-and-wait ARQ MAC with bounded retransmissions.

Models the hop-by-hop reliability layer data-collection protocols rely
on (and that Dophy piggybacks on): the sender transmits a frame, waits
for an ACK, and retries up to ``max_retries`` extra times.

ACKs are perfect, so the first frame the receiver gets ends the
exchange: the sender's transmission count equals the attempt index of
that frame — a clean geometric draw with success probability = the
forward link's delivery ratio. Dophy annotations record this count
(each frame carries its attempt number in a constant-size MAC header
field common to every scheme, so it cancels out of overhead
comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.net.link import Channel

__all__ = ["MacConfig", "MacResult", "ArqMac", "TX_TIME", "RETRY_INTERVAL"]

#: Airtime of one data frame + ACK exchange, seconds.
TX_TIME = 0.005
#: Gap between retransmission attempts, seconds.
RETRY_INTERVAL = 0.01


@dataclass(frozen=True)
class MacConfig:
    """ARQ parameters (defaults follow TinyOS/CTP conventions)."""

    #: Extra transmissions after the first (CTP default is large; 30 here).
    max_retries: int = 30

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1


class MacResult(NamedTuple):
    """Outcome of one hop-level ARQ exchange.

    A named tuple rather than a dataclass: one is built per hop, and a
    tuple is the cheapest record to construct.
    """

    #: Total frames the sender transmitted.
    attempts: int
    #: Attempt index (1-based) of the first frame the receiver got; None = none arrived.
    first_received_attempt: Optional[int]
    #: Simulation time when the exchange ended.
    end_time: float

    @property
    def received(self) -> bool:
        """Whether the receiver got at least one copy."""
        return self.first_received_attempt is not None

    @property
    def receiver_retransmissions(self) -> Optional[int]:
        """Retransmissions before first reception — the symbol Dophy encodes."""
        if self.first_received_attempt is None:
            return None
        return self.first_received_attempt - 1


class ArqMac:
    """Executes ARQ exchanges over a :class:`~repro.net.link.Channel`."""

    def __init__(self, channel: Channel, config: Optional[MacConfig] = None):
        self.channel = channel
        self.config = config or MacConfig()

    def send(self, sender: int, receiver: int, start_time: float) -> MacResult:
        """Run one full ARQ exchange starting at ``start_time``.

        Channel state (burst processes, drifting losses) advances with the
        per-attempt timestamps, so bursty links produce correlated
        retransmission runs as they do in reality.
        """
        max_attempts = self.config.max_attempts
        time = start_time
        first_received: Optional[int] = None
        attempts = 0
        while attempts < max_attempts:
            attempts += 1
            if self.channel.transmit(sender, receiver, time):
                first_received = attempts
                time += TX_TIME
                break
            time += TX_TIME + RETRY_INTERVAL
        return MacResult(attempts, first_received, time)

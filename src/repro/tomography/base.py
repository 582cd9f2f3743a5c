"""Shared machinery for the end-to-end tomography baselines.

End-to-end approaches see only (a) which packets each origin delivered
and (b) an *assumed* routing topology — they cannot see per-hop events.
:class:`EndToEndObserver` collects those observations inside the
simulator; concrete estimators subclass it and implement :meth:`solve`.

The assumed topology is the crux of the paper's comparison: it is one
snapshot of the routing tree taken when the run starts, which the
estimator trusts for the whole run while parents change under it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.packet import Packet
from repro.net.simulation import CollectionSimulation, NullObserver

__all__ = [
    "TomographyResult",
    "EndToEndObserver",
    "hop_success_to_frame_loss",
    "hop_success_to_frame_loss_array",
]


def hop_success_to_frame_loss(hop_success: float, max_attempts: int) -> float:
    """Convert hop-level (post-ARQ) success ``s = 1 - p^A`` back to frame loss ``p``.

    End-to-end methods estimate whether whole hops succeed after retries;
    the paper's metric is the per-frame loss ratio, so the retry cap must
    be inverted out.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    s = min(1.0, max(0.0, hop_success))
    return (1.0 - s) ** (1.0 / max_attempts)


def hop_success_to_frame_loss_array(
    hop_success: "np.ndarray", max_attempts: int
) -> "np.ndarray":
    """Vectorized :func:`hop_success_to_frame_loss` over a success vector."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    s = np.clip(hop_success, 0.0, 1.0)
    return (1.0 - s) ** (1.0 / max_attempts)


@dataclass
class TomographyResult:
    """Per-link frame-loss estimates plus bookkeeping."""

    #: Directed link -> estimated frame loss ratio.
    losses: Dict[Tuple[int, int], float]
    #: Directed link -> number of end-to-end observations informing it.
    support: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: Diagnostic: did the solver converge / have full rank.
    converged: bool = True
    method: str = ""


@dataclass
class _OriginStats:
    generated: int = 0
    delivered: int = 0
    dropped: int = 0

    @property
    def resolved(self) -> int:
        """Packets whose fate is known: delivered or dropped.

        Packets still in flight (pending) are excluded — counting them
        as resolved would bias mid-run delivery ratios low.
        """
        return self.delivered + self.dropped

    @property
    def delivery_ratio(self) -> Optional[float]:
        if self.resolved == 0:
            return None
        return self.delivered / self.resolved


class EndToEndObserver(NullObserver):
    """Collects end-to-end outcomes and assumed paths during a run."""

    def __init__(self) -> None:
        self._stats: Dict[int, _OriginStats] = defaultdict(_OriginStats)
        #: Per-packet record: (origin, assumed path links, delivered).
        self._packet_obs: List[Tuple[int, Tuple[Tuple[int, int], ...], bool]] = []
        self._pending: Dict[Tuple[int, int], Tuple[int, Tuple[Tuple[int, int], ...]]] = {}
        self._assumed_paths: Dict[int, Tuple[int, ...]] = {}
        self._max_attempts = 1

    # -- simulation wiring ----------------------------------------------------------

    def attach(self, simulation: CollectionSimulation) -> None:
        """Capture every node's path to the sink as the run starts."""
        self._max_attempts = simulation.config.mac.max_attempts
        routing = simulation.routing
        topo = simulation.topology
        for node in topo.nodes:
            if node == topo.sink:
                continue
            try:
                self._assumed_paths[node] = tuple(routing.path_to_sink(node))
            except RuntimeError:
                continue  # unroutable at start-up; no assumed path

    def assumed_links(self, origin: int) -> Optional[Tuple[Tuple[int, int], ...]]:
        """The links origin's packets are *assumed* to traverse."""
        path = self._assumed_paths.get(origin)
        if path is None:
            return None
        return tuple(zip(path, path[1:]))

    # -- packet lifecycle --------------------------------------------------------------

    def on_packet_created(self, packet: Packet, time: float) -> None:
        links = self.assumed_links(packet.origin)
        if links is None:
            return  # cannot attribute this packet; skip it entirely
        stats = self._stats[packet.origin]
        stats.generated += 1
        self._pending[packet.key] = (packet.origin, links)

    def on_packet_delivered(self, packet: Packet, time: float) -> None:
        entry = self._pending.pop(packet.key, None)
        if entry is None:
            return
        origin, links = entry
        self._stats[origin].delivered += 1
        self._packet_obs.append((origin, links, True))

    def on_packet_dropped(self, packet: Packet, time: float) -> None:
        entry = self._pending.pop(packet.key, None)
        if entry is None:
            return
        origin, links = entry
        self._stats[origin].dropped += 1
        self._packet_obs.append((origin, links, False))

    # -- data access for solvers ----------------------------------------------------------

    @property
    def max_attempts(self) -> int:
        return self._max_attempts

    @property
    def packet_observations(
        self,
    ) -> List[Tuple[int, Tuple[Tuple[int, int], ...], bool]]:
        """(origin, assumed links, delivered) per packet."""
        return self._packet_obs

    def packets_resolved(self, origin: int) -> int:
        """How many of ``origin``'s packets were delivered or dropped.

        Equals the number of :attr:`packet_observations` from ``origin``:
        each observation is appended as exactly one of the two is counted.
        """
        stats = self._stats.get(origin)
        return 0 if stats is None else stats.resolved

    def delivery_ratios(self) -> Dict[int, float]:
        """Per-origin end-to-end delivery ratio over the whole run."""
        out = {}
        for origin, stats in self._stats.items():
            r = stats.delivery_ratio
            if r is not None:
                out[origin] = r
        return out

    # -- the estimator interface -----------------------------------------------------------

    def solve(self) -> TomographyResult:
        """Produce per-link frame-loss estimates (implemented by subclasses)."""
        raise NotImplementedError

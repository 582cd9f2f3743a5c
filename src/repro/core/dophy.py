"""DophySystem — the full protocol as a simulation observer.

Wires the annotation codec, model manager and estimator into a
:class:`~repro.net.simulation.CollectionSimulation`:

* packet created  → attach a fresh annotation pinned to the current epoch;
* hop delivered   → the receiver appends (node id, retx symbol);
* packet at sink  → serialize → decode the real bits → feed the per-link
  estimator and the model re-estimation stream;
* on a schedule   → the sink publishes a new probability model
  (dissemination bits are charged to the control plane).

Model dissemination has two modes. By default it is idealized: a
published model reaches every node at once, losslessly, charged as one
flood. With
``dissemination_loss > 0`` (or blocked nodes) it becomes **lossy
broadcast rounds**: each round reaches every straggler independently
with probability ``1 - loss``, repair rounds re-broadcast under capped
exponential backoff, every round's bits are charged per actual receiver
set, and each node encodes against the epoch it *last received* — the
sink's epoch-history window absorbs moderately-stale packets, while
packets from nodes stuck beyond it fail to decode as ``unknown_epoch``.

The sink degrades gracefully under faults: decode failures are counted
per cause (see :mod:`repro.core.decoder`), a :class:`~repro.net.faults.FaultPlan`
can corrupt or truncate deliveries, and the hop prefix decoded before a
failure is salvaged into the estimator when it passes a topology
path-consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.annotation import AnnotationCodec, DophyAnnotation
from repro.core.config import DophyConfig
from repro.core.decoder import (
    DECODE_FAILURE_CAUSES,
    AnnotationDecodeError,
    DecodedAnnotation,
    decode_annotation,
)
from repro.core.estimator import LinkEstimate, PerLinkEstimator
from repro.core.model import ModelManager
from repro.core.path_codec import PathRankModel
from repro.core.symbols import SymbolSet
from repro.net.faults import FaultPlan
from repro.net.packet import Packet
from repro.net.simulation import CollectionSimulation, NullObserver

__all__ = ["DophySystem", "DophyReport", "DecodeListener"]

#: Callback invoked for every decoded annotation: ``fn(decoded, sim_time)``.
DecodeListener = Callable[[DecodedAnnotation, float], None]


@dataclass
class DophyReport:
    """Summary of what Dophy measured and what it cost."""

    estimates: Dict[Tuple[int, int], LinkEstimate]
    packets_decoded: int
    decode_failures: int
    #: Wire bits of every delivered annotation.
    annotation_bits: List[int] = field(default_factory=list)
    #: Hop counts of every delivered annotation (for bits-per-hop).
    annotation_hops: List[int] = field(default_factory=list)
    dissemination_bits: int = 0
    model_updates: int = 0
    #: Decode failures attributed by cause (always all four causes).
    decode_failure_causes: Dict[str, int] = field(default_factory=dict)
    #: Failed decodes whose clean hop prefix passed the consistency check.
    salvaged_packets: int = 0
    salvaged_hops: int = 0
    #: Lossy-dissemination activity (0 in idealized mode).
    dissemination_rounds: int = 0
    repair_rounds: int = 0
    #: Nodes still behind the newest epoch when the run ended.
    stale_nodes: int = 0

    @property
    def total_annotation_bits(self) -> int:
        return sum(self.annotation_bits)

    @property
    def mean_annotation_bits(self) -> float:
        if not self.annotation_bits:
            return 0.0
        return sum(self.annotation_bits) / len(self.annotation_bits)

    @property
    def mean_bits_per_hop(self) -> float:
        hops = sum(self.annotation_hops)
        if hops == 0:
            return 0.0
        return sum(self.annotation_bits) / hops

    @property
    def total_overhead_bits(self) -> int:
        """Annotations + control plane — the paper's overall overhead metric."""
        return self.total_annotation_bits + self.dissemination_bits

    @property
    def attributed_failures(self) -> int:
        """Sum of the per-cause counters; equals ``decode_failures``."""
        return sum(self.decode_failure_causes.values())


class DophySystem(NullObserver):
    """Dophy wired into the collection simulation."""

    def __init__(
        self,
        config: Optional[DophyConfig] = None,
        *,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.config = config or DophyConfig()
        self._faults = faults
        # Populated on attach (needs topology/MAC facts).
        self._codec: Optional[AnnotationCodec] = None
        self._models: Optional[ModelManager] = None
        self._estimator: Optional[PerLinkEstimator] = None
        self._sink: Optional[int] = None
        # Per-packet in-flight annotations, keyed by (origin, seqno). Kept
        # here, not on the packet, so multiple measurement observers can
        # share one run without clobbering each other.
        self._inflight: Dict[Tuple[int, int], DophyAnnotation] = {}
        self._annotation_bits: List[int] = []
        self._annotation_hops: List[int] = []
        self._packets_decoded = 0
        self._decode_failures = 0
        self._decode_failure_causes: Dict[str, int] = {
            cause: 0 for cause in DECODE_FAILURE_CAUSES
        }
        self._salvaged_packets = 0
        self._salvaged_hops = 0
        self._dissemination_rounds = 0
        self._repair_rounds = 0
        self._blocked: Set[int] = set()
        self._edges: Set[Tuple[int, int]] = set()
        self._attached = False
        #: Callbacks fn(decoded, time) invoked for every decoded annotation —
        #: e.g. a SlidingLinkEstimator's add_decoded for drift tracking.
        self._decode_listeners: List[DecodeListener] = []

    def add_decode_listener(self, listener: "DecodeListener") -> None:
        """Register ``fn(decoded: DecodedAnnotation, time: float)``."""
        if not callable(listener):
            raise TypeError("listener must be callable")
        self._decode_listeners.append(listener)

    # -- simulation lifecycle -----------------------------------------------------

    def attach(self, simulation: CollectionSimulation) -> None:
        cfg = self.config
        mac_max_retries = simulation.config.mac.max_retries
        if cfg.max_count != mac_max_retries:
            # Re-derive the symbol alphabet from the actual MAC cap so every
            # possible count is encodable and none are wasted. ``replace``
            # (not a field-by-field rebuild) so every other knob survives.
            k = cfg.aggregation_threshold
            if k is not None:
                k = min(k, mac_max_retries) if mac_max_retries >= 1 else None
            cfg = replace(
                cfg,
                max_count=max(mac_max_retries, 0),
                aggregation_threshold=k,
            )
            self.config = cfg
        symbol_set = SymbolSet(cfg.max_count, cfg.aggregation_threshold)
        self._models = ModelManager(
            symbol_set,
            initial_expected_loss=cfg.initial_expected_loss,
            update_period=cfg.model_update_period,
            epoch_history=cfg.epoch_history,
            num_nodes_for_dissemination=simulation.topology.num_nodes,
            num_classes=cfg.link_classes,
            auto_aggregation=cfg.auto_aggregation,
        )
        path_model = (
            PathRankModel(simulation.topology)
            if cfg.path_encoding == "compressed"
            else None
        )
        self._codec = AnnotationCodec(
            cfg, self._models, simulation.topology.num_nodes, path_model
        )
        self._estimator = PerLinkEstimator(max_attempts=cfg.max_count + 1)
        self._sink = simulation.topology.sink
        self._edges = set(simulation.topology.directed_edges())
        if cfg.lossy_dissemination:
            tracked = [n for n in simulation.topology.nodes if n != self._sink]
            self._models.enable_per_node_epochs(tracked)
            self._blocked = set(cfg.dissemination_blocked_nodes) & set(tracked)
        self._attached = True
        if cfg.model_update_period is not None:
            simulation.sim.every(
                cfg.model_update_period,
                lambda: self._model_update_tick(simulation),
            )

    def _model_update_tick(self, simulation: CollectionSimulation) -> None:
        published = self._models.maybe_update(simulation.sim.now)
        if published and self.config.lossy_dissemination:
            self._broadcast_round(simulation, self._models.current_epoch, 0)

    def _broadcast_round(
        self, simulation: CollectionSimulation, epoch: int, round_index: int
    ) -> None:
        """One (re-)broadcast of ``epoch``'s model to its stragglers."""
        cfg = self.config
        targets = self._models.nodes_behind(epoch)
        if not targets:
            return  # everyone converged; no repair needed
        # The sink does not know who missed previous rounds, so it pays
        # for every straggler it addresses — blocked receivers included.
        self._models.charge_broadcast(epoch, len(targets))
        if round_index == 0:
            self._dissemination_rounds += 1
        else:
            self._repair_rounds += 1
        eligible = [n for n in targets if n not in self._blocked]
        received = simulation.control_broadcast(eligible, cfg.dissemination_loss)
        for node in received:
            self._models.deliver_epoch(node, epoch)
        if round_index < cfg.dissemination_retries:
            delay = min(
                cfg.dissemination_backoff * (2.0**round_index),
                cfg.dissemination_backoff_cap,
            )
            simulation.sim.after(
                delay,
                lambda: self._broadcast_round(simulation, epoch, round_index + 1),
            )

    # -- packet lifecycle --------------------------------------------------------------

    def on_packet_created(self, packet: Packet, time: float) -> None:
        self._inflight[packet.key] = self._codec.new_annotation(origin=packet.origin)

    def on_hop_delivered(
        self, packet: Packet, sender: int, receiver: int, first_attempt: int, time: float
    ) -> None:
        annotation = self._inflight.get(packet.key)
        if annotation is None:
            # A packet this observer never saw created: nothing to annotate.
            return
        self._codec.annotate_hop(annotation, sender, receiver, first_attempt - 1)

    def on_packet_dropped(self, packet: Packet, time: float) -> None:
        self._inflight.pop(packet.key, None)

    def on_packet_delivered(self, packet: Packet, time: float) -> None:
        annotation = self._inflight.pop(packet.key, None)
        if annotation is None:
            # A packet this observer never saw created: no in-flight
            # evidence to decode.
            return
        data, bit_length = self._codec.serialize(annotation)
        if self._faults is not None:
            data, bit_length, _ = self._faults.corrupt_annotation(data, bit_length)
        assumed_path = (
            packet.path if self.config.path_encoding == "assumed" else None
        )
        try:
            decoded = decode_annotation(
                data,
                bit_length,
                self._codec,
                origin=packet.origin,
                sink=self._sink,
                assumed_path=assumed_path,
            )
        except AnnotationDecodeError as exc:
            self._decode_failures += 1
            self._decode_failure_causes[exc.cause] += 1
            self._try_salvage(exc, packet, time)
        else:
            self._packets_decoded += 1
            self._annotation_bits.append(decoded.wire_bits)
            self._annotation_hops.append(len(decoded.hops))
            self._estimator.add_decoded(decoded, time)
            # Feed raw counts (escape lower bounds when censored) so model
            # re-estimation — and auto-K selection — see the count histogram.
            self._models.observe_hops(
                [
                    (hop.link, hop.retx_count if hop.exact else hop.retx_bounds[0])
                    for hop in decoded.hops
                ],
                time,
            )
            for listener in self._decode_listeners:
                listener(decoded, time)

    def _try_salvage(
        self, exc: AnnotationDecodeError, packet: Packet, time: float
    ) -> None:
        """Feed the cleanly-decoded hop prefix of a failed decode to the
        estimator — only when its path is consistent with the topology."""
        hops = exc.partial_hops
        path = exc.partial_path
        if not hops or len(path) != len(hops) + 1:
            return
        if path[0] != packet.origin:
            return
        for u, v in zip(path, path[1:]):
            if (u, v) not in self._edges:
                return
        self._estimator.add_hops(hops, time)
        self._salvaged_packets += 1
        self._salvaged_hops += len(hops)

    def control_overhead_bits(self) -> int:
        if self._models is None:
            return 0
        return self._models.total_dissemination_bits

    # -- results -------------------------------------------------------------------------

    @property
    def estimator(self) -> PerLinkEstimator:
        if self._estimator is None:
            raise RuntimeError("DophySystem not attached yet")
        return self._estimator

    @property
    def models(self) -> ModelManager:
        if self._models is None:
            raise RuntimeError("DophySystem not attached yet")
        return self._models

    def report(self) -> DophyReport:
        """Summarize estimates and overhead after a run."""
        if self._estimator is None or self._models is None:
            raise RuntimeError("DophySystem not attached yet")
        stale = (
            len(self._models.nodes_behind(self._models.current_epoch))
            if self._models.per_node_epochs
            else 0
        )
        return DophyReport(
            estimates=self._estimator.estimates(),
            packets_decoded=self._packets_decoded,
            decode_failures=self._decode_failures,
            annotation_bits=list(self._annotation_bits),
            annotation_hops=list(self._annotation_hops),
            dissemination_bits=self._models.total_dissemination_bits,
            model_updates=self._models.updates_performed,
            decode_failure_causes=dict(self._decode_failure_causes),
            salvaged_packets=self._salvaged_packets,
            salvaged_hops=self._salvaged_hops,
            dissemination_rounds=self._dissemination_rounds,
            repair_rounds=self._repair_rounds,
            stale_nodes=stale,
        )

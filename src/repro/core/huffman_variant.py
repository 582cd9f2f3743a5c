"""Dophy-with-Huffman: the surgical arithmetic-coding ablation.

Identical to :class:`~repro.core.dophy.DophySystem` in every mechanism —
symbol aggregation, escape extras, per-epoch model updates, explicit or
assumed paths — except that per-hop symbols are coded with the *optimal
prefix code* (canonical Huffman) built from the same disseminated
frequency table. Whatever separates this variant from Dophy in the T1
bench is attributable to arithmetic coding alone.

Overhead is computed from exact per-symbol code lengths (Huffman
decoding round-trips are covered by the coder's own tests; this observer
is an accounting + estimation harness, like the other baselines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.coding.baseline_codes import EliasGammaCode
from repro.coding.huffman import HuffmanCode
from repro.core.config import DophyConfig
from repro.core.estimator import LinkEstimate, PerLinkEstimator
from repro.core.model import ModelManager
from repro.core.symbols import SymbolSet
from repro.net.packet import Packet
from repro.net.simulation import CollectionSimulation, NullObserver

__all__ = ["HuffmanDophyVariant", "HuffmanVariantReport"]

_GAMMA = EliasGammaCode()


@dataclass
class HuffmanVariantReport:
    """Estimates plus overhead for the Huffman variant."""

    estimates: Dict[Tuple[int, int], LinkEstimate]
    annotation_bits: List[int] = field(default_factory=list)
    annotation_hops: List[int] = field(default_factory=list)
    dissemination_bits: int = 0
    model_updates: int = 0

    @property
    def mean_annotation_bits(self) -> float:
        if not self.annotation_bits:
            return 0.0
        return sum(self.annotation_bits) / len(self.annotation_bits)

    @property
    def mean_bits_per_hop(self) -> float:
        hops = sum(self.annotation_hops)
        return sum(self.annotation_bits) / hops if hops else 0.0

    @property
    def total_annotation_bits(self) -> int:
        return sum(self.annotation_bits)

    @property
    def total_overhead_bits(self) -> int:
        return self.total_annotation_bits + self.dissemination_bits


@dataclass
class _Inflight:
    epoch: int
    bits: int = 0
    hops: int = 0
    records: List[Tuple[Tuple[int, int], int]] = field(default_factory=list)


class HuffmanDophyVariant(NullObserver):
    """Dophy's pipeline with canonical Huffman instead of arithmetic coding."""

    def __init__(self, config: Optional[DophyConfig] = None) -> None:
        self.config = config or DophyConfig()
        if self.config.path_encoding == "compressed":
            raise ValueError(
                "compressed paths require in-stream arithmetic coding; "
                "use 'explicit' or 'assumed' for the Huffman variant"
            )
        self._models: Optional[ModelManager] = None
        self._estimator: Optional[PerLinkEstimator] = None
        self._symbol_set: Optional[SymbolSet] = None
        self._node_id_bits = 0
        self._huffman_cache: Dict[Tuple[int, int], HuffmanCode] = {}
        self._inflight: Dict[Tuple[int, int], _Inflight] = {}
        self._annotation_bits: List[int] = []
        self._annotation_hops: List[int] = []

    def attach(self, simulation: CollectionSimulation) -> None:
        cfg = self.config
        max_count = simulation.config.mac.max_retries
        k = cfg.aggregation_threshold
        if k is not None:
            k = min(k, max_count) if max_count >= 1 else None
        self._symbol_set = SymbolSet(max(max_count, 0), k)
        self._models = ModelManager(
            self._symbol_set,
            initial_expected_loss=cfg.initial_expected_loss,
            update_period=cfg.model_update_period,
            epoch_history=cfg.epoch_history,
            num_nodes_for_dissemination=simulation.topology.num_nodes,
            num_classes=cfg.link_classes,
        )
        self._estimator = PerLinkEstimator(max_attempts=max_count + 1)
        self._node_id_bits = (
            DophyConfig.node_id_bits(simulation.topology.num_nodes)
            if cfg.path_encoding == "explicit"
            else 0
        )
        if cfg.model_update_period is not None:
            simulation.sim.every(
                cfg.model_update_period,
                lambda: self._on_model_update(simulation.sim.now),
            )

    def _on_model_update(self, now: float) -> None:
        if self._models.maybe_update(now):
            self._huffman_cache.clear()  # new epoch -> rebuild codes lazily

    def _code_for(self, epoch: int, link: Tuple[int, int]) -> HuffmanCode:
        class_id = self._models.class_of(epoch, link)
        key = (epoch, class_id)
        code = self._huffman_cache.get(key)
        if code is None:
            code = HuffmanCode(self._models.table(epoch, class_id))
            self._huffman_cache[key] = code
        return code

    # -- packet lifecycle ----------------------------------------------------------

    def on_packet_created(self, packet: Packet, time: float) -> None:
        self._inflight[packet.key] = _Inflight(epoch=self._models.current_epoch)

    def on_hop_delivered(
        self, packet: Packet, sender: int, receiver: int, first_attempt: int, time: float
    ) -> None:
        state = self._inflight[packet.key]
        count = min(first_attempt - 1, self._symbol_set.max_count)
        encoded = self._symbol_set.to_symbol(count)
        code = self._code_for(state.epoch, (sender, receiver))
        state.bits += code.code_length(encoded.symbol)
        if encoded.escape_extra is not None and self.config.escape_mode == "exact":
            state.bits += _GAMMA.code_length(encoded.escape_extra)
        state.bits += self._node_id_bits
        state.hops += 1
        state.records.append(((sender, receiver), count))

    def on_packet_dropped(self, packet: Packet, time: float) -> None:
        self._inflight.pop(packet.key, None)

    def on_packet_delivered(self, packet: Packet, time: float) -> None:
        state = self._inflight.pop(packet.key)
        header = self._models.epoch_field_bits + _GAMMA.code_length(state.hops)
        self._annotation_bits.append(header + state.bits)
        self._annotation_hops.append(state.hops)
        pairs = []
        for link, count in state.records:
            if (
                self.config.escape_mode == "censored"
                and self._symbol_set.to_symbol(count).escape_extra is not None
            ):
                lo, hi = self._symbol_set.symbol_counts_range(
                    self._symbol_set.escape_symbol
                )
                self._estimator.add_censored(link, lo, hi, time)
            else:
                self._estimator.add_exact(link, count, time)
            pairs.append((link, count))
        self._models.observe_hops(pairs, time)

    def control_overhead_bits(self) -> int:
        return self._models.total_dissemination_bits if self._models else 0

    # -- results ------------------------------------------------------------------------

    def report(self) -> HuffmanVariantReport:
        if self._estimator is None:
            raise RuntimeError("HuffmanDophyVariant not attached yet")
        return HuffmanVariantReport(
            estimates=self._estimator.estimates(),
            annotation_bits=list(self._annotation_bits),
            annotation_hops=list(self._annotation_hops),
            dissemination_bits=self._models.total_dissemination_bits,
            model_updates=self._models.updates_performed,
        )

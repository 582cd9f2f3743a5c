"""Dophy configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.utils.validation import check_probability

__all__ = ["DophyConfig"]


@dataclass(frozen=True)
class DophyConfig:
    """All tunables of the Dophy protocol.

    The defaults reflect the paper's design points: a small aggregated
    symbol set (K=3), exact escape values in a gamma extension, explicit
    path recording, and minute-scale model updates.
    """

    #: Largest retransmission count a hop can report — set this to the
    #: MAC's ``max_retries`` (counts beyond it cannot occur).
    max_count: int = 30
    #: Aggregation threshold K; None disables aggregation (full alphabet).
    aggregation_threshold: Optional[int] = 3
    #: Re-select K automatically at every model update, minimizing expected
    #: annotation + dissemination bits (the paper's "intelligently reduces
    #: the size of symbol set"); ``aggregation_threshold`` then only seeds
    #: epoch 0. Requires model updates to be enabled.
    auto_aggregation: bool = False
    #: ``"exact"`` ships escaped counts in a gamma extension;
    #: ``"censored"`` drops them (estimator then sees "count >= K").
    escape_mode: str = "exact"
    #: Seconds between sink model re-estimations; None = static model.
    model_update_period: Optional[float] = 60.0
    #: Number of link-quality classes with their own probability tables
    #: (1 = the paper's single shared model; >1 enables the class-context
    #: extension — sharper models at extra dissemination cost).
    link_classes: int = 1
    #: Per-node probability that one dissemination broadcast round fails
    #: to deliver the new model to that node. 0 keeps the idealized
    #: lossless dissemination (bit-identical to the historical behaviour);
    #: > 0 switches to per-node epoch tracking with re-broadcast repair.
    dissemination_loss: float = 0.0
    #: Maximum repair re-broadcast rounds per published epoch (stragglers
    #: not reached within the budget stay on their old epoch until the
    #: next update — absorbed by the sink's ``epoch_history`` window).
    dissemination_retries: int = 2
    #: Delay before the first repair round, seconds; subsequent rounds
    #: back off exponentially (doubling), capped below.
    dissemination_backoff: float = 2.0
    #: Upper bound on the repair backoff delay, seconds.
    dissemination_backoff_cap: float = 60.0
    #: Nodes whose control-plane receive path is broken: they never get
    #: model updates and stay pinned to the last epoch they received
    #: (epoch 0 forever). Deterministic stragglers for fault testing.
    dissemination_blocked_nodes: Tuple[int, ...] = ()
    #: Prior mean link loss used to build the initial (epoch-0) model.
    initial_expected_loss: float = 0.2
    #: ``"explicit"`` records per-hop node ids in the annotation;
    #: ``"compressed"`` encodes each hop as the receiver's rank among the
    #: sender's neighbors, arithmetic-coded in-stream (the sink must know
    #: the deployment topology — see :mod:`repro.core.path_codec`);
    #: ``"assumed"`` assumes the sink learns paths out of band (costs 0
    #: bits) — used to isolate count-encoding overhead in comparisons.
    path_encoding: str = "explicit"
    #: How many recent model epochs the sink retains for late packets.
    epoch_history: int = 4

    def __post_init__(self) -> None:
        if self.max_count < 0:
            raise ValueError("max_count must be >= 0")
        if self.aggregation_threshold is not None and not (
            1 <= self.aggregation_threshold <= self.max_count
        ):
            raise ValueError("aggregation_threshold must be in [1, max_count] or None")
        if self.escape_mode not in ("exact", "censored"):
            raise ValueError("escape_mode must be 'exact' or 'censored'")
        if self.path_encoding not in ("explicit", "compressed", "assumed"):
            raise ValueError(
                "path_encoding must be 'explicit', 'compressed' or 'assumed'"
            )
        if self.link_classes < 1:
            raise ValueError("link_classes must be >= 1")
        check_probability(self.dissemination_loss, "dissemination_loss")
        if self.dissemination_retries < 0:
            raise ValueError("dissemination_retries must be >= 0")
        if self.dissemination_backoff <= 0:
            raise ValueError("dissemination_backoff must be > 0")
        if self.dissemination_backoff_cap < self.dissemination_backoff:
            raise ValueError(
                "dissemination_backoff_cap must be >= dissemination_backoff"
            )
        if self.auto_aggregation and self.model_update_period is None:
            raise ValueError("auto_aggregation requires model updates")
        if self.auto_aggregation and self.aggregation_threshold is None:
            raise ValueError(
                "auto_aggregation needs an initial aggregation_threshold"
            )
        if self.model_update_period is not None and self.model_update_period <= 0:
            raise ValueError("model_update_period must be > 0 or None")
        check_probability(self.initial_expected_loss, "initial_expected_loss")

    @property
    def lossy_dissemination(self) -> bool:
        """True when per-node epoch tracking (lossy broadcast rounds) is on."""
        return self.dissemination_loss > 0 or bool(self.dissemination_blocked_nodes)

    @staticmethod
    def node_id_bits(num_nodes: int) -> int:
        """Width of an explicit path entry for an ``num_nodes``-node network."""
        if num_nodes < 2:
            raise ValueError("num_nodes must be >= 2")
        return max(1, math.ceil(math.log2(num_nodes)))

"""Automatic aggregation-threshold (K) selection.

The paper's phrasing — Dophy "*intelligently* reduces the size of the
symbol set" — implies K is chosen, not hard-coded. Given the recent
retransmission-count histogram, the total cost of a candidate K is:

* **symbol bits/hop** — entropy of the K-aggregated distribution (what
  the arithmetic coder pays against a matched model);
* **escape-extra bits/hop** — for counts >= K, the bypass-coded
  Elias-gamma of (count - K), weighted by their probability;
* **dissemination bits/hop** — a (K+2)-entry table flooded to every
  node, amortized over the hops expected before the next update.

:func:`choose_aggregation_threshold` returns the argmin — large K when
traffic is heavy and counts are spread (dissemination amortizes), small
K when traffic is light or counts concentrate near zero.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.coding.baseline_codes import EliasGammaCode
from repro.coding.freq import BITS_PER_FREQUENCY

__all__ = ["aggregation_cost_bits_per_hop", "choose_aggregation_threshold"]

_GAMMA = EliasGammaCode()


def _normalized(histogram: Sequence[float]) -> List[float]:
    total = float(sum(histogram))
    if total <= 0:
        raise ValueError("histogram must contain mass")
    # Light smoothing keeps every count representable.
    smoothed = [h + 0.5 for h in histogram]
    total = sum(smoothed)
    return [h / total for h in smoothed]


def aggregation_cost_bits_per_hop(
    histogram: Sequence[float],
    k: int,
    *,
    num_nodes: int,
    hops_per_update: float,
) -> float:
    """Expected annotation+dissemination bits per hop under threshold ``k``."""
    if k < 1 or k > len(histogram) - 1:
        raise ValueError("k must be in [1, max_count]")
    if hops_per_update <= 0:
        raise ValueError("hops_per_update must be > 0")
    probs = _normalized(histogram)
    # Fold counts into the K-aggregated symbol distribution.
    symbol_probs = probs[:k] + [sum(probs[k:])]
    entropy = -sum(p * math.log2(p) for p in symbol_probs if p > 0)
    escape_bits = sum(
        probs[c] * _GAMMA.code_length(c - k) for c in range(k, len(probs))
    )
    table_bits = 8 + (k + 1) * BITS_PER_FREQUENCY
    dissemination = table_bits * max(1, num_nodes) / hops_per_update
    return entropy + escape_bits + dissemination


def choose_aggregation_threshold(
    histogram: Sequence[float],
    *,
    max_count: int,
    num_nodes: int,
    hops_per_update: float,
) -> int:
    """The K minimizing :func:`aggregation_cost_bits_per_hop`.

    ``histogram[c]`` is the observed frequency of retransmission count
    ``c`` (length ``max_count + 1``).
    """
    if len(histogram) != max_count + 1:
        raise ValueError("histogram must have max_count + 1 buckets")
    if max_count < 1:
        return 1
    candidates = range(1, max_count + 1)
    return min(
        candidates,
        key=lambda k: aggregation_cost_bits_per_hop(
            histogram,
            k,
            num_nodes=num_nodes,
            hops_per_update=hops_per_update,
        ),
    )

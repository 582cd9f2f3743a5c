"""Dophy: fine-grained loss tomography for dynamic sensor networks.

The paper's contribution, built on :mod:`repro.coding` and plugged into
:mod:`repro.net` as a :class:`~repro.net.simulation.CollectionObserver`:

* :mod:`repro.core.symbols` — the aggregated retransmission-count symbol
  set (counts >= K collapse into one escape symbol);
* :mod:`repro.core.model` — per-epoch probability models, periodically
  re-estimated by the sink and disseminated to the network;
* :mod:`repro.core.annotation` — the in-packet annotation: incremental
  arithmetic codeword + escape extension + path section;
* :mod:`repro.core.decoder` — sink-side annotation decoding;
* :mod:`repro.core.estimator` — per-link loss MLE from (truncated,
  possibly censored) geometric retransmission-count samples;
* :mod:`repro.core.dophy` — :class:`DophySystem`, wiring it all together.
"""

from repro.core.annotation import AnnotationCodec, DophyAnnotation
from repro.core.autotune import aggregation_cost_bits_per_hop, choose_aggregation_threshold
from repro.core.config import DophyConfig
from repro.core.decoder import (
    DECODE_FAILURE_CAUSES,
    AnnotationDecodeError,
    DecodedAnnotation,
    decode_annotation,
)
from repro.core.dophy import DophyReport, DophySystem
from repro.core.estimator import LinkEstimate, PerLinkEstimator
from repro.core.huffman_variant import HuffmanDophyVariant, HuffmanVariantReport
from repro.core.model import ModelManager, geometric_symbol_probabilities
from repro.core.path_codec import PathRankModel
from repro.core.symbols import SymbolSet
from repro.core.windowed import SlidingLinkEstimator

__all__ = [
    "SymbolSet",
    "ModelManager",
    "geometric_symbol_probabilities",
    "DophyAnnotation",
    "AnnotationCodec",
    "DecodedAnnotation",
    "AnnotationDecodeError",
    "DECODE_FAILURE_CAUSES",
    "decode_annotation",
    "LinkEstimate",
    "PerLinkEstimator",
    "PathRankModel",
    "SlidingLinkEstimator",
    "DophyConfig",
    "DophySystem",
    "DophyReport",
    "HuffmanDophyVariant",
    "HuffmanVariantReport",
    "aggregation_cost_bits_per_hop",
    "choose_aggregation_threshold",
]

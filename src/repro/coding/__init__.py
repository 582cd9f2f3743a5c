"""Entropy-coding substrate used by Dophy's annotation encoder.

Contains a bit-level I/O layer, the static frequency table every node of
an epoch codes against, an integer arithmetic coder (the workhorse behind
Dophy's compact per-hop retransmission-count annotations), and the
classical prefix codes Dophy is compared against in the paper's
encoding-efficiency experiments (fixed-width, Elias gamma, Golomb–Rice).
"""

from repro.coding.arithmetic import ArithmeticDecoder, ArithmeticEncoder
from repro.coding.baseline_codes import (
    EliasGammaCode,
    FixedWidthCode,
    GolombRiceCode,
    IntegerCode,
)
from repro.coding.bitio import BitReader, BitWriter
from repro.coding.freq import FrequencyTable

__all__ = [
    "BitReader",
    "BitWriter",
    "FrequencyTable",
    "ArithmeticEncoder",
    "ArithmeticDecoder",
    "IntegerCode",
    "FixedWidthCode",
    "EliasGammaCode",
    "GolombRiceCode",
]

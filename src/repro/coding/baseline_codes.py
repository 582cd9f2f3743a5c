"""Classical integer codes Dophy's arithmetic annotation is compared against.

The paper's encoding-efficiency experiments pit arithmetic coding of
retransmission counts against straightforward alternatives a protocol
designer would otherwise use: fixed-width fields (what plain TinyOS
annotations do), Elias gamma, and Golomb–Rice (``GolombRiceCode(0)`` is
the unary code). All codes here share one interface (:class:`IntegerCode`)
encoding sequences of non-negative integers to a bit stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.coding.bitio import BitReader, BitWriter

__all__ = [
    "IntegerCode",
    "FixedWidthCode",
    "EliasGammaCode",
    "GolombRiceCode",
]


class IntegerCode(ABC):
    """A prefix-free code over non-negative integers."""

    #: Short identifier used in benchmark tables.
    name: str = "abstract"

    @abstractmethod
    def encode_value(self, writer: BitWriter, value: int) -> None:
        """Append the codeword for ``value`` to ``writer``."""

    @abstractmethod
    def decode_value(self, reader: BitReader) -> int:
        """Read one codeword from ``reader`` and return its value."""

    def encode_sequence(self, values: Sequence[int]) -> BitWriter:
        """Encode ``values`` back-to-back into a fresh writer."""
        writer = BitWriter()
        for value in values:
            self.encode_value(writer, value)
        return writer

    def decode_sequence(self, reader: BitReader, count: int) -> List[int]:
        """Decode ``count`` consecutive values."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.decode_value(reader) for _ in range(count)]

    def code_length(self, value: int) -> int:
        """Bit length of the codeword for ``value`` (default: encode and measure)."""
        writer = BitWriter()
        self.encode_value(writer, value)
        return writer.bit_length

    @staticmethod
    def _check_value(value: int) -> int:
        if not isinstance(value, (int,)) or isinstance(value, bool):
            raise TypeError(f"value must be an int, got {type(value).__name__}")
        if value < 0:
            raise ValueError(f"value must be >= 0, got {value}")
        return value


class FixedWidthCode(IntegerCode):
    """Plain ``width``-bit binary fields — the no-compression baseline.

    Values that overflow the field raise: a real protocol would saturate,
    but silently corrupting measurements would invalidate the comparison,
    so the caller (the annotation layer) is responsible for clamping via
    its symbol aggregation.
    """

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be > 0")
        self.width = width
        self.name = f"fixed{width}"

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_value(value)
        if value.bit_length() > self.width:
            raise ValueError(f"value {value} does not fit in {self.width} bits")
        writer.write_uint(value, self.width)

    def decode_value(self, reader: BitReader) -> int:
        return reader.read_uint(self.width)

    def code_length(self, value: int) -> int:
        return self.width


class EliasGammaCode(IntegerCode):
    """Elias gamma over v+1 (so 0 is encodable): unary(length) + binary tail."""

    name = "elias_gamma"

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_value(value)
        n = value + 1
        nbits = n.bit_length()
        # nbits-1 zeros, then n in nbits bits (leading 1 implicit in count).
        for _ in range(nbits - 1):
            writer.write_bit(0)
        writer.write_uint(n, nbits)

    def decode_value(self, reader: BitReader) -> int:
        zeros = 0
        while True:
            bit = reader.read_bit()
            if bit == 1:
                break
            zeros += 1
            if zeros > 64:
                raise ValueError("malformed Elias gamma code")
        n = 1
        for _ in range(zeros):
            n = (n << 1) | reader.read_bit()
        return n - 1

    def code_length(self, value: int) -> int:
        return 2 * (value + 1).bit_length() - 1


class GolombRiceCode(IntegerCode):
    """Rice code with parameter ``k``: unary(v >> k) + k-bit remainder.

    Near-optimal for geometric sources — the natural strong baseline for
    retransmission counts, which *are* geometric per link.
    """

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k
        self.name = f"rice{k}"

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_value(value)
        writer.write_unary(value >> self.k)
        if self.k:
            writer.write_uint(value & ((1 << self.k) - 1), self.k)

    def decode_value(self, reader: BitReader) -> int:
        quotient = reader.read_unary()
        remainder = reader.read_uint(self.k) if self.k else 0
        return (quotient << self.k) | remainder

    def code_length(self, value: int) -> int:
        return (value >> self.k) + 1 + self.k


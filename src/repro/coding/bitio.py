"""Bit-level writer/reader primitives.

All entropy coders in :mod:`repro.coding` produce and consume streams of
bits. ``BitWriter`` accumulates bits most-significant-first into a byte
buffer; ``BitReader`` replays them in the same order. Both track the
exact bit length, which the overhead-accounting layer reports (a packet
annotation of 13 bits costs 13 bits in our accounting, even though a real
radio would pad to 2 bytes — byte-padded figures are derived views).

Both work a word at a time: the writer shifts a whole field into a
Python int and moves complete bytes out of it once it holds
``_FLUSH_BITS`` bits, and the reader cuts a field out of one window of
bytes. A field of ``w`` bits costs one call, not ``w``.
"""

from __future__ import annotations

from typing import Iterable, List

__all__ = ["BitWriter", "BitReader"]

#: The writer's accumulator hands its whole bytes to the buffer once it
#: holds this many bits, so every shift works on a small int and a long
#: stream is written in linear time.
_FLUSH_BITS = 64


class BitWriter:
    """Accumulates bits (MSB-first within each byte) into a growable buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0  # bits not yet moved to ``_bytes``, MSB-first
        self._nacc = 0  # how many bits ``_acc`` holds

    def _append(self, value: int, width: int) -> None:
        # ``value`` is known to fit in ``width`` bits.
        acc = (self._acc << width) | value
        nacc = self._nacc + width
        if nacc >= _FLUSH_BITS:
            keep = nacc & 7
            self._bytes += (acc >> keep).to_bytes(nacc >> 3, "big")
            acc &= (1 << keep) - 1
            nacc = keep
        self._acc = acc
        self._nacc = nacc

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._append(bit, 1)

    def write_bits(self, bits: Iterable[int]) -> None:
        """Append each bit from ``bits`` in order."""
        for bit in bits:
            self.write_bit(bit)

    def write_uint(self, value: int, width: int) -> None:
        """Append ``value`` as a big-endian unsigned integer of ``width`` bits."""
        if width < 0:
            raise ValueError("width must be >= 0")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._append(value, width)

    def write_unary(self, value: int) -> None:
        """Append ``value`` ones followed by a terminating zero."""
        if value < 0:
            raise ValueError("unary value must be >= 0")
        self._append(((1 << value) - 1) << 1, value + 1)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return 8 * len(self._bytes) + self._nacc

    @property
    def byte_length(self) -> int:
        """Bytes needed to hold the stream (last byte zero-padded)."""
        return (self.bit_length + 7) // 8

    def getvalue(self) -> bytes:
        """Return the stream as bytes, zero-padding the trailing partial byte."""
        nacc = self._nacc
        tail = (self._acc << (-nacc & 7)).to_bytes((nacc + 7) >> 3, "big")
        return bytes(self._bytes) + tail

    def to_bits(self) -> List[int]:
        """Return the exact bit sequence written (no padding)."""
        bits: List[int] = []
        for byte in self._bytes:
            for shift in range(7, -1, -1):
                bits.append((byte >> shift) & 1)
        for shift in range(self._nacc - 1, -1, -1):
            bits.append((self._acc >> shift) & 1)
        return bits

    def copy(self) -> "BitWriter":
        """Deep copy — used when an in-flight encoder state must be forked."""
        clone = BitWriter.__new__(BitWriter)
        clone._bytes = bytearray(self._bytes)
        clone._acc = self._acc
        clone._nacc = self._nacc
        return clone

    def __len__(self) -> int:
        return self.bit_length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitWriter(bits={self.bit_length})"


class BitReader:
    """Replays a bit stream produced by :class:`BitWriter`.

    Reading past the end returns 0 bits. Arithmetic decoding legitimately
    reads a few bits past the encoded payload (the decoder register is
    refilled beyond the final symbol), so this mirrors the classic
    implementation convention rather than raising.
    """

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = bytes(data)
        self._bit_length = 8 * len(self._data) if bit_length is None else bit_length
        if self._bit_length > 8 * len(self._data):
            raise ValueError("bit_length exceeds available data")
        self._pos = 0

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitReader":
        """Build a reader directly from a sequence of bits."""
        writer = BitWriter()
        writer.write_bits(bits)
        return cls(writer.getvalue(), writer.bit_length)

    def read_bit(self) -> int:
        """Return the next bit, or 0 once the stream is exhausted."""
        pos = self._pos
        self._pos = pos + 1
        if pos >= self._bit_length:
            return 0
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_uint(self, width: int) -> int:
        """Read ``width`` bits as a big-endian unsigned integer.

        Bits past the end of the stream read as 0, as in :meth:`read_bit`.
        """
        if width < 0:
            raise ValueError("width must be >= 0")
        pos = self._pos
        end = pos + width
        self._pos = end
        stop = end if end <= self._bit_length else self._bit_length
        if stop <= pos:
            return 0
        first = pos >> 3
        last = (stop + 7) >> 3
        window = int.from_bytes(self._data[first:last], "big")
        value = (window >> ((last << 3) - stop)) & ((1 << (stop - pos)) - 1)
        return value << (end - stop)

    def read_unary(self) -> int:
        """Read a unary-coded value (count of 1s before the first 0)."""
        count = 0
        while True:
            bit = self.read_bit()
            if bit == 0:
                return count
            count += 1
            if count > self._bit_length + 1:
                raise ValueError("malformed unary code: no terminator found")

    @property
    def bits_consumed(self) -> int:
        """Bits read so far (may exceed the stream length for arithmetic decode)."""
        return self._pos

    @property
    def bits_remaining(self) -> int:
        """Bits left before the reader starts returning padding zeros."""
        return max(0, self._bit_length - self._pos)

    @property
    def exhausted(self) -> bool:
        return self._pos >= self._bit_length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitReader(pos={self._pos}, bit_length={self._bit_length})"

"""Bit-serial reference coder: the oracle the word-level coder is checked against.

These are the bit-at-a-time ``BitWriter``, ``BitReader``,
``ArithmeticEncoder`` and ``ArithmeticDecoder`` that ``repro.coding``
shipped before its bit path moved to whole words, kept verbatim, plus
the annotation serializer that copied the arithmetic payload out bit by
bit. Every wire bit the program emits must equal what these produce;
``test_wordlevel_oracle.py`` and ``test_wire_digest.py`` hold it to that.
Nothing here is imported by the program.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.coding.arithmetic import SymbolModel
from repro.coding.baseline_codes import EliasGammaCode
from repro.core.annotation import BYPASS_MODEL, AnnotationCodec

_CODE_BITS = 32
_TOP = (1 << _CODE_BITS) - 1
_HALF = 1 << (_CODE_BITS - 1)
_QUARTER = 1 << (_CODE_BITS - 2)
_THREE_QUARTERS = _HALF + _QUARTER
MAX_MODEL_TOTAL = 1 << (_CODE_BITS - 2)

_GAMMA = EliasGammaCode()


class BitWriter:
    """Accumulates bits (MSB-first within each byte) into a growable buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._current = 0  # partial byte being filled
        self._nbits_in_current = 0
        self._total_bits = 0

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._current = (self._current << 1) | bit
        self._nbits_in_current += 1
        self._total_bits += 1
        if self._nbits_in_current == 8:
            self._bytes.append(self._current)
            self._current = 0
            self._nbits_in_current = 0

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
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_unary(self, value: int) -> None:
        """Append ``value`` ones followed by a terminating zero."""
        if value < 0:
            raise ValueError("unary value must be >= 0")
        for _ in range(value):
            self.write_bit(1)
        self.write_bit(0)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._total_bits

    @property
    def byte_length(self) -> int:
        """Bytes needed to hold the stream (last byte zero-padded)."""
        return (self._total_bits + 7) // 8

    def getvalue(self) -> bytes:
        """Return the stream as bytes, zero-padding the trailing partial byte."""
        out = bytearray(self._bytes)
        if self._nbits_in_current:
            out.append(self._current << (8 - self._nbits_in_current))
        return bytes(out)

    def to_bits(self) -> List[int]:
        """Return the exact bit sequence written (no padding)."""
        bits: List[int] = []
        for byte in self._bytes:
            for shift in range(7, -1, -1):
                bits.append((byte >> shift) & 1)
        for shift in range(self._nbits_in_current - 1, -1, -1):
            bits.append((self._current >> shift) & 1)
        return bits

    def copy(self) -> "BitWriter":
        """Deep copy — used when an in-flight encoder state must be forked."""
        clone = BitWriter.__new__(BitWriter)
        clone._bytes = bytearray(self._bytes)
        clone._current = self._current
        clone._nbits_in_current = self._nbits_in_current
        clone._total_bits = self._total_bits
        return clone

    def __len__(self) -> int:
        return self._total_bits

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitWriter(bits={self._total_bits})"


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
        if self._pos >= self._bit_length:
            self._pos += 1
            return 0
        byte = self._data[self._pos // 8]
        bit = (byte >> (7 - (self._pos % 8))) & 1
        self._pos += 1
        return bit

    def read_uint(self, width: int) -> int:
        """Read ``width`` bits as a big-endian unsigned integer."""
        if width < 0:
            raise ValueError("width must be >= 0")
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

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


class ArithmeticEncoder:
    """Incremental arithmetic encoder.

    Bits are emitted into an internal :class:`BitWriter` as soon as they are
    determined, so ``bit_length`` during encoding reflects the bits a packet
    annotation already occupies in flight; ``finish()`` flushes the final
    disambiguation bits and returns the complete stream.
    """

    def __init__(self) -> None:
        self._low = 0
        self._high = _TOP
        self._pending = 0  # underflow bits awaiting the next resolved bit
        self._writer = BitWriter()
        self._finished = False
        self._symbols_encoded = 0

    # -- encoding ---------------------------------------------------------------

    def encode_symbol(self, model: SymbolModel, symbol: int) -> None:
        """Narrow the interval by ``symbol`` under ``model`` and emit resolved bits."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        cum_lo, cum_hi, total = model.interval(symbol)
        if total > MAX_MODEL_TOTAL:
            raise ValueError(
                f"model total {total} exceeds coder precision limit {MAX_MODEL_TOTAL}"
            )
        if cum_lo >= cum_hi:
            raise ValueError("symbol has empty interval (zero frequency)")
        span = self._high - self._low + 1
        self._high = self._low + (span * cum_hi) // total - 1
        self._low = self._low + (span * cum_lo) // total
        self._renormalize()
        self._symbols_encoded += 1

    def _renormalize(self) -> None:
        while True:
            if self._high < _HALF:
                self._emit(0)
            elif self._low >= _HALF:
                self._emit(1)
                self._low -= _HALF
                self._high -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._pending += 1
                self._low -= _QUARTER
                self._high -= _QUARTER
            else:
                break
            self._low <<= 1
            self._high = (self._high << 1) | 1

    def _emit(self, bit: int) -> None:
        self._writer.write_bit(bit)
        inverse = 1 - bit
        for _ in range(self._pending):
            self._writer.write_bit(inverse)
        self._pending = 0

    def finish(self) -> Tuple[bytes, int]:
        """Flush terminal bits; return ``(payload_bytes, exact_bit_length)``."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        self._finished = True
        # Two final bits pin the codeword inside [low, high].
        self._pending += 1
        if self._low < _QUARTER:
            self._emit(0)
        else:
            self._emit(1)
        return self._writer.getvalue(), self._writer.bit_length

    # -- inspection ---------------------------------------------------------------

    @property
    def bit_length(self) -> int:
        """Bits already emitted (excludes pending/terminal bits)."""
        return self._writer.bit_length

    @property
    def symbols_encoded(self) -> int:
        return self._symbols_encoded

    @property
    def finished(self) -> bool:
        return self._finished

    def finalized_bit_length(self) -> int:
        """Exact length the stream would have if finished now (non-destructive)."""
        if self._finished:
            return self._writer.bit_length
        return self.copy().finish()[1]

    def copy(self) -> "ArithmeticEncoder":
        """Deep copy of the in-flight coder state (used when packets fork/probe)."""
        clone = ArithmeticEncoder.__new__(ArithmeticEncoder)
        clone._low = self._low
        clone._high = self._high
        clone._pending = self._pending
        clone._writer = self._writer.copy()
        clone._finished = self._finished
        clone._symbols_encoded = self._symbols_encoded
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ArithmeticEncoder(symbols={self._symbols_encoded},"
            f" bits={self._writer.bit_length}, finished={self._finished})"
        )


class ArithmeticDecoder:
    """Decoder counterpart; decodes symbols in encode order given the same models."""

    def __init__(self, data: bytes, bit_length: Optional[int] = None) -> None:
        self._reader = BitReader(data, bit_length)
        self._low = 0
        self._high = _TOP
        self._value = 0
        for _ in range(_CODE_BITS):
            self._value = (self._value << 1) | self._reader.read_bit()
        self._symbols_decoded = 0

    @classmethod
    def from_encoder_output(cls, payload: Tuple[bytes, int]) -> "ArithmeticDecoder":
        """Convenience: build from the tuple :meth:`ArithmeticEncoder.finish` returns."""
        data, bit_length = payload
        return cls(data, bit_length)

    def decode_symbol(self, model: SymbolModel) -> int:
        """Decode and return the next symbol under ``model``."""
        total = model.total
        if total > MAX_MODEL_TOTAL:
            raise ValueError(
                f"model total {total} exceeds coder precision limit {MAX_MODEL_TOTAL}"
            )
        span = self._high - self._low + 1
        scaled = ((self._value - self._low + 1) * total - 1) // span
        symbol = model.symbol_for(scaled)
        cum_lo, cum_hi, total = model.interval(symbol)
        self._high = self._low + (span * cum_hi) // total - 1
        self._low = self._low + (span * cum_lo) // total
        self._renormalize()
        self._symbols_decoded += 1
        return symbol

    def decode_sequence(self, model: SymbolModel, count: int) -> List[int]:
        """Decode ``count`` symbols under a single shared model."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.decode_symbol(model) for _ in range(count)]

    def _renormalize(self) -> None:
        while True:
            if self._high < _HALF:
                pass
            elif self._low >= _HALF:
                self._low -= _HALF
                self._high -= _HALF
                self._value -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._low -= _QUARTER
                self._high -= _QUARTER
                self._value -= _QUARTER
            else:
                break
            self._low <<= 1
            self._high = (self._high << 1) | 1
            self._value = (self._value << 1) | self._reader.read_bit()

    @property
    def symbols_decoded(self) -> int:
        return self._symbols_decoded

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArithmeticDecoder(symbols={self._symbols_decoded})"


class ReferenceAnnotation:
    """The in-flight state :func:`serialize` reads, coded bit-serially."""

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.encoder = ArithmeticEncoder()
        self.path_ids: List[int] = []
        self.hop_count = 0


def annotate_hop(
    codec: AnnotationCodec,
    annotation: ReferenceAnnotation,
    sender_id: int,
    receiver_id: int,
    retx_count: int,
) -> None:
    """One hop's symbols, in the order ``AnnotationCodec.annotate_hop`` codes them."""
    if codec.config.path_encoding == "compressed":
        rank = codec.path_model.rank(sender_id, receiver_id)
        annotation.encoder.encode_symbol(codec.path_model.table, rank)
    symbol_set = codec.models.symbol_set_for(annotation.epoch)
    encoded = symbol_set.to_symbol(min(retx_count, symbol_set.max_count))
    table = codec.models.table_for_link(annotation.epoch, (sender_id, receiver_id))
    annotation.encoder.encode_symbol(table, encoded.symbol)
    annotation.hop_count += 1
    if encoded.escape_extra is not None and codec.config.escape_mode == "exact":
        gamma_bits = BitWriter()
        _GAMMA.encode_value(gamma_bits, encoded.escape_extra)
        for bit in gamma_bits.to_bits():
            annotation.encoder.encode_symbol(BYPASS_MODEL, bit)
    if codec.config.path_encoding == "explicit":
        annotation.path_ids.append(receiver_id)


def serialize(codec: AnnotationCodec, annotation: ReferenceAnnotation) -> Tuple[bytes, int]:
    """``AnnotationCodec.serialize`` as it was: the payload re-emitted bit by bit."""
    arith_data, arith_bits = annotation.encoder.copy().finish()
    out = BitWriter()
    modulus = 1 << codec.models.epoch_field_bits
    out.write_uint(annotation.epoch % modulus, codec.models.epoch_field_bits)
    _GAMMA.encode_value(out, annotation.hop_count)
    if codec.config.path_encoding == "explicit":
        for node_id in annotation.path_ids:
            out.write_uint(node_id, codec.node_id_bits)
    # Copy the arithmetic payload bit-exactly; it runs to the end.
    for i in range(arith_bits):
        byte = arith_data[i // 8]
        out.write_bit((byte >> (7 - (i % 8))) & 1)
    return out.getvalue(), out.bit_length

"""Integer arithmetic coding (Witten–Neal–Cleary style, 32-bit registers).

Dophy's annotation is an arithmetic codeword built *incrementally*: every
forwarding node narrows the interval with its own retransmission-count
symbol, and the codeword is finalized only when the packet reaches the
sink. :class:`ArithmeticEncoder` therefore exposes exactly that life
cycle — ``encode_symbol`` any number of times, ``copy`` to fork the
in-flight state (for would-be-size probes), and ``finish`` once.

The model argument is duck-typed: anything with ``interval(symbol) ->
(cum_lo, cum_hi, total)`` and ``symbol_for(scaled) -> symbol`` works, such
as the static :class:`~repro.coding.freq.FrequencyTable`, and a *sequence*
of models (one per hop position) can be used for context modelling.

The register work is done a word at a time. When ``low`` and ``high``
share their top ``k`` bits, renormalization shifts all ``k`` out at once
(``k = 32 - (low ^ high).bit_length()``), and the encoder writes them,
with the pending underflow bits behind the first, in one write; the
decoder refills ``k`` register bits with one read. That equals ``k``
rounds of the classic one-bit loop: once the common prefix is gone the
top bits of ``low`` and ``high`` differ, and an underflow step
(``low >= 1/4``, ``high < 3/4``) keeps them differing, so no prefix step
can follow one. Underflow steps are still taken one at a time. The wire
bits are those of the bit-serial coder (``tests/coding/bitserial.py``).
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Tuple

from repro.coding.bitio import BitReader, BitWriter

__all__ = ["ArithmeticEncoder", "ArithmeticDecoder", "SymbolModel"]

_CODE_BITS = 32
_TOP = (1 << _CODE_BITS) - 1
_HALF = 1 << (_CODE_BITS - 1)
_QUARTER = 1 << (_CODE_BITS - 2)
_THREE_QUARTERS = _HALF + _QUARTER
#: Models whose total exceeds this cannot guarantee a non-empty interval
#: for every symbol once the coder range shrinks to a quarter.
MAX_MODEL_TOTAL = 1 << (_CODE_BITS - 2)


class SymbolModel(Protocol):
    """Structural interface every frequency model implements."""

    @property
    def total(self) -> int: ...

    def interval(self, symbol: int) -> Tuple[int, int, int]: ...

    def symbol_for(self, scaled_value: int) -> int: ...


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
        low = self._low
        span = self._high - low + 1
        high = low + (span * cum_hi) // total - 1
        low = low + (span * cum_lo) // total
        self._symbols_encoded += 1
        if (low ^ high) >= _HALF and (low < _QUARTER or high >= _THREE_QUARTERS):
            # Top bits differ and no underflow: no bit is resolved yet.
            self._low = low
            self._high = high
            return
        self._renormalize(low, high)

    def _renormalize(self, low: int, high: int) -> None:
        k = _CODE_BITS - (low ^ high).bit_length()
        if k:
            # Shift out the k-bit common prefix; the pending underflow
            # bits (the inverse of its first bit) go out right behind
            # that first bit, in the same write.
            prefix = low >> (_CODE_BITS - k)
            pending = self._pending
            if pending:
                rest = k - 1
                lead = 1 << pending if prefix >> rest else (1 << pending) - 1
                prefix = (lead << rest) | (prefix & ((1 << rest) - 1))
                self._pending = 0
            self._writer.write_uint(prefix, k + pending)
            low = (low << k) & _TOP
            high = ((high << k) & _TOP) | ((1 << k) - 1)
        while low >= _QUARTER and high < _THREE_QUARTERS:
            self._pending += 1
            low = (low - _QUARTER) << 1
            high = ((high - _QUARTER) << 1) | 1
        self._low = low
        self._high = high

    def _emit(self, bit: int) -> None:
        # ``bit`` then the pending bits, which are its inverse.
        pending = self._pending
        self._writer.write_uint(1 << pending if bit else (1 << pending) - 1, pending + 1)
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
        # finish() emits one bit followed by the pending bits plus one.
        return self._writer.bit_length + self._pending + 2

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
        self._start(BitReader(data, bit_length))

    @classmethod
    def from_encoder_output(cls, payload: Tuple[bytes, int]) -> "ArithmeticDecoder":
        """Convenience: build from the tuple :meth:`ArithmeticEncoder.finish` returns."""
        data, bit_length = payload
        return cls(data, bit_length)

    @classmethod
    def from_reader(cls, reader: BitReader) -> "ArithmeticDecoder":
        """Decode the stream that runs from ``reader``'s position to its end.

        The decoder reads on from ``reader`` itself, so ``bits_consumed``
        there counts the register bits too.
        """
        decoder = cls.__new__(cls)
        decoder._start(reader)
        return decoder

    def _start(self, reader: BitReader) -> None:
        self._reader = reader
        self._low = 0
        self._high = _TOP
        self._value = reader.read_uint(_CODE_BITS)
        self._symbols_decoded = 0

    def decode_symbol(self, model: SymbolModel) -> int:
        """Decode and return the next symbol under ``model``."""
        total = model.total
        if total > MAX_MODEL_TOTAL:
            raise ValueError(
                f"model total {total} exceeds coder precision limit {MAX_MODEL_TOTAL}"
            )
        low = self._low
        value = self._value
        span = self._high - low + 1
        scaled = ((value - low + 1) * total - 1) // span
        symbol = model.symbol_for(scaled)
        cum_lo, cum_hi, total = model.interval(symbol)
        high = low + (span * cum_hi) // total - 1
        low = low + (span * cum_lo) // total
        k = _CODE_BITS - (low ^ high).bit_length()
        if k:
            # One prefix step subtracts low's top bit from value and
            # shifts; k of them subtract low's k-bit prefix.
            shift = _CODE_BITS - k
            value = ((value - ((low >> shift) << shift)) << k) | self._reader.read_uint(k)
            low = (low << k) & _TOP
            high = ((high << k) & _TOP) | ((1 << k) - 1)
        while low >= _QUARTER and high < _THREE_QUARTERS:
            low = (low - _QUARTER) << 1
            high = ((high - _QUARTER) << 1) | 1
            value = ((value - _QUARTER) << 1) | self._reader.read_bit()
        self._low = low
        self._high = high
        self._value = value
        self._symbols_decoded += 1
        return symbol

    def decode_sequence(self, model: SymbolModel, count: int) -> List[int]:
        """Decode ``count`` symbols under a single shared model."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.decode_symbol(model) for _ in range(count)]

    @property
    def symbols_decoded(self) -> int:
        return self._symbols_decoded

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArithmeticDecoder(symbols={self._symbols_decoded})"

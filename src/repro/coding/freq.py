"""Frequency models for the arithmetic coder.

A frequency model maps symbols ``0..n-1`` to integer frequencies and
answers two queries:

* encode side — the cumulative interval ``[cum_lo, cum_hi)`` of a symbol;
* decode side — which symbol owns a given scaled cumulative value.

:class:`FrequencyTable` is immutable: every node in an epoch encodes
against the *same* static table, so the single sink decoder stays
synchronized with the many encoders without per-packet state. The table
is re-derived periodically by the sink (see :mod:`repro.core.model`).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = ["FrequencyTable", "BITS_PER_FREQUENCY"]

#: Bits per quantized frequency in a disseminated table.
BITS_PER_FREQUENCY = 12


class FrequencyTable:
    """Immutable integer frequency table over symbols ``0..n-1``.

    Frequencies must be strictly positive: a zero-frequency symbol would be
    unencodable, and Dophy guarantees decodability of any count sequence by
    smoothing the estimated distribution (see ``from_probabilities``).
    """

    def __init__(self, frequencies: Sequence[int]) -> None:
        freqs = [int(f) for f in frequencies]
        if not freqs:
            raise ValueError("frequency table must contain at least one symbol")
        if any(f <= 0 for f in freqs):
            raise ValueError("all frequencies must be > 0")
        self._freqs: Tuple[int, ...] = tuple(freqs)
        cumulative = [0]
        for f in freqs:
            cumulative.append(cumulative[-1] + f)
        self._cum: Tuple[int, ...] = tuple(cumulative)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def uniform(cls, num_symbols: int) -> "FrequencyTable":
        """Equal-frequency table over ``num_symbols`` symbols."""
        if num_symbols <= 0:
            raise ValueError("num_symbols must be > 0")
        return cls([1] * num_symbols)

    @classmethod
    def from_counts(
        cls, counts: Sequence[int], *, smoothing: int = 1
    ) -> "FrequencyTable":
        """Build from observed symbol counts with additive smoothing.

        ``smoothing >= 1`` guarantees every symbol stays encodable even if
        it was never observed in the estimation window.
        """
        if smoothing < 1:
            raise ValueError("smoothing must be >= 1 to keep all symbols encodable")
        return cls([int(c) + smoothing for c in counts])

    @classmethod
    def from_probabilities(
        cls,
        probabilities: Sequence[float],
        *,
        precision: int = 4096,
    ) -> "FrequencyTable":
        """Quantize a probability vector to integer frequencies.

        Each symbol receives at least frequency 1 (implicit smoothing), and
        the rest of the ``precision`` budget is distributed proportionally.
        """
        probs = [float(p) for p in probabilities]
        if not probs:
            raise ValueError("probabilities must be non-empty")
        if any(p < 0 or math.isnan(p) for p in probs):
            raise ValueError("probabilities must be non-negative")
        total = sum(probs)
        if total <= 0:
            return cls.uniform(len(probs))
        if precision < len(probs):
            raise ValueError("precision must be >= number of symbols")
        budget = precision - len(probs)
        freqs = [1 + int(round(budget * p / total)) for p in probs]
        return cls(freqs)

    # -- model interface -----------------------------------------------------

    @property
    def num_symbols(self) -> int:
        return len(self._freqs)

    @property
    def total(self) -> int:
        """Sum of all frequencies (the denominator of every interval)."""
        return self._cum[-1]

    def frequency(self, symbol: int) -> int:
        self._check_symbol(symbol)
        return self._freqs[symbol]

    def interval(self, symbol: int) -> Tuple[int, int, int]:
        """Return ``(cum_lo, cum_hi, total)`` for ``symbol``."""
        self._check_symbol(symbol)
        return self._cum[symbol], self._cum[symbol + 1], self._cum[-1]

    def symbol_for(self, scaled_value: int) -> int:
        """Return the symbol whose cumulative interval contains ``scaled_value``."""
        if not 0 <= scaled_value < self.total:
            raise ValueError(
                f"scaled_value {scaled_value} out of range [0, {self.total})"
            )
        # Binary search over the cumulative array.
        lo, hi = 0, len(self._freqs)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self._cum[mid] <= scaled_value:
                lo = mid
            else:
                hi = mid
        return lo

    def probability(self, symbol: int) -> float:
        """The probability this table assigns to ``symbol``."""
        return self.frequency(symbol) / self.total

    def probabilities(self) -> List[float]:
        total = self.total
        return [f / total for f in self._freqs]

    def entropy_bits(self) -> float:
        """Shannon entropy (bits/symbol) of the table's distribution."""
        return -sum(p * math.log2(p) for p in self.probabilities() if p > 0)

    def serialized_size_bits(self) -> int:
        """Bits needed to disseminate this table to the network.

        Dophy broadcasts updated models; this is the payload cost counted by
        the overhead accounting (one quantized frequency per symbol plus a
        symbol-count byte).
        """
        return 8 + self.num_symbols * BITS_PER_FREQUENCY

    # -- misc ------------------------------------------------------------------

    def _check_symbol(self, symbol: int) -> None:
        if not 0 <= symbol < len(self._freqs):
            raise ValueError(
                f"symbol {symbol} out of range [0, {len(self._freqs)})"
            )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FrequencyTable) and self._freqs == other._freqs

    def __hash__(self) -> int:
        return hash(self._freqs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FrequencyTable(n={self.num_symbols}, total={self.total})"


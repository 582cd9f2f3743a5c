"""Tests for the static frequency table."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.freq import FrequencyTable


class TestFrequencyTable:
    def test_basic_intervals(self):
        t = FrequencyTable([2, 3, 5])
        assert t.total == 10
        assert t.interval(0) == (0, 2, 10)
        assert t.interval(1) == (2, 5, 10)
        assert t.interval(2) == (5, 10, 10)

    def test_symbol_for_covers_all_values(self):
        t = FrequencyTable([2, 3, 5])
        expected = [0, 0, 1, 1, 1, 2, 2, 2, 2, 2]
        assert [t.symbol_for(v) for v in range(10)] == expected

    def test_symbol_for_out_of_range(self):
        t = FrequencyTable([1, 1])
        with pytest.raises(ValueError):
            t.symbol_for(2)
        with pytest.raises(ValueError):
            t.symbol_for(-1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FrequencyTable([])

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            FrequencyTable([1, 0, 2])

    def test_uniform(self):
        t = FrequencyTable.uniform(4)
        assert t.probabilities() == [0.25] * 4

    def test_uniform_requires_positive(self):
        with pytest.raises(ValueError):
            FrequencyTable.uniform(0)

    def test_from_counts_smoothing(self):
        t = FrequencyTable.from_counts([10, 0, 0])
        assert t.frequency(1) == 1  # smoothed, still encodable
        assert t.frequency(0) == 11

    def test_from_counts_rejects_zero_smoothing(self):
        with pytest.raises(ValueError):
            FrequencyTable.from_counts([1, 2], smoothing=0)

    def test_from_probabilities(self):
        t = FrequencyTable.from_probabilities([0.9, 0.09, 0.01], precision=1000)
        probs = t.probabilities()
        assert probs[0] > probs[1] > probs[2] > 0
        assert abs(probs[0] - 0.9) < 0.02

    def test_from_probabilities_all_zero_falls_back_uniform(self):
        t = FrequencyTable.from_probabilities([0.0, 0.0])
        assert t.probabilities() == [0.5, 0.5]

    def test_from_probabilities_rejects_negative(self):
        with pytest.raises(ValueError):
            FrequencyTable.from_probabilities([0.5, -0.1])

    def test_entropy_uniform(self):
        t = FrequencyTable.uniform(8)
        assert math.isclose(t.entropy_bits(), 3.0)

    def test_entropy_deterministic_near_zero(self):
        t = FrequencyTable([1000, 1])
        assert t.entropy_bits() < 0.02

    def test_serialized_size(self):
        t = FrequencyTable.uniform(5)
        assert t.serialized_size_bits() == 8 + 5 * 12

    def test_equality_and_hash(self):
        a = FrequencyTable([1, 2, 3])
        b = FrequencyTable([1, 2, 3])
        c = FrequencyTable([1, 2, 4])
        assert a == b and hash(a) == hash(b)
        assert a != c


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=20))
def test_property_static_intervals_partition(freqs):
    """Static-table intervals tile [0, total) exactly."""
    t = FrequencyTable(freqs)
    cursor = 0
    for s in range(t.num_symbols):
        lo, hi, total = t.interval(s)
        assert lo == cursor and hi > lo and total == t.total
        cursor = hi
    assert cursor == t.total


@given(
    st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=12),
    st.data(),
)
def test_property_symbol_for_inverts_interval(freqs, data):
    t = FrequencyTable(freqs)
    value = data.draw(st.integers(min_value=0, max_value=t.total - 1))
    sym = t.symbol_for(value)
    lo, hi, _ = t.interval(sym)
    assert lo <= value < hi

"""Tests for the baseline prefix codes (fixed-width, Elias gamma, Rice)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.baseline_codes import (
    EliasGammaCode,
    FixedWidthCode,
    GolombRiceCode,
)
from repro.coding.bitio import BitReader

ALL_CODES = [
    FixedWidthCode(8),
    EliasGammaCode(),
    GolombRiceCode(0),
    GolombRiceCode(1),
    GolombRiceCode(3),
]


@pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: c.name)
def test_roundtrip_small_values(code):
    values = list(range(0, 40))
    writer = code.encode_sequence(values)
    reader = BitReader(writer.getvalue(), writer.bit_length)
    assert code.decode_sequence(reader, len(values)) == values


@pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: c.name)
def test_code_length_matches_encoding(code):
    for v in [0, 1, 2, 5, 17, 63, 200]:
        writer = code.encode_sequence([v])
        assert code.code_length(v) == writer.bit_length


@pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: c.name)
def test_rejects_negative(code):
    with pytest.raises(ValueError):
        code.encode_sequence([-1])


@pytest.mark.parametrize("code", ALL_CODES, ids=lambda c: c.name)
def test_rejects_bool(code):
    with pytest.raises(TypeError):
        code.encode_sequence([True])


class TestFixedWidth:
    def test_exact_width(self):
        code = FixedWidthCode(4)
        w = code.encode_sequence([5, 10])
        assert w.bit_length == 8

    def test_overflow_raises(self):
        code = FixedWidthCode(4)
        with pytest.raises(ValueError):
            code.encode_sequence([16])

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            FixedWidthCode(0)


class TestEliasGamma:
    def test_known_codewords(self):
        # gamma over v+1: value 0 -> "1"; value 1 -> "010"; value 2 -> "011".
        code = EliasGammaCode()
        assert code.encode_sequence([0]).to_bits() == [1]
        assert code.encode_sequence([1]).to_bits() == [0, 1, 0]
        assert code.encode_sequence([2]).to_bits() == [0, 1, 1]

    def test_lengths_grow_logarithmically(self):
        code = EliasGammaCode()
        assert code.code_length(0) == 1
        assert code.code_length(1) == 3
        assert code.code_length(7) == 7
        assert code.code_length(1000) == 19


class TestGolombRice:
    def test_k0_equals_unary(self):
        """Rice with k=0 is the unary code: v ones, then a zero."""
        rice0 = GolombRiceCode(0)
        for v in range(10):
            assert rice0.encode_sequence([v]).to_bits() == [1] * v + [0]
            assert rice0.code_length(v) == v + 1

    def test_known_codeword(self):
        # k=2, v=6: quotient 1 -> "10", remainder 2 -> "10".
        code = GolombRiceCode(2)
        assert code.encode_sequence([6]).to_bits() == [1, 0, 1, 0]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            GolombRiceCode(-1)


@given(
    st.lists(st.integers(min_value=0, max_value=100_000), max_size=30),
)
def test_property_variable_length_codes_roundtrip(values):
    for code in [EliasGammaCode(), GolombRiceCode(2)]:
        writer = code.encode_sequence(values)
        reader = BitReader(writer.getvalue(), writer.bit_length)
        assert code.decode_sequence(reader, len(values)) == values


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=30))
def test_property_mixed_codes_share_stream(values):
    """Different codes can be interleaved in one stream and still decode."""
    gamma, rice = EliasGammaCode(), GolombRiceCode(1)
    from repro.coding.bitio import BitWriter

    w = BitWriter()
    for i, v in enumerate(values):
        (gamma if i % 2 == 0 else rice).encode_value(w, v)
    r = BitReader(w.getvalue(), w.bit_length)
    out = [(gamma if i % 2 == 0 else rice).decode_value(r) for i in range(len(values))]
    assert out == values

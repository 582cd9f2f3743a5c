"""Tests for the integer arithmetic coder: round-trips, incremental use,
compression optimality, and precision edge cases."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.arithmetic import (
    MAX_MODEL_TOTAL,
    ArithmeticDecoder,
    ArithmeticEncoder,
)
from repro.coding.freq import FrequencyTable


def roundtrip(model, symbols):
    enc = ArithmeticEncoder()
    for s in symbols:
        enc.encode_symbol(model, s)
    data, nbits = enc.finish()
    dec = ArithmeticDecoder(data, nbits)
    return [dec.decode_symbol(model) for _ in symbols], nbits


class TestRoundTrip:
    def test_empty_stream(self):
        enc = ArithmeticEncoder()
        data, nbits = enc.finish()
        assert nbits >= 1  # terminal bits only
        ArithmeticDecoder(data, nbits)  # constructing must not raise

    def test_single_symbol(self):
        model = FrequencyTable([1, 1, 1])
        decoded, _ = roundtrip(model, [2])
        assert decoded == [2]

    def test_uniform_model(self):
        model = FrequencyTable.uniform(4)
        seq = [0, 1, 2, 3, 3, 2, 1, 0, 2, 2]
        decoded, _ = roundtrip(model, seq)
        assert decoded == seq

    def test_skewed_model(self):
        model = FrequencyTable([1000, 10, 1])
        seq = [0] * 50 + [1, 0, 2, 0, 0, 1] + [0] * 50
        decoded, _ = roundtrip(model, seq)
        assert decoded == seq

    def test_long_sequence(self):
        model = FrequencyTable([90, 7, 2, 1])
        seq = ([0] * 9 + [1]) * 100 + [2, 3] * 10
        decoded, _ = roundtrip(model, seq)
        assert decoded == seq

    def test_rarest_symbol_only(self):
        model = FrequencyTable([10_000, 1])
        seq = [1] * 20
        decoded, _ = roundtrip(model, seq)
        assert decoded == seq

    def test_per_position_models(self):
        """Different model per position (context modelling) round-trips."""
        models = [
            FrequencyTable([5, 1]),
            FrequencyTable([1, 5]),
            FrequencyTable([1, 1, 8]),
        ]
        seq = [0, 1, 2]
        enc = ArithmeticEncoder()
        for m, s in zip(models, seq):
            enc.encode_symbol(m, s)
        data, nbits = enc.finish()
        dec = ArithmeticDecoder(data, nbits)
        assert [dec.decode_symbol(m) for m in models] == seq

    def test_from_encoder_output_helper(self):
        model = FrequencyTable([3, 1])
        enc = ArithmeticEncoder()
        for s in [0, 1, 0]:
            enc.encode_symbol(model, s)
        dec = ArithmeticDecoder.from_encoder_output(enc.finish())
        assert dec.decode_sequence(model, 3) == [0, 1, 0]

    def test_decode_sequence_validates_count(self):
        model = FrequencyTable([1, 1])
        dec = ArithmeticDecoder(b"\x00", 8)
        with pytest.raises(ValueError):
            dec.decode_sequence(model, -1)


class TestIncrementalEncoding:
    """Dophy appends symbols hop by hop; these mirror that life cycle."""

    def test_copy_forks_state(self):
        model = FrequencyTable([4, 1])
        enc = ArithmeticEncoder()
        enc.encode_symbol(model, 0)
        fork = enc.copy()
        fork.encode_symbol(model, 1)
        enc.encode_symbol(model, 0)
        d1 = ArithmeticDecoder.from_encoder_output(enc.finish())
        d2 = ArithmeticDecoder.from_encoder_output(fork.finish())
        assert d1.decode_sequence(model, 2) == [0, 0]
        assert d2.decode_sequence(model, 2) == [0, 1]

    def test_finalized_bit_length_is_nondestructive(self):
        model = FrequencyTable([9, 1])
        enc = ArithmeticEncoder()
        for s in [0, 0, 1]:
            enc.encode_symbol(model, s)
        probe = enc.finalized_bit_length()
        # Still usable afterwards:
        enc.encode_symbol(model, 0)
        data, nbits = enc.finish()
        assert probe >= enc.bit_length or probe >= 1
        dec = ArithmeticDecoder(data, nbits)
        assert dec.decode_sequence(model, 4) == [0, 0, 1, 0]

    def test_finalized_bit_length_matches_actual_finish(self):
        model = FrequencyTable([7, 2, 1])
        enc = ArithmeticEncoder()
        for s in [0, 1, 0, 2, 0]:
            enc.encode_symbol(model, s)
        predicted = enc.finalized_bit_length()
        _, actual = enc.finish()
        assert predicted == actual

    def test_finish_twice_raises(self):
        enc = ArithmeticEncoder()
        enc.finish()
        with pytest.raises(RuntimeError):
            enc.finish()

    def test_encode_after_finish_raises(self):
        enc = ArithmeticEncoder()
        enc.finish()
        with pytest.raises(RuntimeError):
            enc.encode_symbol(FrequencyTable([1, 1]), 0)

    def test_symbols_encoded_counter(self):
        model = FrequencyTable([1, 1])
        enc = ArithmeticEncoder()
        assert enc.symbols_encoded == 0
        enc.encode_symbol(model, 0)
        enc.encode_symbol(model, 1)
        assert enc.symbols_encoded == 2


class TestCompressionQuality:
    def test_skewed_beats_fixed_width(self):
        """A highly skewed source compresses far below log2(n) bits/symbol."""
        model = FrequencyTable([950, 40, 9, 1])
        seq = [0] * 950 + [1] * 40 + [2] * 9 + [3]
        _, nbits = roundtrip(model, seq)
        fixed_bits = len(seq) * 2  # log2(4)
        assert nbits < 0.35 * fixed_bits

    def test_rate_close_to_entropy(self):
        """Measured bits/symbol approaches the model entropy on matched data."""
        freqs = [800, 150, 40, 10]
        model = FrequencyTable(freqs)
        # Deterministic sequence with exactly the model's empirical mix.
        seq = []
        for sym, f in enumerate(freqs):
            seq.extend([sym] * f)
        # Interleave to avoid pathological run structure mattering (it doesn't
        # for arithmetic coding, but keep the test honest).
        seq = seq[::2] + seq[1::2]
        _, nbits = roundtrip(model, seq)
        entropy = model.entropy_bits() * len(seq)
        assert nbits <= entropy + 16  # small constant overhead only

    def test_uniform_source_near_log2(self):
        model = FrequencyTable.uniform(5)
        seq = [i % 5 for i in range(500)]
        _, nbits = roundtrip(model, seq)
        assert abs(nbits / len(seq) - math.log2(5)) < 0.05


class TestPrecisionLimits:
    def test_model_total_cap_enforced_encode(self):
        class Fat:
            total = MAX_MODEL_TOTAL + 1

            def interval(self, s):
                return (0, 1, self.total)

            def symbol_for(self, v):
                return 0

        enc = ArithmeticEncoder()
        with pytest.raises(ValueError):
            enc.encode_symbol(Fat(), 0)

    def test_model_total_cap_enforced_decode(self):
        class Fat:
            total = MAX_MODEL_TOTAL + 1

            def interval(self, s):
                return (0, 1, self.total)

            def symbol_for(self, v):
                return 0

        dec = ArithmeticDecoder(b"\x00\x00\x00\x00\x00")
        with pytest.raises(ValueError):
            dec.decode_symbol(Fat())

    def test_large_model_total_near_cap_roundtrips(self):
        model = FrequencyTable([MAX_MODEL_TOTAL - 3, 1, 1, 1])
        seq = [0, 1, 2, 3, 0]
        decoded, _ = roundtrip(model, seq)
        assert decoded == seq

    def test_empty_interval_symbol_raises(self):
        class Degenerate:
            total = 10

            def interval(self, s):
                return (5, 5, 10)

            def symbol_for(self, v):
                return 0

        enc = ArithmeticEncoder()
        with pytest.raises(ValueError):
            enc.encode_symbol(Degenerate(), 0)


@settings(max_examples=60, deadline=None)
@given(
    freqs=st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=16),
    data=st.data(),
)
def test_property_roundtrip_random_model(freqs, data):
    """Arbitrary model + arbitrary symbol sequence always round-trips."""
    model = FrequencyTable(freqs)
    n = len(freqs)
    seq = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=120)
    )
    decoded, _ = roundtrip(model, seq)
    assert decoded == seq


@settings(max_examples=30, deadline=None)
@given(
    freqs=st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=8),
    seq=st.lists(st.integers(min_value=0, max_value=7), max_size=60),
)
def test_property_incremental_equals_batch(freqs, seq):
    """Copy-then-continue produces the identical codeword as direct encoding."""
    model = FrequencyTable(freqs)
    seq = [s % len(freqs) for s in seq]
    direct = ArithmeticEncoder()
    stepped = ArithmeticEncoder()
    for s in seq:
        direct.encode_symbol(model, s)
        stepped = stepped.copy()  # fork at every hop, as packets do
        stepped.encode_symbol(model, s)
    assert direct.finish() == stepped.finish()

"""Tests for RNG stream management and validation helpers."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.utils.rng import RngRegistry, _key_to_ints, derive_rng, spawn_seeds
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)


class TestDeriveRng:
    def test_same_key_same_stream(self):
        a = derive_rng(42, "link", 1, 2)
        b = derive_rng(42, "link", 1, 2)
        assert np.array_equal(a.random(10), b.random(10))

    def test_different_keys_differ(self):
        a = derive_rng(42, "link", 1, 2)
        b = derive_rng(42, "link", 2, 1)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_different_seeds_differ(self):
        a = derive_rng(1, "x")
        b = derive_rng(2, "x")
        assert not np.array_equal(a.random(10), b.random(10))

    def test_string_hash_stable(self):
        """String keys map identically across calls (no hash salting)."""
        a = derive_rng(0, "routing")
        b = derive_rng(0, "routing")
        assert a.random() == b.random()

    def test_rejects_bad_key_parts(self):
        with pytest.raises(TypeError):
            derive_rng(0, 1.5)
        with pytest.raises(TypeError):
            derive_rng(0, True)


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(7, 5) == spawn_seeds(7, 5)

    def test_distinct(self):
        seeds = spawn_seeds(7, 20)
        assert len(set(seeds)) == 20

    def test_zero(self):
        assert spawn_seeds(7, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(7, -1)


class TestRngRegistry:
    def test_returns_same_generator_object(self):
        reg = RngRegistry(5)
        assert reg.get("a", 1) is reg.get("a", 1)

    def test_state_advances(self):
        reg = RngRegistry(5)
        x = reg.get("a").random()
        y = reg.get("a").random()
        assert x != y

    def test_len_counts_streams(self):
        reg = RngRegistry(5)
        reg.get("a")
        reg.get("b", 1)
        reg.get("a")
        assert len(reg) == 2
        assert set(reg.known_streams()) == {("a",), ("b", 1)}

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            RngRegistry(5).get()

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngRegistry("seed")

    def test_registry_matches_derive(self):
        reg = RngRegistry(9)
        direct = derive_rng(9, "link", 3, 4)
        assert reg.get("link", 3, 4).random() == direct.random()


class TestValidation:
    def test_probability(self):
        assert check_probability(0.5, "p") == 0.5
        assert check_probability(0, "p") == 0.0
        for bad in [-0.01, 1.01, float("nan")]:
            with pytest.raises(ValueError):
                check_probability(bad, "p")

    def test_positive(self):
        assert check_positive(1e-9, "x") == 1e-9
        for bad in [0.0, -1.0, float("inf"), float("nan")]:
            with pytest.raises(ValueError):
                check_positive(bad, "x")

    def test_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-1e-9, "x")

    def test_in_range_inclusive(self):
        assert check_in_range(1.0, "x", 1.0, 2.0) == 1.0
        assert check_in_range(2.0, "x", 1.0, 2.0) == 2.0
        with pytest.raises(ValueError):
            check_in_range(2.01, "x", 1.0, 2.0)

    def test_in_range_exclusive(self):
        with pytest.raises(ValueError):
            check_in_range(1.0, "x", 1.0, 2.0, inclusive=(False, True))
        assert check_in_range(1.5, "x", 1.0, 2.0, inclusive=(False, False)) == 1.5

    def test_error_message_names_parameter(self):
        with pytest.raises(ValueError, match="my_param"):
            check_probability(2.0, "my_param")

    def test_check_type(self):
        assert check_type(5, "n", int) == 5
        assert check_type("s", "n", (int, str)) == "s"
        with pytest.raises(TypeError, match="n must be"):
            check_type(5.0, "n", int)


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=100))
def test_property_streams_reproducible(seed, key):
    a = derive_rng(seed, "s", key).integers(0, 1_000_000, size=5)
    b = derive_rng(seed, "s", key).integers(0, 1_000_000, size=5)
    assert np.array_equal(a, b)


#: Seeds of each width SeedSequence treats differently: 0 (one zero
#: word), one word, two words, and more words than its 4-word pool.
SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**128 + 1, 2**260),
)
KEY_PARTS = st.one_of(
    st.text(max_size=8),  # non-ASCII text is drawn often
    st.integers(-(2**70), -1),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**70),
)


@given(SEEDS, st.lists(KEY_PARTS, min_size=1, max_size=4))
@example(107, ["link", 12, 34])
@example(2**32, ["ü\u4e2d", -1, 2**32, "traffic"])
@example(2**128 + 1, [""])
def test_property_derivation_matches_numpy_seed_sequence(seed, key):
    """derive_rng seeds PCG64 exactly as numpy's own SeedSequence does."""
    sequence = np.random.SeedSequence(seed, spawn_key=_key_to_ints(tuple(key)))
    expected = np.random.Generator(np.random.PCG64(sequence)).random(16)
    assert np.array_equal(derive_rng(seed, *key).random(16), expected)


@given(st.integers(max_value=-1))
def test_property_negative_seed_rejected_as_numpy_rejects_it(seed):
    with pytest.raises(ValueError):
        np.random.SeedSequence(seed, spawn_key=(1,))
    with pytest.raises(ValueError):
        derive_rng(seed, "link", 1, 2)

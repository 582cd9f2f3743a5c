"""Deterministic random-number-stream management.

Simulations in this package are fully reproducible: every stochastic
component (each link, the routing beacons, the traffic generator, ...)
draws from its own named substream derived from a single master seed.
This keeps results independent of the order in which components happen
to draw, which matters when comparing protocol variants on the *same*
sequence of channel events (common random numbers).

**How a stream is seeded.** Stream ``key`` under ``master_seed`` is the
``PCG64`` generator that numpy's
``SeedSequence(master_seed, spawn_key=_key_to_ints(key))`` seeds, the
recommended mechanism for statistically independent streams.
:func:`derive_rng` computes that seeding itself rather than building a
``SeedSequence``: a 5,000-node run derives one stream per traffic
source and per link that carries a frame (16,675 in all), and per
stream the object, its entropy arrays and its ``generate_state`` call
are overhead around the hashing, which itself repeats the seed's half
for every key. Here the seed's words are mixed into the 4-word pool
once per seed (``_seed_pool``), each key word is folded into a copy of
that pool with Python ints, and the four uint64 state words are built
directly and handed to ``PCG64`` through numpy's public
``ISeedSequence`` interface (``_StateWords``).

**What pins bit-exactness.** The streams equal numpy's own derivation
as long as numpy keeps its documented ``SeedSequence`` algorithm (the
pool size, the hash and mix constants below, and the zero padding
before a spawn key that numpy 1.19 added) and ``PCG64`` keeps seeding
itself from ``generate_state(4, np.uint64)``. ``tests/test_utils.py``
checks the two derivations against each other over seeds and keys of
every width, on each numpy release CI installs, and the golden
fixtures pin the streams end to end.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Tuple, Union, cast

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.sanitize import hooks as _sanitize_hooks

__all__ = ["derive_rng", "spawn_seeds", "RngRegistry"]

#: Anything acceptable as a stream name component.
KeyPart = Union[str, int]


def _key_to_ints(key: Tuple[KeyPart, ...]) -> List[int]:
    """Map a structured stream key to a list of ints for SeedSequence.

    Strings are hashed with a stable (non-salted) FNV-1a so the mapping is
    identical across processes and Python versions; ints pass through.
    """
    out: List[int] = []
    for part in key:
        if isinstance(part, bool):  # bool is an int subclass; reject explicitly
            raise TypeError("bool is not a valid RNG key part")
        if isinstance(part, int):
            out.append(part & 0xFFFFFFFF)
        elif isinstance(part, str):
            acc = 0x811C9DC5
            for byte in part.encode("utf-8"):
                acc ^= byte
                acc = (acc * 0x01000193) & 0xFFFFFFFF
            out.append(acc)
        else:
            raise TypeError(f"RNG key parts must be str or int, got {type(part)!r}")
    return out


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
#: ``generate_state``'s running multiplier: word ``i`` of the output is
#: hashed with entries ``i`` and ``i + 1``.
_STATE_HASH = tuple(_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9))


def _hashmix(value: int, hash_const: int) -> Tuple[int, int]:
    """numpy's ``hashmix``: the hashed value and the advanced multiplier."""
    value ^= hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _fold(pool: List[int], hash_const: int, words: Iterable[int]) -> int:
    """Mix entropy words past the pool size into ``pool``, in place.

    ``SeedSequence.mix_entropy``'s last loop; returns the multiplier.
    It runs for every stream, so ``_hashmix`` and ``_mix`` are inlined:
    besides the calls, each ``_hashmix`` result is a new tuple, and
    allocations are what trigger the garbage collector.
    """
    for word in words:
        for i in range(_POOL_SIZE):
            value = word ^ hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const & _MASK32
            result = (_MIX_MULT_L * pool[i] - _MIX_MULT_R * (value ^ (value >> 16))) & _MASK32
            pool[i] = result ^ (result >> 16)
    return hash_const


@lru_cache(maxsize=64)
def _seed_pool(master_seed: int) -> Tuple[Tuple[int, ...], int]:
    """The pool and multiplier once ``master_seed``'s words are mixed in.

    The seed becomes little-endian uint32 words (one word for 0).
    ``SeedSequence`` pads them with zeros to the pool size when a spawn
    key follows, and hashes a missing word as 0 when none does, which is
    the same thing, so one cached pool serves every key.
    """
    if master_seed < 0:
        raise ValueError("expected non-negative integer")
    words = [
        master_seed >> shift & _MASK32
        for shift in range(0, max(master_seed.bit_length(), 1), 32)
    ]
    words += [0] * (_POOL_SIZE - len(words))
    pool: List[int] = []
    hash_const = _INIT_A
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    hash_const = _fold(pool, hash_const, words[_POOL_SIZE:])
    return tuple(pool), hash_const


class _StateWords(ISeedSequence):
    """Hands ``PCG64`` the four uint64 words a ``SeedSequence`` would."""

    def __init__(self, pool: List[int]):
        halves = []
        for i in range(2 * _POOL_SIZE):
            value = (pool[i % _POOL_SIZE] ^ _STATE_HASH[i]) * _STATE_HASH[i + 1] & _MASK32
            halves.append(value ^ (value >> 16))
        self._words = [halves[i] | halves[i + 1] << 32 for i in range(0, len(halves), 2)]

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> "np.ndarray":
        if n_words != len(self._words) or np.dtype(dtype) != np.uint64:
            raise ValueError("only the four uint64 words PCG64 seeds from are held")
        return np.array(self._words, dtype=np.uint64)


def derive_rng(master_seed: int, *key: KeyPart) -> np.random.Generator:
    """Return an independent Generator for the stream named by ``key``.

    The same ``(master_seed, key)`` always yields a generator producing the
    same sequence; different keys yield statistically independent streams.
    The generator is the one ``SeedSequence(master_seed,
    spawn_key=_key_to_ints(key))`` would seed (see the module docstring).
    """
    pool_words, hash_const = _seed_pool(operator.index(master_seed))
    pool = list(pool_words)
    _fold(pool, hash_const, _key_to_ints(key))
    gen = np.random.Generator(np.random.PCG64(_StateWords(pool)))
    sanitizer = _sanitize_hooks.ACTIVE
    if sanitizer is not None:
        # Wrap at creation: callers (and the RngRegistry cache) hold the
        # recording proxy, so the off state pays nothing per draw.
        return cast(np.random.Generator, sanitizer.wrap(gen, tuple(key)))
    return gen


def spawn_seeds(master_seed: int, n: int) -> List[int]:
    """Derive ``n`` child integer seeds from a master seed.

    Useful for replication sweeps: each replicate gets its own master seed.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    seq = np.random.SeedSequence(entropy=master_seed)
    return [int(s.generate_state(1)[0]) for s in seq.spawn(n)]


class RngRegistry:
    """Lazy cache of named RNG streams sharing one master seed.

    Components ask for ``registry.get("link", u, v)`` and always receive the
    same generator object for the lifetime of the registry, so stream state
    advances coherently within one simulation run.
    """

    def __init__(self, master_seed: int):
        if not isinstance(master_seed, int):
            raise TypeError("master_seed must be an int")
        self._master_seed = master_seed
        self._streams: Dict[Tuple[KeyPart, ...], np.random.Generator] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def get(self, *key: KeyPart) -> np.random.Generator:
        """Return (creating if needed) the generator for ``key``."""
        if not key:
            raise ValueError("stream key must be non-empty")
        tkey = tuple(key)
        gen = self._streams.get(tkey)
        if gen is None:
            gen = derive_rng(self._master_seed, *tkey)
            self._streams[tkey] = gen
        return gen

    def known_streams(self) -> Iterable[Tuple[KeyPart, ...]]:
        """Keys of all streams created so far (for diagnostics)."""
        return tuple(self._streams.keys())

    def __len__(self) -> int:
        return len(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngRegistry(master_seed={self._master_seed}, streams={len(self._streams)})"

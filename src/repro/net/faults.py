"""Packet-level fault injection (extension).

Node crashes (:mod:`repro.net.failures`) remove whole nodes; this module
injects the *subtler* faults a deployed sink actually sees — corruption
that escapes the CRC and frames cut short — so the decode-failure
taxonomy and the salvage path can be exercised end to end.

A :class:`FaultPlan` is composable and reproducible: every stochastic
decision draws from its own named substream of a dedicated fault seed
(via :func:`repro.utils.rng.derive_rng`), so enabling one fault kind
never perturbs the draws of another, nor any data-plane stream.

Fault kinds:

* **bit corruption** — with probability ``corruption_rate`` per delivered
  annotation, flip 1..:data:`MAX_FLIPS` uniformly chosen payload bits
  (modelling corruption the 16-bit CRC failed to catch);
* **truncation** — with probability ``truncation_rate``, cut a uniform
  fraction off the tail of the annotation (a frame clipped mid-air).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.utils.rng import derive_rng
from repro.utils.validation import check_probability

__all__ = ["FaultPlan", "ShardFaultPlan", "MAX_FLIPS", "STALL_ROUNDS"]

#: Most payload bits one corruption event flips.
MAX_FLIPS = 3
#: Dispatch rounds a stalled shard worker hangs before it is given up on.
STALL_ROUNDS = 2


class FaultPlan:
    """Composable, seeded packet-fault injector.

    All rates default to 0, so an empty plan is a no-op. The plan is
    stateless apart from its RNG streams; one instance serves one run.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        corruption_rate: float = 0.0,
        truncation_rate: float = 0.0,
    ):
        check_probability(corruption_rate, "corruption_rate")
        check_probability(truncation_rate, "truncation_rate")
        self.seed = seed
        self.corruption_rate = corruption_rate
        self.truncation_rate = truncation_rate
        # One substream per fault kind: enabling truncation must not
        # shift which packets get corrupted, and vice versa.
        self._corrupt_rng = derive_rng(seed, "faults", "corrupt")
        self._truncate_rng = derive_rng(seed, "faults", "truncate")

    @property
    def active(self) -> bool:
        """True when any fault kind can actually fire."""
        return bool(self.corruption_rate > 0 or self.truncation_rate > 0)

    def corrupt_annotation(
        self, data: bytes, bit_length: int
    ) -> Tuple[bytes, int, bool]:
        """Maybe flip bits and/or truncate; returns (data, bits, mutated).

        Bit flips land uniformly anywhere in the annotation; truncation
        keeps a uniform prefix of at least one bit. Both can hit the same
        packet (flips are applied first, on the full-length stream).
        """
        mutated = False
        if (
            self.corruption_rate > 0
            and bit_length > 0
            and float(self._corrupt_rng.random()) < self.corruption_rate
        ):
            buf = bytearray(data)
            n_flips = int(self._corrupt_rng.integers(1, MAX_FLIPS + 1))
            for _ in range(n_flips):
                pos = int(self._corrupt_rng.integers(0, bit_length))
                buf[pos // 8] ^= 1 << (7 - (pos % 8))
            data = bytes(buf)
            mutated = True
        if (
            self.truncation_rate > 0
            and bit_length > 1
            and float(self._truncate_rng.random()) < self.truncation_rate
        ):
            keep = int(self._truncate_rng.integers(1, bit_length))
            data = data[: (keep + 7) // 8]
            bit_length = keep
            mutated = True
        return data, bit_length, mutated

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(corruption={self.corruption_rate},"
            f" truncation={self.truncation_rate})"
        )


class ShardFaultPlan:
    """Seeded crash/stall injection for the streaming sink's shard workers.

    Used by :class:`repro.stream.sink.StreamingSink` (and its tests) to
    kill or hang a shard's estimator worker at a chosen dispatch round,
    exercising the supervisor's checkpoint-restore and backoff paths.

    Unlike :class:`FaultPlan`, the draws here are **stateless**: whether
    shard ``s`` crashes at round ``r`` is a pure function of
    ``(seed, s, r)``, derived through its own
    :func:`repro.utils.rng.derive_rng` substream. That buys two
    properties the supervisor tests rely on:

    * enabling stalls never shifts which rounds crash (and vice versa);
    * a sink that is killed and resumed mid-run sees exactly the same
      remaining fault schedule as an uninterrupted run — there is no
      generator state to fast-forward.

    ``crash_at`` / ``stall_at`` force faults at exact ``(round, shard)``
    coordinates for targeted tests, on top of any stochastic rate.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        crash_rate: float = 0.0,
        stall_rate: float = 0.0,
        crash_at: Sequence[Tuple[int, int]] = (),
        stall_at: Sequence[Tuple[int, int]] = (),
    ):
        check_probability(crash_rate, "crash_rate")
        check_probability(stall_rate, "stall_rate")
        for where, name in ((crash_at, "crash_at"), (stall_at, "stall_at")):
            for rnd, shard in where:
                if rnd < 1 or shard < 0:
                    raise ValueError(
                        f"{name} entries must be (round >= 1, shard >= 0)"
                    )
        self.seed = seed
        self.crash_rate = crash_rate
        self.stall_rate = stall_rate
        self.crash_at = frozenset((int(r), int(s)) for r, s in crash_at)
        self.stall_at = frozenset((int(r), int(s)) for r, s in stall_at)

    @property
    def active(self) -> bool:
        """True when any fault can actually fire."""
        return bool(
            self.crash_rate > 0
            or self.stall_rate > 0
            or self.crash_at
            or self.stall_at
        )

    def _draw(self, kind: str, shard: int, round_no: int, rate: float) -> bool:
        if rate <= 0:
            return False
        rng = derive_rng(self.seed, "faults", kind, shard, round_no)
        return float(rng.random()) < rate

    def draw_crash(self, shard: int, round_no: int) -> bool:
        """Should ``shard``'s worker crash while applying round ``round_no``?"""
        if (round_no, shard) in self.crash_at:
            return True
        return self._draw("shard-crash", shard, round_no, self.crash_rate)

    def draw_stall(self, shard: int, round_no: int) -> bool:
        """Should ``shard``'s worker hang at round ``round_no``?"""
        if (round_no, shard) in self.stall_at:
            return True
        return self._draw("shard-stall", shard, round_no, self.stall_rate)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardFaultPlan(crash={self.crash_rate}, stall={self.stall_rate},"
            f" forced={len(self.crash_at) + len(self.stall_at)})"
        )

"""Shard supervision: restart with backoff, retry budget, quarantine.

The supervisor is deliberately clock-free — backoff is counted in
*dispatch rounds*, the sink's own unit of progress, so a supervised run
is exactly as deterministic as an unsupervised one (reprolint's RPL002
wall-clock rule applies to this package, and nothing here needs a
pragma).

Lifecycle of a shard::

    healthy --crash/stall--> down (backoff: BACKOFF_BASE * 2^(restarts-1),
      capped at BACKOFF_CAP) --rounds elapse--> restore (checkpoint + WAL replay)
      --> healthy
    ... more than ``max_restarts`` failures --> quarantined (terminal)

Quarantine is the graceful-degradation end state: the shard's last
durable state still contributes to the global view, but its links are
flagged stale and new evidence routed to it is dropped *and counted* —
a dead shard must never surface as silently-confident numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

__all__ = ["RetryPolicy", "ShardSupervisor", "BACKOFF_BASE", "BACKOFF_CAP"]

#: Rounds a shard stays down after its first failure; doubles per restart.
BACKOFF_BASE = 1
#: Upper bound on the backoff, in rounds.
BACKOFF_CAP = 8

#: Supervisor states a shard can be in.
HEALTHY = "healthy"
DOWN = "down"
QUARANTINED = "quarantined"


@dataclass(frozen=True)
class RetryPolicy:
    """Restart budget and backoff schedule (in dispatch rounds)."""

    max_restarts: int = 3

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")

    def backoff_rounds(self, restarts: int) -> int:
        """Rounds to stay down after the ``restarts``-th failure."""
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        return min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (restarts - 1))


class ShardSupervisor:
    """Tracks per-shard health, backoff deadlines and the retry budget."""

    def __init__(self, n_shards: int, policy: RetryPolicy) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.policy = policy
        self.n_shards = n_shards
        self._restarts = [0] * n_shards
        self._resume_round = [0] * n_shards
        self._down = [False] * n_shards
        self._quarantined = [False] * n_shards

    # -- queries ----------------------------------------------------------------------

    def state(self, shard: int) -> str:
        if self._quarantined[shard]:
            return QUARANTINED
        if self._down[shard]:
            return DOWN
        return HEALTHY

    def is_quarantined(self, shard: int) -> bool:
        return self._quarantined[shard]

    def restarts(self, shard: int) -> int:
        return self._restarts[shard]

    def any_down(self) -> bool:
        return any(self._down)

    def quarantined_shards(self) -> List[int]:
        return [i for i in range(self.n_shards) if self._quarantined[i]]

    def due_for_restore(self, shard: int, round_no: int) -> bool:
        """Has this shard's backoff expired at ``round_no``?"""
        return (
            self._down[shard]
            and not self._quarantined[shard]
            and round_no >= self._resume_round[shard]
        )

    # -- transitions ------------------------------------------------------------------

    def record_failure(
        self, shard: int, round_no: int, *, backoff_override: int = 0
    ) -> str:
        """A shard's worker crashed or hung at ``round_no``.

        Returns the resulting state: ``down`` (restart scheduled after
        exponential backoff, or ``backoff_override`` rounds when given —
        a stall's hang time) or ``quarantined`` (budget exhausted).
        """
        if self._quarantined[shard]:
            return QUARANTINED
        self._restarts[shard] += 1
        if self._restarts[shard] > self.policy.max_restarts:
            self._quarantined[shard] = True
            self._down[shard] = False
            return QUARANTINED
        backoff = backoff_override or self.policy.backoff_rounds(
            self._restarts[shard]
        )
        self._down[shard] = True
        self._resume_round[shard] = round_no + backoff
        return DOWN

    def mark_restored(self, shard: int) -> None:
        """The sink restored this shard's state; it is healthy again."""
        if self._quarantined[shard]:
            raise ValueError(f"shard {shard} is quarantined, cannot restore")
        self._down[shard] = False

    # -- serialization (sink manifest) ------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "restarts": list(self._restarts),
            "resume_round": list(self._resume_round),
            "down": list(self._down),
            "quarantined": list(self._quarantined),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        for field in ("restarts", "resume_round", "down", "quarantined"):
            values = state[field]
            if len(values) != self.n_shards:
                raise ValueError(
                    f"supervisor state {field!r} has {len(values)} entries "
                    f"for {self.n_shards} shards"
                )
        self._restarts = [int(v) for v in state["restarts"]]
        self._resume_round = [int(v) for v in state["resume_round"]]
        self._down = [bool(v) for v in state["down"]]
        self._quarantined = [bool(v) for v in state["quarantined"]]

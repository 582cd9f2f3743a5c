"""One shard of the streaming sink: estimator + spool + checkpoint.

A :class:`ShardWorker` owns one :class:`~repro.core.estimator.PerLinkEstimator`
covering the links whose packets hash to it, and the two durable
artifacts recovery needs: a write-ahead spool (every record is logged
before any estimator sees it) and a versioned checkpoint (written every
few snapshots once every spooled record is applied, after which the
spool is deleted unread).

The apply step is the module-level :func:`shard_apply_task` — fold a
batch into a fresh delta estimator — and :meth:`ShardWorker.absorb`,
which merges that delta into the live estimator. Because
:meth:`PerLinkEstimator.merge` is commutative/associative over
sufficient statistics (the property
``tests/stream/test_merge_properties.py`` pins), the shard ends in the
same state as if every record had been fed to it directly.

Recovery invariant: ``restore()`` rebuilds the estimator *from durable
state only* (checkpoint + spool replay), never from what the crashed
worker had in memory — so restore is idempotent, and a restored shard is
field-identical to one that never crashed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.estimator import PerLinkEstimator
from repro.stream.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.records import PacketRecord, feed_estimator
from repro.sanitize import hooks as _sanitize_hooks
from repro.stream.storage import BlobStore
from repro.stream.wal import WriteAheadLog

__all__ = ["ShardStats", "ShardWorker", "shard_apply_task"]


def shard_apply_task(
    max_attempts: int,
    truncation_correction: bool,
    records: Sequence[PacketRecord],
) -> PerLinkEstimator:
    """Fold a record batch into a fresh delta estimator and return it.

    A pure function of its arguments. The sink merges the delta into the
    shard's live estimator with :meth:`ShardWorker.absorb`; the two
    steps stay apart because ``perfbench/tracing.py`` times each by name
    (DESIGN.md §11).
    """
    delta = PerLinkEstimator(
        max_attempts, truncation_correction=truncation_correction
    )
    feed_estimator(delta, records)
    return delta


@dataclass
class ShardStats:
    """What one shard did over the sink's lifetime."""

    logged: int = 0
    applied: int = 0
    crashes: int = 0
    stalls: int = 0
    restores: int = 0
    checkpoints: int = 0
    replayed: int = 0


class ShardWorker:
    """Supervised owner of one shard's estimator and durable state."""

    def __init__(
        self,
        index: int,
        max_attempts: int,
        store: BlobStore,
        *,
        truncation_correction: bool = True,
    ) -> None:
        if index < 0:
            raise ValueError("shard index must be >= 0")
        self.index = index
        self.max_attempts = max_attempts
        self.truncation_correction = truncation_correction
        self.store = store
        self.wal = WriteAheadLog(store, f"shard-{index:03d}.wal")
        self.checkpoint_name = f"shard-{index:03d}.ckpt"
        self.estimator: Optional[PerLinkEstimator] = self._fresh()
        #: Highest spool sequence ever logged / folded into ``estimator``.
        self.seq_logged = 0
        self.seq_applied = 0
        self.stats = ShardStats()

    def _fresh(self) -> PerLinkEstimator:
        return PerLinkEstimator(
            self.max_attempts, truncation_correction=self.truncation_correction
        )

    # -- the write-ahead contract -----------------------------------------------------

    def log(self, records: Sequence[PacketRecord]) -> None:
        """Spool records durably *before* any apply step may see them.

        One group commit: the batch goes to the spool in one write and
        one fsync, and ``seq_logged`` advances only after both succeed.
        """
        seq = self.seq_logged
        with self.wal.group():
            for record in records:
                seq += 1
                self.wal.append(seq, record)
        self.seq_logged = seq
        self.stats.logged += len(records)

    def absorb(self, delta: PerLinkEstimator, count: int) -> None:
        """Merge an apply task's delta; advances the applied watermark."""
        if self.estimator is None:
            raise RuntimeError(f"shard {self.index} is down; restore first")
        self.estimator.merge(delta)
        self.seq_applied += count
        self.stats.applied += count
        sanitizer = _sanitize_hooks.ACTIVE
        if sanitizer is not None:
            sanitizer.record_effect("apply", self.wal.name, self.seq_applied)

    @property
    def lag(self) -> int:
        """Spooled-but-unapplied records (non-zero while down/backing off)."""
        return self.seq_logged - self.seq_applied

    # -- crash / recovery -------------------------------------------------------------

    def crash(self) -> None:
        """The worker died: in-memory estimator state is gone."""
        self.estimator = None

    def peek_durable(self) -> Tuple[PerLinkEstimator, int]:
        """(estimator, durable seq) from durable state only.

        Checkpoint (if any) plus full spool replay — exactly what
        :meth:`restore` installs, but without touching worker state, so
        the sink can fold a *down* shard's last durable view into global
        snapshots while its backoff elapses. The durable seq is the last
        replayed spool entry's, or the checkpoint's when none replays.
        """
        try:
            ckpt = load_checkpoint(self.store, self.checkpoint_name)
        except CheckpointError as exc:
            if exc.cause != "missing":
                raise
            est, ckpt_seq = self._fresh(), 0
        else:
            if ckpt.get("shard") != self.index:
                raise CheckpointError(
                    "malformed",
                    f"checkpoint names shard {ckpt.get('shard')!r}, "
                    f"expected {self.index}",
                )
            try:
                est = PerLinkEstimator.from_state(ckpt["estimator"])
                ckpt_seq = int(ckpt["seq"])
            except (KeyError, TypeError, ValueError) as exc2:
                raise CheckpointError(
                    "malformed", f"invalid estimator state: {exc2}"
                ) from exc2
        durable_seq = ckpt_seq
        replayed: List[PacketRecord] = []
        for seq, record in self.wal.replay(ckpt_seq):
            replayed.append(record)
            durable_seq = seq
        feed_estimator(est, replayed)
        self.stats.replayed += len(replayed)
        return est, durable_seq

    def restore(self) -> None:
        """Rebuild the live estimator from checkpoint + spool replay.

        Idempotent: restoring twice is the same as restoring once.
        """
        est, durable_seq = self.peek_durable()
        self.estimator = est
        self.seq_applied = durable_seq
        self.seq_logged = max(self.seq_logged, durable_seq)
        self.stats.restores += 1

    def checkpoint(self) -> None:
        """Durably snapshot the estimator; delete the acked spool unread."""
        if self.estimator is None:
            raise RuntimeError(f"shard {self.index} is down; cannot checkpoint")
        if self.lag != 0:
            raise RuntimeError(
                f"shard {self.index} has {self.lag} unapplied spooled records; "
                "checkpointing now would ack evidence the estimator never saw"
            )
        save_checkpoint(
            self.store,
            self.checkpoint_name,
            {
                "shard": self.index,
                "seq": self.seq_applied,
                "estimator": self.estimator.state_dict(),
            },
        )
        self.wal.truncate_through(self.seq_applied)
        self.stats.checkpoints += 1
        sanitizer = _sanitize_hooks.ACTIVE
        if sanitizer is not None:
            sanitizer.record_effect(
                "checkpoint-write", self.wal.name, self.seq_applied
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self.estimator is None else "up"
        return (
            f"ShardWorker({self.index}, {state}, logged={self.seq_logged}, "
            f"applied={self.seq_applied})"
        )

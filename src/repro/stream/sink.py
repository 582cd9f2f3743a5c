"""The crash-tolerant streaming sink: ingest → shard → estimate → alert.

:class:`StreamingSink` turns an ordered stream of
:class:`~repro.stream.records.PacketRecord` into a continuously merged
global per-link loss view. Per dispatch *round* (the sink's clock-free
unit of progress) it:

1. restores any shard whose backoff expired (checkpoint + WAL replay);
2. pulls up to ``arrival_burst`` records into the bounded ingest queue
   (``block`` paces the source, ``shed`` drops the newest — see
   :mod:`repro.stream.queue`);
3. pops up to ``service_batch`` records, routes each to its shard by
   the stable :func:`~repro.stream.records.shard_index` hash, and spools
   them to the shard's write-ahead log *before* anything estimates them;
4. draws injected faults (:class:`~repro.net.faults.ShardFaultPlan`) —
   a crashed/stalled shard loses its in-memory estimator and goes into
   supervised backoff, or into terminal quarantine past the retry
   budget;
5. applies each healthy shard's batch in sorted shard order, in
   process: :func:`~repro.stream.shard.shard_apply_task` folds the
   records into a fresh estimator and :meth:`ShardWorker.absorb` merges
   that delta into the shard's live one;
6. every ``merge_every`` rounds (and at end-of-stream) emits a
   :class:`SinkSnapshot`: the merged global estimator (healthy shards
   live, down shards from their durable state, quarantined shards from
   their frozen last-known-good), threshold alerts for non-stale links,
   a durable manifest, and periodic shard checkpoints.

Equivalence guarantees (pinned by ``tests/stream/``):

* **zero faults** — the final global estimator's ``state_dict()`` is
  byte-identical to a single batch estimator fed the same records;
* **kill-restore** — with injected crashes, final estimates are
  field-identical to the same-seed uninterrupted run;
* **process resume** — :meth:`StreamingSink.resume` from the manifest
  mid-stream converges to the same final state.

Durability ordering: the manifest is written *before* shard checkpoints
at each snapshot, so a checkpoint is never newer than the newest
manifest — a crash between the two writes can only leave checkpoints
*behind* the manifest (healed by WAL replay + source re-consumption),
never ahead of it (which would double-count evidence on resume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.estimator import LinkEstimate, PerLinkEstimator
from repro.net.faults import STALL_ROUNDS, ShardFaultPlan
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.queue import QUEUE_POLICIES, BoundedPacketQueue, QueueStats
from repro.stream.records import (
    PacketRecord,
    evidence_links,
    record_from_dict,
    record_to_dict,
    shard_index,
)
from repro.stream.shard import ShardWorker, shard_apply_task
from repro.stream.storage import BlobStore
from repro.stream.supervisor import (
    DOWN,
    HEALTHY,
    QUARANTINED,
    RetryPolicy,
    ShardSupervisor,
)

__all__ = [
    "Alert",
    "AlertPolicy",
    "SinkConfig",
    "SinkSnapshot",
    "SinkStats",
    "StreamingSink",
]

#: Blob name of the sink's resume manifest.
MANIFEST = "sink.manifest"

Link = Tuple[int, int]


@dataclass(frozen=True)
class AlertPolicy:
    """When a link's loss estimate is worth waking an operator for."""

    loss_threshold: float = 0.3
    min_samples: int = 20

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_threshold <= 1.0:
            raise ValueError("loss_threshold must be in [0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclass(frozen=True)
class Alert:
    """One link crossed the alert threshold (fired at most once per link)."""

    link: Link
    loss: float
    n_samples: int
    round_no: int
    stream_time: float


@dataclass(frozen=True)
class SinkConfig:
    """Shape of the pipeline: sharding, rates, supervision, alerting."""

    n_shards: int = 4
    queue_capacity: int = 256
    queue_policy: str = "block"
    #: Records pulled from the source per round.
    arrival_burst: int = 32
    #: Records dispatched to shards per round.
    service_batch: int = 32
    #: Emit a snapshot (global merge + manifest) every this many rounds.
    merge_every: int = 8
    #: Write shard checkpoints every this many snapshots.
    checkpoint_every: int = 2
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    alerts: Optional[AlertPolicy] = field(default_factory=AlertPolicy)

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.queue_policy not in QUEUE_POLICIES:
            raise ValueError(
                f"queue_policy must be one of {QUEUE_POLICIES}, got {self.queue_policy!r}"
            )
        if self.arrival_burst < 1:
            raise ValueError("arrival_burst must be >= 1")
        if self.service_batch < 1:
            raise ValueError("service_batch must be >= 1")
        if self.merge_every < 1:
            raise ValueError("merge_every must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_shards": self.n_shards,
            "queue_capacity": self.queue_capacity,
            "queue_policy": self.queue_policy,
            "arrival_burst": self.arrival_burst,
            "service_batch": self.service_batch,
            "merge_every": self.merge_every,
            "checkpoint_every": self.checkpoint_every,
            "retry": {"max_restarts": self.retry.max_restarts},
            "alerts": None
            if self.alerts is None
            else {
                "loss_threshold": self.alerts.loss_threshold,
                "min_samples": self.alerts.min_samples,
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SinkConfig":
        # Older manifests also carry settings that no longer exist: those
        # of a process-pool apply (worker count, timeout, retry budget)
        # and the retry policy's backoff base and cap, now constants.
        # Only the keys read below matter, so those are ignored.
        alerts = data.get("alerts")
        return cls(
            n_shards=int(data["n_shards"]),
            queue_capacity=int(data["queue_capacity"]),
            queue_policy=str(data["queue_policy"]),
            arrival_burst=int(data["arrival_burst"]),
            service_batch=int(data["service_batch"]),
            merge_every=int(data["merge_every"]),
            checkpoint_every=int(data["checkpoint_every"]),
            retry=RetryPolicy(max_restarts=int(data["retry"]["max_restarts"])),
            alerts=None if alerts is None else AlertPolicy(**alerts),
        )


@dataclass
class SinkStats:
    """What the sink did (diagnostics; not part of any equivalence claim)."""

    rounds: int = 0
    consumed: int = 0
    dispatched: int = 0
    dropped_quarantined: int = 0
    crashes: int = 0
    stalls: int = 0
    restores: int = 0
    snapshots: int = 0
    alerts: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SinkStats":
        return cls(**{k: int(v) for k, v in data.items()})


@dataclass(frozen=True)
class SinkSnapshot:
    """One merged global view of the stream, emitted every ``merge_every``."""

    round_no: int
    stream_time: float
    #: True only for the end-of-stream snapshot.
    final: bool
    estimates: Dict[Link, LinkEstimate]
    #: Links whose numbers may be out of date (quarantined shards /
    #: evidence dropped past a dead shard) — never silently confident.
    stale_links: Tuple[Link, ...]
    new_alerts: Tuple[Alert, ...]
    queue_depth: int
    shard_states: Tuple[str, ...]
    stats: SinkStats
    queue_stats: QueueStats


class StreamingSink:
    """Supervised, checkpointed, backpressure-aware streaming estimator."""

    def __init__(
        self,
        max_attempts: int,
        store: BlobStore,
        config: Optional[SinkConfig] = None,
        *,
        faults: Optional[ShardFaultPlan] = None,
        truncation_correction: bool = True,
    ) -> None:
        self.config = config or SinkConfig()
        self.max_attempts = max_attempts
        self.truncation_correction = truncation_correction
        self.store = store
        self.faults = faults
        self.queue = BoundedPacketQueue(self.config.queue_capacity)
        self.supervisor = ShardSupervisor(self.config.n_shards, self.config.retry)
        self.shards = [
            ShardWorker(
                i,
                max_attempts,
                store,
                truncation_correction=truncation_correction,
            )
            for i in range(self.config.n_shards)
        ]
        self.stats = SinkStats()
        self.round_no = 0
        self.stream_time = 0.0
        #: Source records consumed so far (the resume offset).
        self.consumed = 0
        self._snapshots = 0
        self._alerted: Set[Link] = set()
        self._stale: Set[Link] = set()
        #: Quarantined shards' frozen last-durable estimator states.
        self._frozen: Dict[int, Dict[str, Any]] = {}
        self.last_snapshot: Optional[SinkSnapshot] = None

    # -- the round loop ---------------------------------------------------------------

    def run(self, records: Iterable[PacketRecord]) -> Iterator[SinkSnapshot]:
        """Drive the pipeline over ``records``; yields every snapshot.

        On a resumed sink, pass the *same source from the beginning* —
        the manifest's consumed-offset prefix is skipped, then ingestion
        continues exactly where the previous process stopped.
        """
        source = iter(records)
        for _ in range(self.consumed):
            try:
                next(source)
            except StopIteration:
                raise ValueError(
                    f"source ended before the manifest's consumed offset "
                    f"({self.consumed}); resume needs the original stream"
                ) from None
        exhausted = False
        while True:
            self.round_no += 1
            round_no = self.round_no
            self._restore_due(round_no)
            exhausted = self._ingest(source, exhausted)
            per_shard = self._dispatch()
            self._inject_faults(round_no)
            self._apply(per_shard)
            done = (
                exhausted
                and len(self.queue) == 0
                and not self.supervisor.any_down()
                and all(
                    self.shards[i].lag == 0
                    for i in range(self.config.n_shards)
                    if self.supervisor.state(i) == HEALTHY
                )
            )
            self.stats.rounds = round_no
            if done or round_no % self.config.merge_every == 0:
                yield self._snapshot(round_no, final=done)
            if done:
                return

    def _restore_due(self, round_no: int) -> None:
        for i in range(self.config.n_shards):
            if self.supervisor.due_for_restore(i, round_no):
                self.shards[i].restore()
                self.supervisor.mark_restored(i)
                self.stats.restores += 1

    def _ingest(self, source: Iterator[PacketRecord], exhausted: bool) -> bool:
        pulled = 0
        while pulled < self.config.arrival_burst and not exhausted:
            if self.queue.full and self.config.queue_policy == "block":
                # Pace the source: leave the record unread, try next round.
                self.queue.stats.blocked += 1
                break
            try:
                record = next(source)
            except StopIteration:
                return True
            self.consumed += 1
            self.stats.consumed += 1
            self.stream_time = max(self.stream_time, record.created_at)
            self.queue.offer(record)  # under shed, a full queue drops it
            pulled += 1
        return exhausted

    def _dispatch(self) -> Dict[int, List[PacketRecord]]:
        batch = self.queue.pop_batch(self.config.service_batch)
        per_shard: Dict[int, List[PacketRecord]] = {}
        for record in batch:
            s = shard_index(record.origin, record.seqno, self.config.n_shards)
            if self.supervisor.is_quarantined(s):
                # Graceful degradation: count the loss, flag the links —
                # a dead shard must never be a silent gap.
                self.stats.dropped_quarantined += 1
                self._stale.update(evidence_links([record]))
                continue
            per_shard.setdefault(s, []).append(record)
        for s in sorted(per_shard):
            # WAL-before-apply: spooled even while the shard is down.
            self.shards[s].log(per_shard[s])
            self.stats.dispatched += len(per_shard[s])
        return per_shard

    def _inject_faults(self, round_no: int) -> None:
        if self.faults is None or not self.faults.active:
            return
        for s in range(self.config.n_shards):
            if self.supervisor.state(s) != HEALTHY:
                continue
            crash = self.faults.draw_crash(s, round_no)
            stall = not crash and self.faults.draw_stall(s, round_no)
            if not (crash or stall):
                continue
            shard = self.shards[s]
            shard.crash()
            if crash:
                self.stats.crashes += 1
                shard.stats.crashes += 1
                outcome = self.supervisor.record_failure(s, round_no)
            else:
                # A stall hangs the worker for STALL_ROUNDS, after which
                # the supervisor gives up on it — same estimator loss as a
                # crash, with the hang time as the effective backoff.
                self.stats.stalls += 1
                shard.stats.stalls += 1
                outcome = self.supervisor.record_failure(
                    s, round_no, backoff_override=STALL_ROUNDS
                )
            if outcome == QUARANTINED:
                self._quarantine(s)

    def _quarantine(self, s: int) -> None:
        """Freeze the shard's last durable state as its final contribution."""
        frozen, _seq = self.shards[s].peek_durable()
        self._frozen[s] = frozen.state_dict()
        self._stale.update(frozen.links())

    def _apply(self, per_shard: Dict[int, List[PacketRecord]]) -> None:
        for s in sorted(per_shard):
            if self.supervisor.state(s) != HEALTHY:
                continue
            shard, records = self.shards[s], per_shard[s]
            delta = shard_apply_task(
                shard.max_attempts, shard.truncation_correction, records
            )
            shard.absorb(delta, len(records))

    # -- snapshots / global view ------------------------------------------------------

    def global_estimator(self) -> PerLinkEstimator:
        """Merge every shard's best-available state into one estimator."""
        merged = PerLinkEstimator(
            self.max_attempts, truncation_correction=self.truncation_correction
        )
        for s in range(self.config.n_shards):
            state = self.supervisor.state(s)
            if state == HEALTHY:
                est = self.shards[s].estimator
                assert est is not None  # healthy implies live
                merged.merge(est)
            elif state == DOWN:
                # Not restored yet: fold in its durable view, read-only.
                merged.merge(self.shards[s].peek_durable()[0])
            else:
                merged.merge(PerLinkEstimator.from_state(self._frozen[s]))
        return merged

    def _snapshot(self, round_no: int, *, final: bool) -> SinkSnapshot:
        merged = self.global_estimator()
        estimates = merged.estimates()
        new_alerts: List[Alert] = []
        policy = self.config.alerts
        if policy is not None:
            for link in sorted(estimates):
                if link in self._alerted or link in self._stale:
                    continue
                est = estimates[link]
                if (
                    est.n_samples >= policy.min_samples
                    and est.loss >= policy.loss_threshold
                ):
                    new_alerts.append(
                        Alert(link, est.loss, est.n_samples, round_no, self.stream_time)
                    )
                    self._alerted.add(link)
        self.stats.alerts += len(new_alerts)
        self._snapshots += 1
        self.stats.snapshots = self._snapshots
        # Manifest BEFORE checkpoints (see module docstring): a crash
        # between the writes must leave checkpoints behind the manifest.
        self._save_manifest()
        if final or self._snapshots % self.config.checkpoint_every == 0:
            for s in range(self.config.n_shards):
                if self.supervisor.state(s) == HEALTHY:
                    self.shards[s].checkpoint()
        snapshot = SinkSnapshot(
            round_no=round_no,
            stream_time=self.stream_time,
            final=final,
            estimates=estimates,
            stale_links=tuple(sorted(self._stale)),
            new_alerts=tuple(new_alerts),
            queue_depth=len(self.queue),
            shard_states=tuple(
                self.supervisor.state(s) for s in range(self.config.n_shards)
            ),
            stats=self.stats,
            queue_stats=self.queue.stats,
        )
        self.last_snapshot = snapshot
        return snapshot

    def final_estimates(self) -> Dict[Link, LinkEstimate]:
        """Estimates of the most recent snapshot (empty before the first)."""
        if self.last_snapshot is None:
            return {}
        return self.last_snapshot.estimates

    # -- manifest persistence / process resume ----------------------------------------

    def _save_manifest(self) -> None:
        qs = self.queue.stats
        save_checkpoint(
            self.store,
            MANIFEST,
            {
                "max_attempts": self.max_attempts,
                "truncation_correction": self.truncation_correction,
                "config": self.config.to_dict(),
                "round_no": self.round_no,
                "snapshots": self._snapshots,
                "consumed": self.consumed,
                "stream_time": self.stream_time,
                "watermarks": [w.seq_logged for w in self.shards],
                "supervisor": self.supervisor.state_dict(),
                "queue": [record_to_dict(r) for r in self.queue.snapshot()],
                "frozen": {str(s): st for s, st in sorted(self._frozen.items())},
                "stale_links": sorted([u, v] for (u, v) in self._stale),
                "alerted": sorted([u, v] for (u, v) in self._alerted),
                "stats": self.stats.to_dict(),
                "queue_stats": dict(qs.__dict__),
            },
        )

    @classmethod
    def resume(
        cls,
        store: BlobStore,
        *,
        faults: Optional[ShardFaultPlan] = None,
    ) -> "StreamingSink":
        """Rebuild a sink from its manifest + shard checkpoints + spools.

        Raises :class:`~repro.stream.checkpoint.CheckpointError` when the
        manifest is missing or damaged. Configuration comes from the
        manifest (resuming with a different shard count would re-route
        evidence mid-stream); only the fault plan is caller-supplied.
        """
        manifest = load_checkpoint(store, MANIFEST)
        sink = cls(
            int(manifest["max_attempts"]),
            store,
            SinkConfig.from_dict(manifest["config"]),
            faults=faults,
            truncation_correction=bool(manifest["truncation_correction"]),
        )
        sink.round_no = int(manifest["round_no"])
        sink._snapshots = int(manifest["snapshots"])
        sink.consumed = int(manifest["consumed"])
        sink.stream_time = float(manifest["stream_time"])
        sink.supervisor.restore_state(manifest["supervisor"])
        sink.queue.restore(
            [record_from_dict(d) for d in manifest["queue"]]
        )
        sink._frozen = {
            int(s): state for s, state in manifest["frozen"].items()
        }
        sink._stale = {(int(u), int(v)) for u, v in manifest["stale_links"]}
        sink._alerted = {(int(u), int(v)) for u, v in manifest["alerted"]}
        sink.stats = SinkStats.from_dict(manifest["stats"])
        for key, value in manifest["queue_stats"].items():
            setattr(sink.queue.stats, key, int(value))
        watermarks = manifest["watermarks"]
        for s, shard in enumerate(sink.shards):
            if sink.supervisor.is_quarantined(s):
                continue  # frozen contribution already carried in the manifest
            # Post-manifest WAL appends are re-covered by re-consuming the
            # source from `consumed`; replaying them too would double-count.
            shard.wal.drop_after(int(watermarks[s]))
            shard.restore()
            shard.seq_logged = int(watermarks[s])
            shard.seq_applied = shard.seq_logged
        return sink

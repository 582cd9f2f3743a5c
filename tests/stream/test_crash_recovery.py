"""Kill-restore equivalence (satellite 2) and graceful degradation.

The acceptance bar: injected shard crashes followed by supervised
restore (checkpoint + WAL replay) must leave the final per-link
estimates **field-by-field identical** to an uninterrupted same-seed
run, and a shard that exhausts its retry budget must surface as per-link
staleness flags — never as silently wrong numbers.
"""

import itertools

import pytest

from repro.net.faults import ShardFaultPlan
from repro.stream import (
    DirectoryStore,
    MemoryStore,
    RetryPolicy,
    SinkConfig,
    StreamingSink,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.sink import MANIFEST
from repro.stream.supervisor import DOWN, HEALTHY, QUARANTINED, ShardSupervisor
from tests.stream.conftest import estimate_fields

CFG = SinkConfig(n_shards=3, merge_every=4, alerts=None)


@pytest.fixture
def new_store():
    """Fresh-store factory; the ``OnDisk`` twins below override it."""
    return MemoryStore


class OnDisk:
    """Mixin: rerun the inherited tests with fsynced ``DirectoryStore``s."""

    @pytest.fixture
    def new_store(self, tmp_path):
        dirs = (tmp_path / f"state-{i}" for i in itertools.count())
        return lambda: DirectoryStore(next(dirs))


def run_sink(bundle, store, config=CFG, faults=None):
    sink = StreamingSink(bundle.max_attempts, store, config, faults=faults)
    snapshots = list(sink.run(bundle.records))
    return sink, snapshots


class TestKillRestore:
    def test_crash_mid_window_restores_identical_estimates(self, bundle, new_store):
        _, clean = run_sink(bundle, new_store())
        faults = ShardFaultPlan(seed=3, crash_at=((3, 1), (5, 0)))
        sink, snaps = run_sink(bundle, new_store(), faults=faults)
        assert sink.stats.crashes == 2
        assert sink.stats.restores == 2
        assert estimate_fields(snaps[-1].estimates) == estimate_fields(
            clean[-1].estimates
        )
        assert not snaps[-1].stale_links

    def test_stall_is_recovered_like_a_crash(self, bundle, new_store):
        _, clean = run_sink(bundle, new_store())
        faults = ShardFaultPlan(seed=3, stall_at=((2, 2),))
        sink, snaps = run_sink(bundle, new_store(), faults=faults)
        assert sink.stats.stalls == 1
        assert sink.stats.restores == 1
        assert estimate_fields(snaps[-1].estimates) == estimate_fields(
            clean[-1].estimates
        )

    def test_random_crash_storm_still_converges(self, bundle, new_store):
        _, clean = run_sink(bundle, new_store())
        faults = ShardFaultPlan(seed=5, crash_rate=0.1)
        sink, snaps = run_sink(bundle, new_store(), faults=faults)
        assert sink.stats.crashes > 0
        assert not sink.supervisor.quarantined_shards()
        assert estimate_fields(snaps[-1].estimates) == estimate_fields(
            clean[-1].estimates
        )

    def test_no_fault_run_reports_no_supervision_activity(self, bundle, new_store):
        sink, snaps = run_sink(bundle, new_store())
        assert sink.stats.crashes == 0
        assert sink.stats.restores == 0
        assert snaps[-1].shard_states == (HEALTHY,) * 3


class TestQuarantine:
    def quarantined_run(self, bundle, store):
        config = SinkConfig(
            n_shards=3,
            merge_every=4,
            alerts=None,
            retry=RetryPolicy(max_restarts=1),
        )
        faults = ShardFaultPlan(
            seed=3, crash_at=tuple((r, 1) for r in range(1, 60))
        )
        return run_sink(bundle, store, config=config, faults=faults)

    def test_budget_exhaustion_quarantines_and_flags_links(self, bundle, new_store):
        sink, snaps = self.quarantined_run(bundle, new_store())
        assert sink.supervisor.quarantined_shards() == [1]
        final = snaps[-1]
        assert final.shard_states[1] == QUARANTINED
        assert final.stale_links  # degradation is visible, not silent
        assert sink.stats.dropped_quarantined > 0

    def test_quarantined_shard_still_contributes_durable_state(self, bundle, new_store):
        sink, snaps = self.quarantined_run(bundle, new_store())
        # The frozen contribution keeps every link that had durable
        # evidence before the quarantine; a link whose only evidence was
        # dropped afterwards may be absent — but then it MUST be flagged.
        _, clean = run_sink(bundle, new_store())
        final = snaps[-1]
        assert set(final.estimates) <= set(clean[-1].estimates)
        missing = set(clean[-1].estimates) - set(final.estimates)
        assert missing <= set(final.stale_links)

    def test_healthy_links_unaffected_by_dead_shard(self, bundle, new_store):
        sink, snaps = self.quarantined_run(bundle, new_store())
        _, clean = run_sink(bundle, new_store())
        stale = set(snaps[-1].stale_links)
        degraded = estimate_fields(snaps[-1].estimates)
        reference = estimate_fields(clean[-1].estimates)
        for link, fields in reference.items():
            if link not in stale:
                assert degraded[link] == fields


class TestProcessResume:
    def test_resume_from_manifest_converges_identically(self, bundle, new_store):
        _, clean = run_sink(bundle, new_store())
        store = new_store()
        first = StreamingSink(bundle.max_attempts, store, CFG)
        gen = first.run(bundle.records)
        next(gen)  # one snapshot, then the process "dies"
        resumed = StreamingSink.resume(store)
        assert resumed.consumed > 0
        snaps = list(resumed.run(bundle.records))
        assert estimate_fields(snaps[-1].estimates) == estimate_fields(
            clean[-1].estimates
        )

    def test_resume_with_faults_sees_the_same_schedule(self, bundle, new_store):
        faults = ShardFaultPlan(seed=3, crash_rate=0.08)
        _, uninterrupted = run_sink(bundle, new_store(), faults=faults)
        store = new_store()
        first = StreamingSink(bundle.max_attempts, store, CFG, faults=faults)
        gen = first.run(bundle.records)
        next(gen)
        resumed = StreamingSink.resume(store, faults=faults)
        snaps = list(resumed.run(bundle.records))
        assert estimate_fields(snaps[-1].estimates) == estimate_fields(
            uninterrupted[-1].estimates
        )

    def test_resume_ignores_the_removed_pool_settings(self, bundle, new_store):
        """A manifest from before the process-pool apply was removed
        carries its three settings in the config, and one from before the
        backoff settings became constants carries those in ``retry``;
        resume ignores them and the next manifest no longer writes them."""
        faults = ShardFaultPlan(seed=3, crash_rate=0.08)
        _, uninterrupted = run_sink(bundle, new_store(), faults=faults)
        store = new_store()
        first = StreamingSink(bundle.max_attempts, store, CFG, faults=faults)
        gen = first.run(bundle.records)
        next(gen)
        manifest = load_checkpoint(store, MANIFEST)
        manifest["config"].update(jobs=2, task_timeout=None, max_retries=2)
        manifest["config"]["retry"].update(backoff_base=1, backoff_cap=8)
        save_checkpoint(store, MANIFEST, manifest)
        resumed = StreamingSink.resume(store, faults=faults)
        assert resumed.config == CFG
        snaps = list(resumed.run(bundle.records))
        assert estimate_fields(snaps[-1].estimates) == estimate_fields(
            uninterrupted[-1].estimates
        )
        config = load_checkpoint(store, MANIFEST)["config"]
        assert not {"jobs", "task_timeout", "max_retries"} & set(config)
        assert set(config["retry"]) == {"max_restarts"}

    def test_resume_requires_the_original_stream(self, bundle, new_store):
        store = new_store()
        first = StreamingSink(bundle.max_attempts, store, CFG)
        gen = first.run(bundle.records)
        next(gen)
        resumed = StreamingSink.resume(store)
        with pytest.raises(ValueError, match="consumed offset"):
            list(resumed.run(bundle.records[:1]))

    def test_repeated_restore_is_idempotent(self, bundle, new_store):
        faults = ShardFaultPlan(seed=3, crash_at=((3, 1),))
        sink, _ = run_sink(bundle, new_store(), faults=faults)
        shard = sink.shards[1]
        before = shard.estimator.state_dict()
        shard.restore()
        shard.restore()
        assert shard.estimator.state_dict() == before


class TestEffectProtocol:
    """Runtime-sanitizer wiring: the durability-effect stream of every
    sink run — clean, crashing, quarantining, resuming — satisfies the
    ordering protocol of DESIGN §11 (WAL append dominates apply;
    manifest dominates checkpoint truncation). Restores
    legitimately change the effect *log*; they must never bend the
    protocol."""

    def _protocol(self, fn):
        from repro.sanitize import sanitize_run, verify_effect_protocol

        with sanitize_run("crash-recovery") as san:
            fn()
        fingerprint = san.fingerprint()
        assert fingerprint.effects, "sink run must record durability effects"
        return verify_effect_protocol(fingerprint)

    def test_clean_run_protocol_holds(self, bundle, new_store):
        assert self._protocol(lambda: run_sink(bundle, new_store())) == []

    def test_crash_restore_protocol_holds(self, bundle, new_store):
        faults = ShardFaultPlan(seed=3, crash_at=((3, 1), (5, 0)))
        assert (
            self._protocol(lambda: run_sink(bundle, new_store(), faults=faults))
            == []
        )

    def test_quarantine_protocol_holds(self, bundle, new_store):
        config = SinkConfig(
            n_shards=3,
            merge_every=4,
            alerts=None,
            retry=RetryPolicy(max_restarts=1),
        )
        faults = ShardFaultPlan(
            seed=3, crash_at=tuple((r, 1) for r in range(1, 60))
        )
        assert (
            self._protocol(
                lambda: run_sink(bundle, new_store(), config=config, faults=faults)
            )
            == []
        )

    def test_process_resume_protocol_holds(self, bundle, new_store):
        def resumed_run():
            store = new_store()
            first = StreamingSink(bundle.max_attempts, store, CFG)
            gen = first.run(bundle.records)
            next(gen)  # one snapshot, then the process "dies"
            resumed = StreamingSink.resume(store)
            list(resumed.run(bundle.records))

        assert self._protocol(resumed_run) == []


class TestKillRestoreOnDisk(OnDisk, TestKillRestore):
    pass


class TestQuarantineOnDisk(OnDisk, TestQuarantine):
    pass


class TestProcessResumeOnDisk(OnDisk, TestProcessResume):
    pass


class TestEffectProtocolOnDisk(OnDisk, TestEffectProtocol):
    pass


class _Killed(BaseException):
    """The process dies: nothing in the sink may catch this."""


class TestCrashInsideGroup:
    """The process dies part-way through writing a shard's group commit,
    leaving that group's first ``k`` lines and part of line ``k + 1``."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_resume_matches_the_uninterrupted_run(
        self, bundle, tmp_path, monkeypatch, k
    ):
        _, clean = run_sink(bundle, MemoryStore())
        real_append = DirectoryStore.append_lines
        torn = []

        def dying_append(store, name, lines):
            if len(lines) > k and store.exists(MANIFEST) and not torn:
                torn.append(name)
                partial = "".join(f"{line}\n" for line in lines[:k])
                partial += lines[k][: len(lines[k]) // 2]
                with open(store.root / name, "a", encoding="utf-8") as fh:
                    fh.write(partial)
                raise _Killed
            real_append(store, name, lines)

        monkeypatch.setattr(DirectoryStore, "append_lines", dying_append)
        first = StreamingSink(bundle.max_attempts, DirectoryStore(tmp_path), CFG)
        with pytest.raises(_Killed):
            list(first.run(bundle.records))
        monkeypatch.undo()
        assert torn

        resumed = StreamingSink.resume(DirectoryStore(tmp_path))
        snaps = list(resumed.run(bundle.records))
        assert estimate_fields(snaps[-1].estimates) == estimate_fields(
            clean[-1].estimates
        )
        assert resumed.stats.consumed == clean[-1].stats.consumed


class TestSupervisor:
    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(max_restarts=10)
        assert [policy.backoff_rounds(n) for n in range(1, 7)] == [
            1, 2, 4, 8, 8, 8,
        ]

    def test_lifecycle_healthy_down_restored(self):
        sup = ShardSupervisor(2, RetryPolicy(max_restarts=2))
        assert sup.state(0) == HEALTHY
        assert sup.record_failure(0, round_no=5) == DOWN
        assert not sup.due_for_restore(0, 5)
        assert sup.due_for_restore(0, 6)
        sup.mark_restored(0)
        assert sup.state(0) == HEALTHY

    def test_budget_exhaustion_is_terminal(self):
        sup = ShardSupervisor(1, RetryPolicy(max_restarts=1))
        assert sup.record_failure(0, 1) == DOWN
        sup.mark_restored(0)
        assert sup.record_failure(0, 2) == QUARANTINED
        assert sup.state(0) == QUARANTINED
        with pytest.raises(ValueError):
            sup.mark_restored(0)
        # Further failures stay quarantined, never resurrect.
        assert sup.record_failure(0, 3) == QUARANTINED

    def test_state_roundtrip(self):
        sup = ShardSupervisor(3, RetryPolicy())
        sup.record_failure(1, 4)
        clone = ShardSupervisor(3, RetryPolicy())
        clone.restore_state(sup.state_dict())
        assert clone.state_dict() == sup.state_dict()
        assert clone.state(1) == DOWN

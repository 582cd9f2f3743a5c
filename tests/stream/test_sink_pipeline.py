"""Sink pipeline behaviour: batch equivalence, backpressure, alerting."""

import pytest

from repro.core.estimator import PerLinkEstimator
from repro.stream import (
    AlertPolicy,
    BoundedPacketQueue,
    MemoryStore,
    PacketRecord,
    SinkConfig,
    StreamingSink,
    feed_estimator,
    shard_index,
)
from tests.stream.conftest import estimate_fields


def batch_estimator(bundle):
    est = PerLinkEstimator(bundle.max_attempts)
    feed_estimator(est, bundle.records)
    return est


def batch_reference(bundle):
    return estimate_fields(batch_estimator(bundle).estimates())


def final_estimates(bundle):
    config = SinkConfig(n_shards=4, merge_every=4, alerts=None)
    sink = StreamingSink(bundle.max_attempts, MemoryStore(), config)
    return estimate_fields(list(sink.run(bundle.records))[-1].estimates)


@pytest.mark.parametrize("n_shards", [2, 5])
def test_shard_count_never_changes_estimates(bundle, n_shards):
    config = SinkConfig(n_shards=n_shards, merge_every=4, alerts=None)
    sink = StreamingSink(bundle.max_attempts, MemoryStore(), config)
    final = estimate_fields(list(sink.run(bundle.records))[-1].estimates)
    assert final == final_estimates(bundle)


class TestBatchEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 3, 8])
    def test_zero_fault_stream_matches_batch(self, bundle, n_shards):
        config = SinkConfig(n_shards=n_shards, merge_every=4, alerts=None)
        sink = StreamingSink(bundle.max_attempts, MemoryStore(), config)
        final = list(sink.run(bundle.records))[-1]
        assert estimate_fields(final.estimates) == batch_reference(bundle)
        # Not just the estimates: the merged sufficient statistics are
        # the batch estimator's, whatever the shard count.
        assert (
            sink.global_estimator().state_dict()
            == batch_estimator(bundle).state_dict()
        )
        assert final.final
        assert sink.stats.consumed == len(bundle.records)

    def test_block_policy_loses_nothing_under_overload(self, bundle):
        config = SinkConfig(
            n_shards=3,
            merge_every=4,
            alerts=None,
            queue_capacity=8,
            arrival_burst=16,
            service_batch=4,
            queue_policy="block",
        )
        sink = StreamingSink(bundle.max_attempts, MemoryStore(), config)
        final = list(sink.run(bundle.records))[-1]
        assert sink.queue.stats.blocked > 0
        assert sink.queue.stats.blocked <= sink.stats.rounds
        assert sink.queue.stats.offered == sink.queue.stats.accepted
        assert sink.queue.stats.shed == 0
        assert estimate_fields(final.estimates) == batch_reference(bundle)

    def test_shed_policy_drops_but_degrades_gracefully(self, bundle):
        config = SinkConfig(
            n_shards=3,
            merge_every=4,
            alerts=None,
            queue_capacity=8,
            arrival_burst=16,
            service_batch=4,
            queue_policy="shed",
        )
        sink = StreamingSink(bundle.max_attempts, MemoryStore(), config)
        final = list(sink.run(bundle.records))[-1]
        stats = sink.queue.stats
        assert stats.shed > 0
        assert stats.accepted + stats.shed == stats.offered
        assert stats.high_water <= config.queue_capacity
        # Surviving evidence still yields estimates (fewer samples).
        reference = batch_reference(bundle)
        for link, (_, _, n_exact, n_censored) in estimate_fields(
            final.estimates
        ).items():
            assert n_exact + n_censored <= (
                reference[link][2] + reference[link][3]
            )


class TestAlerts:
    def lossy_records(self):
        # Link (1, 0) at max retransmissions often -> high loss estimate.
        out = []
        for i in range(40):
            out.append(
                PacketRecord(
                    origin=1,
                    seqno=i,
                    created_at=float(i),
                    delivered=True,
                    hops=((1, 0, 3 if i % 2 else 1, True),),
                )
            )
        return out

    def config(self):
        return SinkConfig(
            n_shards=2,
            merge_every=4,
            alerts=AlertPolicy(loss_threshold=0.2, min_samples=10),
        )

    def test_alert_fires_once_per_link(self):
        sink = StreamingSink(4, MemoryStore(), self.config())
        snaps = list(sink.run(self.lossy_records()))
        alerts = [a for s in snaps for a in s.new_alerts]
        assert [a.link for a in alerts] == [(1, 0)]
        assert alerts[0].n_samples >= 10
        assert alerts[0].loss >= 0.2

    def test_stale_links_never_alert(self):
        records = self.lossy_records()
        sink = StreamingSink(4, MemoryStore(), self.config())
        n_shards = sink.config.n_shards
        # Pre-mark the link stale the way quarantine would.
        sink._stale.add((1, 0))
        snaps = list(sink.run(records))
        assert not [a for s in snaps for a in s.new_alerts]
        assert (1, 0) in snaps[-1].stale_links
        assert shard_index(1, 0, n_shards) >= 0  # routing still valid


class TestQueue:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedPacketQueue(0)
        with pytest.raises(ValueError):
            SinkConfig(queue_policy="random")

    def test_snapshot_restore_roundtrip(self):
        q = BoundedPacketQueue(4)
        recs = [
            PacketRecord(0, i, float(i), True, ((0, 1, 1, True),))
            for i in range(3)
        ]
        for r in recs:
            assert q.offer(r)
        q2 = BoundedPacketQueue(4)
        q2.restore(q.snapshot())
        assert q2.pop_batch(10) == recs

    def test_restore_rejects_oversized_snapshot(self):
        q = BoundedPacketQueue(1)
        recs = [
            PacketRecord(0, i, float(i), True, ((0, 1, 1, True),))
            for i in range(2)
        ]
        with pytest.raises(ValueError):
            q.restore(recs)


class TestConfig:
    def test_roundtrip(self):
        config = SinkConfig(n_shards=5, queue_policy="shed")
        assert SinkConfig.from_dict(config.to_dict()) == config

    def test_roundtrip_without_alerts(self):
        config = SinkConfig(alerts=None)
        assert SinkConfig.from_dict(config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            SinkConfig(n_shards=0)
        with pytest.raises(ValueError):
            SinkConfig(merge_every=0)
        with pytest.raises(ValueError):
            AlertPolicy(loss_threshold=1.5)

"""Tests for packet records and ground-truth tracing."""

import pytest

from repro.net.link import BernoulliLink, Channel
from repro.net.mac import MacConfig
from repro.net.packet import HopRecord, Packet
from repro.net.topology import line_topology
from repro.net.trace import GroundTruth
from repro.utils.rng import RngRegistry


class TestHopRecord:
    def test_retransmissions(self):
        h = HopRecord(sender=3, receiver=2, attempts=4, time=1.0, delivered=True)
        assert h.retransmissions == 3
        assert h.link == (3, 2)


class TestPacket:
    def make_packet(self):
        p = Packet(origin=4, seqno=7, created_at=0.0)
        p.record_hop(4, 3, attempts=2, time=0.1, delivered=True)
        p.record_hop(3, 1, attempts=1, time=0.2, delivered=True)
        p.record_hop(1, 0, attempts=5, time=0.3, delivered=True)
        return p

    def test_path_and_hops(self):
        p = self.make_packet()
        assert p.path == [4, 3, 1, 0]
        assert p.hop_count == 3
        assert p.total_transmissions == 8
        assert p.key == (4, 7)

    def test_failed_hop_excluded_from_path(self):
        p = Packet(origin=2, seqno=0, created_at=0.0)
        p.record_hop(2, 1, attempts=3, time=0.1, delivered=True)
        p.record_hop(1, 0, attempts=4, time=0.2, delivered=False)
        assert p.path == [2, 1]
        assert p.hop_count == 1
        assert p.total_transmissions == 7

    def test_delivery_state(self):
        p = self.make_packet()
        assert not p.delivered and not p.dropped
        p.delivered_at = 0.4
        assert p.delivered
        q = Packet(origin=1, seqno=0, created_at=0.0)
        q.dropped_at = 1.0
        q.drop_reason = "retries"
        assert q.dropped


class TestGroundTruth:
    def make_gt(self):
        topo = line_topology(3)
        models = {
            (1, 0): BernoulliLink(0.2), (0, 1): BernoulliLink(0.0),
            (2, 1): BernoulliLink(0.4), (1, 2): BernoulliLink(0.0),
        }
        channel = Channel(topo, models, RngRegistry(3))
        return GroundTruth(channel), channel

    def test_record_hop_accumulates(self):
        gt, _ = self.make_gt()
        gt.hops.append(HopRecord(1, 0, 3, 1.0, True))
        gt.hops.append(HopRecord(1, 0, 1, 2.0, True))
        gt.hops.append(HopRecord(1, 0, 4, 3.0, False))
        usage = gt.link_usage[(1, 0)]
        assert usage.exchanges == 3
        assert usage.frames_sent == 8
        assert usage.received == 2
        assert usage.retransmissions_observed == 2
        assert usage.hop_delivery_ratio == pytest.approx(2 / 3)
        assert usage.mean_retransmissions == pytest.approx(1.0)

    def test_unused_link_stats_none(self):
        gt, _ = self.make_gt()
        usage = gt.link_usage[(2, 1)]
        assert usage.hop_delivery_ratio is None
        assert usage.mean_retransmissions is None

    def test_delivery_counters(self):
        gt, _ = self.make_gt()
        p = Packet(origin=2, seqno=0, created_at=1.0)
        gt.record_generated(p)
        gt.record_delivered(p)
        q = Packet(origin=1, seqno=0, created_at=2.0)
        q.drop_reason = "ttl"
        gt.record_generated(q)
        gt.record_dropped(q)
        assert gt.packets_generated == 2
        assert gt.delivery_ratio == 0.5
        assert gt.drop_reasons["ttl"] == 1

    def test_empty_delivery_ratio_none(self):
        gt, _ = self.make_gt()
        assert gt.delivery_ratio is None

    def test_true_loss_kinds(self):
        gt, channel = self.make_gt()
        # Drive some frames through the channel so empirical exists.
        for i in range(2000):
            channel.transmit(1, 0, float(i))
        gt.hops.append(HopRecord(1, 0, 1, 1.0, True))
        emp = gt.true_loss((1, 0), kind="empirical")
        model = gt.true_loss((1, 0), kind="model")
        assert abs(emp - 0.2) < 0.03
        assert model == pytest.approx(0.2)
        with pytest.raises(ValueError):
            gt.true_loss((1, 0), kind="exotic")

    def test_true_loss_map_covers_used_links_only(self):
        gt, channel = self.make_gt()
        channel.transmit(1, 0, 0.0)
        gt.hops.append(HopRecord(1, 0, 1, 1.0, True))
        losses = gt.true_loss_map(kind="empirical")
        assert set(losses) == {(1, 0)}
        assert gt.used_links() == [(1, 0)]

    def test_observation_window(self):
        gt, _ = self.make_gt()
        gt.record_generated(Packet(origin=1, seqno=0, created_at=5.0))
        gt.hops.append(HopRecord(1, 0, 2, 9.0, True))
        assert gt.observation_window == (5.0, 9.0)

    def test_link_usage_read_part_way_equals_one_fold(self):
        max_attempts = MacConfig().max_attempts
        hops = [
            HopRecord(2, 1, 2, 1.0, True),
            HopRecord(1, 0, 1, 1.5, True),
            # A dead receiver: every attempt timed out.
            HopRecord(2, 1, max_attempts, 2.0, False),
            HopRecord(1, 0, 3, 4.0, True),
            HopRecord(2, 1, 1, 3.0, True),
        ]
        whole, _ = self.make_gt()
        whole.hops.extend(hops)
        part, _ = self.make_gt()
        part.hops.extend(hops[:3])
        early = part.link_usage
        assert early[(2, 1)].attempt_samples == [2, None]
        assert part.observation_window == (0.0, 2.0)
        part.hops.extend(hops[3:])
        assert part.link_usage == whole.link_usage
        assert list(part.link_usage) == [(2, 1), (1, 0)]
        usage = part.link_usage[(2, 1)]
        assert usage.attempt_samples == [2, None, 1]
        assert usage.exchanges == 3
        assert usage.frames_sent == 3 + max_attempts
        assert usage.received == 2
        assert usage.retransmissions_observed == 1
        assert part.observation_window == whole.observation_window == (0.0, 4.0)

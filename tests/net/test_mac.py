"""Tests for the ARQ MAC layer."""

import pytest

from repro.net.link import BernoulliLink, Channel
from repro.net.mac import RETRY_INTERVAL, TX_TIME, ArqMac, MacConfig, MacResult
from repro.net.topology import line_topology
from repro.utils.rng import RngRegistry


def make_channel(forward_loss, seed=1):
    topo = line_topology(2)
    models = {(1, 0): BernoulliLink(forward_loss), (0, 1): BernoulliLink(0.0)}
    return Channel(topo, models, RngRegistry(seed))


class TestMacConfig:
    def test_defaults(self):
        cfg = MacConfig()
        assert cfg.max_attempts == 31

    def test_validation(self):
        with pytest.raises(ValueError):
            MacConfig(max_retries=-1)


class TestMacResult:
    def test_receiver_retransmissions(self):
        r = MacResult(attempts=4, first_received_attempt=3, end_time=1.0)
        assert r.received
        assert r.receiver_retransmissions == 2

    def test_failed_exchange(self):
        r = MacResult(attempts=5, first_received_attempt=None, end_time=1.0)
        assert not r.received
        assert r.receiver_retransmissions is None


class TestArqPerfectLink:
    def test_single_attempt_on_perfect_link(self):
        mac = ArqMac(make_channel(0.0), MacConfig(max_retries=5))
        result = mac.send(1, 0, 0.0)
        assert result.attempts == 1
        assert result.first_received_attempt == 1
        assert result.received
        assert result.end_time == pytest.approx(TX_TIME)

    def test_always_fails_on_dead_link(self):
        mac = ArqMac(make_channel(1.0), MacConfig(max_retries=3))
        result = mac.send(1, 0, 0.0)
        assert result.attempts == 4  # 1 + 3 retries
        assert not result.received


class TestArqLossyLink:
    def test_attempts_geometric_mean(self):
        """Mean attempts on a p-loss link ~ 1/(1-p) with generous retries."""
        mac = ArqMac(make_channel(0.5, seed=11), MacConfig(max_retries=50))
        n = 3000
        attempts = [mac.send(1, 0, float(i)).attempts for i in range(n)]
        mean = sum(attempts) / n
        assert abs(mean - 2.0) < 0.15

    def test_retry_cap_respected(self):
        mac = ArqMac(make_channel(0.9, seed=12), MacConfig(max_retries=2))
        for i in range(200):
            result = mac.send(1, 0, float(i))
            assert result.attempts <= 3

    def test_delivery_rate_after_retries(self):
        """P(delivered) = 1 - p^(max_attempts)."""
        p = 0.6
        retries = 4
        mac = ArqMac(make_channel(p, seed=13), MacConfig(max_retries=retries))
        n = 5000
        delivered = sum(1 for i in range(n) if mac.send(1, 0, float(i)).received)
        expected = 1 - p ** (retries + 1)
        assert abs(delivered / n - expected) < 0.02

    def test_timing_advances_per_attempt(self):
        mac = ArqMac(make_channel(1.0), MacConfig(max_retries=2))
        result = mac.send(1, 0, 10.0)
        # 3 failed attempts, each TX_TIME + RETRY_INTERVAL
        assert result.end_time == pytest.approx(10.0 + 3 * (TX_TIME + RETRY_INTERVAL))


class TestAckLosses:
    def test_perfect_acks_equal_first_received(self):
        mac = ArqMac(make_channel(0.4, seed=20), MacConfig(max_retries=30))
        for i in range(500):
            r = mac.send(1, 0, float(i))
            if r.received:
                assert r.attempts == r.first_received_attempt

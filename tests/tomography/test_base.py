"""Tests for the shared end-to-end observation machinery."""

import pytest

from repro.net.link import uniform_loss_assigner
from repro.net.packet import Packet
from repro.net.routing import RoutingConfig
from repro.net.simulation import CollectionSimulation, SimulationConfig
from repro.net.topology import line_topology
from repro.tomography.base import EndToEndObserver, hop_success_to_frame_loss


class TestHopSuccessConversion:
    def test_perfect_hop(self):
        assert hop_success_to_frame_loss(1.0, 31) == 0.0

    def test_dead_hop(self):
        assert hop_success_to_frame_loss(0.0, 31) == 1.0

    def test_inverts_arq(self):
        # frame loss p -> hop success 1 - p^A -> back to p
        p, A = 0.4, 5
        s = 1 - p**A
        assert hop_success_to_frame_loss(s, A) == pytest.approx(p)

    def test_single_attempt_identity(self):
        assert hop_success_to_frame_loss(0.7, 1) == pytest.approx(0.3)

    def test_clamps_out_of_range(self):
        assert hop_success_to_frame_loss(1.2, 3) == 0.0
        assert hop_success_to_frame_loss(-0.5, 3) == 1.0

    def test_invalid_attempts(self):
        with pytest.raises(ValueError):
            hop_success_to_frame_loss(0.5, 0)


class TestEndToEndObserver:
    def run_observer(self):
        obs = EndToEndObserver()
        sim = CollectionSimulation(
            line_topology(4),
            seed=1,
            config=SimulationConfig(
                duration=60.0,
                traffic_period=5.0,
                routing=RoutingConfig(etx_noise_std=0.0),
            ),
            link_assigner=uniform_loss_assigner(0.05, 0.2),
            observers=[obs],
        )
        result = sim.run()
        return obs, result

    def test_collects_delivery_ratios(self):
        obs, result = self.run_observer()
        ratios = obs.delivery_ratios()
        assert set(ratios) == {1, 2, 3}
        for r in ratios.values():
            assert 0.0 <= r <= 1.0

    def test_packet_observations_match_ground_truth(self):
        obs, result = self.run_observer()
        delivered_count = sum(1 for _, _, d in obs.packet_observations if d)
        assert delivered_count == result.ground_truth.packets_delivered

    def test_assumed_links_on_line(self):
        obs, _ = self.run_observer()
        assert obs.assumed_links(3) == ((3, 2), (2, 1), (1, 0))
        assert obs.assumed_links(1) == ((1, 0),)

    def test_single_snapshot_free(self):
        obs, _ = self.run_observer()
        assert obs.control_overhead_bits() == 0

    def test_solve_is_abstract(self):
        with pytest.raises(NotImplementedError):
            EndToEndObserver().solve()


class TestOriginStats:
    """Delivery ratios count only resolved (delivered or dropped) packets.

    Regression: ``resolved`` used to return ``generated``, so packets
    still in flight at evaluation time deflated every delivery ratio.
    """

    def _packet(self, seq):
        return Packet(origin=5, seqno=seq, created_at=0.0)

    def _observer(self):
        obs = EndToEndObserver()
        obs._assumed_paths = {5: (5, 0)}
        return obs

    def test_pending_packets_excluded_from_delivery_ratio(self):
        obs = self._observer()
        for seq in range(10):
            obs.on_packet_created(self._packet(seq), 0.0)
        for seq in range(4):
            obs.on_packet_delivered(self._packet(seq), 1.0)
        for seq in range(4, 6):
            obs.on_packet_dropped(self._packet(seq), 1.0)
        stats = obs._stats[5]
        assert stats.generated == 10
        assert stats.resolved == 6  # 4 delivered + 2 dropped; 4 in flight
        assert obs.delivery_ratios()[5] == pytest.approx(4 / 6)

    def test_all_pending_yields_no_ratio(self):
        obs = self._observer()
        obs.on_packet_created(self._packet(0), 0.0)
        assert obs.delivery_ratios() == {}

"""Integration tests for the collection simulation driver."""

import pytest

from repro.net.link import uniform_loss_assigner
from repro.net.mac import MacConfig
from repro.net.routing import RoutingConfig
from repro.net.simulation import (
    CollectionSimulation,
    NullObserver,
    SimulationConfig,
)
from repro.net.topology import grid_topology, line_topology, random_geometric_topology


def quick_config(duration=60.0, **kw):
    return SimulationConfig(
        duration=duration,
        traffic_period=kw.pop("traffic_period", 5.0),
        routing=kw.pop("routing", RoutingConfig(etx_noise_std=0.0)),
        **kw,
    )


class TestBasicRun:
    def test_line_network_delivers(self):
        topo = line_topology(4)
        sim = CollectionSimulation(
            topo,
            seed=1,
            config=quick_config(),
            link_assigner=uniform_loss_assigner(0.05, 0.15),
        )
        result = sim.run()
        assert result.ground_truth.packets_generated > 20
        assert result.delivery_ratio > 0.9

    def test_packets_record_paths(self):
        topo = line_topology(5)
        sim = CollectionSimulation(
            topo, seed=2, config=quick_config(), link_assigner=uniform_loss_assigner(0.0, 0.05)
        )
        result = sim.run()
        for p in result.delivered_packets:
            assert p.path[0] == p.origin
            assert p.path[-1] == 0
            # On a line the path from node k has exactly k hops.
            assert p.hop_count == p.origin

    def test_reproducibility(self):
        def run():
            topo = grid_topology(3, 3, diagonal=True)
            sim = CollectionSimulation(
                topo, seed=42, config=quick_config(), link_assigner=uniform_loss_assigner(0.1, 0.3)
            )
            r = sim.run()
            return (
                r.ground_truth.packets_generated,
                r.ground_truth.packets_delivered,
                [(p.origin, p.seqno, tuple(p.path)) for p in r.delivered_packets],
            )

        assert run() == run()

    def test_cannot_run_twice(self):
        topo = line_topology(3)
        sim = CollectionSimulation(topo, seed=1, config=quick_config(duration=10.0))
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_channel_and_assigner_mutually_exclusive(self):
        topo = line_topology(3)
        from repro.net.link import Channel
        from repro.utils.rng import RngRegistry

        reg = RngRegistry(0)
        ch = Channel.build(topo, uniform_loss_assigner(0.1, 0.2), reg)
        with pytest.raises(ValueError):
            CollectionSimulation(
                topo, seed=0, channel=ch, link_assigner=uniform_loss_assigner(0, 0.1)
            )


class TestLossAndDrops:
    def test_bad_links_cause_drops(self):
        topo = line_topology(6)
        sim = CollectionSimulation(
            topo,
            seed=3,
            config=quick_config(mac=MacConfig(max_retries=1)),
            link_assigner=uniform_loss_assigner(0.4, 0.6),
        )
        result = sim.run()
        assert result.ground_truth.packets_dropped > 0
        assert result.ground_truth.drop_reasons.get("retries", 0) > 0
        assert result.delivery_ratio < 1.0

    def test_retries_rescue_delivery(self):
        def delivery(max_retries):
            topo = line_topology(5)
            sim = CollectionSimulation(
                topo,
                seed=4,
                config=quick_config(mac=MacConfig(max_retries=max_retries)),
                link_assigner=uniform_loss_assigner(0.3, 0.4),
            )
            return sim.run().delivery_ratio

        assert delivery(10) > delivery(0)

    def test_ground_truth_tracks_all_packets(self):
        topo = grid_topology(3, 3)
        sim = CollectionSimulation(
            topo, seed=5, config=quick_config(), link_assigner=uniform_loss_assigner(0.1, 0.4)
        )
        result = sim.run()
        gt = result.ground_truth
        # A few packets may still be in flight at cutoff; allow small slack.
        settled = gt.packets_delivered + gt.packets_dropped
        assert settled >= gt.packets_generated - 3
        assert gt.delivery_ratio == pytest.approx(
            gt.packets_delivered / gt.packets_generated
        )


class TestObservers:
    def test_observer_sees_full_lifecycle(self):
        events = []

        class Recorder(NullObserver):
            def on_packet_created(self, packet, time):
                events.append(("created", packet.key))

            def on_hop_delivered(self, packet, sender, receiver, first_attempt, time):
                events.append(("hop", packet.key, sender, receiver, first_attempt))

            def on_packet_delivered(self, packet, time):
                events.append(("delivered", packet.key))

        topo = line_topology(3)
        sim = CollectionSimulation(
            topo,
            seed=6,
            config=quick_config(duration=20.0),
            link_assigner=uniform_loss_assigner(0.0, 0.05),
            observers=[Recorder()],
        )
        result = sim.run()
        created = [e for e in events if e[0] == "created"]
        delivered = [e for e in events if e[0] == "delivered"]
        hops = [e for e in events if e[0] == "hop"]
        assert len(created) == result.ground_truth.packets_generated
        assert len(delivered) == result.ground_truth.packets_delivered
        assert all(h[4] >= 1 for h in hops)

    def test_hop_attempt_matches_ground_truth(self):
        """Observer-visible first_attempt equals the simulator's hop record."""
        seen = {}

        class Recorder(NullObserver):
            def on_hop_delivered(self, packet, sender, receiver, first_attempt, time):
                seen.setdefault(packet.key, []).append((sender, receiver, first_attempt))

        topo = line_topology(4)
        sim = CollectionSimulation(
            topo,
            seed=7,
            config=quick_config(duration=30.0),
            link_assigner=uniform_loss_assigner(0.2, 0.4),
            observers=[Recorder()],
        )
        result = sim.run()
        for p in result.delivered_packets:
            observed = seen[p.key]
            truth = [(h.sender, h.receiver) for h in p.hops if h.delivered]
            assert [(s, r) for s, r, _ in observed] == truth

    def test_add_observer_after_run_rejected(self):
        topo = line_topology(3)
        sim = CollectionSimulation(topo, seed=8, config=quick_config(duration=5.0))
        sim.run()
        with pytest.raises(RuntimeError):
            sim.add_observer(NullObserver())


class TestDynamicNetwork:
    def test_churn_happens_under_noise(self):
        topo = random_geometric_topology(40, seed=10)
        sim = CollectionSimulation(
            topo,
            seed=10,
            config=quick_config(
                duration=120.0,
                routing=RoutingConfig(
                    etx_noise_std=0.7, parent_switch_threshold=0.1, beacon_period=2.0
                ),
            ),
            link_assigner=uniform_loss_assigner(0.05, 0.35),
        )
        result = sim.run()
        assert result.routing.total_parent_changes > 0
        assert result.churn_rate > 0
        assert result.delivery_ratio > 0.5

    def test_paths_vary_across_packets_under_churn(self):
        topo = grid_topology(4, 4, diagonal=True)
        sim = CollectionSimulation(
            topo,
            seed=11,
            config=quick_config(
                duration=150.0,
                traffic_period=3.0,
                routing=RoutingConfig(
                    etx_noise_std=0.8, parent_switch_threshold=0.0, beacon_period=1.0
                ),
            ),
            link_assigner=uniform_loss_assigner(0.05, 0.3),
        )
        result = sim.run()
        far_corner = 15
        paths = {
            tuple(p.path) for p in result.delivered_packets if p.origin == far_corner
        }
        assert len(paths) > 1  # the same origin used different routes


class TestConfigValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            SimulationConfig(duration=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(traffic_period=-1.0)
        with pytest.raises(ValueError):
            SimulationConfig(max_hops=0)
        with pytest.raises(ValueError):
            SimulationConfig(forward_delay=-0.1)


class TestDropFinality:
    """Regression for the forwarding bug sweep: once a packet drops (TTL,
    retries, no route), no later hop of it may fire — and the drop must
    not stall the dropping node's transmit queue."""

    @pytest.mark.parametrize("engine", ["event", "array"])
    def test_ttl_drop_is_final_and_queue_keeps_flowing(self, engine):
        topo = line_topology(6)
        sim = CollectionSimulation(
            topo,
            seed=4,
            config=quick_config(
                duration=80.0, traffic_period=2.0, max_hops=2, engine=engine
            ),
            link_assigner=uniform_loss_assigner(0.02, 0.08),
        )
        result = sim.run()
        ttl_dropped = [p for p in result.packets if p.drop_reason == "ttl"]
        assert ttl_dropped, "far nodes need > 2 hops, so TTL drops must occur"
        for packet in ttl_dropped:
            assert not packet.delivered
            # The TTL check fires *before* a third exchange starts: the
            # hop trace ends at the budget, and every recorded hop
            # completed before the drop was declared.
            assert len(packet.hops) == 2
            assert all(h.time <= packet.dropped_at for h in packet.hops)
        # Nodes within the budget still deliver: drops neither wedge the
        # relays' queues nor leak into other packets' journeys.
        near = [p for p in result.packets if p.origin in (1, 2)]
        assert any(p.delivered for p in near)
        settled = sum(1 for p in result.packets if p.delivered or p.dropped)
        assert settled >= len(result.packets) - 3  # only in-flight at cutoff

    @pytest.mark.parametrize("engine", ["event", "array"])
    def test_every_drop_reason_terminates_the_trace(self, engine):
        topo = random_geometric_topology(14, seed=2)
        sim = CollectionSimulation(
            topo,
            seed=11,
            config=quick_config(
                duration=80.0,
                traffic_period=1.0,
                max_hops=4,
                engine=engine,
                mac=MacConfig(max_retries=1),
            ),
            link_assigner=uniform_loss_assigner(0.3, 0.6),
        )
        result = sim.run()
        reasons = {p.drop_reason for p in result.packets if p.dropped}
        assert "retries" in reasons or "ttl" in reasons
        for packet in result.packets:
            if not packet.dropped:
                continue
            assert packet.delivered_at is None
            assert len(packet.hops) <= 4
            if packet.drop_reason == "retries":
                # The failed exchange is the last hop on record, marked
                # undelivered; nothing may follow it.
                assert packet.hops and not packet.hops[-1].delivered
            else:
                assert all(h.delivered for h in packet.hops)

"""Edge-condition behaviours across the network stack."""

import pytest

from repro.net.link import uniform_loss_assigner
from repro.net.routing import RoutingConfig
from repro.net.simulation import CollectionSimulation, SimulationConfig
from repro.net.sim import Simulator
from repro.net.topology import grid_topology, line_topology


class TestTtlDrops:
    def test_packets_dropped_at_hop_limit(self):
        """A TTL smaller than the path length kills deep-origin packets."""
        topo = line_topology(6)
        sim = CollectionSimulation(
            topo,
            seed=71,
            config=SimulationConfig(
                duration=60.0,
                traffic_period=3.0,
                max_hops=2,
                routing=RoutingConfig(etx_noise_std=0.0),
            ),
            link_assigner=uniform_loss_assigner(0.0, 0.02),
        )
        result = sim.run()
        assert result.ground_truth.drop_reasons.get("ttl", 0) > 0
        # Origins within the TTL still deliver.
        near = [p for p in result.packets if p.origin <= 2]
        assert near and all(p.delivered for p in near)
        far = [p for p in result.packets if p.origin >= 3]
        assert far and all(not p.delivered for p in far)


class TestSimulatorJitter:
    def test_every_with_jitter_still_fires(self):
        sim = Simulator()
        fires = []
        sim.every(1.0, lambda: fires.append(sim.now), jitter=lambda: 0.3)
        sim.run_until(10.0)
        assert len(fires) >= 6
        gaps = [b - a for a, b in zip(fires, fires[1:])]
        assert all(g == pytest.approx(1.3) for g in gaps)

    def test_negative_jitter_clamped(self):
        sim = Simulator()
        fires = []
        sim.every(1.0, lambda: fires.append(sim.now), jitter=lambda: -5.0)
        sim.run(max_events=50)
        # Period+jitter clamps to epsilon; events still advance monotonically.
        assert fires == sorted(fires)
        assert len(fires) == 50


class TestTopologyEdges:
    def test_distance_requires_positions(self):
        import networkx as nx

        from repro.net.topology import Topology

        topo = Topology(nx.path_graph(3), sink=0, positions=None)
        with pytest.raises(KeyError):
            topo.distance(0, 1)

    def test_max_depth_grid(self):
        assert grid_topology(3, 3).max_depth == 4  # manhattan corner-to-corner
        assert grid_topology(3, 3, diagonal=True).max_depth == 2

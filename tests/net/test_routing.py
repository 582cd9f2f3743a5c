"""Tests for the CTP-style dynamic routing engine."""

import pytest

from repro.net.link import BernoulliLink, Channel, DriftingLink, uniform_loss_assigner
from repro.net.routing import RoutingConfig, RoutingEngine
from repro.net.sim import Simulator
from repro.net.topology import (
    grid_topology,
    line_topology,
    topology_from_edges,
)
from repro.utils.rng import RngRegistry


def build_engine(topo, models=None, config=None, seed=1, assigner=None):
    reg = RngRegistry(seed)
    if models is not None:
        channel = Channel(topo, models, reg)
    else:
        channel = Channel.build(topo, assigner or uniform_loss_assigner(0.05, 0.25), reg)
    return RoutingEngine(topo, channel, reg, config or RoutingConfig(etx_noise_std=0.0))


class TestInitialTree:
    def test_line_points_to_sink(self):
        topo = line_topology(5)
        eng = build_engine(topo)
        assert eng.parent(0) is None
        for n in range(1, 5):
            assert eng.parent(n) == n - 1

    def test_diamond_picks_better_branch(self):
        # 3 can route via 1 (bad links) or 2 (good links).
        topo = topology_from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        models = {
            (1, 0): BernoulliLink(0.5), (0, 1): BernoulliLink(0.5),
            (2, 0): BernoulliLink(0.05), (0, 2): BernoulliLink(0.05),
            (3, 1): BernoulliLink(0.05), (1, 3): BernoulliLink(0.05),
            (3, 2): BernoulliLink(0.05), (2, 3): BernoulliLink(0.05),
        }
        eng = build_engine(topo, models=models)
        assert eng.parent(3) == 2

    def test_route_costs_monotone_toward_sink(self):
        topo = grid_topology(4, 4)
        eng = build_engine(topo)
        for node in topo.nodes:
            parent = eng.parent(node)
            if parent is not None:
                assert eng.route_cost(parent) < eng.route_cost(node)

    def test_path_to_sink_terminates(self):
        topo = grid_topology(5, 5, diagonal=True)
        eng = build_engine(topo)
        for node in topo.nodes:
            path = eng.path_to_sink(node)
            assert path[0] == node and path[-1] == 0
            assert len(set(path)) == len(path)  # loop-free


class TestDynamics:
    def test_no_churn_without_noise_or_drift(self):
        topo = grid_topology(4, 4, diagonal=True)
        cfg = RoutingConfig(etx_noise_std=0.0)
        eng = build_engine(topo, config=cfg)
        initial = eng.tree_snapshot()
        for t in range(1, 20):
            eng.beacon_round(float(t))
        assert eng.tree_snapshot() == initial
        assert eng.total_parent_changes == 0

    def test_noise_induces_churn(self):
        topo = grid_topology(5, 5, diagonal=True)
        cfg = RoutingConfig(etx_noise_std=0.8, parent_switch_threshold=0.0)
        eng = build_engine(topo, config=cfg)
        for t in range(1, 40):
            eng.beacon_round(float(t))
        assert eng.total_parent_changes > 0

    def test_hysteresis_reduces_churn(self):
        def churn(threshold):
            topo = grid_topology(5, 5, diagonal=True)
            cfg = RoutingConfig(etx_noise_std=0.6, parent_switch_threshold=threshold)
            eng = build_engine(topo, config=cfg, seed=123)
            for t in range(1, 60):
                eng.beacon_round(float(t))
            return eng.total_parent_changes

        assert churn(2.0) < churn(0.0)

    def test_drift_changes_parents(self):
        """A link degrading over time eventually loses its children."""
        topo = topology_from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        # Link 3->1 starts excellent but degrades; 3->2 stays mediocre.
        models = {
            (1, 0): BernoulliLink(0.05), (0, 1): BernoulliLink(0.05),
            (2, 0): BernoulliLink(0.05), (0, 2): BernoulliLink(0.05),
            (3, 1): DriftingLink(0.35, amplitude=0.35, period=200.0),
            (1, 3): BernoulliLink(0.05),
            (3, 2): BernoulliLink(0.2), (2, 3): BernoulliLink(0.05),
        }
        cfg = RoutingConfig(etx_noise_std=0.0, etx_alpha=1.0, parent_switch_threshold=0.1)
        eng = build_engine(topo, models=models, config=cfg)
        parents_over_time = []
        for t in range(0, 200, 5):
            eng.beacon_round(float(t))
            parents_over_time.append(eng.parent(3))
        assert len(set(parents_over_time)) > 1  # switched at least once

    def test_data_driven_updates_shift_estimates(self):
        topo = line_topology(3)
        cfg = RoutingConfig(data_alpha=0.5)
        eng = build_engine(topo, config=cfg)
        before = eng.estimated_etx(1, 0)
        for _ in range(10):
            eng.on_data_sample(1, 0, attempts=8, time=1.0)
        assert eng.estimated_etx(1, 0) > before


class TestChurnAccounting:
    def test_churn_rate_normalization(self):
        topo = grid_topology(3, 3, diagonal=True)
        cfg = RoutingConfig(etx_noise_std=1.0, parent_switch_threshold=0.0)
        eng = build_engine(topo, config=cfg)
        for t in range(1, 30):
            eng.beacon_round(float(t))
        changes = eng.total_parent_changes
        assert eng.churn_rate(29.0) == pytest.approx(changes / (8 * 29.0))

    def test_parent_change_log_records_transitions(self):
        topo = grid_topology(4, 4, diagonal=True)
        cfg = RoutingConfig(etx_noise_std=1.0, parent_switch_threshold=0.0)
        eng = build_engine(topo, config=cfg)
        for t in range(1, 25):
            eng.beacon_round(float(t))
        for change in eng.parent_change_log:
            assert change.new_parent != change.old_parent
            assert change.node != topo.sink


class TestSimIntegration:
    def test_attach_schedules_beacons(self):
        topo = grid_topology(3, 3)
        eng = build_engine(topo, config=RoutingConfig(beacon_period=1.0))
        sim = Simulator()
        eng.attach(sim)
        sim.run_until(10.0)
        assert eng.beacon_rounds >= 8


class TestConfigValidation:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RoutingConfig(beacon_period=0.0)
        with pytest.raises(ValueError):
            RoutingConfig(etx_alpha=0.0)
        with pytest.raises(ValueError):
            RoutingConfig(etx_alpha=1.5)
        with pytest.raises(ValueError):
            RoutingConfig(etx_noise_std=-1.0)
        with pytest.raises(ValueError):
            RoutingConfig(data_alpha=2.0)

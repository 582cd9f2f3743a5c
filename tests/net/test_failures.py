"""Tests for node failure schedules and their simulation effects."""

import numpy as np
import pytest

from repro.net.failures import FailureEvent, FailurePlan, random_failure_plan
from repro.net.link import uniform_loss_assigner
from repro.net.routing import RoutingConfig
from repro.net.simulation import CollectionSimulation, SimulationConfig
from repro.net.topology import grid_topology, line_topology, topology_from_edges


class TestFailureEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureEvent(1.0, 2, "explode")
        with pytest.raises(ValueError):
            FailureEvent(-1.0, 2, "fail")


class TestFailurePlan:
    def test_orders_events(self):
        plan = FailurePlan(
            [FailureEvent(50.0, 1, "fail"), FailureEvent(60.0, 1, "recover"),
             FailureEvent(10.0, 2, "fail"), FailureEvent(20.0, 2, "recover")],
            sink=0,
        )
        assert [e.time for e in plan] == [10.0, 20.0, 50.0, 60.0]
        assert plan.nodes_involved() == {1, 2}

    def test_sink_cannot_fail(self):
        with pytest.raises(ValueError):
            FailurePlan([FailureEvent(1.0, 0, "fail")], sink=0)

    def test_double_fail_rejected(self):
        with pytest.raises(ValueError):
            FailurePlan(
                [FailureEvent(1.0, 1, "fail"), FailureEvent(2.0, 1, "fail")],
                sink=0,
            )

    def test_recover_without_fail_rejected(self):
        with pytest.raises(ValueError):
            FailurePlan([FailureEvent(1.0, 1, "recover")], sink=0)



class TestRandomPlan:
    def test_generates_requested_failures(self):
        topo = grid_topology(4, 4)
        rng = np.random.default_rng(1)
        plan = random_failure_plan(
            topo, rng, num_failures=5, duration=300.0, mean_downtime=30.0
        )
        fails = [e for e in plan if e.kind == "fail"]
        assert len(fails) == 5
        assert all(e.node != 0 for e in plan)

    def test_no_overlapping_episodes_per_node(self):
        topo = line_topology(4)  # few candidates forces reuse
        rng = np.random.default_rng(2)
        plan = random_failure_plan(
            topo, rng, num_failures=6, duration=500.0, mean_downtime=20.0
        )
        for node in plan.nodes_involved():
            # The plan orders each node's events fail, recover, fail, ...
            times = [e.time for e in plan if e.node == node]
            intervals = list(zip(times[::2], times[1::2] + [2000.0]))
            for (a, b), (c, d) in zip(intervals, intervals[1:]):
                assert b <= c

    def test_validation(self):
        topo = line_topology(3)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_failure_plan(topo, rng, num_failures=-1, duration=10.0, mean_downtime=1.0)


class TestSimulationWithFailures:
    def make_sim(self, plan, topo=None, duration=120.0):
        topo = topo or grid_topology(3, 3, diagonal=True)
        return CollectionSimulation(
            topo,
            seed=9,
            config=SimulationConfig(
                duration=duration,
                traffic_period=2.0,
                routing=RoutingConfig(etx_noise_std=0.0),
            ),
            link_assigner=uniform_loss_assigner(0.02, 0.1),
            failure_plan=plan,
        )

    def test_dead_node_generates_nothing(self):
        topo = grid_topology(3, 3, diagonal=True)
        plan = FailurePlan(
            [FailureEvent(30.0, 8, "fail"), FailureEvent(90.0, 8, "recover")],
            sink=0,
        )
        sim = self.make_sim(plan, topo)
        result = sim.run()
        times = [p.created_at for p in result.packets if p.origin == 8]
        assert not any(30.0 <= t < 90.0 for t in times)
        assert any(t < 30.0 for t in times)
        assert any(t >= 90.0 for t in times)

    def test_routes_reform_around_dead_node(self):
        # Line 0-1-2-3 with a *bad* bypass link 1-3: node 3 initially
        # routes through 2; node 2's death forces the direct 3 -> 1 hop.
        from repro.net.link import BernoulliLink, Channel
        from repro.utils.rng import RngRegistry

        topo = topology_from_edges([(0, 1), (1, 2), (2, 3), (1, 3)])
        models = {}
        for u, v in topo.directed_edges():
            loss = 0.6 if {u, v} == {1, 3} else 0.05
            models[(u, v)] = BernoulliLink(loss)
        channel = Channel(topo, models, RngRegistry(9))
        plan = FailurePlan(
            [FailureEvent(40.0, 2, "fail"), FailureEvent(80.0, 2, "recover")],
            sink=0,
        )
        sim = CollectionSimulation(
            topo,
            seed=9,
            config=SimulationConfig(
                duration=120.0,
                traffic_period=2.0,
                routing=RoutingConfig(etx_noise_std=0.0),
            ),
            channel=channel,
            failure_plan=plan,
        )
        result = sim.run()
        before = [
            p for p in result.delivered_packets
            if p.origin == 3 and p.created_at < 40.0
        ]
        assert before and all(2 in p.path for p in before)
        during = [
            p for p in result.delivered_packets
            if p.origin == 3 and 41.0 <= p.created_at < 79.0
        ]
        assert during, "node 3 should still deliver during the outage"
        assert all(2 not in p.path for p in during)
        # Failure churn shows up in the parent-change log.
        assert any(c.node == 3 for c in result.routing.parent_change_log)

    def test_packets_drop_when_cut_off(self):
        # Chain: node 2 is the only route for node 3.
        topo = line_topology(4)
        plan = FailurePlan(
            [FailureEvent(30.0, 2, "fail"), FailureEvent(90.0, 2, "recover")],
            sink=0,
        )
        sim = self.make_sim(plan, topo)
        result = sim.run()
        outage = [
            p for p in result.packets if p.origin == 3 and 31.0 <= p.created_at < 89.0
        ]
        assert outage
        assert all(not p.delivered for p in outage)
        reasons = {p.drop_reason for p in outage if p.dropped}
        assert reasons <= {"retries", "node_failed", "no_route", "ttl"}
        # After recovery, traffic flows again.
        after = [
            p for p in result.packets if p.origin == 3 and p.created_at > 95.0
        ]
        assert any(p.delivered for p in after)

    def test_dead_receiver_consumes_no_channel_draws(self):
        topo = line_topology(3)
        plan = FailurePlan(
            [FailureEvent(20.0, 1, "fail"), FailureEvent(100.0, 1, "recover")],
            sink=0,
        )
        sim = self.make_sim(plan, topo, duration=90.0)
        result = sim.run()
        # Frames sent to node 1 during its downtime are not channel draws,
        # so the empirical loss of (2,1) reflects only real transmissions.
        emp = result.channel.empirical_loss(2, 1)
        if emp is not None:
            assert emp < 0.3  # configured loss <= 0.1 plus noise margin

    def test_sink_failure_rejected_by_routing(self):
        topo = line_topology(3)
        sim = self.make_sim(None, topo, duration=10.0)
        with pytest.raises(ValueError):
            sim.routing.set_alive(0, False, 0.0)


class TestFailureScheduleBindings:
    """Regression: failure events are scheduled with explicit args, not
    loop-variable-capturing closures. A late-binding lambda over the plan
    loop would apply the *last* entry's node/kind to every event, so each
    node's outage window must match its own plan entry exactly."""

    @pytest.mark.parametrize("engine", ["event", "array"])
    def test_each_event_binds_its_own_node_and_kind(self, engine):
        topo = grid_topology(3, 3, diagonal=True)
        plan = FailurePlan(
            [
                FailureEvent(10.0, 3, "fail"),
                FailureEvent(20.0, 5, "fail"),
                FailureEvent(40.0, 3, "recover"),
                FailureEvent(50.0, 5, "recover"),
            ],
            sink=0,
        )
        sim = CollectionSimulation(
            topo,
            seed=9,
            config=SimulationConfig(
                duration=70.0,
                traffic_period=2.0,
                engine=engine,
                routing=RoutingConfig(etx_noise_std=0.0),
            ),
            link_assigner=uniform_loss_assigner(0.02, 0.1),
            failure_plan=plan,
        )
        result = sim.run()
        # Dead nodes generate nothing, so each node's creation gap must
        # cover exactly its own outage window — staggered windows per
        # node distinguish correct bindings from a shared stale capture.
        for node, lo, hi in [(3, 10.0, 40.0), (5, 20.0, 50.0)]:
            times = [p.created_at for p in result.packets if p.origin == node]
            assert not any(lo <= t < hi for t in times), (node, times)
            assert any(t < lo for t in times), node
            assert any(t >= hi for t in times), node

"""FaultPlan: validation, reproducibility, and end-to-end injection."""

import pytest

from repro.core.config import DophyConfig
from repro.core.dophy import DophySystem
from repro.net.faults import FaultPlan
from repro.workloads import line_scenario


class TestValidation:
    def test_rates_are_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(corruption_rate=1.2)
        with pytest.raises(ValueError):
            FaultPlan(truncation_rate=-0.1)

    def test_inactive_plan(self):
        assert not FaultPlan().active
        assert FaultPlan(corruption_rate=0.1).active


class TestReproducibility:
    def test_same_seed_same_mutations(self):
        data = bytes(range(32))
        a = FaultPlan(seed=42, corruption_rate=0.5, truncation_rate=0.5)
        b = FaultPlan(seed=42, corruption_rate=0.5, truncation_rate=0.5)
        outs_a = [a.corrupt_annotation(data, 256) for _ in range(50)]
        outs_b = [b.corrupt_annotation(data, 256) for _ in range(50)]
        assert outs_a == outs_b
        c = FaultPlan(seed=43, corruption_rate=0.5, truncation_rate=0.5)
        assert outs_a != [c.corrupt_annotation(data, 256) for _ in range(50)]

    def test_streams_are_independent(self):
        # Enabling truncation must not change which packets get corrupted.
        data = bytes(range(32))
        flips_only = FaultPlan(seed=7, corruption_rate=0.3)
        both = FaultPlan(seed=7, corruption_rate=0.3, truncation_rate=0.9)
        for _ in range(50):
            d1, _, _ = flips_only.corrupt_annotation(data, 256)
            d2, bits2, _ = both.corrupt_annotation(data, 256)
            # The flip decisions match; truncation only shortens afterwards
            # (compare the whole bytes the truncated copy retained).
            whole = bits2 // 8
            assert d2[:whole] == d1[:whole]

    def test_zero_rates_touch_nothing(self):
        plan = FaultPlan(seed=1)
        data = bytes(range(8))
        assert plan.corrupt_annotation(data, 64) == (data, 64, False)

    def test_truncation_keeps_at_least_one_bit(self):
        plan = FaultPlan(seed=3, truncation_rate=1.0)
        for _ in range(100):
            _, bits, mutated = plan.corrupt_annotation(bytes(4), 32)
            assert mutated
            assert 1 <= bits < 32


class TestEndToEnd:
    def run_with(self, faults):
        scenario = line_scenario(6, duration=200.0, traffic_period=4.0)
        system = DophySystem(DophyConfig(model_update_period=60.0), faults=faults)
        sim = scenario.make_simulation(19, [system])
        result = sim.run()
        return system.report(), len(result.delivered_packets)

    def test_corruption_degrades_but_never_crashes(self):
        report, delivered = self.run_with(
            FaultPlan(seed=8, corruption_rate=0.2, truncation_rate=0.1)
        )
        assert report.decode_failures > 0
        assert report.decode_failures == report.attributed_failures
        assert report.packets_decoded + report.decode_failures == delivered
        assert sum(report.decode_failure_causes.values()) == report.decode_failures


class TestShardFaultPlan:
    def test_validation(self):
        from repro.net.faults import ShardFaultPlan

        with pytest.raises(ValueError):
            ShardFaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            ShardFaultPlan(crash_at=[(0, 1)])  # rounds are 1-based
        with pytest.raises(ValueError):
            ShardFaultPlan(stall_at=[(3, -1)])

    def test_active(self):
        from repro.net.faults import ShardFaultPlan

        assert not ShardFaultPlan().active
        assert ShardFaultPlan(crash_rate=0.1).active
        assert ShardFaultPlan(stall_at=[(2, 0)]).active

    def test_draws_are_stateless(self):
        from repro.net.faults import ShardFaultPlan

        plan = ShardFaultPlan(seed=7, crash_rate=0.3)
        first = [plan.draw_crash(s, r) for s in range(4) for r in range(1, 30)]
        # Querying out of order / repeatedly never shifts the schedule.
        again = [plan.draw_crash(s, r) for s in range(4) for r in range(1, 30)]
        assert first == again
        shuffled = [
            plan.draw_crash(s, r) for r in range(29, 0, -1) for s in range(3, -1, -1)
        ]
        assert sorted(first) == sorted(shuffled)
        assert any(first) and not all(first)

    def test_crash_and_stall_streams_are_independent(self):
        from repro.net.faults import ShardFaultPlan

        crashes_only = ShardFaultPlan(seed=7, crash_rate=0.3)
        both = ShardFaultPlan(seed=7, crash_rate=0.3, stall_rate=0.3)
        schedule = [
            crashes_only.draw_crash(s, r) for s in range(4) for r in range(1, 30)
        ]
        # Enabling stalls must not shift which rounds crash.
        assert schedule == [
            both.draw_crash(s, r) for s in range(4) for r in range(1, 30)
        ]

    def test_forced_coordinates_fire_exactly(self):
        from repro.net.faults import ShardFaultPlan

        plan = ShardFaultPlan(crash_at=[(3, 1)], stall_at=[(5, 0)])
        assert plan.draw_crash(1, 3)
        assert not plan.draw_crash(1, 4)
        assert not plan.draw_crash(0, 3)
        assert plan.draw_stall(0, 5)
        assert not plan.draw_stall(0, 4)

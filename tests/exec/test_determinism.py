"""The headline guarantee of the execution engine: ``jobs=N`` output is
byte-identical to ``jobs=1`` for every scenario and fault knob.

The comparison is field-by-field at the replicate level — per-link loss
estimates, support counts, annotation bit lists, failure-taxonomy
counts — not just at the aggregated table level, so a scheduling- or
shared-state-dependent divergence anywhere in a worker shows up as the
exact field that drifted.

``REPRO_TEST_JOBS`` overrides the parallel width (CI runs the suite at
2 on small runners; the default exercises 4).
"""

import os
import time

import pytest

from repro.core.config import DophyConfig
from repro.exec import ComparisonTask, ParallelRunner
from repro.workloads import (
    dophy_approach,
    dynamic_rgg_scenario,
    line_scenario,
    path_measurement_approach,
    run_replicated,
    tree_ratio_approach,
)

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "4"))

#: (label, scenario, approaches) — fault knobs at zero and non-zero.
MATRIX = [
    (
        "line_idealized",
        line_scenario(5, duration=60.0, traffic_period=3.0),
        (dophy_approach(), path_measurement_approach(), tree_ratio_approach()),
    ),
    (
        "line_lossy_dissemination",
        line_scenario(5, duration=60.0, traffic_period=3.0),
        (
            dophy_approach(
                config=DophyConfig(dissemination_loss=0.3, model_update_period=20.0)
            ),
        ),
    ),
    (
        "line_blocked_straggler",
        line_scenario(5, duration=60.0, traffic_period=3.0),
        (
            dophy_approach(
                config=DophyConfig(
                    dissemination_blocked_nodes=(3,), model_update_period=20.0
                )
            ),
        ),
    ),
    (
        "dynamic_rgg_churn",
        dynamic_rgg_scenario(16, churn_noise=0.6, duration=60.0, traffic_period=4.0),
        (dophy_approach(), tree_ratio_approach()),
    ),
    # The array simulation kernel rides the same guarantee: workers must
    # treat engine="array" like any other config knob.
    (
        "line_idealized_array_engine",
        line_scenario(5, duration=60.0, traffic_period=3.0).with_config(
            engine="array"
        ),
        (dophy_approach(), path_measurement_approach(), tree_ratio_approach()),
    ),
    (
        "dynamic_rgg_churn_array_engine",
        dynamic_rgg_scenario(
            16, churn_noise=0.6, duration=60.0, traffic_period=4.0
        ).with_config(engine="array"),
        (dophy_approach(), tree_ratio_approach()),
    ),
]

IDS = [m[0] for m in MATRIX]


def _tasks(scenario, approaches, master_seed=42, replicates=4):
    from repro.utils.rng import spawn_seeds

    return [
        ComparisonTask(scenario=scenario, approaches=approaches, seed=seed)
        for seed in spawn_seeds(master_seed, replicates)
    ]


def assert_outcomes_identical(a, b, label):
    """Field-by-field equality of two ComparisonTaskResult lists."""
    assert len(a) == len(b)
    for i, (ra, rb) in enumerate(zip(a, b)):
        ctx = f"{label}, replicate {i}"
        assert ra.summary == rb.summary, ctx
        assert ra.rows.keys() == rb.rows.keys(), ctx
        for name in ra.rows:
            rowa, rowb = ra.rows[name], rb.rows[name]
            assert rowa.accuracy.per_link_errors == rowb.accuracy.per_link_errors, (
                f"{ctx}: per-link errors of {name}"
            )
            assert rowa.accuracy == rowb.accuracy, f"{ctx}: accuracy of {name}"
            assert rowa.overhead == rowb.overhead, f"{ctx}: overhead of {name}"
            assert rowa.delivery_ratio == rowb.delivery_ratio, ctx
            assert rowa.churn_rate == rowb.churn_rate, ctx


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("label,scenario,approaches", MATRIX, ids=IDS)
    def test_jobs_n_equals_jobs_1(self, label, scenario, approaches):
        tasks = _tasks(scenario, approaches)
        serial = ParallelRunner(jobs=1).run_comparisons(tasks)
        parallel = ParallelRunner(jobs=JOBS).run_comparisons(tasks)
        assert_outcomes_identical(serial, parallel, label)

    def test_worker_result_identical_to_in_process(self):
        """The same task executed in a pool worker and in-process yields
        field-identical results (jobs=2 forces the pickle round-trip)."""
        from repro.exec.parallel import _execute_comparison_task

        scenario = line_scenario(5, duration=60.0, traffic_period=3.0)
        task = ComparisonTask(
            scenario=scenario,
            approaches=(
                dophy_approach(
                    config=DophyConfig(
                        dissemination_loss=0.4, model_update_period=15.0
                    )
                ),
            ),
            seed=7,
        )
        inproc = _execute_comparison_task(task)
        pooled = ParallelRunner(jobs=2).map(_execute_comparison_task, [task, task])
        for r in pooled:
            assert_outcomes_identical([inproc], [r], "worker vs in-process")

    def test_repeated_extraction_audits_shared_module_state(self):
        """Running the same seed twice inside one process must reproduce
        every outcome field exactly — if an approach factory or observer
        mutated module-level state, the second pass would diverge."""
        scenario = line_scenario(5, duration=60.0, traffic_period=3.0)
        spec = dophy_approach(
            config=DophyConfig(dissemination_loss=0.4, model_update_period=15.0)
        )

        def one_pass():
            obs = spec.factory()
            sim = scenario.make_simulation(7, [obs])
            result = sim.run()
            return spec.extract(obs, result)

        first, second = one_pass(), one_pass()
        assert first.losses == second.losses
        assert first.support == second.support
        assert first.annotation_bits == second.annotation_bits
        assert first.annotation_hops == second.annotation_hops
        assert first.control_bits == second.control_bits
        assert first.failure_counts == second.failure_counts
        assert "decode_failures" in first.failure_counts

    def test_array_engine_outcomes_equal_event_engine(self):
        """Engine choice is *not* allowed to be a config knob that changes
        results: the array kernel must reproduce the event oracle's
        outcomes field-by-field through the whole exec pipeline (the
        sharp version lives in tests/net/test_fastsim_differential.py)."""
        scenario = dynamic_rgg_scenario(
            16, churn_noise=0.6, duration=60.0, traffic_period=4.0
        )
        approaches = (dophy_approach(), tree_ratio_approach())
        event = ParallelRunner(jobs=1).run_comparisons(_tasks(scenario, approaches))
        array = ParallelRunner(jobs=JOBS).run_comparisons(
            _tasks(scenario.with_config(engine="array"), approaches)
        )
        assert_outcomes_identical(event, array, "array engine vs event oracle")

    @pytest.mark.parametrize("label,scenario,approaches", MATRIX[:2], ids=IDS[:2])
    def test_run_replicated_tables_identical(self, label, scenario, approaches):
        serial = run_replicated(
            scenario, approaches, master_seed=11, replicates=3, jobs=1
        )
        parallel = run_replicated(
            scenario, approaches, master_seed=11, replicates=3, jobs=JOBS
        )
        assert serial == parallel, label


class TestSanitizedFingerprints:
    """The determinism matrix under the runtime sanitizer: identical
    seeds yield bit-identical fingerprints (draw-for-draw, pop-for-pop),
    not just identical extracted outcomes."""

    def test_same_seed_fingerprints_identical_per_engine(self):
        from repro.sanitize import diff_fingerprints, sanitize_run

        base = line_scenario(5, duration=60.0, traffic_period=3.0)
        for engine in ("event", "array"):
            scenario = base.with_config(engine=engine)

            def one_pass():
                with sanitize_run(engine) as san:
                    scenario.make_simulation(7).run()
                return san.fingerprint()

            first, second = one_pass(), one_pass()
            divergences = diff_fingerprints(first, second, mode="global")
            assert divergences == [], (
                engine,
                [d.describe() for d in divergences],
            )
            assert first.total_draws() > 0

    def test_engines_fingerprint_equivalent_through_extraction(self):
        from repro.sanitize import diff_fingerprints, sanitize_run

        scenario = dynamic_rgg_scenario(
            16, churn_noise=0.6, duration=60.0, traffic_period=4.0
        )
        spec = dophy_approach()
        fingerprints = {}
        for engine in ("event", "array"):
            scn = scenario.with_config(engine=engine)
            with sanitize_run(engine) as san:
                obs = spec.factory()
                result = scn.make_simulation(7, [obs]).run()
                spec.extract(obs, result)
            fingerprints[engine] = san.fingerprint()
        divergences = diff_fingerprints(
            fingerprints["event"], fingerprints["array"], mode="stream"
        )
        assert divergences == [], [d.describe() for d in divergences]


@pytest.mark.skipif(
    os.environ.get("REPRO_PERF") != "1",
    reason="wall-clock speedup needs >= 4 free cores; set REPRO_PERF=1 to run",
)
def test_parallel_speedup_at_least_3x():
    """Acceptance check: jobs=4 is >= 3x faster than jobs=1 on the
    replicate-heavy 50-node workload (run on multi-core hardware)."""
    scenario = dynamic_rgg_scenario(50, duration=120.0)
    approaches = (dophy_approach(),)
    # Host-clock reads below only time the two runs for the speedup
    # ratio; the compared results never see them.
    t0 = time.monotonic()  # reprolint: disable=RPL002
    serial = run_replicated(
        scenario, approaches, master_seed=7, replicates=16, jobs=1
    )
    t1 = time.monotonic()  # reprolint: disable=RPL002
    parallel = run_replicated(
        scenario, approaches, master_seed=7, replicates=16, jobs=4
    )
    t2 = time.monotonic()  # reprolint: disable=RPL002
    assert serial == parallel
    assert (t1 - t0) / (t2 - t1) >= 3.0, (
        f"speedup {(t1 - t0) / (t2 - t1):.2f}x below 3x"
    )

"""Every approach spec and every scenario must be dispatchable to a pool
worker: picklable by value-free module references, and runnable inside a
``ParallelRunner(jobs=2)`` pool.

This is the regression net for the old closure-based factories (lambdas
inside ``*_approach`` and ``*_scenario`` bodies) that could never cross
a process boundary.
"""

import pickle

import pytest

from repro.coding.baseline_codes import EliasGammaCode
from repro.core.config import DophyConfig
from repro.exec import ComparisonTask, ParallelRunner
from repro.workloads import (
    bursty_rgg_scenario,
    dophy_approach,
    drifting_line_scenario,
    drifting_rgg_scenario,
    dynamic_rgg_scenario,
    em_approach,
    failing_rgg_scenario,
    huffman_dophy_approach,
    interference_rgg_scenario,
    line_scenario,
    linear_approach,
    path_measurement_approach,
    static_grid_scenario,
    static_rgg_scenario,
    tree_ratio_approach,
)

#: Every public approach constructor, including the non-default variants.
APPROACHES = [
    dophy_approach(),
    dophy_approach(
        "dophy_lossy",
        config=DophyConfig(dissemination_loss=0.3, model_update_period=20.0),
    ),
    huffman_dophy_approach(),
    path_measurement_approach(),
    path_measurement_approach("direct_gamma", EliasGammaCode()),
    path_measurement_approach("direct_assumed", path_encoding="assumed"),
    tree_ratio_approach(),
    linear_approach(),
    em_approach(),
]

APPROACH_IDS = [spec.name for spec in APPROACHES]

#: Every scenario family at miniature scale.
SCENARIOS = [
    ("line", line_scenario(5, duration=40.0)),
    ("static_grid", static_grid_scenario(3, 3, duration=40.0)),
    ("static_rgg", static_rgg_scenario(12, duration=40.0)),
    ("dynamic_rgg", dynamic_rgg_scenario(12, duration=40.0)),
    ("bursty_rgg", bursty_rgg_scenario(12, duration=40.0)),
    ("drifting_rgg", drifting_rgg_scenario(12, duration=40.0)),
    ("drifting_line", drifting_line_scenario(5, duration=40.0)),
    ("failing_rgg", failing_rgg_scenario(12, num_failures=2, duration=40.0)),
    ("interference_rgg", interference_rgg_scenario(12, duration=40.0)),
]

SCENARIO_IDS = [s[0] for s in SCENARIOS]


@pytest.mark.parametrize("spec", APPROACHES, ids=APPROACH_IDS)
def test_approach_spec_pickles_and_still_works(spec):
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.name == spec.name
    observer = clone.factory()
    assert observer is not None
    # A second call must build a fresh observer, not share state.
    assert clone.factory() is not observer


@pytest.mark.parametrize("label,scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_scenario_pickles_and_still_builds(label, scenario):
    clone = pickle.loads(pickle.dumps(scenario))
    sim = clone.make_simulation(3, [])
    assert sim is not None


@pytest.mark.parametrize("spec", APPROACHES, ids=APPROACH_IDS)
def test_every_approach_runs_in_a_pool_worker(spec):
    """The real acceptance test: each spec executes end-to-end inside a
    separate process and ships its row back."""
    task = ComparisonTask(
        scenario=line_scenario(4, duration=30.0), approaches=(spec,), seed=3
    )
    results = ParallelRunner(jobs=2).run_comparisons([task])
    assert list(results[0].rows) == [spec.name]


def test_scenario_matrix_runs_in_a_pool():
    """All scenario families dispatch through one pool in one call."""
    spec = dophy_approach()
    tasks = [
        ComparisonTask(scenario=scenario, approaches=(spec,), seed=5)
        for _, scenario in SCENARIOS
    ]
    runner = ParallelRunner(jobs=2)
    results = runner.run_comparisons(tasks)
    assert len(results) == len(SCENARIOS)
    assert runner.stats.tasks == len(SCENARIOS)
    serial = ParallelRunner(jobs=1).run_comparisons(tasks)
    assert results == serial

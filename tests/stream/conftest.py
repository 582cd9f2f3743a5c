"""Shared fixtures for the streaming-sink suite."""

import pytest

from repro.stream import bundle_from_scenario
from repro.workloads import dynamic_rgg_scenario


@pytest.fixture(scope="session")
def bundle():
    """One small recorded stream shared by every sink test (231 records)."""
    scenario = dynamic_rgg_scenario(num_nodes=20).with_config(duration=60.0)
    return bundle_from_scenario(scenario, seed=7)


def estimate_fields(estimates):
    """Field-by-field view of an estimates map for exact comparison."""
    return {
        link: (est.loss, est.stderr, est.n_exact, est.n_censored)
        for link, est in estimates.items()
    }

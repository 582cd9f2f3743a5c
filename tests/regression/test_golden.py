"""Golden-trace regression tests.

Each case freezes the full ``run_comparison`` output — per-link error
maps, accuracy percentiles, overhead bit counts, delivery and churn —
as a JSON fixture under ``tests/fixtures/golden/``. Any change to the
simulator, estimators, codecs, or seed discipline that shifts a single
float shows up as a diff against the fixture.

JSON floats round-trip exactly (``json`` serializes via ``repr``), so
the comparison is bitwise on every numeric field, not approximate.

To rebless after an intentional behavioural change::

    PYTHONPATH=src python -m pytest tests/regression -q --regen-golden

then review the fixture diff like any other code change.
"""

import json
from pathlib import Path

import pytest

from repro.workloads import (
    dophy_approach,
    dynamic_rgg_scenario,
    line_scenario,
    path_measurement_approach,
    run_comparison,
    tree_ratio_approach,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"

#: (fixture name, scenario, approaches, seed) — two scenarios, three seeds.
CASES = [
    (
        "line6_seed13",
        lambda: line_scenario(6, duration=120.0, traffic_period=3.0),
        lambda: (dophy_approach(), path_measurement_approach(), tree_ratio_approach()),
        13,
    ),
    (
        "line6_seed21",
        lambda: line_scenario(6, duration=120.0, traffic_period=3.0),
        lambda: (dophy_approach(), path_measurement_approach(), tree_ratio_approach()),
        21,
    ),
    (
        "dynamic_rgg16_seed34",
        lambda: dynamic_rgg_scenario(16, duration=80.0, traffic_period=4.0),
        lambda: (dophy_approach(), tree_ratio_approach()),
        34,
    ),
]

IDS = [c[0] for c in CASES]


def _link_key(link):
    return f"{link[0]}->{link[1]}"


def _accuracy_to_json(acc):
    return {
        "method": acc.method,
        "n_links_compared": acc.n_links_compared,
        "n_links_truth": acc.n_links_truth,
        "mae": acc.mae,
        "rmse": acc.rmse,
        "median_error": acc.median_error,
        "p90_error": acc.p90_error,
        "max_error": acc.max_error,
        "cdf": {repr(level): frac for level, frac in acc.cdf.items()},
        "per_link_errors": {
            _link_key(link): err for link, err in sorted(acc.per_link_errors.items())
        },
    }


def _overhead_to_json(ov):
    return {
        "method": ov.method,
        "packets": ov.packets,
        "total_annotation_bits": ov.total_annotation_bits,
        "control_bits": ov.control_bits,
        "mean_bits_per_packet": ov.mean_bits_per_packet,
        "p95_bits_per_packet": ov.p95_bits_per_packet,
        "mean_bits_per_hop": ov.mean_bits_per_hop,
        "frame_fraction": ov.frame_fraction,
    }


def _trace(scenario, approaches, seed):
    rows, result = run_comparison(scenario, approaches, seed=seed)
    return {
        "seed": seed,
        "summary": {
            "packets_generated": result.ground_truth.packets_generated,
            "packets_delivered": len(result.delivered_packets),
            "delivery_ratio": result.delivery_ratio,
            "churn_rate": result.churn_rate,
        },
        "rows": {
            name: {
                "accuracy": _accuracy_to_json(row.accuracy),
                "overhead": _overhead_to_json(row.overhead),
                "delivery_ratio": row.delivery_ratio,
                "churn_rate": row.churn_rate,
            }
            for name, row in sorted(rows.items())
        },
    }


@pytest.mark.parametrize("engine", ["event", "array"])
@pytest.mark.parametrize("name,scenario_fn,approaches_fn,seed", CASES, ids=IDS)
def test_golden_trace(request, name, scenario_fn, approaches_fn, seed, engine):
    # Both engines are checked against the SAME fixture: the array kernel
    # (net/fastsim.py) is observably bit-identical to the event oracle,
    # so switching engines must never require a rebless.
    scenario = scenario_fn().with_config(engine=engine)
    trace = _trace(scenario, approaches_fn(), seed)
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--regen-golden"):
        if engine != "event":
            pytest.skip("fixtures are blessed from the event oracle only")
        path.write_text(json.dumps(trace, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path.name}; generate it with --regen-golden"
    )
    frozen = json.loads(path.read_text())
    assert trace == frozen, (
        f"{name}: run_comparison output drifted from the golden trace; "
        "if the change is intentional, rebless with --regen-golden"
    )

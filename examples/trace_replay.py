#!/usr/bin/env python3
"""Record once, analyze offline many times.

Testbed workflows separate collection from analysis: record a trace,
then re-run estimators against it with different assumptions. This
example records one lossy run to a JSONL trace, reloads it, and replays
it through two estimator configurations:

* **in-band** — only hops of *delivered* packets (what an annotation
  system like Dophy can ever see);
* **out-of-band** — every successful hop, including those of packets
  dropped later (what an external sniffer would see).

The gap between them quantifies the delivery-censoring cost of in-band
measurement.

Run:  python examples/trace_replay.py
"""

import pathlib
import tempfile

from repro.analysis.metrics import compare_estimates
from repro.net import (
    CollectionSimulation,
    MacConfig,
    RoutingConfig,
    SimulationConfig,
    load_trace,
    random_geometric_topology,
    replay_into_estimator,
    save_trace,
    truth_from_header,
    uniform_loss_assigner,
)
from repro.workloads import format_table


def main() -> None:
    # 1. Record.
    topology = random_geometric_topology(30, seed=47)
    sim = CollectionSimulation(
        topology,
        seed=47,
        config=SimulationConfig(
            duration=300.0,
            traffic_period=2.5,
            mac=MacConfig(max_retries=2),  # shallow ARQ: real drops happen
            routing=RoutingConfig(etx_noise_std=0.4),
        ),
        link_assigner=uniform_loss_assigner(0.1, 0.45),
    )
    result = sim.run()
    with tempfile.TemporaryDirectory(prefix="dophy_trace_") as tmp:
        trace_path = pathlib.Path(tmp) / "run.jsonl"
        save_trace(result, trace_path)
        size_kb = trace_path.stat().st_size / 1024
        print(
            f"recorded {len(result.packets)} packets "
            f"(delivery {result.delivery_ratio:.1%}) to {trace_path.name} "
            f"({size_kb:.0f} KiB)\n"
        )

        # 2. Replay offline.
        header, packets = load_trace(trace_path)
    truth = truth_from_header(header)
    rows = []
    for label, delivered_only in [("in-band (delivered only)", True),
                                  ("out-of-band (all hops)", False)]:
        est = replay_into_estimator(header, packets, delivered_only=delivered_only)
        losses = {l: e.loss for l, e in est.estimates().items()}
        support = {l: est.n_samples(l) for l in est.links()}
        report = compare_estimates(
            losses, truth, method=label, min_support=30, support=support
        )
        total_samples = sum(support.values())
        rows.append(
            [label, total_samples, report.n_links_compared, report.mae, report.p90_error]
        )
    print(
        format_table(
            ["evidence", "hop samples", "links (>=30)", "MAE", "p90 err"],
            rows,
            title="Offline replay: in-band vs out-of-band evidence",
            precision=4,
        )
    )
    print(
        "\nReading: in-band measurement loses the evidence on packets that\n"
        "were later dropped; with a shallow retry cap that censoring is\n"
        "visible as fewer samples — the truncated-likelihood correction in\n"
        "the estimator keeps the *accuracy* gap small."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Replicated parameter sweep with CSV/JSON export.

Shows the workloads API end-to-end: sweep the churn level, run every
approach with replicated seeds (paired on common random numbers within
each seed), and export the flattened records for external analysis.

Run:  python examples/parameter_sweep_export.py
"""

import pathlib
import tempfile

from repro.workloads import (
    dophy_approach,
    dynamic_rgg_scenario,
    em_approach,
    format_table,
    run_comparison,
    rows_to_records,
    tree_ratio_approach,
    write_csv,
    write_json,
)
from repro.utils.rng import spawn_seeds


def main() -> None:
    records = []
    summary_rows = []
    for churn_noise in [0.0, 0.5, 1.0]:
        scenario = dynamic_rgg_scenario(
            40, churn_noise=churn_noise, duration=200.0, traffic_period=4.0
        )
        for seed in spawn_seeds(99, 2):  # 2 replicates per point
            rows, result = run_comparison(
                scenario,
                [dophy_approach(), tree_ratio_approach(), em_approach()],
                seed=seed,
                min_support=20,
            )
            records.extend(
                rows_to_records(
                    rows.values(),
                    extra={
                        "churn_noise": churn_noise,
                        "seed": seed,
                        "measured_churn_per_min": result.churn_rate * 60,
                    },
                )
            )
    with tempfile.TemporaryDirectory(prefix="dophy_sweep_") as tmp:
        outdir = pathlib.Path(tmp)
        csv_path = write_csv(records, outdir / "sweep.csv")
        json_path = write_json(records, outdir / "sweep.json")

    # Quick on-screen digest: mean MAE per (noise, approach).
    from collections import defaultdict

    acc = defaultdict(list)
    for r in records:
        if r["mae"] is not None:
            acc[(r["churn_noise"], r["approach"])].append(r["mae"])
    for (noise, approach), maes in sorted(acc.items()):
        summary_rows.append([noise, approach, sum(maes) / len(maes), len(maes)])
    print(
        format_table(
            ["churn noise", "approach", "mean MAE", "replicates"],
            summary_rows,
            title="Sweep digest (full records exported)",
            precision=4,
        )
    )
    print(f"\nwrote {len(records)} records to:\n  {csv_path.name}\n  {json_path.name}")


if __name__ == "__main__":
    main()

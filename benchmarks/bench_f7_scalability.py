"""F7 — Scalability: accuracy and overhead vs network size.

Runs the default dynamic scenario at 25/50/100/200 nodes and reports
Dophy's accuracy, annotation size (absolute and per hop), model
dissemination cost, and the network's mean path length — then extends
the sweep to 1000/5000/10000 nodes on the array kernel
(``engine="array"``, DESIGN.md §12), the regime the paper's scalability
claim actually concerns and the event oracle cannot sweep.

Expected shape: accuracy is size-independent (evidence is per-link);
annotation bits per packet grow with mean path depth and with
log2(N) node ids, i.e. clearly sub-linearly in N; per-hop bits are
nearly flat.

Large-size protocol (EXPERIMENTS.md §F7): duration and per-node data
rate scale down with N so a sweep row stays inside a CI bench budget —
the per-edge routing machinery, not the data plane, is what the sweep
stresses at scale. At every large size the event oracle can still run
(~10–35 s per row short-duration), the two engines' packet streams are
asserted bit-identical, so the big-N rows carry the same evidence
status as the small-N ones. The final row — 10k nodes at 4× the
duration — is array-only: the oracle would need minutes for it, which
is exactly the reachability gap the kernel exists to close.
"""

import time

from repro.exec import ComparisonTask
from repro.workloads import dophy_approach, dynamic_rgg_scenario, format_table

from _common import emit, exec_footer, exec_runner, run_once

SIZES = [25, 50, 100, 200]

#: (nodes, duration_s, traffic_period_s) for the array-kernel extension.
#: Duration shrinks as N grows; the evidence base per *link* stays
#: usable because the estimator's min_support is lowered in step.
LARGE = [
    (1000, 120.0, 8.0),
    (5000, 30.0, 10.0),
    (10000, 15.0, 12.0),
]

#: The oracle-unreachable point: 10k nodes at 4x the sweep duration.
LONG = (10000, 60.0, 12.0)

SEED = 107
LARGE_MIN_SUPPORT = 10

#: One replicate per size, all independent — the engine shards them over
#: REPRO_JOBS workers.
RUNNER = exec_runner()


def _large_scenario(nodes, duration, traffic_period):
    return dynamic_rgg_scenario(
        nodes, churn_noise=0.4, duration=duration, traffic_period=traffic_period
    ).with_config(engine="array")


def _experiment():
    tasks = [
        ComparisonTask(
            scenario=dynamic_rgg_scenario(
                n, churn_noise=0.4, duration=300.0, traffic_period=4.0
            ),
            approaches=(dophy_approach(),),
            seed=SEED,
            min_support=30,
        )
        for n in SIZES
    ]
    results = RUNNER.run_comparisons(tasks)
    return [
        (n, r.summary.mean_hop_count, r.rows["dophy"], r.summary.delivery_ratio)
        for n, r in zip(SIZES, results)
    ]


def _experiment_large():
    tasks = [
        ComparisonTask(
            scenario=_large_scenario(n, dur, tp),
            approaches=(dophy_approach(),),
            seed=SEED,
            min_support=LARGE_MIN_SUPPORT,
        )
        for n, dur, tp in LARGE + [LONG]
    ]
    results = RUNNER.run_comparisons(tasks)
    return [
        (spec, r.summary.mean_hop_count, r.rows["dophy"], r.summary.delivery_ratio)
        for spec, r in zip(LARGE + [LONG], results)
    ]


def _engine_identity():
    """Event-oracle differential at every large size the oracle reaches.

    Returns ``{nodes: (identical, event_run_s, array_run_s)}``; the
    long-duration point is deliberately absent — it has no oracle run.
    """
    out = {}
    for n, dur, tp in LARGE:
        runs = {}
        for engine in ("event", "array"):
            scenario = _large_scenario(n, dur, tp).with_config(engine=engine)
            sim = scenario.make_simulation(SEED)
            t0 = time.perf_counter()
            result = sim.run()
            runs[engine] = (time.perf_counter() - t0, result)
        identical = (
            runs["event"][1].packets == runs["array"][1].packets
            and runs["event"][1].events_processed == runs["array"][1].events_processed
        )
        out[n] = (identical, runs["event"][0], runs["array"][0])
    return out


def _run():
    return _experiment(), _experiment_large(), _engine_identity()


def test_f7_scalability(benchmark):
    small, large, identity = run_once(benchmark, _run)

    table = []
    raw = {}
    for n, mean_hops, row, delivery in small:
        table.append(
            [
                n,
                mean_hops,
                f"{delivery:.1%}",
                row.accuracy.mae,
                row.overhead.mean_bits_per_packet,
                row.overhead.mean_bits_per_hop,
                row.overhead.control_bits / 1000.0,
            ]
        )
        raw[n] = (row.accuracy.mae, row.overhead.mean_bits_per_packet,
                  row.overhead.mean_bits_per_hop)
    text = format_table(
        ["nodes", "mean hops", "delivery", "dophy MAE", "bits/pkt", "bits/hop", "dissem kbits"],
        table,
        title="F7: Dophy scalability with network size (dynamic RGG, 300s)",
        precision=3,
    )

    big_table = []
    for (n, dur, tp), mean_hops, row, delivery in large:
        if (n, dur, tp) == LONG:
            oracle = "unreachable"
        else:
            ident = identity[n]
            oracle = f"bit-identical ({ident[1]:.1f}s vs {ident[2]:.1f}s)"
        big_table.append(
            [
                n,
                dur,
                mean_hops,
                f"{delivery:.1%}",
                row.accuracy.mae,
                row.overhead.mean_bits_per_packet,
                row.overhead.mean_bits_per_hop,
                oracle,
            ]
        )
        raw[(n, dur)] = (row.accuracy.mae, row.overhead.mean_bits_per_packet,
                         row.overhead.mean_bits_per_hop)
    big_text = format_table(
        ["nodes", "dur s", "mean hops", "delivery", "dophy MAE", "bits/pkt", "bits/hop", "event oracle"],
        big_table,
        title="F7 (cont.): array-kernel sweep to 10k nodes (dynamic RGG, scaled duration)",
        precision=3,
    )
    emit("f7_scalability", text + "\n\n" + big_text + "\n" + exec_footer(RUNNER))

    # The array rows carry oracle-grade evidence: streams bit-identical
    # at every size the event engine can still run.
    for n, (identical, _, _) in identity.items():
        assert identical, f"engine divergence at {n} nodes"

    # Accuracy holds at every size.
    for n in SIZES:
        assert raw[n][0] < 0.05
    for n, dur, _ in LARGE + [LONG]:
        assert raw[(n, dur)][0] < 0.05, (n, dur, raw[(n, dur)])
    # Per-packet bits grow sub-linearly in N (8x nodes -> well under 4x bits).
    assert raw[200][1] < raw[25][1] * 4
    # ...and stay sub-linear out to 10k: 400x the nodes of the 25-node
    # baseline costs ~14x the per-packet bits, tracking the ~9x mean
    # path depth times wider node ids — not N.
    assert raw[(10000, 15.0)][1] < raw[25][1] * 20
    # Per-hop bits stay within a moderate band across sizes — including
    # the array-kernel rows, whose traffic mix differs.
    per_hop = [raw[n][2] for n in SIZES] + [
        raw[(n, dur)][2] for n, dur, _ in LARGE + [LONG]
    ]
    assert max(per_hop) < 2.5 * min(per_hop)
    # The long-duration 10k point accumulates more evidence per link
    # than the short row, not less.
    assert raw[LONG[:2]][0] <= raw[(10000, 15.0)][0] * 1.5

"""Command-line interface.

Runs the standard scenarios without writing any Python::

    python -m repro list-scenarios
    python -m repro run --scenario dynamic_rgg --nodes 60 --seed 7
    python -m repro compare --scenario dynamic_rgg --methods dophy,tree_ratio,em
    python -m repro serve --trace run.jsonl --shards 4 --state-dir state/
    python -m repro tail --events events.jsonl --follow

``run`` executes one Dophy deployment and prints the per-link loss
estimates; ``compare`` attaches several measurement approaches to one
shared run and prints the accuracy/overhead comparison table; ``serve``
drives the crash-tolerant streaming sink over a recorded trace (or a
fresh simulation) with supervised shard workers, checkpoint/restore and
backpressure; ``tail`` pretty-prints (and optionally follows) the event
log ``serve`` writes.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import DophyConfig, DophySystem
from repro.sanitize import hooks as _sanitize_hooks
from repro.workloads import (
    ApproachSpec,
    Scenario,
    bursty_rgg_scenario,
    dophy_approach,
    huffman_dophy_approach,
    drifting_line_scenario,
    drifting_rgg_scenario,
    dynamic_rgg_scenario,
    em_approach,
    failing_rgg_scenario,
    interference_rgg_scenario,
    format_table,
    line_scenario,
    linear_approach,
    path_measurement_approach,
    run_comparison,
    static_grid_scenario,
    static_rgg_scenario,
    tree_ratio_approach,
)

__all__ = ["main", "build_parser", "SCENARIOS"]

#: name -> (factory accepting common kwargs, description)
SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "line": line_scenario,
    "static_grid": static_grid_scenario,
    "static_rgg": static_rgg_scenario,
    "dynamic_rgg": dynamic_rgg_scenario,
    "bursty_rgg": bursty_rgg_scenario,
    "drifting_rgg": drifting_rgg_scenario,
    "drifting_line": drifting_line_scenario,
    "failing_rgg": failing_rgg_scenario,
    "interference_rgg": interference_rgg_scenario,
}

_METHOD_FACTORIES: Dict[str, Callable[[], ApproachSpec]] = {
    "dophy": dophy_approach,
    "dophy_huffman": huffman_dophy_approach,
    "direct": path_measurement_approach,
    "tree_ratio": tree_ratio_approach,
    "linear": linear_approach,
    "em": em_approach,
}


def _make_scenario(args: argparse.Namespace) -> Scenario:
    factory = SCENARIOS[args.scenario]
    kwargs = {}
    if args.nodes is not None:
        kwargs[
            "num_nodes" if args.scenario not in ("static_grid",) else "rows"
        ] = args.nodes
    scenario = factory(**kwargs)
    overrides = {}
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.traffic_period is not None:
        overrides["traffic_period"] = args.traffic_period
    if getattr(args, "engine", None) is not None:
        overrides["engine"] = args.engine
    if overrides:
        scenario = scenario.with_config(**overrides)
    return scenario


def _cmd_list_scenarios(_args: argparse.Namespace) -> int:
    rows = []
    for name, factory in SCENARIOS.items():
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        rows.append([name, doc])
    print(format_table(["scenario", "description"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _make_scenario(args)
    faults = None
    if args.corruption_rate > 0:
        from repro.net.faults import FaultPlan

        faults = FaultPlan(seed=args.seed, corruption_rate=args.corruption_rate)
    dophy = DophySystem(
        DophyConfig(
            aggregation_threshold=args.aggregation_threshold,
            path_encoding=args.path_encoding,
            dissemination_loss=args.dissemination_loss,
        ),
        faults=faults,
    )
    sim = scenario.make_simulation(args.seed, [dophy])
    result = sim.run()
    report = dophy.report()
    truth = result.ground_truth.true_loss_map(kind="empirical")
    print(
        f"scenario {scenario.name}: {result.topology.num_nodes} nodes, "
        f"{result.ground_truth.packets_generated} packets, "
        f"delivery {result.delivery_ratio:.1%}, "
        f"churn {result.churn_rate * 60:.2f} changes/node/min"
    )
    print(
        f"dophy: {report.packets_decoded} annotations, "
        f"{report.mean_annotation_bits:.1f} bits/pkt "
        f"({report.mean_bits_per_hop:.1f} bits/hop), "
        f"{report.model_updates} model updates, "
        f"{report.decode_failures} decode failures"
    )
    if report.decode_failures:
        causes = report.decode_failure_causes
        parts = [f"{cause}={n}" for cause, n in sorted(causes.items()) if n]
        if report.salvaged_packets:
            parts.append(
                f"salvaged={report.salvaged_packets}pkt/{report.salvaged_hops}hops"
            )
        print("decode-failure breakdown: " + ", ".join(parts))
    if report.dissemination_rounds:
        print(
            f"dissemination: {report.dissemination_rounds} broadcast + "
            f"{report.repair_rounds} repair rounds, "
            f"{report.stale_nodes} stale nodes at end"
        )
    rows = []
    for link, est in sorted(report.estimates.items()):
        if est.n_samples < args.min_samples:
            continue
        rows.append(
            [
                f"{link[0]}->{link[1]}",
                est.n_samples,
                est.loss,
                truth.get(link),
            ]
        )
    print()
    print(
        format_table(
            ["link", "samples", "estimated loss", "empirical truth"],
            rows,
            title=f"Per-link estimates (>= {args.min_samples} samples)",
            precision=3,
        )
    )
    if args.save_trace:
        from repro.net.tracefile import save_trace

        path = save_trace(result, args.save_trace)
        print(f"\ntrace written to {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _make_scenario(args)
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in names if m not in _METHOD_FACTORIES]
    if unknown:
        print(
            f"unknown methods: {', '.join(unknown)} "
            f"(choose from {', '.join(_METHOD_FACTORIES)})",
            file=sys.stderr,
        )
        return 2
    approaches = [_METHOD_FACTORIES[m]() for m in names]
    if args.replicates > 1:
        return _compare_replicated(args, scenario, names, approaches)
    rows_by_name, result = run_comparison(
        scenario, approaches, seed=args.seed, min_support=args.min_samples
    )
    rows = []
    for name in names:
        r = rows_by_name[name]
        rows.append(
            [
                name,
                r.accuracy.mae,
                r.accuracy.p90_error,
                f"{r.accuracy.coverage:.0%}",
                r.overhead.mean_bits_per_packet,
                r.overhead.control_bits / 1000.0,
            ]
        )
    print(
        format_table(
            ["method", "MAE", "p90 err", "coverage", "bits/pkt", "control kbits"],
            rows,
            title=(
                f"{scenario.name}: delivery {result.delivery_ratio:.1%}, "
                f"churn {result.churn_rate * 60:.2f} changes/node/min"
            ),
            precision=4,
        )
    )
    return 0


def _compare_replicated(
    args: argparse.Namespace,
    scenario: Scenario,
    names: List[str],
    approaches: List[ApproachSpec],
) -> int:
    from repro.exec import ParallelRunner
    from repro.workloads import run_replicated

    runner = ParallelRunner(jobs=args.jobs)
    rows_by_name = run_replicated(
        scenario,
        approaches,
        master_seed=args.seed,
        replicates=args.replicates,
        min_support=args.min_samples,
        runner=runner,
    )
    rows = []
    for name in names:
        r = rows_by_name[name]
        rows.append(
            [
                name,
                r.mae_mean,
                r.mae_std,
                r.p90_mean,
                f"{r.coverage_mean:.0%}",
                r.bits_per_packet_mean,
                r.control_bits_mean / 1000.0,
            ]
        )
    print(
        format_table(
            ["method", "MAE", "MAE std", "p90 err", "coverage", "bits/pkt", "control kbits"],
            rows,
            title=(
                f"{scenario.name}: {args.replicates} replicates "
                f"(master seed {args.seed}, jobs={args.jobs})"
            ),
            precision=4,
        )
    )
    print(f"execution: {runner.stats.describe()}")
    return 0


def _snapshot_events(snapshot) -> List[dict]:
    """JSONL event records for one sink snapshot (alerts first)."""
    events: List[dict] = [
        {
            "type": "alert",
            "round": alert.round_no,
            "stream_time": alert.stream_time,
            "link": list(alert.link),
            "loss": alert.loss,
            "n_samples": alert.n_samples,
        }
        for alert in snapshot.new_alerts
    ]
    events.append(
        {
            "type": "snapshot",
            "round": snapshot.round_no,
            "stream_time": snapshot.stream_time,
            "final": snapshot.final,
            "links": len(snapshot.estimates),
            "stale_links": len(snapshot.stale_links),
            "queue_depth": snapshot.queue_depth,
            "shards": list(snapshot.shard_states),
            "consumed": snapshot.stats.consumed,
            "crashes": snapshot.stats.crashes,
            "restores": snapshot.stats.restores,
            "shed": snapshot.queue_stats.shed,
        }
    )
    return events


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.stream import (
        AlertPolicy,
        DirectoryStore,
        MemoryStore,
        SinkConfig,
        StreamingSink,
        bundle_from_scenario,
        bundle_from_trace,
        feed_estimator,
    )
    from repro.stream.supervisor import RetryPolicy

    if args.trace:
        bundle = bundle_from_trace(args.trace)
        source_desc = f"trace {args.trace}"
    else:
        scenario = _make_scenario(args)
        bundle = bundle_from_scenario(scenario, args.seed)
        source_desc = f"scenario {scenario.name} (seed {args.seed})"
    store = DirectoryStore(args.state_dir) if args.state_dir else MemoryStore()
    faults = None
    if args.crash_rate > 0 or args.stall_rate > 0:
        from repro.net.faults import ShardFaultPlan

        faults = ShardFaultPlan(
            seed=args.fault_seed,
            crash_rate=args.crash_rate,
            stall_rate=args.stall_rate,
        )
    if args.resume:
        if not args.state_dir:
            print("--resume requires --state-dir", file=sys.stderr)
            return 2
        sink = StreamingSink.resume(store, faults=faults)
        print(
            f"resumed from manifest: round {sink.round_no}, "
            f"{sink.consumed} records already consumed"
        )
    else:
        config = SinkConfig(
            n_shards=args.shards,
            queue_capacity=args.queue_capacity,
            queue_policy=args.queue_policy,
            arrival_burst=args.arrival_burst,
            service_batch=args.service_batch,
            merge_every=args.merge_every,
            checkpoint_every=args.checkpoint_every,
            retry=RetryPolicy(max_restarts=args.max_restarts),
            alerts=AlertPolicy(
                loss_threshold=args.alert_threshold,
                min_samples=args.alert_min_samples,
            ),
        )
        sink = StreamingSink(bundle.max_attempts, store, config, faults=faults)
    print(
        f"serving {source_desc}: {len(bundle.records)} records, "
        f"{sink.config.n_shards} shards, queue {sink.config.queue_policy}"
        f"[{sink.config.queue_capacity}]"
    )
    events_fh = open(args.events, "a", encoding="utf-8") if args.events else None
    try:
        final = None
        for snapshot in sink.run(bundle.records):
            final = snapshot
            for alert in snapshot.new_alerts:
                print(
                    f"  ALERT t={alert.stream_time:.1f}s "
                    f"{alert.link[0]}->{alert.link[1]} "
                    f"loss {alert.loss:.3f} ({alert.n_samples} samples)"
                )
            states = "".join(s[0].upper() for s in snapshot.shard_states)
            print(
                f"round {snapshot.round_no:4d} t={snapshot.stream_time:7.1f}s "
                f"links={len(snapshot.estimates):3d} "
                f"queue={snapshot.queue_depth:3d} shards={states}"
                + (f" stale={len(snapshot.stale_links)}" if snapshot.stale_links else "")
            )
            if events_fh is not None:
                for event in _snapshot_events(snapshot):
                    events_fh.write(json.dumps(event, sort_keys=True) + "\n")
                events_fh.flush()
    finally:
        if events_fh is not None:
            events_fh.close()
    assert final is not None  # run() always yields a final snapshot
    stale = set(final.stale_links)
    truth = bundle.true_losses
    rows = []
    for link in sorted(final.estimates):
        est = final.estimates[link]
        if est.n_samples < args.min_samples:
            continue
        rows.append(
            [
                f"{link[0]}->{link[1]}" + (" *" if link in stale else ""),
                est.n_samples,
                est.loss,
                truth.get(link),
            ]
        )
    print()
    print(
        format_table(
            ["link", "samples", "estimated loss", "true loss"],
            rows,
            title=(
                f"Final streaming estimates (>= {args.min_samples} samples"
                + (", * = stale)" if stale else ")")
            ),
            precision=3,
        )
    )
    stats = final.stats
    queue_stats = final.queue_stats
    print(
        f"\nsink: {stats.rounds} rounds, {stats.consumed} consumed, "
        f"{stats.dispatched} dispatched, {stats.crashes} crashes, "
        f"{stats.stalls} stalls, {stats.restores} restores, "
        f"{stats.dropped_quarantined} dropped (quarantine), "
        f"{queue_stats.shed} shed, {queue_stats.blocked} blocked rounds, "
        f"queue high-water {queue_stats.high_water}"
    )
    if args.verify_batch:
        from repro.core.estimator import PerLinkEstimator

        batch = PerLinkEstimator(
            bundle.max_attempts,
            truncation_correction=sink.truncation_correction,
        )
        feed_estimator(batch, bundle.records)
        batch_estimates = batch.estimates()
        mismatched = sorted(
            link
            for link in set(batch_estimates) | set(final.estimates)
            if (est := final.estimates.get(link)) is None
            or (ref := batch_estimates.get(link)) is None
            or (est.loss, est.stderr, est.n_exact, est.n_censored)
            != (ref.loss, ref.stderr, ref.n_exact, ref.n_censored)
        )
        if mismatched:
            print(
                f"verify-batch: MISMATCH on {len(mismatched)} links "
                f"(first: {mismatched[:5]})",
                file=sys.stderr,
            )
            return 1
        print(
            f"verify-batch: OK — {len(batch_estimates)} links bit-identical "
            f"to the batch estimator"
        )
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import time

    path = pathlib.Path(args.events)
    printed = 0
    while True:
        lines = (
            path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        )
        for line in lines[printed:]:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of an in-progress append
            if event.get("type") == "alert":
                link = event.get("link", ["?", "?"])
                print(
                    f"ALERT t={event.get('stream_time', 0):.1f}s "
                    f"{link[0]}->{link[1]} loss {event.get('loss', 0):.3f} "
                    f"({event.get('n_samples', 0)} samples)"
                )
            elif event.get("type") == "snapshot":
                shards = "".join(str(s)[0].upper() for s in event.get("shards", []))
                print(
                    f"round {event.get('round', 0):4d} "
                    f"t={event.get('stream_time', 0):7.1f}s "
                    f"links={event.get('links', 0):3d} "
                    f"queue={event.get('queue_depth', 0):3d} "
                    f"shards={shards}"
                    + (" FINAL" if event.get("final") else "")
                )
                if event.get("final"):
                    return 0
        printed = len(lines)
        if not args.follow:
            return 0
        time.sleep(args.interval)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dophy loss tomography — run scenarios and comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenarios", help="list the available scenarios")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario", choices=sorted(SCENARIOS), default="dynamic_rgg"
        )
        p.add_argument("--nodes", type=int, default=None, help="network size")
        p.add_argument("--duration", type=float, default=None, help="seconds")
        p.add_argument("--traffic-period", type=float, default=None)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument(
            "--engine",
            choices=["event", "array"],
            default=None,
            help="simulation kernel; both produce bit-identical results "
            "(array is the vectorized fast path, event the reference)",
        )
        p.add_argument(
            "--min-samples",
            type=int,
            default=30,
            help="only report links with at least this many observations",
        )

    run_p = sub.add_parser("run", help="run Dophy on a scenario")
    add_common(run_p)
    run_p.add_argument("--aggregation-threshold", type=int, default=3)
    run_p.add_argument(
        "--path-encoding",
        choices=["explicit", "compressed", "assumed"],
        default="explicit",
    )
    run_p.add_argument(
        "--dissemination-loss",
        type=float,
        default=0.0,
        help="per-node loss of each model broadcast round (0 = idealized)",
    )
    run_p.add_argument(
        "--corruption-rate",
        type=float,
        default=0.0,
        help="per-annotation probability of CRC-escaping bit corruption",
    )
    run_p.add_argument(
        "--save-trace",
        metavar="PATH",
        default=None,
        help="write the run's packet-level trace (JSONL) for offline replay",
    )

    cmp_p = sub.add_parser("compare", help="compare measurement approaches")
    add_common(cmp_p)
    cmp_p.add_argument(
        "--methods",
        default="dophy,tree_ratio,linear,em",
        help="comma-separated subset of: " + ", ".join(_METHOD_FACTORIES),
    )
    cmp_p.add_argument(
        "--replicates",
        type=int,
        default=1,
        help="average over this many replicate seeds derived from --seed "
        "(> 1 enables the replicated table and --jobs sharding)",
    )
    cmp_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for replicated runs; output is byte-identical "
        "to --jobs 1 regardless of N",
    )

    serve_p = sub.add_parser(
        "serve", help="stream a trace (or live run) through the resilient sink"
    )
    add_common(serve_p)
    serve_p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="replay this recorded JSONL trace instead of simulating",
    )
    serve_p.add_argument("--shards", type=int, default=4)
    serve_p.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="durable checkpoint/WAL directory (in-memory when omitted)",
    )
    serve_p.add_argument(
        "--resume",
        action="store_true",
        help="resume from the manifest in --state-dir (pass the same source)",
    )
    serve_p.add_argument("--queue-capacity", type=int, default=256)
    serve_p.add_argument(
        "--queue-policy",
        choices=["block", "shed"],
        default="block",
        help="full-queue behaviour: pace the source, or drop the newest",
    )
    serve_p.add_argument("--arrival-burst", type=int, default=32)
    serve_p.add_argument("--service-batch", type=int, default=32)
    serve_p.add_argument("--merge-every", type=int, default=8)
    serve_p.add_argument("--checkpoint-every", type=int, default=2)
    serve_p.add_argument("--max-restarts", type=int, default=3)
    serve_p.add_argument("--alert-threshold", type=float, default=0.3)
    serve_p.add_argument("--alert-min-samples", type=int, default=20)
    serve_p.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        help="per-(shard, round) probability of killing a shard worker",
    )
    serve_p.add_argument(
        "--stall-rate",
        type=float,
        default=0.0,
        help="per-(shard, round) probability of hanging a shard worker",
    )
    serve_p.add_argument("--fault-seed", type=int, default=0)
    serve_p.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="append snapshot/alert events as JSONL (read with `repro tail`)",
    )
    serve_p.add_argument(
        "--verify-batch",
        action="store_true",
        help="exit 1 unless final estimates are bit-identical to the batch "
        "estimator fed the same records",
    )

    tail_p = sub.add_parser(
        "tail", help="pretty-print (and follow) a serve --events log"
    )
    tail_p.add_argument("--events", metavar="PATH", required=True)
    tail_p.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for new events until a final snapshot arrives",
    )
    tail_p.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="polling interval in seconds for --follow",
    )
    return parser


def _dump_sanitizer_fingerprint() -> None:
    """Write the process-global sanitizer's fingerprint if requested.

    With ``REPRO_SANITIZE=1`` the whole CLI run is traced (activation
    happens at import, see :mod:`repro.sanitize.hooks`); setting
    ``REPRO_SANITIZE_OUT=/path/fp.json`` saves the trace for offline
    diffing with ``python -m repro.sanitize diff``.
    """
    sanitizer = _sanitize_hooks.ACTIVE
    out = os.environ.get("REPRO_SANITIZE_OUT")
    if sanitizer is None or not out:
        return
    sanitizer.fingerprint().save(out)
    print(f"sanitizer fingerprint written to {out}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _sanitize_hooks.activate_from_env()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            return _cmd_list_scenarios(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "tail":
            return _cmd_tail(args)
    finally:
        _dump_sanitizer_fingerprint()
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover

"""End-to-end benchmark: F7 at 200 nodes (event engine) and 5k nodes
(array engine), and `repro serve` replays into durable sink state, with
and without shard crashes.

Run from the repository root::

    python3 perfbench/run.py --workload f7_200 --seed 107 --seconds 30 --trace 0
    python3 perfbench/run.py --workload f7_5k --seed 211  # the held-back input
    python3 perfbench/run.py --workload all        # every workload, one process each
    python3 perfbench/run.py --workload serve --trace 1   # per-layer metrics
    python3 perfbench/run.py --record              # re-record reference.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional

# Single-threaded by construction: BLAS may not start worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: (metric, unit) reported by every ``--trace 0`` run (BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mae", "loss"),
)

#: Reported by the workloads they are defined for, not gated: undefined on
#: some workload, 0 on a healthy run, or a fixed count over ``run_s``.
EXTRA_METRICS = (
    ("bits_per_packet", "bits"),
    ("records_per_s", "1/s"),
    ("record_latency_p50_ms", "ms"),
    ("record_latency_p999_ms", "ms"),
    ("failed_share", "fraction"),
    ("yardstick_unit_ms", "ms"),
)

#: Per-layer counts read from the traced pass's end state.
END_STATE_COUNTS = (
    "net.sim.events",
    "net.routing.parent_changes",
    "net.simulation.packets",
    "net.simulation.delivered",
    "net.simulation.hops",
    "net.simulation.drops.retries",
    "net.simulation.drops.ttl",
    "net.simulation.drops.no_route",
    "net.simulation.drops.queue_overflow",
    "net.simulation.drops.node_failed",
    "stream.sink.rounds",
    "stream.sink.snapshots",
    "stream.queue.high_water",
    "stream.queue.blocked",
)

UNIT_OF_COUNT = {"core.annotation.bits": "bits", "stream.storage.bytes_written": "bytes"}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=107)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="re-record reference.json and exit"
    )
    parser.add_argument("--make-trace", nargs=2, metavar=("SEED", "PATH"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _input_runner(workload: Any, reference: Dict[str, Any], seed: int) -> Callable[..., Any]:
    """``run(tracer)``: one pass over the input ``seed`` of ``workload``."""
    import bench

    ref = reference.get(workload.name, {}).get(str(seed))
    if isinstance(workload, bench.F7Workload):

        def run_f7(tracer: Any) -> Any:
            traced = tracer.installed() if tracer is not None else nullcontext()
            return bench.run_f7(workload, seed, ref, traced)

        return run_f7

    state_dir = bench.OUT_DIR / f"state-{os.getpid()}"
    # Generated before timing; reused only while its hash matches.
    expected = reference.get("traces", {}).get(str(seed))
    path = bench.ensure_trace(seed, expected, HERE / "run.py")
    actual = bench.file_sha256(path)
    trace_problems: List[str] = []
    if actual != expected:
        trace_problems.append(f"trace sha256 {actual} != reference {expected}")

    def run_serve(tracer: Any) -> Any:
        traced = tracer.installed() if tracer is not None else nullcontext()
        result = bench.run_serve(workload, seed, ref, traced, path, state_dir)
        result.problems.extend(trace_problems)
        return result

    return run_serve


def _measure(run_input: Callable[..., Any], seconds: float) -> List[Any]:
    """Whole passes over the input until ``seconds`` would be exceeded,
    each with the host's speed sampled while it ran."""
    import yardstick

    passes: List[Any] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        with yardstick.YARDSTICK.sampling() as samples:
            run = run_input(None)
        if samples:
            run.unit_s = statistics.fmean(samples)
        passes.append(run)
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return passes


def _per_layer(workload: Any, tracer: Any, traced: Any, untraced: Any) -> Dict[str, float]:
    import bench
    import tracing

    out: Dict[str, float] = dict(tracing.layer_times(tracer))
    for name in tracing.WRAPPER_COUNTS:
        out[name] = tracer.counts.get(name, 0)
    for name in END_STATE_COUNTS:
        out[name] = traced.counts.get(name, 0)
    out["trace.overhead_s"] = (
        bench.run_metrics(workload, [traced])["total_s"]
        - bench.run_metrics(workload, [untraced])["total_s"]
    )
    return out


def per_layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric a traced run reports."""
    import tracing

    units = {name: "s" for name in tracing.SELF_TIME_METRICS}
    units.update({name: "s" for name in tracing.INCLUSIVE_TIME_METRICS})
    for name in tracing.WRAPPER_COUNTS + END_STATE_COUNTS:
        units[name] = UNIT_OF_COUNT.get(name, "count")
    units["trace.overhead_s"] = "s"
    return units


def run_workload(args: argparse.Namespace) -> int:
    import bench

    workload = bench.WORKLOADS[args.workload]
    reference = bench.load_reference()
    seed = bench.input_seed(workload, args.seed, reference)
    run_input = _input_runner(workload, reference, seed)
    problems: List[str] = []
    try:
        if args.trace:
            import tracing

            untraced = run_input(None)
            tracer = tracing.Tracer()
            traced = run_input(tracer)
            if untraced.fingerprint != traced.fingerprint:
                problems.append("traced outputs differ from untraced")
            values = _per_layer(workload, tracer, traced, untraced)
            units = per_layer_units()
            spans = bench.OUT_DIR / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            tracer.write(spans / f"{workload.name}-input{seed}.npz")
            passes = [untraced, traced]
            shown = values
        else:
            passes = _measure(run_input, args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            shown = bench.run_metrics(workload, passes, peak_mb)
            units = dict(END_TO_END + EXTRA_METRICS)
            values = {name: shown[name] for name, _ in END_TO_END}
    finally:
        shutil.rmtree(bench.OUT_DIR / f"state-{os.getpid()}", ignore_errors=True)

    for run in passes:
        problems.extend(run.problems)
    attempted = sum(r.attempted for r in passes)
    failed = attempted if problems else sum(r.failed for r in passes)

    fallback = "" if seed == args.seed else f" (seed {args.seed} is not recorded)"
    print(f"{workload.name}: input seed {seed}{fallback}, {len(passes)} pass(es), "
          f"trace={args.trace}")
    for name, value in shown.items():
        print(f"  {name:40s} {value:14.6g} {units.get(name, '')}")
    for msg in problems:
        print(f"CHECK FAILED {workload.name} seed {seed}: {msg}", file=sys.stderr)

    results = bench.OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "input_seed": seed,
        "trace": args.trace,
        "metrics": shown,
        "problems": problems,
        "passes": [
            {"setup_s": r.setup_s, "run_s": r.run_s, "report_s": r.report_s,
             "yardstick_unit_s": r.unit_s, "fingerprint": r.fingerprint}
            for r in passes
        ],
    }
    out = results / f"{workload.name}-input{seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    line = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(line))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another."""
    import bench

    worst = 0
    for name in bench.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def record(args: argparse.Namespace) -> int:
    """Re-record the reference outputs of ``SEED`` and ``HOLDOUT`` (one untimed run each)."""
    import bench

    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    reference = {} if args.workload == "all" else bench.load_reference()
    traces = reference.setdefault("traces", {})
    made = set()
    for name in names:
        workload = dataclasses.replace(bench.WORKLOADS[name], setups=1)
        fingerprints = reference[name] = {}
        for seed in (bench.SEED, bench.HOLDOUT):
            if isinstance(workload, bench.F7Workload):
                run = bench.run_f7(workload, seed, None, nullcontext())
            else:
                path = bench.trace_path(seed)
                if seed not in made:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    bench.make_trace(seed, path)
                    traces[str(seed)] = bench.file_sha256(path)
                    made.add(seed)
                state_dir = bench.OUT_DIR / f"state-{os.getpid()}"
                run = bench.run_serve(workload, seed, None, nullcontext(), path, state_dir)
            fingerprints[str(seed)] = run.fingerprint
            print(f"{name} seed {seed}: {run.fingerprint}", flush=True)
    bench.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    if args.make_trace:
        bench.make_trace(int(args.make_trace[0]), pathlib.Path(args.make_trace[1]))
        return 0
    if args.record:
        return record(args)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {list(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

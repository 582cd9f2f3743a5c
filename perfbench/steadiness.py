"""Repeat the benchmark with different seeds and report each metric's spread.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/evidence/steadiness.json

Each run is a separate ``run.py`` process (``--trace 0``). For every
end-to-end metric the report gives the ten values, their median and the
quartile spread ``(Q3 - Q1) / median`` from ``statistics.quantiles(n=4)``,
next to the metric's bound in BENCHMARK.json, plus the facts about the
host that the spread depends on. ``unscaled`` gives the same for each
run's median CPU seconds before scaling to the reference host speed, and
for the yardstick's unit time, to show what the scaling removed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import yardstick

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem_of(path: pathlib.Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, fstype = "", "unknown"
    try:
        mounts = pathlib.Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and target.startswith(parts[1]) and len(parts[1]) > len(best):
            best, fstype = parts[1], parts[2]
    return fstype


def host_facts() -> Dict[str, Any]:
    import numpy

    state_fs = _filesystem_of(HERE)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": "1 (run.py sets OPENBLAS/OMP/MKL_NUM_THREADS=1)",
        "serve_state_filesystem": state_fs,
        "serve_state_note": (
            "sink state lives under perfbench/out inside the checkout; tmpfs was not "
            "used because the benchmark may only write inside its checkout"
            if state_fs != "tmpfs"
            else "sink state on tmpfs"
        ),
    }


#: What an earlier design of this benchmark measured when it was refused
#: as too noisy; the design in README.md answers each cause.
REFUSED_DESIGN = {
    "design": "one timed run per seed, the seed feeding the simulator, wall-clock "
    "times, serve state on the VM disk",
    "gaps_between_two_sets_of_identical_runs": {
        "serve/run_s medians": [9.89, 9.21],
        "f7_5k/setup_s medians": "4% apart",
    },
}


def host_speed_probe(seconds: float = 20.0) -> Dict[str, Any]:
    """CPU time of the yardstick's unit, sampled back to back.

    On a shared host the same unit's CPU time moves between a fast and a
    slow level for seconds at a time; the quantiles show how far apart.
    """
    samples: List[float] = []
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        began = time.process_time()
        yardstick.unit()
        samples.append(1e3 * (time.process_time() - began))
    qs = statistics.quantiles(samples, n=20)
    return {
        "samples": len(samples),
        "nominal_unit_ms": 1e3 * yardstick.NOMINAL_UNIT_S,
        "unit_cpu_ms": {"p5": qs[0], "p25": qs[4], "p50": qs[9], "p75": qs[14], "p95": qs[18]},
    }


def _latest_detail(workload: str) -> pathlib.Path:
    """The per-pass detail ``run.py`` just wrote for ``workload``."""
    found = (HERE / "out" / "results").glob(f"{workload}-input*-trace0.json")
    return max(found, key=lambda path: path.stat().st_mtime)


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", help="default: BENCHMARK.json's workloads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument(
        "--against", type=pathlib.Path,
        help="an earlier report: also give each median's change from it, worse = positive",
    )
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report: Dict[str, Any] = {
        "host": host_facts(),
        "host_speed_probe": host_speed_probe(),
        "refused_design": REFUSED_DESIGN,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            began = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - began
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall, "exit": proc.returncode, **line})
            detail = json.loads(_latest_detail(workload).read_text())
            runs[-1]["unscaled"] = {
                "setup_s": statistics.median(s for p in detail["passes"] for s in p["setup_s"]),
                "run_s": statistics.median(p["run_s"] for p in detail["passes"]),
                "yardstick_unit_ms": detail["metrics"]["yardstick_unit_ms"],
            }
            values = {k: round(v["value"], 4) for k, v in line["metrics"].items()}
            print(f"{workload} seed {seed}: {wall:.1f}s wall correct={line['correct']} {values} "
                  f"unscaled {runs[-1]['unscaled']}", flush=True)
        metrics: Dict[str, Any] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            metrics[name] = {
                "values": values,
                "median": median,
                "spread": spread(values),
                "bound": bounds.get(name),
            }
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                change = (median - before["median"]) / before["median"]
                metrics[name]["worse_than_earlier"] = (
                    change if lower_is_better[name] else -change
                )
            print(f"  {name:14s} median {median:12.6g} spread {spread(values):.4f} "
                  f"bound {bounds.get(name)} worse-than-earlier "
                  f"{metrics[name].get('worse_than_earlier', float('nan')):+.4f}")
        unscaled: Dict[str, Any] = {}
        for name in runs[0]["unscaled"]:
            values = [r["unscaled"][name] for r in runs]
            unscaled[name] = {
                "values": values, "median": statistics.median(values), "spread": spread(values)
            }
            print(f"  unscaled {name:17s} median {unscaled[name]['median']:12.6g} "
                  f"spread {unscaled[name]['spread']:.4f}")
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": metrics,
            "unscaled": unscaled,
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared plumbing for the experiment benches.

Every bench regenerates one of the paper's (reconstructed) tables or
figures: it runs the experiment inside the pytest-benchmark fixture,
prints the paper-style rows, and also writes them to
``benchmarks/results/<experiment id>.txt`` so the output survives
pytest's capture. Shape assertions at the end of each bench encode what
must hold for the reproduction to count (DESIGN.md §3).
"""

from __future__ import annotations

import os
import pathlib
import sys
from typing import Any, Callable

from repro.exec import ParallelRunner

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Benches resolve RESULTS_DIR relative to *this file*, never the CWD, so
# they may be launched from anywhere. Materialize it at import time and
# fail with an actionable message if that is impossible (read-only
# checkout, this module imported from a location it was copied out of) —
# better than every bench failing at its final emit() after minutes of
# simulation, or results silently scattering relative to an odd CWD.
try:
    RESULTS_DIR.mkdir(exist_ok=True)
except OSError as exc:
    raise RuntimeError(
        f"cannot create benchmark results dir {RESULTS_DIR} "
        f"(cwd: {pathlib.Path.cwd()}): {exc}. Benches write their tables "
        "relative to benchmarks/_common.py, not the CWD — run them as "
        "`PYTHONPATH=src python -m pytest benchmarks/` from a writable "
        "checkout."
    ) from exc


def exec_runner(default_jobs: int = 1) -> ParallelRunner:
    """Build the execution engine benches share.

    ``REPRO_JOBS`` sets the worker processes (default: ``default_jobs``);
    benches run under pytest, which has no custom flags of its own here.
    Results are byte-identical whatever ``REPRO_JOBS`` is (enforced by
    ``tests/exec/test_determinism.py``), so the shape assertions at the
    end of each bench hold at any parallelism.
    """
    jobs = int(os.environ.get("REPRO_JOBS", str(default_jobs)))
    return ParallelRunner(jobs=jobs)


def exec_footer(runner: ParallelRunner) -> str:
    """One-line execution report appended to a bench's emitted table."""
    return f"[exec jobs={runner.jobs}: {runner.stats.describe()}]"


def emit(experiment_id: str, text: str) -> None:
    """Print a bench's table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{experiment_id}.txt"
    out.write_text(text + "\n")
    # Both streams: stdout is captured per-test, but -s / failed tests show it.
    print(f"\n{text}\n[written to {out}]")
    sys.stdout.flush()


def run_once(benchmark, fn: Callable[[], Any]) -> Any:
    """Run the experiment exactly once under the benchmark fixture.

    These benches measure end-to-end experiment regeneration time, not a
    hot loop — one round is the honest number.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)

"""Parallel execution engine for replicated runs and benchmark sweeps.

:class:`ParallelRunner` shards independent simulation tasks — one
``(scenario, seed)`` replicate each — over a process pool. Determinism
is the design constraint everything else bends around:

* every task carries its *own* seed (derived up-front via
  :func:`repro.utils.rng.spawn_seeds`), so a replicate's random streams
  never depend on which worker ran it or in what order;
* workers execute exactly the same function the serial path executes,
  so ``jobs=N`` output is byte-identical to ``jobs=1`` (enforced by
  ``tests/exec/test_determinism.py``);
* results are collected positionally, so aggregation order matches the
  serial loop regardless of completion order.

Each task is one pool submission, with at most ``jobs`` in flight. A
worker that dies (OOM killer, segfaulting native code) breaks the pool,
which is rebuilt and the tasks that were in flight re-enqueued, each at
most :data:`MAX_RETRIES` times. Exceptions *raised by the task itself*
are never retried — a deterministic failure would only fail identically
again, and hiding it behind retries would mask real bugs.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # avoid a circular import; workers import lazily
    from repro.workloads.runner import ApproachSpec, ComparisonRow
    from repro.workloads.scenarios import Scenario

__all__ = [
    "ComparisonTask",
    "ComparisonTaskResult",
    "RunSummary",
    "ExecutionStats",
    "ExecutionError",
    "ParallelRunner",
]

#: How many times a task may be re-enqueued after a worker crash before
#: :class:`ExecutionError` is raised.
MAX_RETRIES = 2


class ExecutionError(RuntimeError):
    """A task raised, or its worker crashed more often than the retry budget."""


@dataclass(frozen=True)
class ComparisonTask:
    """One self-contained ``run_comparison`` unit of work.

    Everything a worker needs is in here and picklable; the scenario and
    approach specs must therefore be built from module-level callables
    (see ``tests/workloads/test_dispatchable.py``).
    """

    scenario: "Scenario"
    approaches: Tuple["ApproachSpec", ...]
    seed: int
    min_support: int = 0
    truth_kind: str = "empirical"


@dataclass(frozen=True)
class RunSummary:
    """Small, picklable digest of a SimulationResult (the full result —
    packets, channel, routing state — never crosses the process boundary)."""

    delivery_ratio: float
    churn_rate: float
    packets_generated: int
    packets_delivered: int
    mean_hop_count: float


@dataclass(frozen=True)
class ComparisonTaskResult:
    """What one replicate sends back to the coordinating process."""

    rows: Dict[str, "ComparisonRow"]
    summary: RunSummary


@dataclass
class ExecutionStats:
    """What one engine invocation did (exposed as ``runner.stats``)."""

    tasks: int = 0
    retries: int = 0
    wall_seconds: float = 0.0

    def describe(self) -> str:
        parts = [f"tasks={self.tasks}"]
        if self.retries:
            parts.append(f"retries={self.retries}")
        parts.append(f"wall={self.wall_seconds:.2f}s")
        return ", ".join(parts)


def _execute_comparison_task(task: ComparisonTask) -> ComparisonTaskResult:
    """Run one replicate — the *same* code path serial execution uses."""
    from repro.workloads.runner import run_comparison

    rows, result = run_comparison(
        task.scenario,
        list(task.approaches),
        seed=task.seed,
        min_support=task.min_support,
        truth_kind=task.truth_kind,
    )
    delivered = result.delivered_packets
    mean_hops = (
        sum(p.hop_count for p in delivered) / len(delivered) if delivered else 0.0
    )
    summary = RunSummary(
        delivery_ratio=result.delivery_ratio,
        churn_rate=result.churn_rate,
        packets_generated=result.ground_truth.packets_generated,
        packets_delivered=len(delivered),
        mean_hop_count=mean_hops,
    )
    return ComparisonTaskResult(rows=rows, summary=summary)


class ParallelRunner:
    """Process-pool executor for independent simulation tasks.

    ``jobs`` is the number of worker processes. ``1`` (the default) runs
    everything in-process — no pool, no pickling — which is also the
    reference output the determinism suite compares parallel runs
    against.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.stats = ExecutionStats()

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply a picklable module-level ``fn`` to every item, in order.

        Results come back positionally, whatever the completion order.
        """
        # Host-clock reads below only feed ExecutionStats; results are
        # collected positionally, so timing never changes output.
        t0 = time.monotonic()  # reprolint: disable=RPL002
        self.stats = ExecutionStats(tasks=len(items))
        out = self._dispatch(fn, list(items))
        self.stats.wall_seconds = time.monotonic() - t0  # reprolint: disable=RPL002
        return out

    def run_comparisons(
        self, tasks: Sequence[ComparisonTask]
    ) -> List[ComparisonTaskResult]:
        """Execute comparison replicates; results come back in task order."""
        return self.map(_execute_comparison_task, tasks)

    def _dispatch(self, fn: Callable[[Any], Any], items: List[Any]) -> List[Any]:
        if self.jobs == 1:
            # The reference path: same function, same order, no pool.
            # (Even a single task goes through the pool when jobs > 1 —
            # crash isolation needs the process boundary.)
            return [fn(item) for item in items]
        results: List[Any] = [None] * len(items)
        attempts = [0] * len(items)
        queue = deque(range(len(items)))

        def requeue(i: int) -> None:
            attempts[i] += 1
            if attempts[i] > MAX_RETRIES:
                raise ExecutionError(
                    f"task {i} failed by crash {attempts[i]} times "
                    f"(retry budget {MAX_RETRIES})"
                )
            self.stats.retries += 1
            queue.append(i)

        active: Dict[Future, int] = {}
        pool: Optional[ProcessPoolExecutor] = None
        try:
            while queue or active:
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=self.jobs)
                # At most `jobs` tasks in flight: a crash then costs only
                # the tasks that were actually running.
                while queue and len(active) < self.jobs:
                    i = queue.popleft()
                    active[pool.submit(fn, items[i])] = i
                done, _ = wait(set(active), return_when=FIRST_COMPLETED)
                broken = False
                for fut in done:
                    i = active.pop(fut)
                    try:
                        results[i] = fut.result()
                    except BrokenProcessPool:
                        requeue(i)
                        broken = True
                    except Exception as exc:
                        raise ExecutionError(
                            f"task {i} raised {type(exc).__name__}: {exc}"
                        ) from exc
                if broken:
                    # The pool is dead: every in-flight task is lost too.
                    # We cannot tell which task killed the worker, so every
                    # casualty's attempt counter advances.
                    for i in active.values():
                        requeue(i)
                    active.clear()
                    pool.shutdown(wait=False)
                    pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        return results

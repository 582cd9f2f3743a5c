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

Dispatch is chunked (``chunksize`` tasks per worker invocation), with a
per-task timeout and crashed-worker retry: a worker that dies (OOM
killer, segfaulting native code) breaks the pool, which is rebuilt and
the affected chunks re-enqueued up to ``max_retries`` times. Exceptions
*raised by the task itself* are never retried — a deterministic failure
would only fail identically again, and hiding it behind retries would
mask real bugs.

When a cache directory is configured, each comparison task is keyed by
``(code version, scenario, approaches, seed, scoring knobs)`` in a
:class:`repro.exec.cache.ResultCache`; re-running a bench only computes
the replicates that are missing, and a fully warm rerun executes zero
simulations (see :attr:`ParallelRunner.stats`).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exec.cache import ResultCache

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

#: Version tag baked into every comparison cache key; bump on layout changes.
_COMPARISON_KEY = "comparison-task/v1"


class ExecutionError(RuntimeError):
    """A task could not be completed (crashes/timeouts beyond the retry budget)."""


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
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    wall_seconds: float = 0.0

    def describe(self) -> str:
        parts = [
            f"tasks={self.tasks}",
            f"cache_hits={self.cache_hits}",
            f"executed={self.executed}",
        ]
        if self.retries:
            parts.append(f"retries={self.retries}")
        if self.timeouts:
            parts.append(f"timeouts={self.timeouts}")
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


def _chunk_worker(fn: Callable[[Any], Any], payloads: Tuple[Any, ...]) -> List[Any]:
    """Executed inside a worker process: run one chunk of tasks in order."""
    return [fn(p) for p in payloads]


@dataclass
class _Chunk:
    indices: Tuple[int, ...]
    payloads: Tuple[Any, ...]
    attempts: int = 0


class ParallelRunner:
    """Process-pool executor for independent simulation tasks.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` (the default) runs everything in-process
        — no pool, no pickling — which is also the reference output the
        determinism suite compares parallel runs against.
    cache_dir:
        Enable the content-addressed result cache at this directory.
    task_timeout:
        Seconds allowed per task (scaled by chunk length). A chunk that
        exceeds it is abandoned (its pool is discarded) and re-enqueued.
        None disables timeouts.
    max_retries:
        How many times a chunk may be re-enqueued after a worker crash
        or timeout before :class:`ExecutionError` is raised.
    chunksize:
        Tasks per worker invocation. The default (1) maximizes load
        balance and gives exact per-task timeout/retry granularity;
        raise it only for very large fleets of very short tasks.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache_dir: Optional[str] = None,
        task_timeout: Optional[float] = None,
        max_retries: int = 2,
        chunksize: int = 1,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be > 0 or None")
        self.jobs = jobs
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.chunksize = chunksize
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        self.stats = ExecutionStats()

    # -- public API -------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply a picklable module-level ``fn`` to every item, in order.

        Results come back positionally, whatever the completion order.
        No caching (use :meth:`run_comparisons` for cached simulation
        tasks).
        """
        # Host-clock reads below only feed ExecutionStats/timeout tracking;
        # results are collected positionally, so timing never changes output.
        t0 = time.monotonic()  # reprolint: disable=RPL002
        self.stats = ExecutionStats(tasks=len(items))
        out = self._dispatch(fn, list(enumerate(items)), self.stats)
        self.stats.wall_seconds = time.monotonic() - t0  # reprolint: disable=RPL002
        return out

    def run_comparisons(
        self, tasks: Sequence[ComparisonTask]
    ) -> List[ComparisonTaskResult]:
        """Execute comparison replicates, consulting/filling the cache."""
        t0 = time.monotonic()  # reprolint: disable=RPL002  (stats only)
        stats = ExecutionStats(tasks=len(tasks))
        self.stats = stats
        results: Dict[int, ComparisonTaskResult] = {}
        keys: Dict[int, str] = {}
        missing: List[int] = []
        for i, task in enumerate(tasks):
            if self.cache is not None:
                key = self.cache.key_for(_COMPARISON_KEY, task)
                keys[i] = key
                hit = self.cache.load(key)
                if hit is not None:
                    results[i] = hit
                    stats.cache_hits += 1
                    continue
            missing.append(i)
        computed = self._dispatch(
            _execute_comparison_task,
            [(i, tasks[i]) for i in missing],
            stats,
        )
        for i, value in zip(missing, computed):
            results[i] = value
            if self.cache is not None:
                self.cache.store(keys[i], value, _COMPARISON_KEY, tasks[i])
        stats.wall_seconds = time.monotonic() - t0  # reprolint: disable=RPL002
        return [results[i] for i in range(len(tasks))]

    # -- dispatch core ----------------------------------------------------------

    def _dispatch(
        self,
        fn: Callable[[Any], Any],
        indexed: List[Tuple[int, Any]],
        stats: ExecutionStats,
    ) -> List[Any]:
        """Run ``fn`` over ``(original_index, payload)`` pairs; return values
        ordered by position in ``indexed``."""
        stats.executed += len(indexed)
        if not indexed:
            return []
        if self.jobs == 1:
            # The reference path: same function, same order, no pool.
            # (Even a single task goes through the pool when jobs > 1 —
            # crash/timeout isolation needs the process boundary.)
            return [fn(payload) for _, payload in indexed]
        by_index: Dict[int, Any] = {}
        chunks = deque(
            _Chunk(
                indices=tuple(i for i, _ in indexed[pos : pos + self.chunksize]),
                payloads=tuple(p for _, p in indexed[pos : pos + self.chunksize]),
            )
            for pos in range(0, len(indexed), self.chunksize)
        )
        active: Dict[Future, _Chunk] = {}
        started: Dict[Future, float] = {}
        pool: Optional[ProcessPoolExecutor] = None
        try:
            while chunks or active:
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=self.jobs)
                # Keep a window of at most `jobs` chunks in flight so a
                # submitted chunk starts (almost) immediately — that makes
                # wall-clock-since-submit an honest per-task timeout.
                while chunks and len(active) < self.jobs:
                    chunk = chunks.popleft()
                    fut = pool.submit(_chunk_worker, fn, chunk.payloads)
                    active[fut] = chunk
                    # reprolint: disable-next-line=RPL002  (timeout tracking)
                    started[fut] = time.monotonic()
                done, _ = wait(
                    set(active),
                    timeout=0.05 if self.task_timeout is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for fut in done:
                    chunk = active.pop(fut)
                    started.pop(fut, None)
                    try:
                        values = fut.result()
                    except BrokenProcessPool:
                        self._requeue(chunk, chunks, stats, reason="crash")
                        broken = True
                    except Exception as exc:
                        raise ExecutionError(
                            f"task {chunk.indices} raised {type(exc).__name__}: {exc}"
                        ) from exc
                    else:
                        for i, value in zip(chunk.indices, values):
                            by_index[i] = value
                if broken:
                    # The pool is dead: every in-flight chunk is lost too.
                    # We cannot tell which task killed the worker, so every
                    # casualty's attempt counter advances.
                    for chunk in active.values():
                        self._requeue(chunk, chunks, stats, reason="crash")
                    active.clear()
                    started.clear()
                    pool.shutdown(wait=False)
                    pool = None
                    continue
                if self.task_timeout is not None:
                    now = time.monotonic()  # reprolint: disable=RPL002
                    limit_exceeded = [
                        fut
                        for fut, chunk in active.items()
                        if now - started[fut]
                        > self.task_timeout * len(chunk.payloads)
                    ]
                    if limit_exceeded:
                        stats.timeouts += len(limit_exceeded)
                        for fut in limit_exceeded:
                            self._requeue(
                                active.pop(fut), chunks, stats, reason="timeout"
                            )
                            started.pop(fut, None)
                        # Hung workers can't be interrupted portably —
                        # abandon the whole pool and resubmit the innocent
                        # in-flight chunks (no attempt penalty for those).
                        for chunk in active.values():
                            chunks.append(chunk)
                        active.clear()
                        started.clear()
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        return [by_index[i] for i, _ in indexed]

    def _requeue(
        self,
        chunk: _Chunk,
        chunks: "deque[_Chunk]",
        stats: ExecutionStats,
        *,
        reason: str,
    ) -> None:
        chunk.attempts += 1
        if chunk.attempts > self.max_retries:
            raise ExecutionError(
                f"task {chunk.indices} failed by {reason} "
                f"{chunk.attempts} times (max_retries={self.max_retries})"
            )
        stats.retries += 1
        chunks.append(chunk)

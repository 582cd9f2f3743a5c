"""Parallel replicated-run engine: process-pool sharding with
determinism guarantees (DESIGN.md §8)."""

from repro.exec.parallel import (
    ComparisonTask,
    ComparisonTaskResult,
    ExecutionError,
    ExecutionStats,
    ParallelRunner,
    RunSummary,
)

__all__ = [
    "ComparisonTask",
    "ComparisonTaskResult",
    "ExecutionError",
    "ExecutionStats",
    "ParallelRunner",
    "RunSummary",
]

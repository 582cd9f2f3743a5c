"""Unit tests of the dispatch machinery itself: ordering,
crashed-worker retry, and error propagation.

Worker payload functions must be module-level (the pool pickles them by
qualified name) — the same rule production tasks live under.
"""

import os
import time

import pytest

from repro.exec import ExecutionError, ParallelRunner
from repro.exec.parallel import MAX_RETRIES


def _double(x):
    return 2 * x


def _sleep_then_double(item):
    delay, x = item
    time.sleep(delay)
    return 2 * x


def _crash_once_then_return(item):
    """Kill the worker process on the first attempt; succeed after.

    The flag file records that the first attempt happened, so the retry
    (in a fresh worker) takes the success path.
    """
    flag, x = item
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("crashed")
        os._exit(13)  # simulates a segfault/OOM kill: no exception, no cleanup
    return 2 * x


def _raise_value_error(x):
    raise ValueError(f"deterministic failure on {x}")


class TestMapBasics:
    def test_serial_and_parallel_agree_in_order(self):
        items = list(range(8))
        serial = ParallelRunner(jobs=1).map(_double, items)
        parallel = ParallelRunner(jobs=3).map(_double, items)
        assert serial == parallel == [2 * x for x in items]

    def test_order_independent_of_completion_time(self):
        # First item is the slowest; results must still come back in
        # submission order.
        items = [(0.3, 1), (0.0, 2), (0.1, 3), (0.0, 4)]
        out = ParallelRunner(jobs=4).map(_sleep_then_double, items)
        assert out == [2, 4, 6, 8]

    def test_empty_input(self):
        assert ParallelRunner(jobs=2).map(_double, []) == []

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)


class TestCrashRecovery:
    def test_crashed_worker_is_retried(self, tmp_path):
        flag = str(tmp_path / "crash.flag")
        runner = ParallelRunner(jobs=2)
        out = runner.map(_crash_once_then_return, [(flag, 5), (flag, 6)])
        assert out == [10, 12]
        assert runner.stats.retries >= 1

    def test_crash_beyond_retry_budget_raises(self, tmp_path):
        # The payload never creates its flag under a bogus path, so the
        # worker dies on every attempt.
        missing_dir_flag = str(tmp_path / "no" / "such" / "dir" / "f.flag")
        runner = ParallelRunner(jobs=2)
        with pytest.raises(ExecutionError, match="crash"):
            runner.map(_crash_always, [(missing_dir_flag, 1)])
        assert runner.stats.retries == MAX_RETRIES


def _crash_always(item):
    os._exit(13)


class TestErrorPropagation:
    def test_task_exception_is_not_retried(self):
        runner = ParallelRunner(jobs=2)
        with pytest.raises(ExecutionError, match="ValueError"):
            runner.map(_raise_value_error, [1, 2])
        assert runner.stats.retries == 0

    def test_serial_task_exception(self):
        runner = ParallelRunner(jobs=1)
        with pytest.raises(ValueError):
            runner.map(_raise_value_error, [1])


class TestStats:
    def test_stats_reset_per_call(self):
        runner = ParallelRunner(jobs=1)
        runner.map(_double, [1, 2, 3])
        assert runner.stats.tasks == 3
        runner.map(_double, [1])
        assert runner.stats.tasks == 1

    def test_describe_mentions_core_counters(self):
        runner = ParallelRunner(jobs=1)
        runner.map(_double, [1])
        text = runner.stats.describe()
        assert "tasks=1" in text

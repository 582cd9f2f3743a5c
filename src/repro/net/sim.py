"""Discrete-event simulation core.

:class:`Simulator` owns the clock and the event queue. Components
schedule callbacks with :meth:`Simulator.at` / :meth:`Simulator.after`,
and the driver advances the simulation with :meth:`run_until` /
:meth:`run`. Time is in seconds (float); the clock never moves backwards.

The queue is pluggable: the default is the reference
:class:`~repro.net.events.EventQueue` heap; the array engine passes a
:class:`~repro.net.events.CalendarQueue` wheel. Both obey the same
``(time, insertion)`` ordering contract, so the choice never changes
which event fires next — only how much the queue costs.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from repro.net.events import CalendarQueue, EventQueue
from repro.sanitize import hooks as _sanitize_hooks

__all__ = ["Simulator"]

#: Queue implementations the simulator accepts.
QueueLike = Union[EventQueue, CalendarQueue]


class Simulator:
    """Event-driven simulation clock and scheduler."""

    def __init__(self, queue: Optional[QueueLike] = None) -> None:
        self._queue: QueueLike = queue if queue is not None else EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        # Cached at construction so the hot loop pays one None test per
        # pop only while a sanitizer is tracing this run.
        self._san = _sanitize_hooks.ACTIVE

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events popped and fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    # -- scheduling -------------------------------------------------------------

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: t={time} < now={self._now}"
            )
        self._queue.push(time, callback, *args)

    def after(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._queue.push(self._now + delay, callback, *args)

    def every(
        self,
        period: float,
        callback: Callable[[], Any],
        *,
        start: Optional[float] = None,
        jitter: Callable[[], float] = lambda: 0.0,
    ) -> None:
        """Schedule ``callback`` periodically (self-rescheduling chain).

        ``jitter()`` is sampled for each firing and added to the period.
        The chain runs until the simulation stops popping events.
        """
        if period <= 0:
            raise ValueError("period must be > 0")

        def fire() -> None:
            callback()
            self.after(max(1e-9, period + jitter()), fire)

        first = self._now + (start if start is not None else period)
        self.at(max(self._now, first), fire)

    # -- execution -------------------------------------------------------------

    def step(self) -> bool:
        """Process the single earliest event; return False if none remain."""
        entry = self._queue.pop()
        if entry is None:
            return False
        time, seq, callback, args = entry
        if self._san is not None:
            self._san.record_pop(time, seq)
        self._now = time
        self._events_processed += 1
        callback(*args)
        return True

    def run_until(self, end_time: float) -> None:
        """Process events with timestamp <= ``end_time``; clock ends at ``end_time``."""
        if end_time < self._now:
            raise ValueError("end_time is in the past")
        self._running = True
        try:
            while self._running:
                next_time = self._queue.peek_time()
                if next_time is None or next_time > end_time:
                    break
                self.step()
        finally:
            self._running = False
        self._now = max(self._now, end_time)

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue (optionally at most ``max_events``); return count processed."""
        processed = 0
        self._running = True
        try:
            while self._running and (max_events is None or processed < max_events):
                if not self.step():
                    break
                processed += 1
        finally:
            self._running = False
        return processed

    def stop(self) -> None:
        """Request that the current run/run_until loop exit after this event."""
        self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self._now:.3f}, pending={len(self._queue)})"

"""Event queues for the discrete-event simulator.

Two implementations share one contract:

* :class:`EventQueue` — a single binary heap of entries (the original
  engine's queue, kept as the reference implementation);
* :class:`CalendarQueue` — a bucketed event wheel: pending events are
  partitioned into fixed-width time buckets, future buckets are plain
  append-only lists, and only the bucket currently being drained is kept
  heap-ordered. Pushing into the future is O(1) and the per-event heap
  comparisons shrink from the whole queue to one bucket, which is what
  makes the array simulation kernel's event loop cheap.

An entry is the tuple ``(time, seq, callback, args)``: ``pop`` returns
it and the simulator calls ``callback(*args)``. Scheduling ``(fn, args)``
instead of a closure keeps the hot path free of per-event lambda
allocations, and a plain tuple is the cheapest entry to build and
compare.

**Ordering contract (pinned by tests/net/test_calendar_queue.py):**
events pop in ``(time, seq)`` order, where ``seq`` is a strictly
increasing insertion counter. In particular, events scheduled at *equal*
float timestamps fire in schedule order — never in heap-internal or
bucket-internal order. This matters because simulation times are floats:
``a.after(d1)`` and ``b.after(d2)`` can land on the bit-identical
timestamp (e.g. a MAC exchange end and the forwarding of the packet it
released when ``forward_delay == 0``), and the simulator's determinism
guarantee requires that such ties resolve identically on every engine,
platform and run. ``seq`` is unique, so tuple comparison never reaches
the callback.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EventQueue", "CalendarQueue"]

#: One queue entry: ``(time, seq, callback, args)``.
Entry = Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]


class EventQueue:
    """Min-heap of entries ordered by (time, insertion)."""

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._heap: List[Entry] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at ``time``."""
        if not callable(callback):
            raise TypeError("callback must be callable")
        heapq.heappush(self._heap, (float(time), next(self._counter), callback, args))

    def pop(self) -> Optional[Entry]:
        """Remove and return the earliest entry, or None if empty."""
        return heapq.heappop(self._heap) if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest entry without removing it."""
        return self._heap[0][0] if self._heap else None


class CalendarQueue:
    """Bucketed event wheel with the same ordering contract as :class:`EventQueue`.

    Pending events live in fixed-width time buckets (``bucket_width``
    seconds each). The earliest bucket is drained as a small heap of
    entries; later buckets are unsorted lists that are heapified only
    when the wheel reaches them. A side heap of bucket indices finds the
    next non-empty bucket in O(log buckets).

    Pushes may arrive in any time order (the wheel is a general priority
    queue, not just a forward-only scheduler): an entry at or before the
    bucket currently being drained joins that bucket's heap, which keeps
    the global ``(time, seq)`` pop order exact. Bucket assignment uses
    float floor division; because IEEE division is monotone, an entry can
    never land in a *later* bucket than an entry with a greater
    timestamp, so boundary rounding cannot reorder events.
    """

    def __init__(self, bucket_width: float = 0.01) -> None:
        if not bucket_width > 0.0 or not math.isfinite(bucket_width):
            raise ValueError("bucket_width must be a positive finite float")
        self._counter = itertools.count()
        self._width = float(bucket_width)
        self._current: List[Entry] = []  # heap of the bucket being drained
        self._current_idx: Optional[int] = None
        self._future: Dict[int, List[Entry]] = {}  # idx -> non-empty unsorted entries
        self._bucket_heap: List[int] = []  # indices of buckets in _future

    def __len__(self) -> int:
        return len(self._current) + sum(map(len, self._future.values()))

    def __bool__(self) -> bool:
        return bool(self._current or self._future)

    def push(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at ``time``."""
        if not callable(callback):
            raise TypeError("callback must be callable")
        time = float(time)
        entry: Entry = (time, next(self._counter), callback, args)
        idx = int(time // self._width)
        if self._current_idx is None or idx <= self._current_idx:
            # First event ever, or an event at/before the wheel position:
            # it belongs to the bucket being drained right now.
            if self._current_idx is None:
                self._current_idx = idx
            heapq.heappush(self._current, entry)
        else:
            bucket = self._future.get(idx)
            if bucket is None:
                self._future[idx] = [entry]
                heapq.heappush(self._bucket_heap, idx)
            else:
                bucket.append(entry)

    def _advance(self) -> None:
        """Promote the next non-empty future bucket into the current heap."""
        while not self._current and self._bucket_heap:
            idx = heapq.heappop(self._bucket_heap)
            bucket = self._future.pop(idx, None)
            if bucket:
                heapq.heapify(bucket)
                self._current = bucket
                self._current_idx = idx

    def pop(self) -> Optional[Entry]:
        """Remove and return the earliest entry, or None if empty."""
        if not self._current:
            self._advance()
            if not self._current:
                return None
        return heapq.heappop(self._current)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest entry without removing it."""
        if not self._current:
            self._advance()
            if not self._current:
                return None
        return self._current[0][0]

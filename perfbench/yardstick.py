"""The host-speed yardstick: time a fixed unit of work while a workload runs.

On a shared VM the same code's CPU time moves with the host: between a
fast and a slow level every few seconds, with the share of slow time
drifting over minutes, so two runs minutes apart differ by 20-30% (see
README.md, Steadiness). While a pass is measured, a ``SIGALRM`` handler
times one fixed pure-Python unit every ``PERIOD_S`` of wall time. The
mean unit time over the pass says how fast the host ran during it, and
the pass's times are scaled by ``NOMINAL_UNIT_S / mean``: to what they
would be on a host running the unit in ``NOMINAL_UNIT_S``.

The unit is benchmark code, which a change to the program does not touch.
The samples' own CPU time is left out of the workload's times (``spent``).
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from typing import Any, Iterator, List

#: CPU time of one unit at the reference speed: about its mean inside a
#: workload on a 2-core Xeon VM, so scaled times stay near real seconds.
NOMINAL_UNIT_S = 1.4e-3

#: Wall time between samples: ~0.7% of the CPU goes to the yardstick.
PERIOD_S = 0.2


def unit() -> int:
    """A fixed pure-Python unit of work (~1.4 ms): integer arithmetic and a small dict."""
    acc, table = 0, {}
    for i in range(8_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return acc


class Yardstick:
    """Samples the unit's CPU time every ``PERIOD_S`` while ``sampling()`` is active."""

    def __init__(self) -> None:
        #: CPU seconds every sample so far took (the workload clock subtracts it).
        self.spent = 0.0

    def _sample(self, samples: List[float]) -> None:
        # No collection inside a sample: it would time the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        began = time.process_time()
        unit()
        took = time.process_time() - began
        if enabled:
            gc.enable()
        samples.append(took)
        self.spent += took

    @contextmanager
    def sampling(self) -> Iterator[List[float]]:
        """Sample while the block runs; yields the list the samples go to."""
        samples: List[float] = []

        def handler(signum: int, frame: Any) -> None:
            self._sample(samples)

        previous = signal.signal(signal.SIGALRM, handler)
        # A wall-clock timer: with a process CPU timer (ITIMER_PROF) armed,
        # process_time() on this host advanced in 4 ms steps.
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)


YARDSTICK = Yardstick()


def clock() -> float:
    """Process CPU seconds, less the time the yardstick's samples took."""
    return time.process_time() - YARDSTICK.spent

"""Node failure/recovery schedules (extension).

Dynamic WSNs are dynamic for more reasons than ETX noise: nodes crash,
brown out, and rejoin. A :class:`FailurePlan` is a validated list of
timed fail/recover events the simulation replays; while a node is down
it generates no traffic, receives no frames (its radio is off), and is
excluded from parent selection, so routes around it re-form — a burst of
genuine topology churn that invalidates classical tomography's snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set

import numpy as np

from repro.net.topology import Topology
from repro.utils.validation import check_positive

__all__ = ["FailureEvent", "FailurePlan", "random_failure_plan"]


@dataclass(frozen=True)
class FailureEvent:
    """One state change: ``kind`` is ``"fail"`` or ``"recover"``."""

    time: float
    node: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "recover"):
            raise ValueError("kind must be 'fail' or 'recover'")
        if self.time < 0:
            raise ValueError("time must be >= 0")


class FailurePlan:
    """Time-ordered, consistency-checked failure schedule."""

    def __init__(self, events: Iterable[FailureEvent], *, sink: int):
        ordered = sorted(events, key=lambda e: (e.time, e.node))
        down: Set[int] = set()
        for event in ordered:
            if event.node == sink:
                raise ValueError("the sink cannot fail (it hosts the decoder)")
            if event.kind == "fail":
                if event.node in down:
                    raise ValueError(
                        f"node {event.node} fails twice without recovering"
                    )
                down.add(event.node)
            else:
                if event.node not in down:
                    raise ValueError(
                        f"node {event.node} recovers while already up"
                    )
                down.discard(event.node)
        self.events: List[FailureEvent] = ordered

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def nodes_involved(self) -> Set[int]:
        return {e.node for e in self.events}


def random_failure_plan(
    topology: Topology,
    rng: np.random.Generator,
    *,
    num_failures: int,
    duration: float,
    mean_downtime: float,
    settle_time: float = 20.0,
) -> FailurePlan:
    """Draw ``num_failures`` independent fail→recover episodes.

    Failure times are uniform in [settle_time, duration]; downtimes are
    exponential with the given mean (clipped to end within 2x duration).
    A node may fail repeatedly, but episodes never overlap per node.
    """
    check_positive(duration, "duration")
    check_positive(mean_downtime, "mean_downtime")
    if num_failures < 0:
        raise ValueError("num_failures must be >= 0")
    candidates = [n for n in topology.nodes if n != topology.sink]
    if not candidates:
        raise ValueError("no failable nodes")
    events: List[FailureEvent] = []
    busy_until = {n: 0.0 for n in candidates}
    attempts = 0
    made = 0
    while made < num_failures and attempts < num_failures * 20:
        attempts += 1
        node = int(rng.choice(candidates))
        start = float(rng.uniform(settle_time, duration))
        if start < busy_until[node]:
            continue
        downtime = float(rng.exponential(mean_downtime))
        end = min(start + max(downtime, 1.0), 2.0 * duration)
        events.append(FailureEvent(start, node, "fail"))
        events.append(FailureEvent(end, node, "recover"))
        busy_until[node] = end
        made += 1
    return FailurePlan(events, sink=topology.sink)

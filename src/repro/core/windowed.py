"""Sliding-window loss estimation for non-stationary links (extension).

The batch :class:`~repro.core.estimator.PerLinkEstimator` pools all
evidence, which is optimal for stationary links but smears over drift.
:class:`SlidingLinkEstimator` keeps per-link evidence time-stamped and
answers "what was this link's loss *around time t*" using only the
observations in a trailing window — turning Dophy's per-packet evidence
into a link-quality *time series* (fine-grained in time as well as in
space).

Each link keeps its observations sorted by time (a late arrival is
inserted at its place with :mod:`bisect`). A query at ``now`` sums the
observations in ``(now - window, now]`` into a
:class:`~repro.core.estimator.SuffStats` and solves it with
:func:`~repro.core.estimator.solve_batch`, so it costs O(observations in
the window) whatever order the queries come in.

Attach it to a running :class:`~repro.core.dophy.DophySystem` via
``dophy.add_decode_listener(sliding.add_decoded)``.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.decoder import DecodedAnnotation
from repro.core.estimator import LinkEstimate, SuffStats, solve_batch
from repro.utils.validation import check_positive

__all__ = ["SlidingLinkEstimator"]

Link = Tuple[int, int]

#: An exact retransmission count, or a censored observation's
#: attempt-space interval ``(lo, hi)`` (inclusive, 1-based attempts).
_Observation = Union[int, Tuple[int, int]]


class SlidingLinkEstimator:
    """Time-windowed per-link loss MLE over Dophy's decoded evidence."""

    def __init__(
        self,
        max_attempts: int,
        window: float,
        *,
        truncation_correction: bool = True,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        check_positive(window, "window")
        self.max_attempts = max_attempts
        self.window = window
        self.truncation_correction = truncation_correction
        #: Per link: observation times, ascending, and the observations
        #: in the same order.
        self._times: Dict[Link, List[float]] = {}
        self._obs: Dict[Link, List[_Observation]] = {}

    # -- feeding ---------------------------------------------------------------------

    def _insert(self, link: Link, obs: _Observation, time: float) -> None:
        times = self._times.setdefault(link, [])
        idx = bisect.bisect_right(times, time)
        times.insert(idx, time)
        self._obs.setdefault(link, []).insert(idx, obs)

    def add_exact(self, link: Link, retx_count: int, time: float) -> None:
        if not 0 <= retx_count <= self.max_attempts - 1:
            raise ValueError(f"retx_count {retx_count} out of range")
        self._insert(link, retx_count, time)

    def add_censored(
        self, link: Link, retx_lo: int, retx_hi: int, time: float
    ) -> None:
        if not 0 <= retx_lo <= retx_hi <= self.max_attempts - 1:
            raise ValueError(f"censored bounds [{retx_lo}, {retx_hi}] invalid")
        self._insert(link, (retx_lo + 1, retx_hi + 1), time)

    def add_decoded(self, decoded: DecodedAnnotation, time: float) -> None:
        """Listener-compatible hook: feed every hop of one annotation.

        Censored bounds are clamped into range (matching
        :meth:`PerLinkEstimator.add_hops`) so one out-of-range hop cannot
        raise mid-feed and drop the rest of the annotation's hops.
        """
        for hop in decoded.hops:
            if hop.exact:
                self.add_exact(hop.link, hop.exact_count(), time)
            else:
                lo, hi = hop.retx_bounds
                hi = max(0, min(hi, self.max_attempts - 1))
                lo = max(0, min(lo, hi))
                self.add_censored(hop.link, lo, hi, time)

    # -- queries ----------------------------------------------------------------------

    def _span(self, link: Link, now: float) -> Tuple[int, int]:
        """Index range of ``link``'s observations in (now - window, now]."""
        times = self._times.get(link, [])
        return (
            bisect.bisect_right(times, now - self.window),
            bisect.bisect_right(times, now),
        )

    def _window_suff(self, link: Link, now: float) -> Optional[SuffStats]:
        lo, hi = self._span(link, now)
        if lo == hi:
            return None
        n_exact = sum_retx = 0
        censored: Dict[Tuple[int, int], int] = {}
        for obs in self._obs[link][lo:hi]:
            if isinstance(obs, tuple):
                censored[obs] = censored.get(obs, 0) + 1
            else:
                n_exact += 1
                sum_retx += obs
        return SuffStats(link, n_exact, sum_retx, censored)

    def n_samples(self, link: Link, now: float) -> int:
        """Observations within (now - window, now]."""
        lo, hi = self._span(link, now)
        return hi - lo

    def estimate(self, link: Link, now: float) -> Optional[LinkEstimate]:
        """MLE over the trailing window ending at ``now``."""
        suff = self._window_suff(link, now)
        if suff is None:
            return None
        return solve_batch(
            [suff],
            self.max_attempts,
            truncation_correction=self.truncation_correction,
        )[0]

    def estimates(self, now: float) -> Dict[Link, LinkEstimate]:
        """Window estimates for every link with current evidence —
        one vectorized batch solve across all links."""
        stats = [self._window_suff(link, now) for link in self.links()]
        results = solve_batch(
            [s for s in stats if s is not None],
            self.max_attempts,
            truncation_correction=self.truncation_correction,
        )
        return {est.link: est for est in results if est is not None}

    def timeline(
        self, link: Link, times: Sequence[float]
    ) -> List[Tuple[float, Optional[float]]]:
        """(time, windowed loss estimate) at each requested time — the
        link-quality time series a network manager would plot."""
        out: List[Tuple[float, Optional[float]]] = []
        for t in times:
            est = self.estimate(link, t)
            out.append((t, est.loss if est is not None else None))
        return out

    def links(self) -> List[Link]:
        return sorted(self._times.keys())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        total = sum(len(v) for v in self._obs.values())
        return f"SlidingLinkEstimator(window={self.window}, samples={total})"

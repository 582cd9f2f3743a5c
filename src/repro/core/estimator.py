"""Per-link loss estimation from retransmission-count evidence.

On a link with frame-loss probability ``p``, the attempt index of the
first successfully received frame is geometric with success ``1 - p``.
Two corrections make the estimate honest:

* **truncation** — the MAC aborts after ``A = max_retries + 1`` attempts,
  and hops that abort never deliver their annotation; observations are
  therefore draws of ``X | X <= A``;
* **censoring** — in Dophy's censored escape mode, counts ``>= K`` arrive
  only as the interval "between K and A-1 retransmissions".

The likelihood depends on the raw observations only through a small set
of sufficient statistics per link (:class:`SuffStats`): the number of
exact observations, their summed retransmission count, and a multiset of
censored attempt intervals. :class:`PerLinkEstimator` accumulates those
and :func:`solve_batch` maximizes the exact likelihood for **all links
at once** — closed form when neither censoring nor truncation applies,
otherwise a vectorized safeguarded Newton iteration on the scalar score
(falling back to bisection whenever a Newton step leaves the bracket).
The scipy-based per-link solve the batched path replaced is kept as
:meth:`PerLinkEstimator.estimate_scipy`, the reference oracle for the
differential tests and the perf bench.

The naive moment estimator ``1 - n / sum(attempts)`` used by the
estimator-ablation benchmark is also exposed.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from repro.core.decoder import DecodedAnnotation, DecodedHop

__all__ = ["LinkEstimate", "PerLinkEstimator", "SuffStats", "solve_batch"]

#: Version tag of the serialized estimator state (see ``state_dict``).
ESTIMATOR_STATE_SCHEMA = 1

Link = Tuple[int, int]

_P_LO = 1e-6
_P_HI = 1.0 - 1e-6
#: Floor for probability masses inside logs (keeps the scipy-era value).
_MASS_FLOOR = 1e-300
#: Iteration cap for the safeguarded Newton loop. The bisection fallback
#: halves the bracket every round, so this bounds the root location far
#: below float precision even if no Newton step is ever accepted.
_MAX_ITER = 90
#: Step-size convergence threshold (well inside the 1e-6 oracle band).
_X_TOL = 1e-12


@dataclass(frozen=True)
class LinkEstimate:
    """Point estimate of one directed link's loss ratio."""

    link: Tuple[int, int]
    loss: float
    #: Standard error from observed Fisher information (None if degenerate).
    stderr: Optional[float]
    n_exact: int
    n_censored: int

    @property
    def n_samples(self) -> int:
        return self.n_exact + self.n_censored

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Normal-approximation CI clipped to [0, 1]."""
        if self.stderr is None:
            return (0.0, 1.0)
        return (
            max(0.0, self.loss - z * self.stderr),
            min(1.0, self.loss + z * self.stderr),
        )


@dataclass(frozen=True)
class SuffStats:
    """Sufficient statistics of one link's evidence.

    The truncated/censored geometric likelihood factors through exactly
    these quantities: exact observations collapse to a count and a summed
    retransmission count; censored observations to a multiset of
    attempt-space intervals ``(lo, hi)`` (inclusive, 1-based attempts).
    """

    link: Link
    n_exact: int
    #: Sum of retransmission counts (``attempt - 1``) over exact obs.
    sum_retx: int
    #: Attempt-space interval -> observation count.
    censored: Mapping[Tuple[int, int], int]

    @property
    def n_censored(self) -> int:
        return sum(self.censored.values())

    @property
    def n_samples(self) -> int:
        return self.n_exact + self.n_censored


class _Batch:
    """Array-of-links view of sufficient statistics for vectorized math.

    Censored intervals are padded into an ``(n_links, width)`` matrix of
    per-interval counts; padding rows use the benign interval ``(1, 1)``
    with count zero so they contribute nothing to any sum.
    """

    def __init__(
        self,
        stats: Sequence[SuffStats],
        max_attempts: int,
        truncation_correction: bool,
    ) -> None:
        n = len(stats)
        self.A = float(max_attempts)
        self.trunc = truncation_correction
        self.n_exact = np.array([s.n_exact for s in stats], dtype=np.float64)
        self.sum_retx = np.array([s.sum_retx for s in stats], dtype=np.float64)
        n_cens = np.array([s.n_censored for s in stats], dtype=np.float64)
        self.n_total = self.n_exact + n_cens
        width = max((len(s.censored) for s in stats), default=0)
        self.cens_lo = np.ones((n, width))
        self.cens_hi = np.ones((n, width))
        self.cens_cnt = np.zeros((n, width))
        for i, s in enumerate(stats):
            for j, ((lo, hi), cnt) in enumerate(sorted(s.censored.items())):
                self.cens_lo[i, j] = lo
                self.cens_hi[i, j] = hi
                self.cens_cnt[i, j] = cnt

    # -- likelihood pieces ------------------------------------------------------------

    @staticmethod
    def _colsum(terms: np.ndarray) -> np.ndarray:
        """Left-to-right sum over the censored axis.

        ``np.sum`` reduces pairwise, and its grouping depends on the padded
        width — the same link could round differently in batches of
        different sizes. Sequential accumulation (each padding column adds
        an exact ``0.0``) keeps every link's value batch-independent.
        """
        out = np.zeros(terms.shape[0])
        for j in range(terms.shape[1]):
            out += terms[:, j]
        return out

    def nll(self, p: np.ndarray) -> np.ndarray:
        """Negative log-likelihood per link at the loss vector ``p``."""
        ll = self.n_exact * np.log(1.0 - p) + self.sum_retx * np.log(p)
        if self.cens_cnt.size:
            pc = p[:, None]
            mass = pc ** (self.cens_lo - 1.0) - pc**self.cens_hi
            ll = ll + self._colsum(
                self.cens_cnt * np.log(np.maximum(mass, _MASS_FLOOR))
            )
        if self.trunc:
            ll = ll - self.n_total * np.log(np.maximum(1.0 - p**self.A, _MASS_FLOOR))
        return -ll

    def score(self, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-link (d/dp log-likelihood, d2/dp2 log-likelihood)."""
        q = 1.0 - p
        g = self.sum_retx / p - self.n_exact / q
        gp = -self.sum_retx / (p * p) - self.n_exact / (q * q)
        if self.cens_cnt.size:
            pc = p[:, None]
            lo1 = self.cens_lo - 1.0
            m = np.maximum(pc**lo1 - pc**self.cens_hi, _MASS_FLOOR)
            mp = lo1 * pc ** (lo1 - 1.0) - self.cens_hi * pc ** (self.cens_hi - 1.0)
            mpp = lo1 * (lo1 - 1.0) * pc ** (lo1 - 2.0) - self.cens_hi * (
                self.cens_hi - 1.0
            ) * pc ** (self.cens_hi - 2.0)
            r = mp / m
            g = g + self._colsum(self.cens_cnt * r)
            gp = gp + self._colsum(self.cens_cnt * (mpp / m - r * r))
        if self.trunc:
            pA = p**self.A
            denom = np.maximum(1.0 - pA, _MASS_FLOOR)
            g = g + self.n_total * self.A * p ** (self.A - 1.0) / denom
            gp = gp + self.n_total * self.A * (
                (self.A - 1.0) * p ** (self.A - 2.0) * denom
                + self.A * p ** (2.0 * self.A - 2.0)
            ) / (denom * denom)
        return g, gp

    # -- solving ----------------------------------------------------------------------

    def solve(self) -> np.ndarray:
        """Per-link MLE via safeguarded Newton with bisection fallback.

        Maintains a per-link bracket from the sign of the score (the
        likelihood is unimodal in p, the same assumption the scipy
        bounded minimizer made); a Newton step that leaves its bracket,
        or whose curvature is degenerate, is replaced by the midpoint.
        """
        n = self.n_exact.shape[0]
        if n == 0:
            return np.empty(0)
        lo = np.full(n, _P_LO)
        hi = np.full(n, _P_HI)
        g_lo, _ = self.score(lo)
        g_hi, _ = self.score(hi)
        at_lo = g_lo <= 0.0  # likelihood already decreasing at the left edge
        at_hi = ~at_lo & (g_hi >= 0.0)  # still increasing at the right edge
        # Moment-style initial guess: censored intervals counted at lo.
        attempts = (
            self.n_exact
            + self.sum_retx
            + self._colsum(self.cens_cnt * self.cens_lo)
        )
        p = 1.0 - self.n_total / np.maximum(attempts, 1.0)
        p = np.clip(p, 1e-3, 1.0 - 1e-3)
        # Links are frozen individually the moment their step converges:
        # every link's trajectory is elementwise and stop-rule independent
        # of its batch-mates, so estimate() == estimates() bitwise.
        active = np.ones(n, dtype=bool)
        for _ in range(_MAX_ITER):
            g, gp = self.score(p)
            above = g > 0.0  # root lies to the right of p
            lo = np.where(above, p, lo)
            hi = np.where(above, hi, p)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = p - g / gp
            ok = np.isfinite(newton) & (newton > lo) & (newton < hi)
            p_next = np.where(active, np.where(ok, newton, 0.5 * (lo + hi)), p)
            active = active & (np.abs(p_next - p) >= _X_TOL)
            p = p_next
            if not active.any():
                break
        p = np.where(at_lo, _P_LO, np.where(at_hi, _P_HI, p))
        return p

    def stderr(self, p: np.ndarray) -> np.ndarray:
        """Fisher standard errors (NaN where degenerate).

        Same numeric second difference (and the same degeneracy rules)
        as the scalar ``_fisher_stderr`` the scipy path used.
        """
        h = np.maximum(1e-6, 1e-4 * p)
        lo = p - h
        hi = p + h
        valid = (lo > _P_LO) & (hi < _P_HI)
        lo_c = np.clip(lo, _P_LO, _P_HI)
        hi_c = np.clip(hi, _P_LO, _P_HI)
        second = (self.nll(hi_c) - 2.0 * self.nll(p) + self.nll(lo_c)) / (h * h)
        with np.errstate(divide="ignore", invalid="ignore"):
            se = 1.0 / np.sqrt(second)
        good = valid & (second > 0.0) & np.isfinite(second) & np.isfinite(se)
        return np.where(good, se, np.nan)


def _jeffreys_estimate(s: SuffStats) -> LinkEstimate:
    """Boundary MLE for all-first-attempt evidence (p_hat = 0).

    Jeffreys-style shrinkage keeps the estimate off the boundary and
    gives a meaningful "no losses in n trials" uncertainty.
    """
    n = s.n_exact
    loss = 0.5 / (n + 1)
    stderr = math.sqrt(loss * (1 - loss) / n) if n > 0 else None
    return LinkEstimate(s.link, loss, stderr, n, 0)


def solve_batch(
    stats: Sequence[SuffStats],
    max_attempts: int,
    *,
    truncation_correction: bool = True,
) -> List[Optional[LinkEstimate]]:
    """MLE for many links in one vectorized solve.

    Returns one :class:`LinkEstimate` per input entry (None for entries
    with no evidence). Links whose evidence is all-first-attempt take the
    Jeffreys boundary estimate; uncensored links without truncation
    correction take the closed-form geometric MLE ``S / (n + S)``; the
    rest go through the safeguarded Newton batch.
    """
    out: List[Optional[LinkEstimate]] = [None] * len(stats)
    closed_idx: List[int] = []
    newton_idx: List[int] = []
    for i, s in enumerate(stats):
        if s.n_samples == 0:
            continue
        if s.n_censored == 0 and s.sum_retx == 0:
            out[i] = _jeffreys_estimate(s)
        elif s.n_censored == 0 and not truncation_correction:
            closed_idx.append(i)
        else:
            newton_idx.append(i)

    def fill(indices: List[int], p_hat: np.ndarray, batch: _Batch) -> None:
        errs = batch.stderr(p_hat)
        for k, i in enumerate(indices):
            s = stats[i]
            stderr = float(errs[k]) if math.isfinite(errs[k]) else None
            out[i] = LinkEstimate(
                s.link, float(p_hat[k]), stderr, s.n_exact, s.n_censored
            )

    if closed_idx:
        batch = _Batch(
            [stats[i] for i in closed_idx], max_attempts, truncation_correction
        )
        p_hat = np.clip(
            batch.sum_retx / (batch.n_exact + batch.sum_retx), _P_LO, _P_HI
        )
        fill(closed_idx, p_hat, batch)
    if newton_idx:
        batch = _Batch(
            [stats[i] for i in newton_idx], max_attempts, truncation_correction
        )
        fill(newton_idx, batch.solve(), batch)
    return out


class _LinkData:
    """Evidence accumulated for one directed link (sufficient statistics)."""

    __slots__ = ("n_exact", "sum_retx", "censored")

    def __init__(self) -> None:
        #: Number of exact observations.
        self.n_exact = 0
        #: Summed retransmission counts over exact observations.
        self.sum_retx = 0
        #: Attempt-space (lo, hi) inclusive censored interval -> count.
        self.censored: Dict[Tuple[int, int], int] = {}

    @property
    def n_censored(self) -> int:
        return sum(self.censored.values())


class PerLinkEstimator:
    """Accumulates per-link evidence and produces loss MLEs."""

    def __init__(self, max_attempts: int, *, truncation_correction: bool = True) -> None:
        """``max_attempts`` = MAC retry cap + 1 (the truncation point A).

        ``truncation_correction=False`` drops the ``X <= A`` conditioning
        from the likelihood (the biased variant, kept for the ablation).
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.truncation_correction = truncation_correction
        self._data: Dict[Tuple[int, int], _LinkData] = defaultdict(_LinkData)

    # -- feeding evidence -----------------------------------------------------------

    def add_exact(
        self, link: Tuple[int, int], retx_count: int, time: float = 0.0
    ) -> None:
        """Record an exact observation of ``retx_count`` retransmissions.

        ``time`` (here and in the other ``add_*`` methods) keeps the call
        shape :class:`~repro.core.windowed.SlidingLinkEstimator` shares;
        the likelihood does not depend on it, so it is not stored.
        """
        attempt = retx_count + 1
        if not 1 <= attempt <= self.max_attempts:
            raise ValueError(
                f"attempt {attempt} outside [1, {self.max_attempts}]"
            )
        d = self._data[link]
        d.n_exact += 1
        d.sum_retx += retx_count

    def add_censored(
        self,
        link: Tuple[int, int],
        retx_lo: int,
        retx_hi: int,
        time: float = 0.0,
    ) -> None:
        """Record that the count was in [retx_lo, retx_hi] (inclusive)."""
        lo, hi = retx_lo + 1, retx_hi + 1
        if not 1 <= lo <= hi <= self.max_attempts:
            raise ValueError(f"censored attempts [{lo}, {hi}] invalid")
        d = self._data[link]
        d.censored[(lo, hi)] = d.censored.get((lo, hi), 0) + 1

    def add_hops(self, hops: Sequence[DecodedHop], time: float = 0.0) -> None:
        """Feed a sequence of decoded hops (a full annotation's, or the
        consistency-checked prefix salvaged from a failed decode).

        Censored bounds are clamped into ``[0, max_attempts - 1]`` so one
        out-of-range hop (a corrupted or stale annotation) cannot raise
        mid-feed and silently drop the rest of the annotation's hops.
        """
        for hop in hops:
            if hop.exact:
                self.add_exact(hop.link, hop.exact_count(), time)
            else:
                lo, hi = hop.retx_bounds
                hi = max(0, min(hi, self.max_attempts - 1))
                lo = max(0, min(lo, hi))
                self.add_censored(hop.link, lo, hi, time)

    def add_decoded(self, decoded: DecodedAnnotation, time: float = 0.0) -> None:
        """Feed every hop of a decoded annotation."""
        self.add_hops(decoded.hops, time)

    # -- likelihood -------------------------------------------------------------------

    def _neg_log_likelihood(self, p: float, data: _LinkData) -> float:
        """Negative log-likelihood of loss ``p`` for one link's evidence."""
        q = 1.0 - p
        A = self.max_attempts
        ll = data.n_exact * math.log(q) + data.sum_retx * math.log(p)
        for (lo, hi), count in data.censored.items():
            # P(lo <= X <= hi) = p^(lo-1) - p^hi
            mass = p ** (lo - 1) - p**hi
            ll += count * math.log(max(mass, _MASS_FLOOR))
        if self.truncation_correction:
            n = data.n_exact + data.n_censored
            ll -= n * math.log(max(1.0 - p**A, _MASS_FLOOR))
        return -ll

    # -- estimation --------------------------------------------------------------------

    def links(self) -> List[Tuple[int, int]]:
        return sorted(self._data.keys())

    def n_samples(self, link: Tuple[int, int]) -> int:
        d = self._data.get(link)
        return 0 if d is None else d.n_exact + d.n_censored

    def _suff(self, link: Tuple[int, int], data: _LinkData) -> SuffStats:
        return SuffStats(link, data.n_exact, data.sum_retx, data.censored)

    def estimate(self, link: Tuple[int, int]) -> Optional[LinkEstimate]:
        """MLE for one link; None if the link has no evidence."""
        data = self._data.get(link)
        if data is None or (data.n_exact + data.n_censored) == 0:
            return None
        return solve_batch(
            [self._suff(link, data)],
            self.max_attempts,
            truncation_correction=self.truncation_correction,
        )[0]

    def estimates(self) -> Dict[Tuple[int, int], LinkEstimate]:
        """MLEs for all links with evidence — one vectorized batch solve."""
        links = self.links()
        stats = [self._suff(link, self._data[link]) for link in links]
        results = solve_batch(
            stats, self.max_attempts, truncation_correction=self.truncation_correction
        )
        return {link: est for link, est in zip(links, results) if est is not None}

    def estimate_scipy(self, link: Tuple[int, int]) -> Optional[LinkEstimate]:
        """The pre-batching per-link scipy solve, kept as reference oracle.

        The differential tests pin :meth:`estimate` to this within 1e-6;
        the perf bench measures the batched speedup against it. Not used
        on any production path.
        """
        data = self._data.get(link)
        if data is None or (data.n_exact + data.n_censored) == 0:
            return None
        # All-first-attempt evidence -> boundary MLE p=0 (handle explicitly).
        if not data.censored and data.sum_retx == 0:
            return _jeffreys_estimate(self._suff(link, data))
        result = optimize.minimize_scalar(
            self._neg_log_likelihood,
            bounds=(_P_LO, _P_HI),
            args=(data,),
            method="bounded",
            options={"xatol": 1e-7},
        )
        p_hat = float(result.x)
        stderr = self._fisher_stderr(p_hat, data)
        return LinkEstimate(link, p_hat, stderr, data.n_exact, data.n_censored)

    def _fisher_stderr(self, p_hat: float, data: _LinkData) -> Optional[float]:
        """Standard error from a numeric second derivative at the MLE."""
        h = max(1e-6, 1e-4 * p_hat)
        lo, hi = p_hat - h, p_hat + h
        if lo <= _P_LO or hi >= _P_HI:
            return None
        f = self._neg_log_likelihood
        second = (f(hi, data) - 2.0 * f(p_hat, data) + f(lo, data)) / (h * h)
        if second <= 0 or not math.isfinite(second):
            return None
        return 1.0 / math.sqrt(second)

    def naive_estimate(self, link: Tuple[int, int]) -> Optional[float]:
        """Moment estimator ``1 - n / sum(attempts)`` ignoring truncation.

        Censored observations are counted at their lower bound — exactly
        the shortcut a naive implementation would take. Kept as the
        ablation baseline quantifying what the corrections buy.
        """
        data = self._data.get(link)
        if data is None:
            return None
        total_attempts = data.n_exact + data.sum_retx
        total_attempts += sum(lo * cnt for (lo, _), cnt in data.censored.items())
        n = data.n_exact + data.n_censored
        if n == 0 or total_attempts == 0:
            return None
        return max(0.0, 1.0 - n / total_attempts)

    def naive_estimates(self) -> Dict[Tuple[int, int], float]:
        """Naive moment estimates for every link with evidence."""
        out: Dict[Tuple[int, int], float] = {}
        for link in self.links():
            naive = self.naive_estimate(link)
            if naive is not None:
                out[link] = naive
        return out

    def merge(self, other: "PerLinkEstimator") -> None:
        """Fold another estimator's evidence into this one.

        Both the truncation point A and the truncation-correction flag
        must match: pooling evidence accumulated under a different
        likelihood would silently bias the merged estimates.
        """
        if other.max_attempts != self.max_attempts:
            raise ValueError("cannot merge estimators with different max_attempts")
        if other.truncation_correction != self.truncation_correction:
            raise ValueError(
                "cannot merge estimators with different truncation_correction"
            )
        for link, data in other._data.items():
            mine = self._data[link]
            mine.n_exact += data.n_exact
            mine.sum_retx += data.sum_retx
            for interval, count in data.censored.items():
                mine.censored[interval] = mine.censored.get(interval, 0) + count

    # -- serialization ----------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of all accumulated evidence.

        The state is the likelihood's sufficient statistics and nothing
        else, so its size grows with the number of links (and distinct
        censored intervals), not with the number of observations. The
        layout is canonical — links and censored intervals are sorted —
        so two estimators holding the same evidence serialize to
        identical structures regardless of feeding order, sharding or
        merge order.
        """
        links: List[Dict[str, Any]] = []
        for link in self.links():
            d = self._data[link]
            links.append(
                {
                    "link": [link[0], link[1]],
                    "n_exact": d.n_exact,
                    "sum_retx": d.sum_retx,
                    "censored": [
                        [lo, hi, cnt] for (lo, hi), cnt in sorted(d.censored.items())
                    ],
                }
            )
        return {
            "schema": ESTIMATOR_STATE_SCHEMA,
            "max_attempts": self.max_attempts,
            "truncation_correction": self.truncation_correction,
            "links": links,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "PerLinkEstimator":
        """Rebuild an estimator from :meth:`state_dict` output.

        Raises ``ValueError`` on schema mismatches or structurally
        invalid payloads (the checkpoint layer wraps this into its typed
        :class:`~repro.stream.checkpoint.CheckpointError`). A per-link
        ``"times"`` list, which older states carried as diagnostics, is
        ignored: it never entered the likelihood.
        """
        schema = state.get("schema")
        if schema != ESTIMATOR_STATE_SCHEMA:
            raise ValueError(
                f"unsupported estimator state schema {schema!r} "
                f"(expected {ESTIMATOR_STATE_SCHEMA})"
            )
        est = cls(
            int(state["max_attempts"]),
            truncation_correction=bool(state["truncation_correction"]),
        )
        entries = state["links"]
        if not isinstance(entries, (list, tuple)):
            raise ValueError("estimator state 'links' must be a sequence")
        for entry in entries:
            u, v = entry["link"]
            link = (int(u), int(v))
            d = est._data[link]
            d.n_exact = int(entry["n_exact"])
            d.sum_retx = int(entry["sum_retx"])
            if d.n_exact < 0 or d.sum_retx < 0:
                raise ValueError(f"negative evidence counts for link {link}")
            for lo, hi, cnt in entry["censored"]:
                lo, hi, cnt = int(lo), int(hi), int(cnt)
                if not 1 <= lo <= hi <= est.max_attempts or cnt <= 0:
                    raise ValueError(
                        f"invalid censored interval [{lo}, {hi}] x{cnt} "
                        f"for link {link}"
                    )
                d.censored[(lo, hi)] = cnt
        return est

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        total = sum(d.n_exact + d.n_censored for d in self._data.values())
        return f"PerLinkEstimator(links={len(self._data)}, samples={total})"

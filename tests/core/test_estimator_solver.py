"""Differential tests for the batched MLE solver.

The correctness oracle for the vectorized safeguarded-Newton rewrite:
on randomized exact/censored evidence corpora, the batched solver must
agree with the retired per-link scipy solve (kept as
``PerLinkEstimator.estimate_scipy``) to within 1e-6, including the
boundary cases (all-first-attempt, all-censored, single sample). The
sliding-window estimator's incremental statistics are pinned to a
from-scratch rebuild the same way.
"""

import numpy as np
import pytest

from repro.core.estimator import PerLinkEstimator, SuffStats, solve_batch
from repro.core.windowed import SlidingLinkEstimator

TOL = 1e-6
#: Likelihood-equivalence fallback: when the evidence is boundary-degenerate
#: (analytic MLE at or beyond p=1) the objective is flat to ~1e-10 near the
#: bound and both solvers stop at likelihood-identical points that can differ
#: in p by more than TOL. Two answers within this NLL gap are the same MLE.
NLL_TOL = 1e-8


def assert_same_mle(est, link, got_loss, ref_loss):
    """got and ref agree in p, or sit on the same flat likelihood stretch."""
    if got_loss == pytest.approx(ref_loss, abs=TOL):
        return
    data = est._data[link]
    gap = abs(est._neg_log_likelihood(got_loss, data)
              - est._neg_log_likelihood(ref_loss, data))
    assert gap < NLL_TOL, (link, got_loss, ref_loss, gap)


def draw_attempt(rng, loss, max_attempts):
    """One first-success attempt index conditioned on success within the cap."""
    while True:
        a = 1
        while rng.random() < loss:
            a += 1
            if a > max_attempts:
                break
        if a <= max_attempts:
            return a


def random_corpus(rng, n_links, max_attempts, *, censored_frac=0.3, escape_at=None):
    """Feed a fresh estimator pair-source with randomized evidence.

    Returns a list of (link, fed-anything) so callers can iterate. Loss
    ratios, sample counts, and censoring style vary per link; censored
    intervals are either the Dophy escape style (K..A-1) or random
    sub-intervals, always informative (never the full range).
    """
    feeds = []
    for i in range(n_links):
        link = (i + 1, 0)
        loss = float(rng.uniform(0.02, 0.9))
        n = int(rng.integers(1, 150))
        rows = []
        for _ in range(n):
            a = draw_attempt(rng, loss, max_attempts)
            c = a - 1
            if max_attempts > 2 and rng.random() < censored_frac:
                if escape_at is not None and c >= escape_at:
                    rows.append(("cens", escape_at, max_attempts - 1))
                elif escape_at is None:
                    lo = int(rng.integers(0, max_attempts - 1))
                    hi = int(rng.integers(lo, max_attempts - 1))
                    if not (lo == 0 and hi == max_attempts - 1):
                        rows.append(("cens", lo, hi))
                    else:
                        rows.append(("exact", c, None))
                else:
                    rows.append(("exact", c, None))
            else:
                rows.append(("exact", c, None))
        feeds.append((link, rows))
    return feeds


def feed(est, feeds):
    for link, rows in feeds:
        for kind, a, b in rows:
            if kind == "exact":
                est.add_exact(link, a)
            else:
                est.add_censored(link, a, b)


@pytest.mark.parametrize("max_attempts", [2, 3, 5, 8, 31])
@pytest.mark.parametrize("truncation", [True, False])
def test_batched_matches_scipy_reference(max_attempts, truncation):
    """The headline differential: randomized corpus, every link within 1e-6."""
    rng = np.random.default_rng(1000 + max_attempts + int(truncation))
    est = PerLinkEstimator(max_attempts, truncation_correction=truncation)
    feed(est, random_corpus(rng, 40, max_attempts, escape_at=None))
    batched = est.estimates()
    assert set(batched) == set(est.links())
    stderr_compared = 0
    for link in est.links():
        ref = est.estimate_scipy(link)
        got = batched[link]
        assert_same_mle(est, link, got.loss, ref.loss)
        assert got.n_exact == ref.n_exact
        assert got.n_censored == ref.n_censored
        if got.stderr is not None and ref.stderr is not None:
            assert got.stderr == pytest.approx(ref.stderr, rel=1e-2)
            stderr_compared += 1
    assert stderr_compared > 10  # the stderr comparison actually ran


def test_escape_style_censoring_matches_reference():
    """Dophy's real censoring pattern: counts >= K arrive as [K, A-1]."""
    rng = np.random.default_rng(7)
    A = 16
    est = PerLinkEstimator(A)
    feed(est, random_corpus(rng, 30, A, censored_frac=0.5, escape_at=3))
    for link, got in est.estimates().items():
        ref = est.estimate_scipy(link)
        assert_same_mle(est, link, got.loss, ref.loss)


def test_estimate_equals_estimates_entry():
    """Single-link and all-links paths share one solver."""
    rng = np.random.default_rng(8)
    est = PerLinkEstimator(8)
    feed(est, random_corpus(rng, 10, 8))
    batched = est.estimates()
    for link in est.links():
        single = est.estimate(link)
        assert single.loss == batched[link].loss
        assert single.stderr == batched[link].stderr


class TestBoundaryCases:
    LINK = (1, 0)

    def test_all_first_attempt_matches_reference(self):
        est = PerLinkEstimator(31)
        for _ in range(100):
            est.add_exact(self.LINK, 0)
        got = est.estimate(self.LINK)
        ref = est.estimate_scipy(self.LINK)
        assert got.loss == ref.loss  # identical Jeffreys branch
        assert got.stderr == ref.stderr

    def test_single_exact_sample(self):
        for a in [1, 3, 7]:
            est = PerLinkEstimator(8)
            est.add_exact(self.LINK, a)
            got = est.estimate(self.LINK)
            ref = est.estimate_scipy(self.LINK)
            assert got.loss == pytest.approx(ref.loss, abs=TOL), a

    def test_single_censored_sample(self):
        est = PerLinkEstimator(8)
        est.add_censored(self.LINK, 3, 6)
        got = est.estimate(self.LINK)
        ref = est.estimate_scipy(self.LINK)
        assert got.loss == pytest.approx(ref.loss, abs=TOL)

    def test_all_censored(self):
        rng = np.random.default_rng(9)
        A = 31
        est = PerLinkEstimator(A)
        for _ in range(500):
            a = draw_attempt(rng, 0.5, A)
            if a - 1 >= 2:
                est.add_censored(self.LINK, 2, A - 1)
            else:
                est.add_censored(self.LINK, 0, 1)
        got = est.estimate(self.LINK)
        ref = est.estimate_scipy(self.LINK)
        assert got.loss == pytest.approx(ref.loss, abs=TOL)
        assert abs(got.loss - 0.5) < 0.1

    def test_uninformative_evidence_stays_finite(self):
        """A full-range censored interval under truncation correction has a
        flat likelihood; any in-range value is acceptable — it must just
        not crash or return garbage."""
        est = PerLinkEstimator(8)
        est.add_censored(self.LINK, 0, 7)
        got = est.estimate(self.LINK)
        assert got is not None
        assert 0.0 <= got.loss <= 1.0

    def test_closed_form_no_truncation(self):
        """Uncensored evidence without truncation correction takes the
        closed-form geometric MLE S / (n + S)."""
        est = PerLinkEstimator(31, truncation_correction=False)
        counts = [0, 2, 1, 0, 4, 3, 0, 1]
        for c in counts:
            est.add_exact(self.LINK, c)
        got = est.estimate(self.LINK)
        s, n = sum(counts), len(counts)
        assert got.loss == pytest.approx(s / (n + s), abs=1e-12)
        ref = est.estimate_scipy(self.LINK)
        assert got.loss == pytest.approx(ref.loss, abs=TOL)


class TestSlidingIncremental:
    """The incremental window statistics equal a from-scratch rebuild."""

    LINK = (1, 0)

    def _reference(self, events, now, window, A):
        ref = PerLinkEstimator(A)
        for t, kind, a, b in events:
            if now - window < t <= now:
                if kind == "exact":
                    ref.add_exact(self.LINK, a)
                else:
                    ref.add_censored(self.LINK, a, b)
        return ref.estimate(self.LINK)

    def _random_events(self, rng, n, A):
        events = []
        t = 0.0
        for _ in range(n):
            t += float(rng.exponential(0.4))
            if rng.random() < 0.25:
                lo = int(rng.integers(0, A - 1))
                hi = int(rng.integers(lo, A - 1))
                events.append((t, "cens", lo, hi))
            else:
                events.append((t, "exact", int(rng.integers(0, A)), None))
        return events

    def _feed(self, sliding, events):
        for t, kind, a, b in events:
            if kind == "exact":
                sliding.add_exact(self.LINK, a, t)
            else:
                sliding.add_censored(self.LINK, a, b, t)

    def test_ascending_timeline_matches_rebuild(self):
        rng = np.random.default_rng(20)
        A, W = 8, 15.0
        sliding = SlidingLinkEstimator(max_attempts=A, window=W)
        events = self._random_events(rng, 600, A)
        self._feed(sliding, events)
        horizon = events[-1][0]
        for now in np.linspace(0.0, horizon + 5.0, 60):
            got = sliding.estimate(self.LINK, float(now))
            want = self._reference(events, float(now), W, A)
            assert (got is None) == (want is None), now
            if got is not None:
                assert got.loss == pytest.approx(want.loss, abs=1e-12), now
                assert got.n_samples == want.n_samples

    def test_backward_query_matches_rebuild(self):
        rng = np.random.default_rng(21)
        A, W = 8, 10.0
        sliding = SlidingLinkEstimator(max_attempts=A, window=W)
        events = self._random_events(rng, 300, A)
        self._feed(sliding, events)
        horizon = events[-1][0]
        for now in [horizon, horizon * 0.3, horizon * 0.8, horizon * 0.1]:
            got = sliding.estimate(self.LINK, now)
            want = self._reference(events, now, W, A)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.loss == pytest.approx(want.loss, abs=1e-12)

    def test_interleaved_feed_and_query(self):
        """Arrivals between queries (the live-listener pattern) slide the
        window forward without drift from the rebuilt truth."""
        rng = np.random.default_rng(22)
        A, W = 8, 12.0
        sliding = SlidingLinkEstimator(max_attempts=A, window=W)
        events = self._random_events(rng, 500, A)
        fed = []
        for i, ev in enumerate(events):
            self._feed(sliding, [ev])
            fed.append(ev)
            if i % 25 == 0:
                now = ev[0]
                got = sliding.estimate(self.LINK, now)
                want = self._reference(fed, now, W, A)
                if got is not None:
                    assert got.loss == pytest.approx(want.loss, abs=1e-12)

    def test_out_of_order_arrivals_match_rebuild(self):
        rng = np.random.default_rng(23)
        A, W = 8, 10.0
        sliding = SlidingLinkEstimator(max_attempts=A, window=W)
        fed = []
        t = 0.0
        for i in range(400):
            t += float(rng.exponential(0.5))
            # 20% of arrivals are late by up to 2 windows.
            tt = t - float(rng.uniform(0.0, 2 * W)) if rng.random() < 0.2 else t
            ev = (max(0.0, tt), "exact", int(rng.integers(0, A)), None)
            self._feed(sliding, [ev])
            fed.append(ev)
            if i % 20 == 0:
                got = sliding.estimate(self.LINK, t)
                want = self._reference(fed, t, W, A)
                if got is not None:
                    assert got.loss == pytest.approx(want.loss, abs=1e-12)

    def test_batched_estimates_across_links(self):
        rng = np.random.default_rng(25)
        A, W = 8, 20.0
        sliding = SlidingLinkEstimator(max_attempts=A, window=W)
        for i in range(12):
            link = (i + 1, 0)
            for t in np.linspace(0.0, 50.0, 40):
                sliding.add_exact(link, int(rng.integers(0, A)), float(t))
        batched = sliding.estimates(now=50.0)
        for link, est in batched.items():
            single = sliding.estimate(link, now=50.0)
            assert est.loss == single.loss


def test_solve_batch_none_for_empty_entries():
    """solve_batch mirrors its input positionally: empty stats -> None."""
    stats = [
        SuffStats((1, 0), 0, 0, {}),
        SuffStats((2, 0), 5, 3, {}),
        SuffStats((3, 0), 0, 0, {(2, 8): 4}),
    ]
    out = solve_batch(stats, 8)
    assert out[0] is None
    assert out[1] is not None and out[1].link == (2, 0)
    assert out[2] is not None and out[2].n_censored == 4

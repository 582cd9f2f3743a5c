"""Tests for the sliding-window (drift-tracking) estimator."""

import numpy as np
import pytest

from repro.core.config import DophyConfig
from repro.core.decoder import DecodedAnnotation, DecodedHop
from repro.core.dophy import DophySystem
from repro.core.estimator import PerLinkEstimator
from repro.core.windowed import SlidingLinkEstimator
from repro.net.link import DriftingLink, BernoulliLink, Channel
from repro.net.routing import RoutingConfig
from repro.net.simulation import CollectionSimulation, SimulationConfig
from repro.net.topology import line_topology
from repro.utils.rng import RngRegistry

LINK = (1, 0)


def feed_geometric(est, loss, t0, t1, n, rng, max_attempts=31):
    """Feed n exact observations of a loss-p link spread over [t0, t1]."""
    for time in np.linspace(t0, t1, n):
        a = 1
        while rng.random() < loss and a < max_attempts:
            a += 1
        est.add_exact(LINK, a - 1, float(time))


class TestWindowing:
    def test_estimate_uses_only_window(self):
        est = SlidingLinkEstimator(max_attempts=31, window=50.0)
        rng = np.random.default_rng(1)
        feed_geometric(est, 0.6, 0.0, 50.0, 800, rng)   # old: very lossy
        feed_geometric(est, 0.1, 100.0, 150.0, 800, rng)  # recent: good
        recent = est.estimate(LINK, now=150.0)
        assert abs(recent.loss - 0.1) < 0.05
        old = est.estimate(LINK, now=50.0)
        assert abs(old.loss - 0.6) < 0.05

    def test_empty_window_returns_none(self):
        est = SlidingLinkEstimator(max_attempts=31, window=10.0)
        est.add_exact(LINK, 0, time=0.0)
        assert est.estimate(LINK, now=100.0) is None
        assert est.estimate((9, 9), now=0.0) is None

    def test_n_samples_window(self):
        est = SlidingLinkEstimator(max_attempts=31, window=10.0)
        for t in [0.0, 5.0, 9.0, 15.0, 20.0]:
            est.add_exact(LINK, 0, time=t)
        # Window is (now - window, now] = (10, 20] -> samples at 15 and 20.
        assert est.n_samples(LINK, now=20.0) == 2
        assert est.n_samples(LINK, now=9.0) == 3  # (-1, 9] -> 0, 5, 9

    def test_out_of_order_insert(self):
        est = SlidingLinkEstimator(max_attempts=31, window=100.0)
        est.add_exact(LINK, 0, time=10.0)
        est.add_exact(LINK, 5, time=5.0)  # arrives late
        est.add_exact(LINK, 0, time=20.0)
        assert est.n_samples(LINK, now=20.0) == 3
        # Window ending before t=10 only sees the late-arrival sample.
        only_old = est.estimate(LINK, now=6.0)
        assert only_old.n_samples == 1

    def test_matches_batch_estimator_over_full_window(self):
        sliding = SlidingLinkEstimator(max_attempts=31, window=1000.0)
        batch = PerLinkEstimator(max_attempts=31)
        rng = np.random.default_rng(2)
        for t in range(500):
            a = 1
            while rng.random() < 0.3 and a < 31:
                a += 1
            sliding.add_exact(LINK, a - 1, float(t))
            batch.add_exact(LINK, a - 1, float(t))
        s = sliding.estimate(LINK, now=499.0)
        b = batch.estimate(LINK)
        assert s.loss == pytest.approx(b.loss, abs=1e-9)

    def test_censored_observations(self):
        est = SlidingLinkEstimator(max_attempts=31, window=100.0)
        rng = np.random.default_rng(3)
        for t in np.linspace(0, 100, 1500):
            a = 1
            while rng.random() < 0.5 and a < 31:
                a += 1
            c = a - 1
            if c >= 2:
                est.add_censored(LINK, 2, 30, float(t))
            else:
                est.add_exact(LINK, c, float(t))
        result = est.estimate(LINK, now=100.0)
        assert abs(result.loss - 0.5) < 0.06

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingLinkEstimator(max_attempts=0, window=1.0)
        with pytest.raises(ValueError):
            SlidingLinkEstimator(max_attempts=5, window=0.0)
        est = SlidingLinkEstimator(max_attempts=5, window=1.0)
        with pytest.raises(ValueError):
            est.add_exact(LINK, 5, 0.0)

    def test_add_censored_validates_bounds_at_insertion(self):
        """Invalid censored bounds raise immediately rather than being
        stored and corrupting a later window's likelihood."""
        est = SlidingLinkEstimator(max_attempts=8, window=10.0)
        with pytest.raises(ValueError):
            est.add_censored(LINK, 3, 2, time=0.0)  # lo > hi
        with pytest.raises(ValueError):
            est.add_censored(LINK, 0, 8, time=0.0)  # hi beyond cap
        with pytest.raises(ValueError):
            est.add_censored(LINK, -1, 2, time=0.0)  # negative lo
        assert est.estimate(LINK, now=0.0) is None  # nothing slipped in

    def test_add_decoded_clamps_out_of_range_hops(self):
        """One corrupted hop must not drop the annotation's other hops."""
        est = SlidingLinkEstimator(max_attempts=4, window=10.0)
        decoded = DecodedAnnotation(
            epoch=0,
            path=[2, 1, 0],
            hops=[
                DecodedHop((2, 1), None, (2, 9)),  # hi beyond the cap
                DecodedHop((1, 0), 0, (0, 0)),
            ],
            symbols=[],
            wire_bits=0,
        )
        est.add_decoded(decoded, time=1.0)
        assert est.n_samples((2, 1), now=1.0) == 1
        assert est.n_samples((1, 0), now=1.0) == 1


class TestDriftTracking:
    def test_tracks_sinusoidal_drift(self):
        """The windowed estimate follows the true drifting loss; the batch
        estimate cannot."""
        est = SlidingLinkEstimator(max_attempts=31, window=60.0)
        batch = PerLinkEstimator(max_attempts=31)
        link_model = DriftingLink(0.3, amplitude=0.25, period=400.0)
        rng = np.random.default_rng(4)
        for t in np.linspace(0, 400, 8000):
            a = 1
            while rng.random() < link_model.true_loss(float(t)) and a < 31:
                a += 1
            est.add_exact(LINK, a - 1, float(t))
            batch.add_exact(LINK, a - 1, 0.0)
        batch_loss = batch.estimate(LINK).loss
        window_errs, batch_errs = [], []
        for t in [100.0, 200.0, 300.0, 400.0]:
            truth = link_model.true_loss(t - 30.0)  # window midpoint
            window_errs.append(abs(est.estimate(LINK, now=t).loss - truth))
            batch_errs.append(abs(batch_loss - truth))
        assert np.mean(window_errs) < 0.05
        assert np.mean(window_errs) < 0.5 * np.mean(batch_errs)

    def test_timeline_shape(self):
        est = SlidingLinkEstimator(max_attempts=31, window=20.0)
        for t in range(100):
            est.add_exact(LINK, 0, float(t))
        series = est.timeline(LINK, [10.0, 50.0, 99.0, 500.0])
        assert len(series) == 4
        assert series[0][1] is not None
        assert series[3][1] is None  # window long past the data


class TestDophyIntegration:
    def test_decode_listener_feeds_sliding_estimator(self):
        topo = line_topology(4)
        dophy = DophySystem(DophyConfig())
        sliding = SlidingLinkEstimator(max_attempts=31, window=60.0)
        sim = CollectionSimulation(
            topo,
            seed=5,
            config=SimulationConfig(
                duration=120.0, traffic_period=2.0,
                routing=RoutingConfig(etx_noise_std=0.0),
            ),
            observers=[dophy],
        )
        dophy.add_decode_listener(sliding.add_decoded)
        result = sim.run()
        assert sliding.links()  # received evidence
        est = sliding.estimates(now=120.0)
        assert (1, 0) in est
        # Windowed estimate agrees with the batch one on a stationary run.
        batch = dophy.report().estimates[(1, 0)]
        assert abs(est[(1, 0)].loss - batch.loss) < 0.05

    def test_listener_must_be_callable(self):
        with pytest.raises(TypeError):
            DophySystem().add_decode_listener("nope")

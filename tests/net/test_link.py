"""Tests for link loss models and the channel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import (
    BernoulliLink,
    Channel,
    DriftingLink,
    GilbertElliottLink,
    beta_loss_assigner,
    uniform_loss_assigner,
)
from repro.net.topology import line_topology, topology_from_edges
from repro.utils.rng import RngRegistry


def make_rng():
    return np.random.default_rng(42)


class TestBernoulliLink:
    def test_empirical_matches_parameter(self):
        link = BernoulliLink(0.3)
        rng = make_rng()
        n = 20_000
        losses = sum(0 if link.sample(rng, 0.0) else 1 for _ in range(n))
        assert abs(losses / n - 0.3) < 0.02

    def test_extremes(self):
        rng = make_rng()
        assert BernoulliLink(0.0).sample(rng, 0.0) is True
        assert BernoulliLink(1.0).sample(rng, 0.0) is False

    def test_true_and_mean_loss_constant(self):
        link = BernoulliLink(0.2)
        assert link.true_loss(5.0) == 0.2
        assert link.mean_loss(0.0, 100.0) == 0.2

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            BernoulliLink(1.5)
        with pytest.raises(ValueError):
            BernoulliLink(-0.1)


class TestGilbertElliott:
    def test_stationary_loss(self):
        link = GilbertElliottLink(0.1, 0.3, loss_good=0.02, loss_bad=0.6)
        pi_bad = 0.1 / 0.4
        expected = pi_bad * 0.6 + (1 - pi_bad) * 0.02
        assert link.true_loss(0.0) == pytest.approx(expected)

    def test_empirical_approaches_stationary(self):
        link = GilbertElliottLink(0.05, 0.2, loss_good=0.05, loss_bad=0.5)
        rng = make_rng()
        n = 50_000
        losses = sum(0 if link.sample(rng, 0.0) else 1 for _ in range(n))
        assert abs(losses / n - link.true_loss(0.0)) < 0.02

    def test_burstiness(self):
        """Long bad bursts => losses cluster more than iid with the same mean."""
        bursty = GilbertElliottLink(0.01, 0.05, loss_good=0.01, loss_bad=0.9)
        rng = make_rng()
        outcomes = [bursty.sample(rng, 0.0) for _ in range(30_000)]
        # Probability of a loss immediately after a loss should far exceed
        # the marginal loss rate.
        loss_after_loss = 0
        losses = 0
        for prev, cur in zip(outcomes, outcomes[1:]):
            if not prev:
                losses += 1
                if not cur:
                    loss_after_loss += 1
        marginal = outcomes.count(False) / len(outcomes)
        assert loss_after_loss / max(losses, 1) > 2.0 * marginal

    def test_rejects_stuck_chain(self):
        with pytest.raises(ValueError):
            GilbertElliottLink(0.0, 0.0)

    def test_invalid_start_state(self):
        with pytest.raises(ValueError):
            GilbertElliottLink(0.1, 0.1, start_state="ugly")


class TestDriftingLink:
    def test_loss_oscillates(self):
        link = DriftingLink(0.3, amplitude=0.2, period=100.0)
        assert link.true_loss(25.0) == pytest.approx(0.5)  # peak of sine
        assert link.true_loss(75.0) == pytest.approx(0.1)
        assert link.true_loss(0.0) == pytest.approx(0.3)

    def test_clipping(self):
        link = DriftingLink(0.05, amplitude=0.2, period=10.0)
        # trough would be negative; clipped to eps
        assert link.true_loss(7.5) == pytest.approx(1e-4)

    def test_mean_loss_over_full_period_near_base(self):
        link = DriftingLink(0.4, amplitude=0.1, period=50.0)
        assert link.mean_loss(0.0, 50.0, resolution=501) == pytest.approx(0.4, abs=0.01)

    def test_sampling_tracks_instantaneous_loss(self):
        link = DriftingLink(0.3, amplitude=0.25, period=1000.0)
        rng = make_rng()
        # Sample at the peak region only.
        t = 250.0
        n = 20_000
        losses = sum(0 if link.sample(rng, t) else 1 for _ in range(n))
        assert abs(losses / n - link.true_loss(t)) < 0.02

    def test_rejects_bad_amplitude(self):
        with pytest.raises(ValueError):
            DriftingLink(0.3, amplitude=0.9, period=10.0)


class TestChannel:
    def test_build_covers_all_directed_edges(self):
        topo = line_topology(4)
        ch = Channel.build(topo, uniform_loss_assigner(0.1, 0.2), RngRegistry(1))
        assert sorted(ch.directed_edges()) == list(topo.directed_edges())

    def test_asymmetric_by_default(self):
        topo = line_topology(6)
        ch = Channel.build(topo, uniform_loss_assigner(0.0, 0.5), RngRegistry(3))
        diffs = [
            abs(ch.true_loss(u, v, 0.0) - ch.true_loss(v, u, 0.0))
            for u, v in topo.undirected_edges()
        ]
        assert max(diffs) > 0.0

    def test_transmit_counts_draws_and_empirical_loss(self):
        topo = line_topology(2)
        models = {(0, 1): BernoulliLink(0.5), (1, 0): BernoulliLink(0.0)}
        ch = Channel(topo, models, RngRegistry(9))
        n = 5000
        ok = sum(1 for _ in range(n) if ch.transmit(0, 1, 0.0))
        assert ch.draws(0, 1) == n
        assert ch.empirical_loss(0, 1) == pytest.approx(1 - ok / n)
        assert ch.empirical_loss(1, 0) is None  # unused direction

    def test_reproducible_across_instances(self):
        topo = line_topology(3)
        results = []
        for _ in range(2):
            ch = Channel.build(topo, uniform_loss_assigner(0.2, 0.4), RngRegistry(77))
            results.append([ch.transmit(1, 0, 0.0) for _ in range(50)])
        assert results[0] == results[1]

    def test_model_mismatch_rejected(self):
        topo = line_topology(3)
        models = {(0, 1): BernoulliLink(0.1)}  # missing edges
        with pytest.raises(ValueError):
            Channel(topo, models, RngRegistry(0))

    def test_beta_assigner_produces_valid_losses(self):
        topo = topology_from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        ch = Channel.build(topo, beta_loss_assigner(1.2, 6.0, scale=0.8), RngRegistry(5))
        for u, v in topo.directed_edges():
            assert 0.0 <= ch.true_loss(u, v, 0.0) <= 0.8


class _ScalarOnly:
    """Wrap an assigner, hiding its ``batch`` so Channel.build falls back
    to the scalar per-edge loop — the reference for the differential tests."""

    def __init__(self, assigner):
        self._assigner = assigner

    def __call__(self, u, v, rng):
        return self._assigner(u, v, rng)


class TestBatchedBuildBitIdentity:
    """Batched Channel.build must replay the scalar loop bit-for-bit:
    identical model parameters per edge AND identical post-build RNG
    stream position (pinning the block-draw discipline)."""

    ASSIGNERS = [("uniform", lambda: uniform_loss_assigner(0.05, 0.45))]

    @pytest.mark.parametrize("name,factory", ASSIGNERS, ids=[a[0] for a in ASSIGNERS])
    def test_asymmetric_matches_scalar(self, name, factory):
        topo = topology_from_edges([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
        fast = Channel.build(topo, factory(), RngRegistry(31))
        slow_reg = RngRegistry(31)
        slow = Channel.build(topo, _ScalarOnly(factory()), slow_reg)
        for edge in topo.directed_edges():
            assert fast.model(*edge).loss == slow.model(*edge).loss
        # Post-build stream state: the next draw from the assign stream
        # must be identical (same number of raw uniforms consumed).
        a = fast._rng.get("channel", "assign").random()
        b = slow_reg.get("channel", "assign").random()
        assert a == b

    def test_batch_method_replays_call_stream(self):
        # Direct unit check: assigner.batch(n) == n sequential __call__s,
        # in values and stream consumption.
        for _, factory in self.ASSIGNERS:
            a = factory()
            rng1 = np.random.default_rng(99)
            rng2 = np.random.default_rng(99)
            batched = a.batch(6, rng1)
            scalar = [a(0, 1, rng2) for _ in range(6)]
            assert [m.loss for m in batched] == [m.loss for m in scalar]
            assert rng1.random() == rng2.random()


class TestAssignerValidation:
    def test_uniform_bounds(self):
        with pytest.raises(ValueError):
            uniform_loss_assigner(0.5, 0.2)
        with pytest.raises(ValueError):
            uniform_loss_assigner(-0.1, 0.2)

    def test_beta_params(self):
        with pytest.raises(ValueError):
            beta_loss_assigner(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_loss_assigner(1.0, 1.0, scale=1.5)


@settings(max_examples=25, deadline=None)
@given(loss=st.floats(min_value=0.0, max_value=1.0))
def test_property_bernoulli_sample_rate(loss):
    """Sampled loss rate concentrates near the parameter for any loss value."""
    link = BernoulliLink(loss)
    rng = np.random.default_rng(int(loss * 1e6) + 1)
    n = 4000
    observed = sum(0 if link.sample(rng, 0.0) else 1 for _ in range(n)) / n
    assert abs(observed - loss) < 0.05

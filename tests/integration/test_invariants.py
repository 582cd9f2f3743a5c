"""Cross-cutting invariants over full simulation runs.

These exercise the whole stack at once — simulator, routing, MAC, Dophy
annotation pipeline, baselines — and check conservation laws and
consistency properties that no single-module test can see.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DophyConfig
from repro.core.dophy import DophySystem
from repro.core.windowed import SlidingLinkEstimator
from repro.net.link import uniform_loss_assigner
from repro.net.mac import MacConfig
from repro.net.routing import RoutingConfig
from repro.net.simulation import CollectionSimulation, SimulationConfig
from repro.net.topology import grid_topology, random_geometric_topology
from repro.tomography.em import EMTomography
from repro.tomography.mle_tree import TreeRatioTomography
from repro.tomography.path_measurement import PathMeasurement


DROP_REASONS = {"retries", "ttl", "no_route", "queue_overflow", "node_failed"}


def heavy_run(
    seed, *, duration=200.0, observers=(), max_retries=2, noise=0.6, engine="event"
):
    topo = random_geometric_topology(35, seed=seed)
    sim = CollectionSimulation(
        topo,
        seed=seed,
        config=SimulationConfig(
            duration=duration,
            traffic_period=3.0,
            mac=MacConfig(max_retries=max_retries),
            routing=RoutingConfig(etx_noise_std=noise, parent_switch_threshold=0.1),
            engine=engine,
        ),
        link_assigner=uniform_loss_assigner(0.05, 0.4),
        observers=list(observers),
    )
    return sim.run()


class TestConservationLaws:
    @pytest.mark.parametrize("engine", ["event", "array"])
    def test_packet_accounting(self, engine):
        result = heavy_run(seed=1, engine=engine)
        gt = result.ground_truth
        in_flight = sum(
            1 for p in result.packets if not p.delivered and not p.dropped
        )
        assert gt.packets_generated == gt.packets_delivered + gt.packets_dropped + in_flight
        assert in_flight <= 5  # grace period drains nearly everything
        # Every drop is attributed to exactly one known cause.
        assert sum(gt.drop_reasons.values()) == gt.packets_dropped
        assert set(gt.drop_reasons) <= DROP_REASONS

    def test_hop_records_consistent_with_outcome(self):
        result = heavy_run(seed=2)
        for p in result.packets:
            if p.delivered:
                assert all(h.delivered for h in p.hops)
                assert p.path[-1] == 0
            if p.dropped and p.drop_reason == "retries":
                assert p.hops and not p.hops[-1].delivered

    def test_link_usage_matches_packet_hops(self):
        result = heavy_run(seed=3)
        from collections import Counter

        from_packets = Counter()
        for p in result.packets:
            for h in p.hops:
                from_packets[h.link] += 1
        for link, usage in result.ground_truth.link_usage.items():
            assert usage.exchanges == from_packets[link]

    def test_frames_sent_ge_exchanges(self):
        result = heavy_run(seed=4)
        for usage in result.ground_truth.link_usage.values():
            assert usage.frames_sent >= usage.exchanges
            assert usage.received <= usage.exchanges


class TestMultiObserverConsistency:
    def test_observers_do_not_perturb_the_run(self):
        """Attaching observers never changes what the network does."""
        def signature(observers):
            result = heavy_run(seed=5, observers=observers)
            return (
                result.ground_truth.packets_generated,
                result.ground_truth.packets_delivered,
                result.routing.total_parent_changes,
                tuple(sorted(result.ground_truth.true_loss_map().items())),
            )

        bare = signature([])
        loaded = signature(
            [DophySystem(), PathMeasurement(), TreeRatioTomography(), EMTomography()]
        )
        assert bare == loaded

    def test_all_annotation_modes_agree_on_evidence(self):
        reports = {}
        for mode in ["explicit", "compressed", "assumed"]:
            dophy = DophySystem(DophyConfig(path_encoding=mode))
            heavy_run(seed=6, observers=[dophy])
            reports[mode] = dophy.report()
        base = reports["explicit"].estimates
        for mode in ["compressed", "assumed"]:
            other = reports[mode].estimates
            assert set(other) == set(base)
            for link in base:
                assert other[link].loss == pytest.approx(base[link].loss, abs=1e-12)
                assert other[link].n_samples == base[link].n_samples

    def test_estimator_variants_consistent_from_one_run(self):
        """MLE and sliding-window estimators fed by the same decode
        stream agree on well-sampled links."""
        sliding = SlidingLinkEstimator(max_attempts=3, window=10_000.0)
        dophy = DophySystem(DophyConfig())
        sim_topo = random_geometric_topology(35, seed=7)
        sim = CollectionSimulation(
            sim_topo,
            seed=7,
            config=SimulationConfig(
                duration=400.0,
                traffic_period=3.0,
                mac=MacConfig(max_retries=2),
                routing=RoutingConfig(etx_noise_std=0.6, parent_switch_threshold=0.1),
            ),
            link_assigner=uniform_loss_assigner(0.05, 0.4),
            observers=[dophy],
        )
        dophy.add_decode_listener(sliding.add_decoded)
        sim.run()
        mle = dophy.report().estimates
        for link, est in mle.items():
            if est.n_samples < 200:
                continue
            s = sliding.estimate(link, now=10_000.0)
            assert s is not None
            assert abs(s.loss - est.loss) < 0.02


class TestDecodabilityUnderStress:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(["explicit", "compressed"]),
        k=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        classes=st.integers(min_value=1, max_value=3),
    )
    def test_property_every_delivered_packet_decodes(self, seed, mode, k, classes):
        """Across random configs, Dophy never fails to decode a delivered
        annotation, and decodes exactly as many as were delivered."""
        dophy = DophySystem(
            DophyConfig(
                path_encoding=mode,
                aggregation_threshold=k,
                link_classes=classes,
                model_update_period=40.0,
            )
        )
        topo = grid_topology(4, 4, diagonal=True)
        sim = CollectionSimulation(
            topo,
            seed=seed,
            config=SimulationConfig(
                duration=120.0,
                traffic_period=3.0,
                mac=MacConfig(max_retries=5),
                routing=RoutingConfig(etx_noise_std=0.7, parent_switch_threshold=0.0),
            ),
            link_assigner=uniform_loss_assigner(0.05, 0.45),
            observers=[dophy],
        )
        result = sim.run()
        report = dophy.report()
        assert report.decode_failures == 0
        assert report.packets_decoded == result.ground_truth.packets_delivered

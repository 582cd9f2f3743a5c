"""Tests for the classical tomography estimators (static and dynamic regimes)."""

import pytest

from repro.net.link import uniform_loss_assigner
from repro.net.mac import MacConfig
from repro.net.routing import RoutingConfig
from repro.net.simulation import CollectionSimulation, SimulationConfig
from repro.net.topology import grid_topology, line_topology, random_geometric_topology
from repro.tomography.em import EMTomography
from repro.tomography.linear import LinearTomography
from repro.tomography.mle_tree import TreeRatioTomography
from repro.workloads.scenarios import dynamic_rgg_scenario


def run_with(observers, topo, seed, *, duration=400.0, noise=0.0, max_retries=2,
             loss_lo=0.2, loss_hi=0.5, traffic_period=2.0):
    """Static-ish run with a tight retry cap so end-to-end losses are plentiful."""
    sim = CollectionSimulation(
        topo,
        seed=seed,
        config=SimulationConfig(
            duration=duration,
            traffic_period=traffic_period,
            mac=MacConfig(max_retries=max_retries),
            routing=RoutingConfig(etx_noise_std=noise, parent_switch_threshold=0.3),
        ),
        link_assigner=uniform_loss_assigner(loss_lo, loss_hi),
        observers=list(observers),
    )
    return sim.run()


def errors_vs_truth(result, losses, min_support=None, support=None):
    truth = result.ground_truth.true_loss_map(kind="empirical")
    errs = []
    for link, est in losses.items():
        if link not in truth:
            continue
        if min_support and support and support.get(link, 0) < min_support:
            continue
        errs.append(abs(est - truth[link]))
    return errs


ESTIMATORS = [TreeRatioTomography, LinearTomography, EMTomography]


@pytest.mark.parametrize("cls", ESTIMATORS, ids=lambda c: c.__name__)
class TestStaticAccuracy:
    def test_recovers_losses_on_static_line(self, cls):
        obs = cls()
        result = run_with([obs], line_topology(4), seed=31)
        tomo = obs.solve()
        errs = errors_vs_truth(result, tomo.losses)
        assert errs, "no overlapping links estimated"
        assert sum(errs) / len(errs) < 0.12

    def test_result_has_method_name(self, cls):
        obs = cls()
        run_with([obs], line_topology(3), seed=32, duration=100.0)
        tomo = obs.solve()
        assert tomo.method
        assert all(0.0 <= v <= 1.0 for v in tomo.losses.values())


class TestTreeRatio:
    def test_estimates_every_tree_link(self):
        obs = TreeRatioTomography()
        result = run_with([obs], line_topology(5), seed=33)
        tomo = obs.solve()
        assert set(tomo.losses) == {(1, 0), (2, 1), (3, 2), (4, 3)}

    def test_support_counts_origin_packets(self):
        obs = TreeRatioTomography()
        result = run_with([obs], line_topology(3), seed=34, duration=100.0)
        tomo = obs.solve()
        assert all(n > 0 for n in tomo.support.values())

    def test_support_equals_scanned_observation_count(self):
        obs = TreeRatioTomography()
        result = (
            dynamic_rgg_scenario(30)
            .with_config(duration=120.0)
            .make_simulation(7, observers=[obs])
            .run()
        )
        assert result.ground_truth.packets_dropped > 0
        tomo = obs.solve()
        assert tomo.support
        for (origin, _), n in tomo.support.items():
            scanned = sum(1 for o, _, _ in obs.packet_observations if o == origin)
            assert n == scanned


class TestLinear:
    def test_no_data_graceful(self):
        obs = LinearTomography()
        tomo = obs.solve()
        assert tomo.losses == {} and not tomo.converged


class TestEM:
    def test_no_data_graceful(self):
        obs = EMTomography()
        tomo = obs.solve()
        assert tomo.losses == {} and not tomo.converged

    def test_converges_flag(self):
        obs = EMTomography()
        run_with([obs], line_topology(3), seed=36, duration=100.0)
        tomo = obs.solve()
        assert tomo.converged

    def test_em_beats_or_matches_ratio_on_static_grid(self):
        """EM uses per-packet info; ratio only aggregates — EM should not be
        substantially worse on a static multi-path topology."""
        em, ratio = EMTomography(), TreeRatioTomography()
        result = run_with(
            [em, ratio], grid_topology(3, 3, diagonal=True), seed=37, duration=500.0
        )
        em_errs = errors_vs_truth(result, em.solve().losses)
        ratio_errs = errors_vs_truth(result, ratio.solve().losses)
        assert sum(em_errs) / len(em_errs) <= sum(ratio_errs) / len(ratio_errs) + 0.05


class TestDynamicsDegradeClassicalApproaches:
    """The paper's central claim, seen from the baseline side."""

    def run_both_regimes(self, cls, seed):
        def mean_error(noise):
            obs = cls()
            topo = random_geometric_topology(25, seed=seed)
            result = run_with(
                [obs], topo, seed=seed, noise=noise, duration=400.0,
                loss_lo=0.1, loss_hi=0.4,
            )
            errs = errors_vs_truth(result, obs.solve().losses)
            return sum(errs) / len(errs) if errs else float("inf")

        return mean_error(0.0), mean_error(1.0)

    @pytest.mark.parametrize("cls", ESTIMATORS, ids=lambda c: c.__name__)
    def test_error_grows_with_churn(self, cls):
        static_err, dynamic_err = self.run_both_regimes(cls, seed=38)
        assert dynamic_err > static_err

"""Lossy model dissemination: per-node epochs, repair, graceful decay.

Covers the broadcast-round machinery (per-node epoch tracking, repair
under backoff, per-round overhead charging), the stuck-node regression
(a node pinned beyond the sink's epoch-history window degrades into
counted ``unknown_epoch`` failures, never a crash), tolerance of an
unknown packet at the sink, and prefix salvage gating.
"""

import pytest

from repro.core.config import DophyConfig
from repro.core.decoder import AnnotationDecodeError, DecodedHop
from repro.core.dophy import DophySystem
from repro.core.model import ModelManager
from repro.core.symbols import SymbolSet
from repro.net.packet import Packet
from repro.net.simulation import CollectionSimulation, SimulationConfig
from repro.net.topology import line_topology
from repro.workloads import line_scenario


def run_line(config, *, duration=400.0, num_nodes=8, seed=71, faults=None):
    scenario = line_scenario(num_nodes, duration=duration, traffic_period=4.0)
    system = DophySystem(config, faults=faults)
    sim = scenario.make_simulation(seed, [system])
    result = sim.run()
    return system, result


class TestConfig:
    def test_lossy_flag(self):
        assert not DophyConfig().lossy_dissemination
        assert DophyConfig(dissemination_loss=0.2).lossy_dissemination
        assert DophyConfig(dissemination_blocked_nodes=(3,)).lossy_dissemination

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            DophyConfig(dissemination_loss=1.5)
        with pytest.raises(ValueError):
            DophyConfig(dissemination_retries=-1)
        with pytest.raises(ValueError):
            DophyConfig(dissemination_backoff=0.0)
        with pytest.raises(ValueError):
            DophyConfig(dissemination_backoff=5.0, dissemination_backoff_cap=1.0)

    def test_attach_preserves_dissemination_knobs(self):
        # The attach-time alphabet re-derivation (MAC cap != max_count)
        # must not silently drop the dissemination fields.
        topo = line_topology(4)
        system = DophySystem(
            DophyConfig(dissemination_loss=0.25, dissemination_retries=7)
        )
        sim = CollectionSimulation(
            topo, seed=3, config=SimulationConfig(duration=20.0), observers=[system]
        )
        sim.run()
        assert system.config.max_count == sim.config.mac.max_retries
        assert system.config.dissemination_loss == 0.25
        assert system.config.dissemination_retries == 7


class TestModelManagerPerNodeEpochs:
    def make(self):
        ss = SymbolSet(10, 3)
        mm = ModelManager(ss, update_period=10.0, num_nodes_for_dissemination=4)
        mm.enable_per_node_epochs([1, 2, 3])
        return mm

    def test_delivery_is_monotonic(self):
        mm = self.make()
        assert mm.deliver_epoch(1, 1)
        assert not mm.deliver_epoch(1, 1)  # duplicate repair copy
        assert not mm.deliver_epoch(1, 0)  # out-of-order
        assert mm.epoch_of_node(1) == 1
        assert mm.nodes_behind(1) == [2, 3]

    def test_unknown_node_rejected(self):
        mm = self.make()
        with pytest.raises(KeyError):
            mm.deliver_epoch(99, 1)

    def test_charge_broadcast_accumulates(self):
        mm = self.make()
        payload = mm.epoch_payload_bits(0)
        assert payload > 0
        charged = mm.charge_broadcast(0, 3)
        assert charged == payload * 3
        assert mm.total_dissemination_bits == charged

    def test_encoder_archive_survives_eviction(self):
        ss = SymbolSet(10, 3)
        mm = ModelManager(
            ss, update_period=10.0, epoch_history=2, num_nodes_for_dissemination=4
        )
        mm.enable_per_node_epochs([1])
        for t in (10.0, 20.0, 30.0):
            mm.observe_symbols([0, 1, 2], t)
            assert mm.maybe_update(t)
        # Epoch 0 and 1 are out of the sink's 2-epoch decode window...
        with pytest.raises(KeyError):
            mm.table(0)
        # ...but the stuck encoder still sees its own copy.
        with pytest.raises(KeyError):
            mm.epoch_model(0)
        model = mm.encoder_epoch_model(0)
        assert model.symbol_set == ss
        assert len(model.tables) == mm.num_classes


class TestRepairConvergence:
    def test_stragglers_converge_and_rounds_are_billed(self):
        config = DophyConfig(
            model_update_period=60.0,
            dissemination_loss=0.3,
            dissemination_retries=5,
            dissemination_backoff=1.0,
        )
        system, result = run_line(config)
        report = system.report()
        assert report.model_updates > 0
        assert report.dissemination_rounds == report.model_updates
        assert report.repair_rounds > 0
        assert report.dissemination_bits > 0
        assert report.stale_nodes == 0  # repair caught everyone up
        # Losing broadcasts never loses data-plane evidence.
        assert report.packets_decoded + report.decode_failures == len(
            result.delivered_packets
        )

    def test_zero_knobs_identical_to_idealized(self):
        # dissemination_loss=0 with no blocked nodes must take the exact
        # historical code path: same estimates, same overhead, bit for bit.
        base_sys, _ = run_line(DophyConfig(model_update_period=60.0))
        knob_sys, _ = run_line(
            DophyConfig(
                model_update_period=60.0,
                dissemination_loss=0.0,
                dissemination_retries=9,
                dissemination_backoff=1.0,
            )
        )
        a, b = base_sys.report(), knob_sys.report()
        assert not base_sys.models.per_node_epochs
        assert not knob_sys.models.per_node_epochs
        assert a.annotation_bits == b.annotation_bits
        assert a.dissemination_bits == b.dissemination_bits
        assert {l: e.loss for l, e in a.estimates.items()} == {
            l: e.loss for l, e in b.estimates.items()
        }


class TestStuckNodeRegression:
    def test_node_stuck_beyond_window_degrades_gracefully(self):
        """A node whose control path is dead stays on epoch 0 forever.

        Once epoch 0 leaves the sink's history window its packets become
        ``unknown_epoch`` failures — counted, not crashed — while every
        other link keeps producing accurate estimates. Duration is kept
        short enough (< modulus epochs) that epoch 0 cannot alias with a
        retained epoch through the modular header field.
        """
        stuck = 7
        config = DophyConfig(
            model_update_period=60.0,
            epoch_history=4,
            dissemination_blocked_nodes=(stuck,),
        )
        system, result = run_line(config)  # 400s -> ~6 epochs < modulus 8
        report = system.report()
        assert report.model_updates >= 5
        assert report.stale_nodes == 1
        # The stuck node's late packets are attributed, and nothing else fails.
        assert report.decode_failure_causes["unknown_epoch"] > 0
        assert report.decode_failures == report.attributed_failures
        assert report.packets_decoded + report.decode_failures == len(
            result.delivered_packets
        )
        # Links untouched by the stuck origin stay accurate.
        truth = result.ground_truth.true_loss_map(kind="empirical")
        for link, est in report.estimates.items():
            if est.n_samples >= 30 and link != (stuck, stuck - 1):
                assert abs(est.loss - truth[link]) < 0.05

    def test_moderately_stale_node_still_decodes(self):
        # One lost round followed by successful repair keeps the node
        # within the history window: zero decode failures.
        config = DophyConfig(
            model_update_period=60.0,
            dissemination_loss=0.3,
            dissemination_retries=4,
            dissemination_backoff=1.0,
        )
        system, _ = run_line(config, seed=5)
        report = system.report()
        assert report.decode_failure_causes["unknown_epoch"] == 0


class TestSinkTolerance:
    def attached_system(self):
        topo = line_topology(4)
        system = DophySystem(DophyConfig(model_update_period=None))
        sim = CollectionSimulation(
            topo, seed=11, config=SimulationConfig(duration=5.0), observers=[system]
        )
        sim.run()
        return system

    def test_unknown_packet_is_tolerated_not_decoded(self):
        system = self.attached_system()
        before = system.report()
        packet = Packet(origin=3, seqno=999, created_at=0.0)
        # Never created through the observer: the sink has no annotation.
        system.on_hop_delivered(packet, 3, 2, 1, 1.0)
        system.on_packet_delivered(packet, 1.0)
        after = system.report()
        assert after.packets_decoded == before.packets_decoded
        assert after.decode_failures == before.decode_failures
        assert after.estimates == before.estimates

    def test_salvage_requires_consistent_path(self):
        system = self.attached_system()
        packet = Packet(origin=3, seqno=1000, created_at=0.0)
        hops = [
            DecodedHop((3, 2), 1, (1, 1)),
            DecodedHop((2, 1), 0, (0, 0)),
        ]
        good = AnnotationDecodeError(
            "x", cause="corrupt_symbol", partial_hops=hops, partial_path=(3, 2, 1)
        )
        before = system.estimator.n_samples((3, 2))
        system._try_salvage(good, packet, 1.0)
        report = system.report()
        assert report.salvaged_packets == 1
        assert report.salvaged_hops == 2
        assert system.estimator.n_samples((3, 2)) == before + 1
        # A prefix whose edges are not in the topology is rejected.
        bad = AnnotationDecodeError(
            "x",
            cause="corrupt_symbol",
            partial_hops=[DecodedHop((3, 1), 1, (1, 1))],
            partial_path=(3, 1),
        )
        system._try_salvage(bad, packet, 1.0)
        assert system.report().salvaged_packets == 1  # unchanged

    def test_unknown_cause_rejected(self):
        with pytest.raises(ValueError):
            AnnotationDecodeError("x", cause="cosmic_rays")

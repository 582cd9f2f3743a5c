"""Tests for model management and the geometric prior."""

import math

import pytest

from repro.core.model import ModelManager, geometric_symbol_probabilities
from repro.core.symbols import SymbolSet


class TestGeometricPrior:
    def test_probabilities_sum_to_one(self):
        ss = SymbolSet(max_count=30, aggregation_threshold=3)
        probs = geometric_symbol_probabilities(ss, 0.2)
        assert math.isclose(sum(probs), 1.0)
        assert len(probs) == ss.num_symbols

    def test_good_link_mass_on_zero(self):
        ss = SymbolSet(max_count=30, aggregation_threshold=3)
        probs = geometric_symbol_probabilities(ss, 0.05)
        assert probs[0] > 0.9
        assert probs == sorted(probs, reverse=True)

    def test_escape_collects_tail(self):
        ss = SymbolSet(max_count=30, aggregation_threshold=2)
        probs = geometric_symbol_probabilities(ss, 0.5)
        # Tail mass = p^2 (normalized by truncation)
        assert probs[2] == pytest.approx(0.25, abs=0.01)

    def test_unaggregated_matches_geometric(self):
        ss = SymbolSet(max_count=10)
        probs = geometric_symbol_probabilities(ss, 0.3)
        assert probs[1] / probs[0] == pytest.approx(0.3, rel=1e-6)

    def test_total_loss_degenerates_to_uniform(self):
        ss = SymbolSet(max_count=5)
        probs = geometric_symbol_probabilities(ss, 1.0)
        assert all(math.isclose(p, probs[0]) for p in probs)


class TestModelManager:
    def make(self, **kw):
        ss = SymbolSet(max_count=30, aggregation_threshold=3)
        defaults = dict(
            initial_expected_loss=0.2,
            update_period=10.0,
            num_nodes_for_dissemination=50,
        )
        defaults.update(kw)
        return ModelManager(ss, **defaults)

    def test_initial_model_usable(self):
        mm = self.make()
        assert mm.current_epoch == 0
        table = mm.table()
        assert table.num_symbols == 4
        assert table.probability(0) > table.probability(3)

    def test_update_requires_observations(self):
        mm = self.make()
        assert mm.maybe_update(10.0) is False
        assert mm.current_epoch == 0

    def test_update_shifts_model_toward_observations(self):
        mm = self.make()
        # Saturate with symbol 2 (two retransmissions everywhere).
        mm.observe_symbols([2] * 500 + [0] * 10, time=5.0)
        assert mm.maybe_update(10.0) is True
        assert mm.current_epoch == 1
        new = mm.table()
        assert new.probability(2) > 0.8

    def test_estimation_window_drops_stale(self):
        mm = self.make(update_period=10.0)
        mm.observe_symbols([3] * 100, time=1.0)
        mm.maybe_update(10.0)
        # New observations only; old ones now outside the window.
        mm.observe_symbols([0] * 100, time=15.0)
        mm.maybe_update(20.0)
        assert mm.table().probability(0) > mm.table().probability(3)

    def test_updates_disabled(self):
        mm = self.make(update_period=None)
        mm.observe_symbols([1] * 100, time=1.0)
        assert mm.maybe_update(100.0) is False
        assert mm.total_dissemination_bits == 0

    def test_dissemination_accounting(self):
        mm = self.make(num_nodes_for_dissemination=100)
        mm.observe_symbols([0] * 50, time=1.0)
        mm.maybe_update(10.0)
        per_node = 8 + 4 * 12  # header + 4 symbols
        assert mm.total_dissemination_bits == per_node * 100
        assert mm.updates_performed == 1

    def test_epoch_history_eviction(self):
        mm = self.make(epoch_history=2)
        for i in range(4):
            mm.observe_symbols([0] * 10, time=float(i * 10 + 5))
            mm.maybe_update(float((i + 1) * 10))
        assert mm.current_epoch == 4
        with pytest.raises(KeyError):
            mm.table(0)
        mm.table(4)
        mm.table(3)

    def test_epoch_field_roundtrip(self):
        mm = self.make(epoch_history=4)
        bits = mm.epoch_field_bits
        for i in range(5):
            mm.observe_symbols([0] * 10, time=float(i * 10 + 5))
            mm.maybe_update(float((i + 1) * 10))
        epoch = mm.current_epoch
        field = epoch % (1 << bits)
        assert mm.resolve_epoch_field(field) == epoch

    def test_resolve_unknown_field(self):
        mm = self.make(epoch_history=1)
        with pytest.raises(KeyError):
            # epoch 0 retained; a field value not congruent to any epoch
            mm.resolve_epoch_field(1)

    def test_validation(self):
        ss = SymbolSet(5)
        with pytest.raises(ValueError):
            ModelManager(ss, update_period=0.0)
        with pytest.raises(ValueError):
            ModelManager(ss, epoch_history=0)
        with pytest.raises(ValueError):
            ModelManager(ss, initial_expected_loss=1.5)

"""Tests for compressed path encoding (PathRankModel + codec integration)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotation import AnnotationCodec
from repro.core.config import DophyConfig
from repro.core.decoder import decode_annotation
from repro.core.dophy import DophySystem
from repro.core.model import ModelManager
from repro.core.path_codec import PathRankModel
from repro.core.symbols import SymbolSet
from repro.net.link import uniform_loss_assigner
from repro.net.routing import RoutingConfig
from repro.net.simulation import CollectionSimulation, SimulationConfig
from repro.net.topology import (
    grid_topology,
    line_topology,
    random_geometric_topology,
    topology_from_edges,
)


class TestPathRankModel:
    def test_rank_orders_sinkward_first(self):
        # Diamond: node 3 neighbors are 1 and 2 (both depth 1).
        topo = topology_from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        model = PathRankModel(topo)
        assert model.rank(3, 1) == 0  # tie broken by node id
        assert model.rank(3, 2) == 1
        # Node 1's neighbors: 0 (depth 0) before 3 (depth 2).
        assert model.rank(1, 0) == 0
        assert model.rank(1, 3) == 1

    def test_rank_inverts(self):
        topo = grid_topology(4, 4, diagonal=True)
        model = PathRankModel(topo)
        for u in topo.nodes:
            for v in topo.neighbors(u):
                assert model.neighbor_at(u, model.rank(u, v)) == v

    def test_non_neighbor_rejected(self):
        topo = line_topology(4)
        model = PathRankModel(topo)
        with pytest.raises(ValueError):
            model.rank(0, 3)
        with pytest.raises(ValueError):
            model.neighbor_at(0, 5)
        with pytest.raises(ValueError):
            model.neighbor_at(99, 0)

    def test_table_skewed_toward_rank_zero(self):
        topo = grid_topology(4, 4, diagonal=True)
        model = PathRankModel(topo)
        probs = model.table.probabilities()
        assert probs == sorted(probs, reverse=True)
        assert probs[0] > 0.5



def make_codec(topo, **config_kw):
    cfg = DophyConfig(path_encoding="compressed", **config_kw)
    ss = SymbolSet(cfg.max_count, cfg.aggregation_threshold)
    mm = ModelManager(ss, num_nodes_for_dissemination=topo.num_nodes)
    return AnnotationCodec(cfg, mm, topo.num_nodes, PathRankModel(topo))


class TestCompressedAnnotation:
    def test_roundtrip_on_grid(self):
        topo = grid_topology(4, 4, diagonal=True)
        codec = make_codec(topo)
        path = [15, 10, 5, 0]
        counts = [0, 4, 1]
        ann = codec.new_annotation()
        for s, r, c in zip(path, path[1:], counts):
            codec.annotate_hop(ann, s, r, c)
        data, bits = codec.serialize(ann)
        decoded = decode_annotation(data, bits, codec, origin=15, sink=0)
        assert decoded.path == path
        assert [h.retx_count for h in decoded.hops] == counts

    def test_roundtrip_detour_path(self):
        """Paths that move laterally or away from the sink still decode."""
        topo = grid_topology(3, 3)
        codec = make_codec(topo)
        path = [8, 7, 4, 5, 2, 1, 0]  # includes a sideways + backward hop
        counts = [0, 1, 0, 2, 0, 0]
        ann = codec.new_annotation()
        for s, r, c in zip(path, path[1:], counts):
            codec.annotate_hop(ann, s, r, c)
        data, bits = codec.serialize(ann)
        decoded = decode_annotation(data, bits, codec, origin=8, sink=0)
        assert decoded.path == path

    def test_requires_path_model(self):
        topo = line_topology(4)
        cfg = DophyConfig(path_encoding="compressed")
        ss = SymbolSet(cfg.max_count, cfg.aggregation_threshold)
        mm = ModelManager(ss)
        with pytest.raises(ValueError):
            AnnotationCodec(cfg, mm, topo.num_nodes, path_model=None)

    def test_compressed_smaller_than_explicit_on_large_net(self):
        topo = random_geometric_topology(100, seed=3)
        compressed = make_codec(topo)
        explicit_cfg = DophyConfig(path_encoding="explicit")
        ss = SymbolSet(explicit_cfg.max_count, explicit_cfg.aggregation_threshold)
        mm = ModelManager(ss, num_nodes_for_dissemination=topo.num_nodes)
        explicit = AnnotationCodec(explicit_cfg, mm, topo.num_nodes)
        # A typical sinkward path: follow best-rank neighbors.
        model = compressed.path_model
        path = [87]
        while path[-1] != 0 and len(path) < 20:
            path.append(model.neighbor_at(path[-1], 0))
        counts = [0] * (len(path) - 1)
        ann_c = compressed.new_annotation()
        ann_e = explicit.new_annotation()
        for s, r, c in zip(path, path[1:], counts):
            compressed.annotate_hop(ann_c, s, r, c)
            explicit.annotate_hop(ann_e, s, r, c)
        _, bits_c = compressed.serialize(ann_c)
        _, bits_e = explicit.serialize(ann_e)
        assert bits_c < 0.6 * bits_e  # 7-bit ids vs ~sub-1-bit ranks


class TestCompressedEndToEnd:
    def run_system(self, path_encoding):
        topo = random_geometric_topology(40, seed=17)
        dophy = DophySystem(DophyConfig(path_encoding=path_encoding))
        sim = CollectionSimulation(
            topo,
            seed=17,
            config=SimulationConfig(
                duration=200.0,
                traffic_period=4.0,
                routing=RoutingConfig(etx_noise_std=0.5),
            ),
            link_assigner=uniform_loss_assigner(0.05, 0.3),
            observers=[dophy],
        )
        result = sim.run()
        return dophy.report(), result

    def test_no_decode_failures_under_dynamics(self):
        report, result = self.run_system("compressed")
        assert report.decode_failures == 0
        assert report.packets_decoded == result.ground_truth.packets_delivered

    def test_same_estimates_as_explicit(self):
        rep_c, _ = self.run_system("compressed")
        rep_e, _ = self.run_system("explicit")
        assert set(rep_c.estimates) == set(rep_e.estimates)
        for link in rep_c.estimates:
            assert rep_c.estimates[link].loss == pytest.approx(
                rep_e.estimates[link].loss, abs=1e-12
            )

    def test_clearly_smaller_annotations(self):
        rep_c, _ = self.run_system("compressed")
        rep_e, _ = self.run_system("explicit")
        assert rep_c.mean_annotation_bits < 0.75 * rep_e.mean_annotation_bits


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500), data=st.data())
def test_property_compressed_roundtrip_random_walks(seed, data):
    """Any neighbor-to-neighbor walk round-trips through the compressed codec."""
    topo = grid_topology(4, 4, diagonal=True)
    codec = make_codec(topo)
    length = data.draw(st.integers(min_value=1, max_value=8))
    path = [data.draw(st.sampled_from(topo.nodes))]
    for _ in range(length - 1):
        path.append(data.draw(st.sampled_from(topo.neighbors(path[-1]))))
    # Walks must end at the sink for the decoder's final check.
    while path[-1] != 0:
        path.append(PathRankModel(topo).neighbor_at(path[-1], 0))
        if len(path) > 30:
            return  # pathological walk; skip
    counts = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=30),
            min_size=len(path) - 1,
            max_size=len(path) - 1,
        )
    )
    ann = codec.new_annotation()
    for s, r, c in zip(path, path[1:], counts):
        codec.annotate_hop(ann, s, r, c)
    decoded = decode_annotation(
        *codec.serialize(ann), codec, origin=path[0], sink=0
    )
    assert decoded.path == path
    for hop, c in zip(decoded.hops, counts):
        if hop.exact:
            assert hop.retx_count == c

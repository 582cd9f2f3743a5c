"""Tests for topology generators and queries."""

import networkx as nx
import pytest

from repro.net.topology import (
    Topology,
    grid_topology,
    line_topology,
    random_geometric_topology,
    topology_from_edges,
)


class TestLineTopology:
    def test_structure(self):
        t = line_topology(5)
        assert t.num_nodes == 5
        assert t.num_edges == 4
        assert t.sink == 0
        assert t.neighbors(2) == [1, 3]

    def test_hop_distances(self):
        t = line_topology(6)
        assert [t.hops_to_sink(i) for i in range(6)] == [0, 1, 2, 3, 4, 5]
        assert t.max_depth == 5

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            line_topology(1)


class TestGridTopology:
    def test_4_connectivity(self):
        t = grid_topology(3, 3)
        assert t.num_nodes == 9
        # interior node 4 has 4 neighbors
        assert t.neighbors(4) == [1, 3, 5, 7]

    def test_8_connectivity(self):
        t = grid_topology(3, 3, diagonal=True)
        assert t.neighbors(4) == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_positions_follow_spacing(self):
        t = grid_topology(2, 3, spacing=2.0)
        assert t.positions[5] == (4.0, 2.0)

    def test_distance(self):
        t = grid_topology(2, 2, spacing=3.0)
        assert t.distance(0, 3) == pytest.approx(3.0 * 2**0.5)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            grid_topology(1, 1)


class TestRandomGeometric:
    def test_connected_and_reproducible(self):
        a = random_geometric_topology(50, seed=7)
        b = random_geometric_topology(50, seed=7)
        assert a.num_nodes == 50
        assert nx.is_connected(a.graph)
        assert a.undirected_edges() == b.undirected_edges()

    def test_different_seeds_differ(self):
        a = random_geometric_topology(50, seed=1)
        b = random_geometric_topology(50, seed=2)
        assert a.undirected_edges() != b.undirected_edges()

    def test_sink_pinned_at_corner(self):
        t = random_geometric_topology(30, seed=3, sink_position="corner")
        assert t.positions[0] == (0.0, 0.0)

    def test_sink_center(self):
        t = random_geometric_topology(30, seed=3, sink_position="center", side=2.0)
        assert t.positions[0] == (1.0, 1.0)

    def test_invalid_sink_position(self):
        with pytest.raises(ValueError):
            random_geometric_topology(10, seed=0, sink_position="edge")

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            random_geometric_topology(1, seed=0)

    def test_explicit_radius_respected(self):
        t = random_geometric_topology(40, seed=5, radius=0.9)
        # with a huge radius nearly everything is adjacent
        assert t.num_edges > 40 * 5


class TestTopologyValidation:
    def test_rejects_disconnected(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            Topology(g, sink=0)

    def test_rejects_missing_sink(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError):
            Topology(g, sink=99)

    def test_rejects_single_node(self):
        g = nx.Graph()
        g.add_node(0)
        with pytest.raises(ValueError):
            Topology(g, sink=0)


class TestEdgesQueries:
    def test_directed_edges_both_ways(self):
        t = topology_from_edges([(0, 1), (1, 2)])
        assert t.directed_edges() == ((0, 1), (1, 0), (1, 2), (2, 1))

    def test_undirected_edges_normalized(self):
        t = topology_from_edges([(2, 1), (1, 0)])
        assert t.undirected_edges() == ((0, 1), (1, 2))


class TestMemoizedAccessors:
    """The derived edge views are computed once and cannot be mutated."""

    def test_repeated_calls_return_equal_cached_values(self):
        t = random_geometric_topology(30, seed=5)
        for accessor in (t.undirected_edges, t.directed_edges):
            first = accessor()
            second = accessor()
            assert first == second
            # Memoized: the same object comes back, not a rebuilt copy.
            assert first is second

    def test_cached_views_are_immutable(self):
        t = grid_topology(3, 3, diagonal=True)
        for accessor in (t.undirected_edges, t.directed_edges):
            view = accessor()
            assert isinstance(view, tuple)
            with pytest.raises((TypeError, AttributeError)):
                view[0] = (99, 100)  # type: ignore[index]
            with pytest.raises((TypeError, AttributeError)):
                view.append((99, 100))  # type: ignore[attr-defined]
            # A caller materializing a list gets a private copy.
            private = list(view)
            private.append((99, 100))
            assert accessor() == view

    def test_vectorized_builders_match_reference_shapes(self):
        # Grid: the array-built edge set equals the scalar definition.
        rows, cols = 4, 5
        t = grid_topology(rows, cols, diagonal=True)
        expected = set()
        for r in range(rows):
            for c in range(cols):
                for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        expected.add((r * cols + c, rr * cols + cc))
        assert set(t.undirected_edges()) == {
            (min(u, v), max(u, v)) for u, v in expected
        }
        assert t.positions[7] == (2 * 1.0, 1 * 1.0)
        # Hop counts match a networkx BFS on the same graph.
        nx_hops = dict(nx.single_source_shortest_path_length(t.graph, 0))
        assert {n: t.hops_to_sink(n) for n in t.nodes} == nx_hops

    def test_bfs_hops_match_networkx_on_rgg(self):
        t = random_geometric_topology(60, seed=9)
        nx_hops = dict(nx.single_source_shortest_path_length(t.graph, t.sink))
        assert {n: t.hops_to_sink(n) for n in t.nodes} == nx_hops

"""Property-based tests on routing invariants.

The tree must stay loop-free and sink-rooted no matter what sequence of
beacon rounds, data samples, and node failures hits it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import uniform_loss_assigner, Channel
from repro.net.routing import RoutingConfig, RoutingEngine
from repro.net.topology import (
    grid_topology,
    random_geometric_topology,
    topology_from_edges,
)
from repro.utils.rng import RngRegistry


def check_tree_invariants(engine, topo, *, allow_dead=()):
    """Every alive node reaches the sink without revisiting a node."""
    for node in topo.nodes:
        if node == topo.sink or node in allow_dead:
            continue
        seen = {node}
        current = node
        for _ in range(topo.num_nodes + 1):
            parent = engine.parent(current)
            if parent is None:
                break  # stale/unroutable is allowed; loops are not
            # Parents are always real neighbours.
            assert parent in topo.neighbors(current)
            if parent in seen:
                # Reaching the sink is fine; revisiting anything else = loop.
                raise AssertionError(f"routing loop at {node}: revisits {parent}")
            seen.add(parent)
            current = parent
            if current == topo.sink:
                break


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    noise=st.floats(min_value=0.0, max_value=2.0),
    rounds=st.integers(min_value=1, max_value=30),
)
def test_property_beacons_never_create_loops(seed, noise, rounds):
    topo = grid_topology(4, 4, diagonal=True)
    reg = RngRegistry(seed)
    channel = Channel.build(topo, uniform_loss_assigner(0.05, 0.4), reg)
    engine = RoutingEngine(
        topo, channel, reg,
        RoutingConfig(etx_noise_std=noise, parent_switch_threshold=0.0),
    )
    for t in range(rounds):
        engine.beacon_round(float(t))
        check_tree_invariants(engine, topo)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_property_failures_never_create_loops(seed, data):
    topo = random_geometric_topology(20, seed=seed % 50)
    reg = RngRegistry(seed)
    channel = Channel.build(topo, uniform_loss_assigner(0.05, 0.3), reg)
    engine = RoutingEngine(
        topo, channel, reg, RoutingConfig(etx_noise_std=0.5)
    )
    dead = set()
    candidates = [n for n in topo.nodes if n != topo.sink]
    for t in range(12):
        action = data.draw(st.sampled_from(["beacon", "fail", "recover"]))
        if action == "beacon":
            engine.beacon_round(float(t))
        elif action == "fail":
            node = data.draw(st.sampled_from(candidates))
            if node not in dead:
                dead.add(node)
                engine.set_alive(node, False, float(t))
        else:
            if dead:
                node = data.draw(st.sampled_from(sorted(dead)))
                dead.discard(node)
                engine.set_alive(node, True, float(t))
        # Alive nodes may route through stale (dead) parents transiently;
        # the invariant that must always hold is loop-freedom.
        check_tree_invariants(engine, topo, allow_dead=dead)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    samples=st.lists(
        st.tuples(st.integers(0, 15), st.integers(1, 31)), max_size=40
    ),
)
def test_property_data_samples_never_create_loops(seed, samples):
    """Arbitrary data-driven ETX feedback keeps the tree consistent."""
    topo = grid_topology(4, 4, diagonal=True)
    reg = RngRegistry(seed)
    channel = Channel.build(topo, uniform_loss_assigner(0.05, 0.4), reg)
    engine = RoutingEngine(
        topo, channel, reg,
        RoutingConfig(etx_noise_std=0.3, data_alpha=0.5),
    )
    for i, (node, attempts) in enumerate(samples):
        parent = engine.parent(node)
        if node != topo.sink and parent is not None:
            engine.on_data_sample(node, parent, attempts, float(i))
        if i % 5 == 0:
            engine.beacon_round(float(i))
        check_tree_invariants(engine, topo)


def assert_same_routing(array, full, topo):
    assert array.tree_snapshot() == full.tree_snapshot()
    assert array.parent_change_log == full.parent_change_log
    for node in topo.nodes:
        assert array.route_cost(node) == full.route_cost(node)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_property_spt_modes_identical_and_loop_free(seed, data):
    """The array engine's solver (``spt_mode="array"``:
    ``_solve_spt_array``, scipy's compiled Dijkstra plus vectorized
    tie-break passes) and the heap Dijkstra (``spt_mode="full"``:
    ``_solve_spt_full``) must agree bit for bit — same parents, same
    costs, same churn log — after *any* sequence of beacons, failures,
    recoveries and data samples, and neither may ever leave a parent
    cycle (the hardened ``_repair_loops`` guarantee)."""

    def build(mode):
        topo = random_geometric_topology(20, seed=seed % 50)
        reg = RngRegistry(seed)
        channel = Channel.build(topo, uniform_loss_assigner(0.05, 0.3), reg)
        engine = RoutingEngine(
            topo, channel, reg,
            RoutingConfig(etx_noise_std=0.5, data_alpha=0.5),
            spt_mode=mode,
        )
        return topo, engine

    topo, full = build("full")
    _, array = build("array")
    dead = set()
    candidates = [n for n in topo.nodes if n != topo.sink]
    for t in range(14):
        action = data.draw(
            st.sampled_from(["beacon", "fail", "recover", "sample"])
        )
        if action == "beacon":
            full.beacon_round(float(t))
            array.beacon_round(float(t))
        elif action == "fail":
            node = data.draw(st.sampled_from(candidates))
            if node not in dead:
                dead.add(node)
                full.set_alive(node, False, float(t))
                array.set_alive(node, False, float(t))
        elif action == "recover":
            if dead:
                node = data.draw(st.sampled_from(sorted(dead)))
                dead.discard(node)
                full.set_alive(node, True, float(t))
                array.set_alive(node, True, float(t))
        else:
            node = data.draw(st.sampled_from(candidates))
            attempts = data.draw(st.integers(1, 31))
            parent = full.parent(node)
            if parent is not None:
                full.on_data_sample(node, parent, attempts, float(t))
                array.on_data_sample(node, parent, attempts, float(t))
        check_tree_invariants(full, topo, allow_dead=dead)
        check_tree_invariants(array, topo, allow_dead=dead)
        assert_same_routing(array, full, topo)


def test_spt_modes_break_equal_cost_ties_alike():
    """Equal losses and noise-free estimates make most nodes tie between
    two parents of exactly equal cost and distance. scipy's predecessors
    are arbitrary under ties, so equal trees pin that the array solver's
    parents come from its tie-break passes. Killing a cut vertex masks
    a dead node and leaves a region unreachable; reviving it reconnects
    that region."""

    def grid_edges(ids):
        return [
            (ids[r][c], ids[r + dr][c + dc])
            for r in range(3)
            for c in range(3)
            for dr, dc in ((0, 1), (1, 0))
            if r + dr < 3 and c + dc < 3
        ]

    # Two 3x3 grids sharing node 4, the centre of the sink's grid, so 4
    # is a cut vertex and node 7's tied parents are 4 and 6.
    cut = 4
    sink_side = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    far_side = [[4, 9, 10], [11, 12, 13], [14, 15, 16]]
    topo = topology_from_edges(grid_edges(sink_side) + grid_edges(far_side))

    def build(mode):
        reg = RngRegistry(9)
        channel = Channel.build(topo, uniform_loss_assigner(0.2, 0.2), reg)
        return RoutingEngine(
            topo, channel, reg,
            RoutingConfig(etx_noise_std=0.0, parent_switch_threshold=0.0),
            spt_mode=mode,
        )

    full, array = build("full"), build("array")
    assert full.parent(7) == cut
    assert full.parent(12) == 9  # ties 9 and 11; the lower id wins
    assert_same_routing(array, full, topo)
    for t, alive in ((1.0, False), (2.0, True)):
        full.set_alive(cut, alive, t)
        array.set_alive(cut, alive, t)
        assert_same_routing(array, full, topo)
        full.beacon_round(t + 0.5)
        array.beacon_round(t + 0.5)
        assert_same_routing(array, full, topo)
    assert full.parent_change_log, "the cut must move node 7 off its parent"

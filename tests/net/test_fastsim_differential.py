"""Differential oracle: the array engine must BE the event engine.

``engine="array"`` (net/fastsim.py) replaces the simulator's three hot
paths — event queue, MAC frame draws, beacon ETX sampling — with batched
kernels, under the contract that for an identical seed the *observable
stream is bit-identical* to the reference event engine. This suite is
the contract's enforcement: every scenario family in the matrix (tree
and mesh topologies × link classes × node failures × packet-fault
injection) runs once per engine and is compared field by field —
packets and their per-hop traces, ground-truth link usage, routing
churn and ETX state, per-link RNG draw counts, and the downstream
``PerLinkEstimator`` evidence a Dophy sink accumulates.

Equality here is exact (``==`` on floats), not approximate: the array
engine earns its speed purely from batching, never from reordering or
re-rounding. Tolerances would hide exactly the class of bug this suite
exists to catch.
"""

import inspect

import pytest

from repro.core import DophyConfig, DophySystem
from repro.net.faults import FaultPlan
from repro.net.fastsim import _BLOCK, FastArqMac
from repro.net.routing import RoutingConfig
from repro.sanitize import diff_fingerprints, sanitize_run
from repro.workloads.scenarios import (
    bursty_rgg_scenario,
    drifting_line_scenario,
    drifting_rgg_scenario,
    dynamic_rgg_scenario,
    failing_rgg_scenario,
    interference_rgg_scenario,
    line_scenario,
    static_grid_scenario,
)

#: (scenario factory, kwargs, config overrides) — tree and mesh
#: topologies crossed with every link-model class the simulator ships,
#: plus node failures, heavy queue contention, and beacon churn fast
#: enough that routes flip between a packet's hops. Durations are
#: trimmed so the whole matrix stays a fast tier-1 suite.
MATRIX = [
    ("line_tree", line_scenario, {"num_nodes": 6}, {}),
    ("grid_mesh", static_grid_scenario, {"rows": 4, "cols": 4}, {}),
    ("rgg_dynamic", dynamic_rgg_scenario, {"num_nodes": 16}, {}),
    ("rgg_bursty_gilbert_elliott", bursty_rgg_scenario, {"num_nodes": 12}, {}),
    ("rgg_drifting", drifting_rgg_scenario, {"num_nodes": 12}, {}),
    ("line_drifting", drifting_line_scenario, {"num_nodes": 6}, {}),
    ("rgg_node_failures", failing_rgg_scenario, {"num_nodes": 14}, {}),
    ("rgg_interference", interference_rgg_scenario, {"num_nodes": 14}, {}),
    # Mid-journey rerouting: beacons every 0.4 s with near-zero
    # hysteresis, so parents flip while packets are in flight and each
    # leg must read the tree as it stands at its own forwarding event.
    (
        "rgg_rerouting_mid_journey",
        dynamic_rgg_scenario,
        {"num_nodes": 16},
        {
            "routing": RoutingConfig(
                beacon_period=0.4, parent_switch_threshold=0.05
            )
        },
    ),
    # Queue contention: 20× the default offered load, so radios stay
    # busy, transmit queues fill, and tail drops occur — FIFO order and
    # overflow decisions must survive batching exactly.
    (
        "rgg_queue_contention",
        dynamic_rgg_scenario,
        {"num_nodes": 16},
        {"traffic_period": 0.5},
    ),
    # Zero forward delay: hop arrivals tie with exchange finish times,
    # so the array engine keeps finish events instead of its lazy busy
    # horizon; this row pins that path.
    (
        "rgg_zero_forward_delay",
        dynamic_rgg_scenario,
        {"num_nodes": 16},
        {"forward_delay": 0.0},
    ),
]

SEEDS = (13, 1107)


def _run(factory, kwargs, engine, seed, observer_factory=None, cfg=None):
    scenario = factory(**kwargs).with_config(
        duration=60.0, engine=engine, **(cfg or {})
    )
    observers = [observer_factory()] if observer_factory else []
    simulation = scenario.make_simulation(seed, observers=observers)
    result = simulation.run()
    return result, observers[0] if observers else None


def _assert_results_identical(event, array):
    # Packet streams: dataclass equality covers origin/seqno/timestamps,
    # drop reasons, and every HopRecord (sender, receiver, attempts,
    # completion time, success) bit for bit, in creation order.
    assert array.packets == event.packets
    assert array.events_processed == event.events_processed
    assert array.duration == event.duration

    # Ground truth: per-link exchange/frame/reception tallies and the
    # full per-exchange attempt-number samples.
    assert dict(array.ground_truth.link_usage) == dict(event.ground_truth.link_usage)
    assert array.ground_truth.packets_generated == event.ground_truth.packets_generated
    assert array.ground_truth.packets_delivered == event.ground_truth.packets_delivered
    assert dict(array.ground_truth.drop_reasons) == dict(event.ground_truth.drop_reasons)

    # Routing: identical churn history, final tree, and EWMA ETX state.
    assert array.routing.parent_change_log == event.routing.parent_change_log
    assert array.routing.tree_snapshot() == event.routing.tree_snapshot()
    assert array.routing.beacon_rounds == event.routing.beacon_rounds
    for edge in event.topology.directed_edges():
        assert array.routing.estimated_etx(*edge) == event.routing.estimated_etx(*edge)

    # Channel: the engines consumed the per-edge RNG streams identically.
    for edge in event.topology.directed_edges():
        assert array.channel.draws(*edge) == event.channel.draws(*edge)
        assert array.channel.empirical_loss(*edge) == event.channel.empirical_loss(*edge)


def _link_draw_sizes(factory):
    """Block sizes an array run (12 nodes, seed 3) draws from its
    ``link/u/v`` streams, as the runtime sanitizer records them."""
    with sanitize_run("array") as san:
        _run(factory, {"num_nodes": 12}, "array", 3)
    return {
        record.count
        for record in san.fingerprint().draws
        if record.stream.startswith("link/")
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "factory,kwargs,cfg",
    [(f, k, c) for _, f, k, c in MATRIX],
    ids=[m[0] for m in MATRIX],
)
def test_engines_bit_identical(factory, kwargs, cfg, seed):
    event, _ = _run(factory, kwargs, "event", seed, cfg=cfg)
    array, _ = _run(factory, kwargs, "array", seed, cfg=cfg)
    _assert_results_identical(event, array)


@pytest.mark.parametrize("seed", SEEDS)
def test_dophy_estimator_evidence_identical(seed):
    """The evidence a Dophy sink decodes — and the MLE it solves — is a
    pure function of the observable stream, so it must match too."""
    event, dophy_event = _run(
        dynamic_rgg_scenario, {"num_nodes": 16}, "event", seed, DophySystem
    )
    array, dophy_array = _run(
        dynamic_rgg_scenario, {"num_nodes": 16}, "array", seed, DophySystem
    )
    _assert_results_identical(event, array)
    report_event = dophy_event.report()
    report_array = dophy_array.report()
    assert report_array == report_event
    links = dophy_event.estimator.links()
    assert dophy_array.estimator.links() == links
    for link in links:
        a = dophy_array.estimator.estimate(link)
        b = dophy_event.estimator.estimate(link)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.loss == b.loss
            assert a.n_samples == b.n_samples


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_injection_identical(seed):
    """Packet-fault injection (bit corruption, truncation) draws from
    its own streams, so it perturbs neither engine — and its observable
    effects must coincide."""

    def faulty_dophy():
        return DophySystem(
            DophyConfig(),
            faults=FaultPlan(
                seed=seed,
                corruption_rate=0.05,
                truncation_rate=0.05,
            ),
        )

    event, dophy_event = _run(
        dynamic_rgg_scenario, {"num_nodes": 16}, "event", seed, faulty_dophy
    )
    array, dophy_array = _run(
        dynamic_rgg_scenario, {"num_nodes": 16}, "array", seed, faulty_dophy
    )
    _assert_results_identical(event, array)
    report_event = dophy_event.report()
    report_array = dophy_array.report()
    assert report_array == report_event
    assert report_event.decode_failures > 0


def test_gilbert_elliott_chain_replay_classification():
    """Gilbert–Elliott chains are not replayed against buffered uniforms:
    GE edges run the exact ``ArqMac`` and draw one value per frame."""
    assert _link_draw_sizes(bursty_rgg_scenario) == {1}


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_fingerprint_equivalent(seed):
    """Runtime-sanitizer form of the bit-identity contract: per-stream
    RNG value sequences match across engines (batching tolerated via the
    block-tail allowance; an extra *call* would be flagged)."""
    with sanitize_run("event") as san_event:
        _run(dynamic_rgg_scenario, {"num_nodes": 16}, "event", seed)
    with sanitize_run("array") as san_array:
        _run(dynamic_rgg_scenario, {"num_nodes": 16}, "array", seed)
    fp_event = san_event.fingerprint()
    fp_array = san_array.fingerprint()
    divergences = diff_fingerprints(fp_event, fp_array, mode="stream")
    assert divergences == [], "\n".join(d.describe() for d in divergences)
    # Same engine, same seed: strict call-interleaving equality too.
    with sanitize_run("array-again") as san_again:
        _run(dynamic_rgg_scenario, {"num_nodes": 16}, "array", seed)
    assert diff_fingerprints(fp_array, san_again.fingerprint(),
                             mode="global") == []


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_pop_profile_fingerprints(seed):
    """Batched forwarding elides and reorders event pops by design, so
    its runs carry the ``batched-forwarding`` pop profile: stream-mode
    diffs against any other profile compare draws and effects strictly
    but skip the pop sequence, while same-profile runs stay strictly
    pop-identical in global mode."""
    with sanitize_run("array-batched") as san_batched:
        _run(dynamic_rgg_scenario, {"num_nodes": 16}, "array", seed)
    with sanitize_run("event-per-hop") as san_per_hop:
        _run(dynamic_rgg_scenario, {"num_nodes": 16}, "event", seed)
    fp_batched = san_batched.fingerprint()
    fp_per_hop = san_per_hop.fingerprint()
    assert fp_batched.pop_profile == "batched-forwarding"
    assert fp_per_hop.pop_profile == "event"
    # Batching genuinely changes the pop sequence (finish events elided)...
    assert fp_batched.pops != fp_per_hop.pops
    # ...yet the observable stream contract still holds across profiles.
    divergences = diff_fingerprints(fp_per_hop, fp_batched, mode="stream")
    assert divergences == [], "\n".join(d.describe() for d in divergences)
    # Same profile, same seed: strict pop-for-pop equality.
    with sanitize_run("array-batched-again") as san_again:
        _run(dynamic_rgg_scenario, {"num_nodes": 16}, "array", seed)
    assert diff_fingerprints(fp_batched, san_again.fingerprint(),
                             mode="global") == []


def test_injected_extra_draw_is_named_with_site_and_index(monkeypatch):
    """Acceptance criterion: smuggle one extra draw into the array fast
    path and the sanitizer report must name the exact file:line of the
    smuggled call, its stream, and the draw index."""
    original_send = FastArqMac.send
    state = {}

    def tampered_send(self, sender, receiver, start_time):
        plan = self._plans.get((sender, receiver))
        if plan is not None and "line" not in state:
            state["line"] = inspect.currentframe().f_lineno + 2
            state["stream"] = getattr(plan.rng, "stream_name", None)
            plan.rng.random()  # the smuggled extra draw
        return original_send(self, sender, receiver, start_time)

    # A zero forward delay makes the array engine forward per hop, which
    # keeps the "event" pop profile, so the final cross-engine stream
    # diff below still compares pop sequences (the channel the behaviour
    # shift shows up in: the extra draw changes attempt counts, hence the
    # event schedule).
    per_hop = {"forward_delay": 0.0}
    with sanitize_run("array-clean") as clean:
        _run(dynamic_rgg_scenario, {"num_nodes": 16}, "array", 13, cfg=per_hop)
    monkeypatch.setattr(FastArqMac, "send", tampered_send)
    with sanitize_run("array-tampered") as tampered:
        _run(dynamic_rgg_scenario, {"num_nodes": 16}, "array", 13, cfg=per_hop)

    divergences = diff_fingerprints(
        clean.fingerprint(), tampered.fingerprint(), mode="global"
    )
    assert divergences, "the smuggled draw must be caught"
    div = divergences[0]
    # MAC plans classify lazily, so the first plan-bearing send (where
    # the tamper fires) is an edge's *second* exchange: the smuggled
    # draw lands mid-sequence, where the clean run's draw at that global
    # index belongs to another stream. The diff then reports a
    # cross-stream call divergence — ``stream`` is ambiguous (None) but
    # the smuggled stream must still be named in the message.
    assert div.stream in (None, state["stream"])
    assert state["stream"] in div.message
    assert div.index is not None
    expected_site = f"test_fastsim_differential.py:{state['line']}"
    assert expected_site in (div.site_b or ""), div.describe()
    # The cross-engine (stream-mode) contract breaks too: downstream
    # behaviour shifted, so the matched-value prefix cannot cover both.
    with sanitize_run("event") as san_event:
        _run(dynamic_rgg_scenario, {"num_nodes": 16}, "event", 13, cfg=per_hop)
    assert diff_fingerprints(
        san_event.fingerprint(), tampered.fingerprint(), mode="stream"
    ) != []


def test_bufferable_classification():
    """The buffered MAC serves Bernoulli links alone: a Bernoulli run
    draws every ``link/u/v`` stream in blocks, while drifting and
    interfered links draw one value per frame through the exact
    ``ArqMac``."""
    for factory, draw_size in [
        (dynamic_rgg_scenario, _BLOCK),
        (drifting_rgg_scenario, 1),
        (interference_rgg_scenario, 1),
    ]:
        assert _link_draw_sizes(factory) == {draw_size}, factory.__name__

"""Runtime pins for four determinism defect classes that no per-file
lint rule can see: one RNG stream shared by two consumers, draws under
unordered iteration, durability effects out of order, and a handler
that swallows evidence without counting it.

Each *bad* fixture under ``fixtures/`` commits its defect when it runs,
and the sanitizer observes it (a divergent fingerprint or a broken
effect protocol); the *ok* twin runs the blessed spelling and behaves
identically under the same perturbation. Test and fixture names keep
the ids of the retired static rules RPL006–RPL009 that first named
these classes (DESIGN.md §13).
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import numpy as np

from repro.sanitize import (
    diff_fingerprints,
    sanitize_run,
    verify_effect_protocol,
)
from repro.stream.records import PacketRecord
from repro.stream.shard import ShardWorker, shard_apply_task
from repro.stream.storage import DirectoryStore
from repro.utils.rng import derive_rng

FIXTURES = Path(__file__).parent / "fixtures"
_counter = itertools.count()


def load_fixture(rel):
    """Import a fixture fresh (module-level state re-executes)."""
    path = FIXTURES / rel
    name = f"rpl_fixture_{rel.replace('/', '_')[:-3]}_{next(_counter)}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -------------------------------------- one stream, two consumers (RPL006)

def test_rpl006_aliased_stream_couples_consumers():
    """Swapping consumer call order reassigns which values each consumer
    receives — the parity break a shared stream causes."""
    with sanitize_run("scalar-first") as a:
        mod = load_fixture("rpl006_bad.py")
        scalar_first = mod.scalar_losses(4)
        mod.buffered_losses(4)
    with sanitize_run("buffered-first") as b:
        mod = load_fixture("rpl006_bad.py")
        mod.buffered_losses(4)
        scalar_second = mod.scalar_losses(4)
    # The consumer's observed values depend on who drew before it.
    assert scalar_first != list(scalar_second)
    # Global (call-interleaving) mode names the coupled stream.
    d = diff_fingerprints(a.fingerprint(), b.fingerprint(), mode="global")
    assert d and d[0].stream == "fixture/shared"
    assert "rpl006_bad.py" in (d[0].site_a or "")


def test_rpl006_ok_per_consumer_substreams_commute():
    with sanitize_run("scalar-first") as a:
        mod = load_fixture("rpl006_ok.py")
        scalar_first = mod.scalar_losses(1234, 4)
        mod.buffered_losses(1234, 4)
    with sanitize_run("buffered-first") as b:
        mod = load_fixture("rpl006_ok.py")
        mod.buffered_losses(1234, 4)
        scalar_second = mod.scalar_losses(1234, 4)
    assert scalar_first == list(scalar_second)
    # Per-stream values are order-independent once streams are private.
    assert diff_fingerprints(a.fingerprint(), b.fingerprint(),
                             mode="stream") == []


# -------------------------------- draws under unordered iteration (RPL007)

TAGS = ["n1", "n22", "n333", "n4444"]


def test_rpl007_unordered_iteration_diverges():
    mod = load_fixture("rpl007_bad.py")
    with sanitize_run("fwd") as a:
        mod.fold_weights(TAGS, derive_rng(77, "fold"))
    with sanitize_run("rev") as b:
        mod.fold_weights(list(reversed(TAGS)), derive_rng(77, "fold"))
    d = diff_fingerprints(a.fingerprint(), b.fingerprint(), mode="stream")
    assert len(d) == 1
    div = d[0]
    assert div.kind == "draw" and div.stream == "fold" and div.index == 0
    assert "rpl007_bad.py" in div.site_a and "rpl007_bad.py" in div.site_b


def test_rpl007_ok_sorted_iteration_is_order_independent():
    mod = load_fixture("rpl007_ok.py")
    with sanitize_run("fwd") as a:
        total_a = mod.fold_weights(TAGS, derive_rng(77, "fold"))
    with sanitize_run("rev") as b:
        total_b = mod.fold_weights(list(reversed(TAGS)), derive_rng(77, "fold"))
    assert total_a == total_b
    assert diff_fingerprints(a.fingerprint(), b.fingerprint(),
                             mode="global") == []


# ---------------------------------------- durability-effect order (RPL008)

def _records(n):
    return [
        PacketRecord(0, i, float(i), True, ((0, 1, 1, True),)) for i in range(n)
    ]


def test_rpl008_bad_order_breaks_effect_protocol(tmp_path):
    mod = load_fixture("stream/rpl008_bad.py")
    with sanitize_run("bad") as san:
        store = DirectoryStore(tmp_path / "bad")
        worker = ShardWorker(0, 3, store)
        mod.bad_round(worker, _records(5))
        mod.bad_snapshot(worker, store, round_no=1)
    problems = verify_effect_protocol(san.fingerprint())
    assert len(problems) == 2
    assert any("apply" in p and "durable" in p for p in problems)
    assert any("manifest" in p for p in problems)


def test_rpl008_ok_order_verifies_clean(tmp_path):
    mod = load_fixture("stream/rpl008_ok.py")
    with sanitize_run("good") as san:
        store = DirectoryStore(tmp_path / "good")
        worker = ShardWorker(0, 3, store)
        mod.good_round(worker, _records(5))
        mod.good_snapshot(worker, store, round_no=1)
    assert verify_effect_protocol(san.fingerprint()) == []


def test_apply_inside_an_open_wal_group_breaks_effect_protocol(tmp_path):
    """An apply placed inside an open WAL group runs before the group's
    write and fsync. The group reports its appends only after both, so
    the sanitizer sees the apply run ahead of them."""
    records = _records(4)
    with sanitize_run("apply-in-group") as san:
        worker = ShardWorker(0, 3, DirectoryStore(tmp_path / "s"))
        with worker.wal.group():
            for seq, record in enumerate(records, start=1):
                worker.wal.append(seq, record)
            delta = shard_apply_task(
                worker.max_attempts, worker.truncation_correction, records
            )
            worker.absorb(delta, len(records))
    problems = verify_effect_protocol(san.fingerprint())
    assert len(problems) == 1
    assert "apply precedes the append" in problems[0]


# --------------------------------------------- swallowed evidence (RPL009)

RECORDS = ["a", "bb", "ccc", "dddd", "eeeee"]


def test_rpl009_swallowed_record_shifts_draws_unaccounted():
    mod = load_fixture("stream/rpl009_bad.py")
    corrupted = list(RECORDS)
    corrupted[2] = None
    with sanitize_run("clean") as a:
        mod.drain(RECORDS, derive_rng(5, "decode"))
    with sanitize_run("corrupt") as b:
        mod.drain(corrupted, derive_rng(5, "decode"))
    d = diff_fingerprints(a.fingerprint(), b.fingerprint(), mode="stream")
    assert d, "swallowed record must shift the draw sequence"
    div = d[0]
    assert div.stream == "decode" and div.index == 2
    assert "rpl009_bad.py" in (div.site_a or "")
    # The bad fixture keeps no account of the drop: only the sanitizer
    # names where the evidence disappeared.


def test_rpl009_ok_counts_the_drop():
    mod = load_fixture("stream/rpl009_ok.py")
    corrupted = list(RECORDS)
    corrupted[2] = None
    stats = {}
    with sanitize_run("corrupt") as b:
        mod.drain(corrupted, derive_rng(5, "decode"), stats)
    assert stats == {"dropped": 1}
    # Accounting balances: draws + drops == records.
    assert b.fingerprint().total_draws() + stats["dropped"] == len(RECORDS)


def test_rpl008_real_sink_order_is_clean_end_to_end(tmp_path):
    """The production sink's effect stream satisfies the protocol."""
    from repro.stream.records import feed_estimator  # noqa: F401 (import check)
    mod = load_fixture("stream/rpl008_ok.py")
    with sanitize_run("two-rounds") as san:
        store = DirectoryStore(tmp_path / "s")
        worker = ShardWorker(0, 3, store)
        for round_no in range(3):
            mod.good_round(worker, _records(4))
            mod.good_snapshot(worker, store, round_no=round_no)
    assert verify_effect_protocol(san.fingerprint()) == []
    fp = san.fingerprint()
    kinds = [e.kind for e in fp.effects]
    assert kinds.count("wal-append") == 12
    assert kinds.count("manifest-write") == 3
    assert kinds.count("checkpoint-write") == 3

"""Differ contract: name the first divergent draw; verify the effect protocol."""

from __future__ import annotations

import pytest

from repro.net.fastsim import _BLOCK
from repro.sanitize import (
    Fingerprint,
    diff_fingerprints,
    sanitize_run,
    verify_effect_protocol,
)
from repro.sanitize.fingerprint import DrawRecord, EffectRecord
from repro.utils.rng import derive_rng


def _trace(fn, label):
    with sanitize_run(label) as san:
        fn()
    return san.fingerprint()


def test_identical_runs_identical_fingerprints():
    def run():
        gen = derive_rng(3, "a")
        gen.random(5)
        gen.normal()

    fa, fb = _trace(run, "a"), _trace(run, "b")
    assert diff_fingerprints(fa, fb, mode="stream") == []
    assert diff_fingerprints(fa, fb, mode="global") == []


def test_first_divergent_draw_named_with_site_and_index():
    def base():
        gen = derive_rng(3, "a")
        for _ in range(4):
            gen.random()

    def shifted():
        gen = derive_rng(3, "a")
        gen.random()
        gen.random(2)  # an unexpected batched draw mid-stream
        for _ in range(3):
            gen.random()

    d = diff_fingerprints(_trace(base, "A"), _trace(shifted, "B"), mode="stream")
    assert len(d) == 1
    div = d[0]
    # Values agree (same stream prefix) but B drew 2 extra at the end.
    assert div.kind == "draw-count" and div.stream == "a" and div.index == 4
    assert div.site_b is not None and "test_differ.py" in div.site_b
    assert div.site_a is None


def test_divergent_value_mid_stream():
    def base():
        derive_rng(3, "a").random(4)

    fa = _trace(base, "A")
    fb = Fingerprint(label="B")
    # Build B as A with one value flipped, to pin index/site reporting.
    rec = fa.stream_records("a")[0]
    flipped = list(rec.values)
    flipped[2] ^= 1
    fb.draws.append(
        DrawRecord(rec.stream, rec.method, "elsewhere.py:1 in f", 0, tuple(flipped))
    )
    d = diff_fingerprints(fa, fb, mode="stream")
    assert len(d) == 1
    assert d[0].kind == "draw" and d[0].index == 2
    assert "test_differ.py" in (d[0].site_a or "")
    assert d[0].site_b == "elsewhere.py:1 in f"


#: Block sizes the tail allowance must hold for: a large block, and the
#: size the array kernel actually pre-draws.
BLOCK_SIZES = (256, _BLOCK)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_block_tail_allowance_cross_engine_shape(block_size):
    def scalar():
        gen = derive_rng(9, "arq")
        for _ in range(10):
            gen.random()

    def block():
        derive_rng(9, "arq").random(block_size)  # pre-drawn block, tail unconsumed

    assert diff_fingerprints(_trace(scalar, "A"), _trace(block, "B"),
                             mode="stream") == []


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_extra_call_beyond_prefix_is_flagged(block_size):
    def scalar():
        gen = derive_rng(9, "arq")
        for _ in range(10):
            gen.random()

    def block_plus_one():
        gen = derive_rng(9, "arq")
        gen.random(block_size)
        gen.random()  # extra call entirely past the compared prefix

    d = diff_fingerprints(
        _trace(scalar, "A"), _trace(block_plus_one, "B"), mode="stream"
    )
    assert len(d) == 1 and d[0].kind == "draw-count"


def test_global_mode_rejects_batching_reshape():
    def scalar():
        gen = derive_rng(9, "arq")
        gen.random()
        gen.random()

    def batched():
        derive_rng(9, "arq").random(2)

    assert diff_fingerprints(_trace(scalar, "A"), _trace(batched, "B"),
                             mode="stream") == []
    d = diff_fingerprints(_trace(scalar, "A"), _trace(batched, "B"), mode="global")
    assert d and d[0].kind == "call" and d[0].index == 0


def test_missing_stream_reported():
    def one():
        derive_rng(1, "only").random()

    def none():
        pass

    d = diff_fingerprints(_trace(one, "A"), _trace(none, "B"), mode="stream")
    assert len(d) == 1 and d[0].stream == "only" and d[0].kind == "draw-count"


def test_pop_divergence_and_stream_mode_absence():
    fa = Fingerprint(label="A", pops=[(1.0, 1), (2.0, 2)])
    fb = Fingerprint(label="B", pops=[(1.0, 1), (2.0, 3)])
    d = diff_fingerprints(fa, fb, mode="stream")
    assert len(d) == 1 and d[0].kind == "pop" and d[0].index == 1
    # An engine with no event queue at all is tolerated in stream mode...
    fc = Fingerprint(label="C", pops=[])
    assert diff_fingerprints(fa, fc, mode="stream") == []
    # ...but not in global (same-engine) mode.
    d = diff_fingerprints(fa, fc, mode="global")
    assert d and d[0].kind == "pop-count"


def test_effect_divergence():
    fa = Fingerprint(label="A", effects=[EffectRecord("wal-append", "w", 1)])
    fb = Fingerprint(label="B", effects=[EffectRecord("apply", "w", 1)])
    d = diff_fingerprints(fa, fb, mode="stream")
    assert len(d) == 1 and d[0].kind == "effect"


def test_unknown_mode_raises():
    with pytest.raises(ValueError):
        diff_fingerprints(Fingerprint(label="A"), Fingerprint(label="B"),
                          mode="fuzzy")


# ---------------------------------------------------------------- protocol

def _fp(effects):
    return Fingerprint(label="p", effects=[EffectRecord(*e) for e in effects])


def test_protocol_clean_sequence():
    fp = _fp([
        ("wal-append", "w", 1),
        ("wal-append", "w", 2),
        ("apply", "w", 2),
        ("manifest-write", "sink.manifest", 0),
        ("checkpoint-write", "w", 2),
    ])
    assert verify_effect_protocol(fp) == []


def test_protocol_apply_before_append():
    fp = _fp([("apply", "w", 2), ("wal-append", "w", 1), ("wal-append", "w", 2)])
    problems = verify_effect_protocol(fp)
    assert len(problems) == 1 and "apply" in problems[0]


def test_protocol_checkpoint_without_manifest():
    fp = _fp([("wal-append", "w", 1), ("apply", "w", 1), ("checkpoint-write", "w", 1)])
    problems = verify_effect_protocol(fp)
    assert len(problems) == 1 and "no prior manifest" in problems[0]


def test_protocol_checkpoint_with_stale_manifest():
    fp = _fp([
        ("manifest-write", "sink.manifest", 0),
        ("wal-append", "w", 1),
        ("apply", "w", 1),
        ("checkpoint-write", "w", 1),  # append postdates the manifest
    ])
    problems = verify_effect_protocol(fp)
    assert len(problems) == 1 and "postdates" in problems[0]


def test_protocol_applies_only_to_matching_wal():
    fp = _fp([
        ("wal-append", "w1", 1),
        ("apply", "w2", 1),  # different WAL: w2 has no appends
    ])
    problems = verify_effect_protocol(fp)
    assert len(problems) == 1 and "`w2`" in problems[0]


def test_version_gate(tmp_path):
    path = tmp_path / "fp.json"
    fp = Fingerprint(label="x")
    fp.save(path)
    text = path.read_text().replace('"version": 1', '"version": 99')
    path.write_text(text)
    with pytest.raises(ValueError):
        Fingerprint.load(path)

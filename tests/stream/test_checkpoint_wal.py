"""Durable-state failure modes (satellite 3): atomic writes, typed errors.

Every way a state file can go bad must surface as a typed error naming
the cause — never as unpickled garbage, a half-applied restore, or a
silently skipped record.
"""

import json
import math
import os
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.estimator import PerLinkEstimator
from repro.stream import (
    CheckpointError,
    DirectoryStore,
    MemoryStore,
    PacketRecord,
    ShardWorker,
    SinkConfig,
    StreamingSink,
    WalError,
    WriteAheadLog,
    decode_checkpoint,
    encode_checkpoint,
    feed_estimator,
    load_checkpoint,
    record_to_dict,
    save_checkpoint,
    shard_apply_task,
)
from repro.stream import wal as wal_module
from repro.stream.wal import _decode_line, _encode_line


def rec(seqno, created_at=1.0):
    return PacketRecord(
        origin=1,
        seqno=seqno,
        created_at=created_at,
        delivered=True,
        hops=((1, 0, 2, True),),
    )


class TestCheckpointFraming:
    def test_roundtrip(self):
        payload = {"shard": 3, "seq": 17, "estimator": {"links": []}}
        assert decode_checkpoint(encode_checkpoint(payload)) == payload

    def test_missing_is_typed(self):
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(MemoryStore(), "nope.ckpt")
        assert exc.value.cause == "missing"

    def test_truncated_payload_is_typed(self):
        blob = encode_checkpoint({"x": 1})
        with pytest.raises(CheckpointError) as exc:
            decode_checkpoint(blob[:-2])
        assert exc.value.cause == "truncated"

    def test_empty_file_is_truncated(self):
        with pytest.raises(CheckpointError) as exc:
            decode_checkpoint(b"")
        assert exc.value.cause == "truncated"

    def test_corrupt_payload_is_typed(self):
        blob = bytearray(encode_checkpoint({"x": 1}))
        blob[-1] ^= 0xFF  # flip a payload bit; header checksum now lies
        with pytest.raises(CheckpointError) as exc:
            decode_checkpoint(bytes(blob))
        assert exc.value.cause == "corrupt"

    def test_future_version_is_typed(self):
        blob = encode_checkpoint({"x": 1}).replace(
            b'"version": 1', b'"version": 99'
        )
        with pytest.raises(CheckpointError) as exc:
            decode_checkpoint(blob)
        assert exc.value.cause == "version"

    def test_garbage_header_is_typed(self):
        with pytest.raises(CheckpointError) as exc:
            decode_checkpoint(b"not json at all\n{}")
        assert exc.value.cause == "malformed"

    def test_never_unpickles(self):
        # A pickle-looking blob must be rejected at the framing layer.
        import pickle

        blob = pickle.dumps({"evil": True})
        with pytest.raises(CheckpointError):
            decode_checkpoint(blob)


class TestDirectoryStore:
    def test_atomic_write_and_read(self, tmp_path):
        store = DirectoryStore(tmp_path)
        save_checkpoint(store, "a.ckpt", {"v": 1})
        assert load_checkpoint(store, "a.ckpt") == {"v": 1}
        # No temp litter left behind after a successful replace.
        assert store.names() == ["a.ckpt"]

    def test_flat_names_only(self, tmp_path):
        store = DirectoryStore(tmp_path)
        with pytest.raises(ValueError):
            store.write_atomic("../escape", b"x")
        with pytest.raises(ValueError):
            store.write_atomic("sub/dir", b"x")

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        store = DirectoryStore(tmp_path)
        save_checkpoint(store, "a.ckpt", {"v": 1})
        save_checkpoint(store, "a.ckpt", {"v": 2})
        assert load_checkpoint(store, "a.ckpt") == {"v": 2}

    def test_write_atomic_fsyncs_the_temp_file_then_replaces_then_fsyncs_the_dir(
        self, tmp_path, write_order
    ):
        # Checkpoints and manifests are written through write_atomic: the
        # bytes must be durable before the replace publishes them, and the
        # replace itself durable (the directory fsync) before it returns.
        store = DirectoryStore(tmp_path)
        store.write_atomic("a.ckpt", b"payload")
        published = os.stat(tmp_path / "a.ckpt").st_ino
        directory = os.stat(tmp_path).st_ino
        assert write_order == [
            ("fsync", published),
            ("replace", published),
            ("fsync", directory),
        ]

    def test_truncated_file_on_disk_is_rejected(self, tmp_path):
        store = DirectoryStore(tmp_path)
        save_checkpoint(store, "a.ckpt", {"v": 1})
        blob = store.read("a.ckpt")
        (tmp_path / "a.ckpt").write_bytes(blob[: len(blob) - 3])
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(store, "a.ckpt")
        assert exc.value.cause == "truncated"


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self):
        wal = WriteAheadLog(MemoryStore(), "s.wal")
        for i in range(1, 6):
            wal.append(i, rec(i))
        assert [seq for seq, _ in wal.replay(0)] == [1, 2, 3, 4, 5]
        assert [seq for seq, _ in wal.replay(3)] == [4, 5]

    def test_torn_tail_is_dropped_and_counted(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, "s.wal")
        wal.append(1, rec(1))
        wal.append(2, rec(2))
        # Simulate a crash mid-append: a half-written final line.
        store._blobs["s.wal"] = store._blobs["s.wal"] + b'{"seq": 3, "crc":'
        assert [seq for seq, _ in wal.replay(0)] == [1, 2]
        assert wal.torn_tail_dropped == 1

    def test_mid_file_corruption_is_fatal(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, "s.wal")
        for i in range(1, 4):
            wal.append(i, rec(i))
        lines = store.read("s.wal").decode().splitlines()
        lines[1] = lines[1][:-5] + "XXXX}"  # damage a non-final line
        store._blobs["s.wal"] = ("\n".join(lines) + "\n").encode()
        with pytest.raises(WalError):
            list(wal.replay(0))

    def test_corrupted_crc_mid_file_is_fatal(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, "s.wal")
        for i in range(1, 4):
            wal.append(i, rec(i))
        lines = store.read("s.wal").decode().splitlines()
        lines[0] = lines[0].replace('"seqno":1', '"seqno":9')
        store._blobs["s.wal"] = ("\n".join(lines) + "\n").encode()
        with pytest.raises(WalError):
            list(wal.replay(0))

    def test_non_increasing_sequence_is_fatal(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, "s.wal")
        wal.append(2, rec(2))
        wal.append(2, rec(3))
        with pytest.raises(WalError):
            list(wal.replay(0))

    def test_truncate_through_drops_acked_prefix(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, "s.wal")
        for i in range(1, 6):
            wal.append(i, rec(i))
        # Entries 4 and 5 are not acked by a cut at 3: refuse, keep all.
        with pytest.raises(ValueError, match="past the cut"):
            wal.truncate_through(3)
        assert [seq for seq, _ in wal.replay(0)] == [1, 2, 3, 4, 5]
        # A cut at the spool's end deletes it.
        wal.truncate_through(5)
        assert not store.exists("s.wal")

    def test_truncate_through_knows_the_entries_a_parse_saw(self):
        store = MemoryStore()
        writer = WriteAheadLog(store, "s.wal")
        with writer.group():
            for i in range(1, 4):
                writer.append(i, rec(i))
        reader = WriteAheadLog(store, "s.wal")
        assert [seq for seq, _ in reader.replay(3)] == []
        with pytest.raises(ValueError, match="past the cut"):
            reader.truncate_through(2)
        assert reader.drop_after(2) == 1
        reader.truncate_through(2)
        assert not store.exists("s.wal")

    def test_drop_after_cuts_the_tail(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, "s.wal")
        for i in range(1, 6):
            wal.append(i, rec(i))
        assert wal.drop_after(3) == 2
        assert [seq for seq, _ in wal.replay(0)] == [1, 2, 3]
        assert wal.drop_after(0) == 3
        assert not store.exists("s.wal")


def compact(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reference_line(seq, record):
    """A version-2 spool line: the envelope dumped, loaded, dumped, with the
    CRC over every byte after the ``crc`` field."""
    rec = json.loads(compact(record_to_dict(record)))
    checked = compact({"rec": rec, "seq": seq, "v": 2})[1:]
    crc = zlib.crc32(checked.encode("utf-8"))
    return compact({"seq": seq, "crc": crc, "rec": rec, "v": 2})


def reference_line_v1(seq, record):
    """A spool line in its first form, the CRC over the record JSON only."""
    rec = compact(record_to_dict(record))
    crc = zlib.crc32(rec.encode("utf-8")) & 0xFFFFFFFF
    return compact({"seq": seq, "crc": crc, "rec": json.loads(rec)})


any_record = st.builds(
    PacketRecord,
    origin=st.integers(min_value=-(2**63), max_value=2**64),
    seqno=st.integers(min_value=0, max_value=2**64),
    created_at=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    delivered=st.booleans(),
    hops=st.lists(
        st.tuples(st.integers(), st.integers(), st.integers(), st.booleans()),
        max_size=16,
    ).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(seq=st.integers(min_value=1, max_value=2**64), record=any_record)
@example(seq=1, record=rec(1, 0.0))
@example(seq=1, record=rec(1, -0.0))
@example(seq=1, record=rec(1, 5e-324))
@example(seq=1, record=rec(1, -2.225073858507201e-308))
@example(seq=1, record=rec(1, 1.7976931348623157e308))
@example(seq=1, record=rec(1, -1e300))
@example(seq=1, record=rec(1, math.inf))
@example(seq=1, record=rec(1, -math.inf))
@example(seq=1, record=rec(1, math.nan))
def test_wal_line_is_byte_identical_to_the_reference_encoding(seq, record):
    # New spools read the same to any reader of the version-2 envelope,
    # which is plain canonical JSON.
    assert _encode_line(seq, record) == reference_line(seq, record)


@settings(max_examples=300, deadline=None)
@given(seq=st.integers(min_value=1, max_value=2**64), record=any_record)
@example(seq=1, record=rec(1, math.nan))
@example(seq=1, record=rec(1, -0.0))
def test_wal_line_decodes_to_what_was_encoded(seq, record):
    for line in (_encode_line(seq, record), reference_line_v1(seq, record)):
        got_seq, got = _decode_line(line)
        assert got_seq == seq
        # repr, not ==, so that NaN matches itself and -0.0 is told from 0.0.
        assert repr(record_to_dict(got)) == repr(record_to_dict(record))


def field_spans(line):
    """``{field: (start, end)}`` of the crc, rec, seq and version values."""
    rec_key, seq_key, v_key = ',"rec":', ',"seq":', ',"v":'
    crc_end = line.index(rec_key)
    seq_at = line.rindex(seq_key)
    v_at = line.rindex(v_key)
    return {
        "crc": (len('{"crc":'), crc_end),
        "rec": (crc_end + len(rec_key), seq_at),
        "seq": (seq_at + len(seq_key), v_at),
        "v": (v_at + len(v_key), len(line) - 1),
    }


@settings(max_examples=300, deadline=None)
@given(
    seq=st.integers(min_value=1, max_value=2**64),
    record=any_record,
    data=st.data(),
)
def test_changing_a_byte_of_a_wal_line_is_rejected(seq, record, data):
    """A one-byte change in the crc, rec, seq or version value always fails
    the CRC or the line form: a seq digit rewritten to another digit too,
    since the version-2 CRC covers the sequence number."""
    line = _encode_line(seq, record)
    field = data.draw(st.sampled_from(["crc", "rec", "seq", "v"]))
    start, end = field_spans(line)[field]
    i = data.draw(st.integers(min_value=start, max_value=end - 1))
    byte = st.characters(max_codepoint=127)
    new = data.draw(byte.filter(lambda c: c != line[i]))
    with pytest.raises(ValueError):
        _decode_line(line[:i] + new + line[i + 1 :])


def test_a_rewritten_seq_digit_fails_the_crc():
    line = _encode_line(5, rec(5))
    with pytest.raises(ValueError, match="CRC"):
        _decode_line(line.replace('"seq":5', '"seq":9'))
    # The version-1 form cannot tell: its CRC covers the record only.
    old = reference_line_v1(5, rec(5)).replace('"seq":5', '"seq":9')
    assert _decode_line(old) == (9, rec(5))


@pytest.mark.parametrize("store_kind", ["memory", "directory"])
class TestSpoolVersions:
    """Spools written with version-1 lines replay, alone or continued."""

    def make_store(self, store_kind, tmp_path):
        return MemoryStore() if store_kind == "memory" else DirectoryStore(tmp_path)

    def test_a_rewritten_seq_is_never_replayed(self, store_kind, tmp_path):
        # Five lines whose last ``"seq":5`` is rewritten to 9: the line
        # fails its CRC, so it is a torn tail, not entry 9, and a
        # resume's cut at 5 does not drop it as an entry past the cut.
        store = self.make_store(store_kind, tmp_path)
        wal = WriteAheadLog(store, "s.wal")
        with wal.group():
            for i in range(1, 6):
                wal.append(i, rec(i))
        blob = store.read("s.wal")
        assert blob.count(b'"seq":5,') == 1
        store.write_atomic("s.wal", blob.replace(b'"seq":5,', b'"seq":9,'))
        reader = WriteAheadLog(store, "s.wal")
        assert [seq for seq, _ in reader.replay(0)] == [1, 2, 3, 4]
        assert reader.torn_tail_dropped == 1
        # The same rewrite on a line with lines after it is storage damage.
        store.write_atomic("s.wal", blob.replace(b'"seq":3,', b'"seq":7,'))
        with pytest.raises(WalError):
            list(WriteAheadLog(store, "s.wal").replay(0))

    def test_a_version_1_spool_replays(self, store_kind, tmp_path):
        store = self.make_store(store_kind, tmp_path)
        lines = [reference_line_v1(i, rec(i, created_at=float(i))) for i in range(1, 5)]
        store.append_lines("s.wal", lines)
        wal = WriteAheadLog(store, "s.wal")
        assert list(wal.replay(1)) == [(i, rec(i, created_at=float(i))) for i in range(2, 5)]
        assert wal.torn_tail_dropped == 0

    def test_a_version_1_prefix_with_a_version_2_tail_replays(self, store_kind, tmp_path):
        # A resume across the upgrade appends version-2 lines to the
        # version-1 spool it finds, and cuts it back with version-2 lines.
        store = self.make_store(store_kind, tmp_path)
        store.append_lines("s.wal", [reference_line_v1(i, rec(i)) for i in range(1, 4)])
        wal = WriteAheadLog(store, "s.wal")
        assert wal.drop_after(3) == 0
        with wal.group():
            wal.append(4, rec(4))
            wal.append(5, rec(5))
        assert list(WriteAheadLog(store, "s.wal").replay(0)) == [
            (i, rec(i)) for i in range(1, 6)
        ]
        assert wal.drop_after(4) == 1
        assert store.read("s.wal").decode().splitlines() == [
            _encode_line(i, rec(i)) for i in range(1, 5)
        ]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_a_torn_version_2_group_after_a_version_1_prefix(self, store_kind, tmp_path, k):
        # The process dies inside the first group it appends after the
        # upgrade: k complete version-2 lines, then part of line k+1.
        store = self.make_store(store_kind, tmp_path)
        store.append_lines("s.wal", [reference_line_v1(i, rec(i)) for i in range(1, 4)])
        group = [_encode_line(i, rec(i)) for i in range(4, 7)]
        torn = "\n".join(group[:k] + [group[k][: len(group[k]) // 2]])
        store.write_atomic("s.wal", store.read("s.wal") + torn.encode())
        wal = WriteAheadLog(store, "s.wal")
        assert [seq for seq, _ in wal.replay(0)] == list(range(1, 4 + k))
        assert wal.torn_tail_dropped == 1


def test_only_the_writers_exact_form_is_accepted():
    record = rec(3)
    rec_json = json.dumps(record_to_dict(record), sort_keys=True, separators=(",", ":"))
    checked = f'"rec":{rec_json},"seq":3,"v":2}}'
    crc2 = zlib.crc32(checked.encode("utf-8"))
    assert _decode_line(f'{{"crc":{crc2},{checked}') == (3, record)
    for variant in (
        f'{{"crc":{crc2}, {checked}',  # added space
        f'{{"crc":{crc2},{checked} ',
        f'{{"crc":{crc2},{checked[:-1]},"x":1}}',
        f'{{"crc":{crc2},{checked[:-2]}3}}',  # another version
        f'{{"crc":{crc2},{checked[:-7]}}}',  # version dropped: a v1 line
        f'{{"crc":0{crc2},{checked}',
        f'{{"v":2,"crc":{crc2},{checked[:-7]}}}',
    ):
        with pytest.raises(ValueError):
            _decode_line(variant)
    # The version-1 form, CRC over the record JSON only, still replays.
    crc = zlib.crc32(rec_json.encode("utf-8"))
    assert _decode_line(f'{{"crc":{crc},"rec":{rec_json},"seq":3}}') == (3, record)
    for envelope in (
        {"seq": 3, "crc": crc, "rec": json.loads(rec_json)},  # reordered keys
        {"rec": json.loads(rec_json), "crc": crc, "seq": 3},
    ):
        with pytest.raises(ValueError):
            _decode_line(json.dumps(envelope, separators=(",", ":")))
    for variant in (
        f'{{"crc": {crc}, "rec": {rec_json}, "seq": 3}}',  # added spaces
        f'{{"crc":{crc},"rec":{rec_json},"seq":3}} ',
        f'{{"crc":{crc},"rec":{rec_json},"seq":3,"x":1}}',
        f'{{"crc":"{crc}","rec":{rec_json},"seq":3}}',
        f'{{"crc":{crc},"rec":{rec_json},"seq":0}}',
        f'{{"crc":{crc},"rec":{rec_json},"seq":03}}',
        f'{{"crc":0{crc},"rec":{rec_json},"seq":3}}',
        f'{{"crc":{crc},"rec":{rec_json},"seq":-3}}',
    ):
        with pytest.raises(ValueError):
            _decode_line(variant)


def fsync_counter(monkeypatch):
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestGroupCommit:
    """``ShardWorker.log`` commits a batch with one write and one fsync."""

    def test_one_fsync_per_logged_batch(self, tmp_path, monkeypatch):
        worker = ShardWorker(0, 3, DirectoryStore(tmp_path))
        calls = fsync_counter(monkeypatch)
        worker.log([rec(i) for i in range(1, 6)])
        assert len(calls) == 1
        assert worker.seq_logged == 5
        assert [seq for seq, _ in worker.wal.replay(0)] == [1, 2, 3, 4, 5]

    def test_empty_batch_touches_nothing(self, tmp_path, monkeypatch):
        store = DirectoryStore(tmp_path)
        worker = ShardWorker(0, 3, store)
        calls = fsync_counter(monkeypatch)
        worker.log([])
        assert calls == []
        assert store.names() == []
        assert worker.seq_logged == 0

    def test_failed_group_writes_and_acks_nothing(self, tmp_path):
        store = DirectoryStore(tmp_path)
        worker = ShardWorker(0, 3, store)
        worker.log([rec(1), rec(2)])
        spool = store.read(worker.wal.name)
        unencodable = rec(4, created_at=object())
        with pytest.raises(TypeError):
            worker.log([rec(3), unencodable])
        assert store.read(worker.wal.name) == spool
        assert worker.seq_logged == 2
        assert worker.stats.logged == 2

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_crash_inside_a_group_replays_its_complete_lines(self, tmp_path, k):
        store = DirectoryStore(tmp_path)
        group = [rec(i, created_at=float(i)) for i in range(1, 7)]
        ShardWorker(0, 3, store).log(group)
        # The process dies mid-write: k complete lines, then part of line k+1.
        path = tmp_path / "shard-000.wal"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:k]) + lines[k][: len(lines[k]) // 2])

        worker = ShardWorker(0, 3, store)
        worker.restore()
        assert worker.stats.replayed == k
        assert worker.seq_applied == worker.seq_logged == k
        assert worker.wal.torn_tail_dropped == 1
        expected = PerLinkEstimator(3)
        feed_estimator(expected, group[:k])
        assert worker.estimator.state_dict() == expected.state_dict()

    def test_restore_counts_a_torn_tail_once(self):
        store = MemoryStore()
        ShardWorker(0, 3, store).log([rec(i) for i in range(1, 4)])
        name = "shard-000.wal"
        store.write_atomic(name, store.read(name) + b'{"crc":12,"rec":{"hops')
        worker = ShardWorker(0, 3, store)
        before = worker.wal.torn_tail_dropped
        worker.restore()
        assert worker.wal.torn_tail_dropped == before + 1
        assert worker.seq_applied == 3

    def test_drop_after_cuts_a_torn_tail_with_nothing_past_the_cut(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, "s.wal")
        for i in range(1, 4):
            wal.append(i, rec(i))
        store.write_atomic("s.wal", store.read("s.wal") + b'{"crc":1')
        assert wal.drop_after(3) == 0
        # The resumed run's next append must not be glued onto the
        # partial line.
        wal.append(4, rec(4))
        assert [seq for seq, _ in wal.replay(0)] == [1, 2, 3, 4]


class TestCheckpointDeletesSpoolUnread:
    def test_damaged_applied_line_does_not_brick_the_shard(
        self, tmp_path, monkeypatch
    ):
        store = DirectoryStore(tmp_path)
        worker = ShardWorker(0, 3, store)
        records = [rec(i, created_at=float(i)) for i in range(1, 6)]
        worker.log(records)
        delta = shard_apply_task(
            worker.max_attempts, worker.truncation_correction, records
        )
        worker.absorb(delta, len(records))
        # Storage damage after the line was applied: line 2 fails its CRC.
        path = tmp_path / worker.wal.name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"seqno":2', b'"seqno":9')
        path.write_bytes(b"".join(lines))
        with pytest.raises(WalError):
            list(WriteAheadLog(store, worker.wal.name).replay(0))

        decoded = []
        real = wal_module._decode_line

        def counting(line):
            decoded.append(line)
            return real(line)

        monkeypatch.setattr(wal_module, "_decode_line", counting)
        worker.checkpoint()
        assert decoded == []
        assert not store.exists(worker.wal.name)
        monkeypatch.undo()

        restored = ShardWorker(0, 3, store)
        restored.restore()
        assert restored.seq_applied == 5
        assert restored.estimator.n_samples((1, 0)) == 5
        expected = PerLinkEstimator(3)
        feed_estimator(expected, records)
        assert restored.estimator.state_dict() == expected.state_dict()


def with_times(state):
    """``state`` in the older layout: every link carries a ``times`` list."""
    links = []
    for entry in state["links"]:
        n = entry["n_exact"] + sum(cnt for _, _, cnt in entry["censored"])
        links.append({**entry, "times": [0.5 * i for i in range(n)]})
    return {**state, "links": links}


class TestStateRoundTrips:
    def test_state_dict_is_sufficient_statistics_only(self):
        est = PerLinkEstimator(4)
        est.add_exact((0, 1), 2, 3.0)
        est.add_censored((1, 2), 1, 3, 4.0)
        state = est.state_dict()
        for entry in state["links"]:
            assert set(entry) == {"link", "n_exact", "sum_retx", "censored"}
        assert "times" not in json.dumps(state)

    def test_state_with_times_restores_to_the_same_estimates(self):
        est = PerLinkEstimator(4)
        for i in range(30):
            est.add_exact((0, 1), i % 3, float(i))
            est.add_exact((2, 1), i % 2, float(i))
            est.add_censored((2, 1), 1, 3, float(i))
        old = with_times(est.state_dict())
        assert all(entry["times"] for entry in old["links"])
        clone = PerLinkEstimator.from_state(old)
        assert clone.state_dict() == est.state_dict()
        assert clone.estimates() == est.estimates()

    def test_resume_from_checkpoints_with_times(self, bundle, tmp_path):
        config = SinkConfig(
            n_shards=3, merge_every=4, arrival_burst=8, service_batch=8, alerts=None
        )
        clean = StreamingSink(bundle.max_attempts, MemoryStore(), config)
        clean_final = list(clean.run(bundle.records))[-1]

        store = DirectoryStore(tmp_path)
        first = StreamingSink(bundle.max_attempts, store, config)
        gen = first.run(bundle.records)
        for _ in range(3):  # checkpoints are written at the second snapshot
            next(gen)
        gen.close()
        ckpts = [name for name in store.names() if name.endswith(".ckpt")]
        assert ckpts
        for name in ckpts:
            payload = load_checkpoint(store, name)
            payload["estimator"] = with_times(payload["estimator"])
            save_checkpoint(store, name, payload)

        resumed = StreamingSink.resume(store)
        final = list(resumed.run(bundle.records))[-1]
        assert final.estimates == clean_final.estimates
        assert (
            resumed.global_estimator().state_dict()
            == clean.global_estimator().state_dict()
        )

    def test_checkpoint_size_grows_with_links_not_observations(self):
        def checkpoint_bytes(per_link):
            est = PerLinkEstimator(4)
            for link in [(u, u + 1) for u in range(20)]:
                for i in range(per_link):
                    est.add_exact(link, i % 3, float(i))
                    if i % 4 == 0:
                        est.add_censored(link, 1, 3, float(i))
            payload = {"shard": 0, "seq": 20 * per_link, "estimator": est.state_dict()}
            return len(encode_checkpoint(payload))

        small, large = checkpoint_bytes(100), checkpoint_bytes(1000)
        # 9,000 more exact observations over the same 20 links: a few
        # more count digits per link, not bytes per observation.
        assert large - small <= 4 * 20

    def test_estimator_rejects_unknown_schema(self):
        est = PerLinkEstimator(3)
        state = est.state_dict()
        state["schema"] = 42
        with pytest.raises(ValueError):
            PerLinkEstimator.from_state(state)

    def test_estimator_rejects_negative_counts(self):
        est = PerLinkEstimator(3)
        est.add_exact((0, 1), 1, 1.0)
        state = est.state_dict()
        state["links"][0]["n_exact"] = -1
        with pytest.raises(ValueError):
            PerLinkEstimator.from_state(state)

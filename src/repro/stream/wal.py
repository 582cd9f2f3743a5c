"""Per-shard write-ahead spool: log before apply, replay after crash.

Every packet dispatched to a shard is appended here *before* the shard's
estimator sees it. A shard crash therefore loses only in-memory state:
recovery is "last checkpoint + replay the spool past the checkpoint's
sequence number", and the final estimates are field-identical to a run
that never crashed (the property ``tests/stream/test_crash_recovery.py``
pins).

Each line is self-checking JSON, written in one form (version 2)::

    {"crc":<crc32 of the rest of the line>,"rec":<record JSON>,"seq":<seq>,"v":2}

with the record JSON canonical (sorted keys, compact), ``seq`` the
1-based shard-local sequence, and the CRC taken over every byte after
the ``crc`` field's comma — the record, the sequence number and the
version, as stored. The reader checks the CRC over those bytes and
parses just the ``rec`` bytes, so a line is parsed once and never
re-serialized. It also accepts the exact version-1 form, whose CRC
covers the ``rec`` bytes only, so spools written before the upgrade
replay::

    {"crc":<crc32 of the rec bytes>,"rec":<record JSON>,"seq":<seq>}

In a version-1 line a rewritten ``seq`` digit reads as another valid
entry (and a resume's :meth:`WriteAheadLog.drop_after` would then drop
a record the manifest counts as consumed); in a version-2 line it
fails the CRC. A spool may hold version-1 lines followed by version-2
ones: a resume appends to the spool it finds.

**Group commit.** Inside :meth:`WriteAheadLog.group`, :meth:`append`
only encodes and buffers its line; when the block exits, the buffered
lines go to the spool in one write and one ``fsync``, and only then are
the appends reported (to the sanitizer) — so the shard acks a round's
records only once all of them are durable, and a group that fails
writes, or acks, nothing. :meth:`ShardWorker.log
<repro.stream.shard.ShardWorker.log>` commits one group per shard per
dispatch round.

Failure handling distinguishes the two ways a spool goes bad:

* a **torn tail** — the final line is unparseable or fails its CRC,
  i.e. the process died mid-write, leaving its group's complete lines
  plus at most one partial one. The tail record was never applied nor
  acked, so replay drops it (counted in ``torn_tail_dropped``) and
  continues normally;
* **mid-file corruption** — a bad line *with valid lines after it* means
  storage damage, not a torn append; replay refuses to guess and raises
  the typed :class:`WalError` instead of silently skipping evidence.

A checkpoint is taken only when every spooled record is applied, so
once it acks sequence ``n`` :meth:`truncate_through` deletes the spool
without reading it. Spool size stays proportional to the checkpoint
interval rather than the stream, and a line damaged after it was
applied is never read again, so it cannot block the checkpoint or a
later restore. The log remembers the highest sequence it has committed
or parsed and refuses to delete a spool holding an entry past the cut.
"""

from __future__ import annotations

import json
import re
import zlib
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.sanitize import hooks as _sanitize_hooks
from repro.stream.records import PacketRecord, record_from_dict, record_to_dict
from repro.stream.storage import BlobStore

__all__ = ["WalError", "WriteAheadLog"]


class WalError(RuntimeError):
    """A WAL spool is damaged in a way replay cannot safely repair."""


def _encode_line(seq: int, record: PacketRecord) -> str:
    # The record JSON is already canonical (sorted keys, compact), so the
    # line is built around it with the envelope's keys in sorted order:
    # byte-identical to dumping the whole envelope with sort_keys=True.
    rec = json.dumps(record_to_dict(record), sort_keys=True, separators=(",", ":"))
    checked = f'"rec":{rec},"seq":{seq},"v":2}}'
    crc = zlib.crc32(checked.encode("utf-8"))
    return f'{{"crc":{crc},{checked}'


#: The form :func:`_encode_line` writes: crc, then the bytes it covers
#: (record JSON, seq, version).
_LINE_V2 = re.compile(
    r'\{"crc":(0|[1-9][0-9]*),("rec":(.*),"seq":([1-9][0-9]*),"v":2\})'
)
#: The version-1 form: crc of the record JSON, record JSON, seq.
_LINE_V1 = re.compile(r'\{"crc":(0|[1-9][0-9]*),"rec":(.*),"seq":([1-9][0-9]*)\}')


def _decode_line(line: str) -> Tuple[int, PacketRecord]:
    """Parse one spool line; raises ``ValueError`` on any damage."""
    match = _LINE_V2.fullmatch(line)
    if match is not None:
        crc, checked, rec, seq = match.groups()
    else:
        match = _LINE_V1.fullmatch(line)
        if match is None:
            raise ValueError("WAL line is not in a form the writer emits")
        crc, rec, seq = match.groups()
        checked = rec
    if zlib.crc32(checked.encode("utf-8")) != int(crc):
        raise ValueError("WAL line failed its CRC")
    return int(seq), record_from_dict(json.loads(rec))


class WriteAheadLog:
    """Append/replay/truncate view of one shard's spool blob."""

    def __init__(self, store: BlobStore, name: str) -> None:
        self.store = store
        self.name = name
        #: Torn-tail records dropped across all replays (diagnostics).
        self.torn_tail_dropped = 0
        #: ``(seq, line)`` buffered by the open :meth:`group`, else None.
        self._group: Optional[List[Tuple[int, str]]] = None
        #: Highest sequence known to be in the spool: raised by each
        #: commit, reset by each parse; 0 when none is known.
        self._last_seq = 0

    def append(self, seq: int, record: PacketRecord) -> None:
        """Durably log ``record`` as shard-local sequence ``seq``.

        Inside :meth:`group` the line is only buffered: it is durable
        once the group exits.
        """
        line = _encode_line(seq, record)
        if self._group is not None:
            self._group.append((seq, line))
            return
        self.store.append_line(self.name, line)
        self._appended((seq,))

    @contextmanager
    def group(self) -> Iterator[None]:
        """Commit every :meth:`append` in the block with one write + fsync.

        The appends are reported only after the write returns, so an
        apply issued inside the block is flagged by the sanitizer's
        effect protocol. If the block raises, nothing is written.
        """
        pending: List[Tuple[int, str]] = []
        self._group = pending
        try:
            yield
        finally:
            self._group = None
        if pending:
            self.store.append_lines(self.name, [line for _, line in pending])
            self._appended([seq for seq, _ in pending])

    def _appended(self, seqs: Sequence[int]) -> None:
        self._last_seq = max(self._last_seq, *seqs)
        sanitizer = _sanitize_hooks.ACTIVE
        if sanitizer is not None:
            for seq in seqs:
                sanitizer.record_effect("wal-append", self.name, seq)

    def _parse_all(self) -> Tuple[List[Tuple[int, PacketRecord]], bool]:
        """Every intact entry, and whether a torn final line was dropped."""
        lines = self.store.read_lines(self.name)
        out: List[Tuple[int, PacketRecord]] = []
        torn = False
        for i, line in enumerate(lines):
            try:
                out.append(_decode_line(line))
            except (ValueError, KeyError, TypeError) as exc:
                if i == len(lines) - 1:
                    # Torn tail: the write died mid-line. The record was
                    # never applied or acked, so dropping it is lossless.
                    self.torn_tail_dropped += 1
                    torn = True
                    break
                raise WalError(
                    f"{self.name}: line {i + 1} is corrupt with "
                    f"{len(lines) - i - 1} valid lines after it "
                    f"(storage damage, not a torn append): {exc}"
                ) from exc
        prev = 0
        for seq, _ in out:
            if seq <= prev:
                raise WalError(
                    f"{self.name}: non-increasing sequence {seq} after {prev}"
                )
            prev = seq
        self._last_seq = prev
        return out, torn

    def replay(self, after_seq: int) -> Iterator[Tuple[int, PacketRecord]]:
        """Yield ``(seq, record)`` for every entry with ``seq > after_seq``."""
        entries, _torn = self._parse_all()
        for seq, record in entries:
            if seq > after_seq:
                yield seq, record

    def truncate_through(self, seq: int) -> None:
        """Delete the spool, unread, once a checkpoint has acked ``seq``.

        The caller checkpoints only when nothing past ``seq`` is spooled
        (:meth:`ShardWorker.checkpoint
        <repro.stream.shard.ShardWorker.checkpoint>` requires zero lag).
        Raises ``ValueError``, deleting nothing, if this log committed or
        parsed an entry past ``seq``: that evidence is not acked.
        """
        if self._last_seq > seq:
            raise ValueError(
                f"{self.name}: entry {self._last_seq} is past the cut {seq}; "
                "deleting the spool would drop unacked evidence"
            )
        self.store.delete(self.name)
        self._last_seq = 0

    def drop_after(self, seq: int) -> int:
        """Atomically drop entries with sequence > ``seq``; returns dropped count.

        Used on process resume: appends made *after* the last sink
        manifest are covered by re-consuming the source, so replaying
        them as well would double-count their evidence. The manifest's
        per-shard watermark is the cut. A torn tail is cut too, even when
        no entry is: the resumed run appends after it, and a partial line
        followed by valid ones reads as mid-file corruption.
        """
        entries, torn = self._parse_all()
        kept = [(s, record) for s, record in entries if s <= seq]
        dropped = len(entries) - len(kept)
        if dropped or torn:
            if kept:
                self.store.replace_lines(
                    self.name, [_encode_line(s, record) for s, record in kept]
                )
            else:
                self.store.delete(self.name)
        self._last_seq = kept[-1][0] if kept else 0
        return dropped

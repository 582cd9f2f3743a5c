"""Per-shard write-ahead spool: log before apply, replay after crash.

Every packet dispatched to a shard is appended here *before* the shard's
estimator sees it. A shard crash therefore loses only in-memory state:
recovery is "last checkpoint + replay the spool past the checkpoint's
sequence number", and the final estimates are field-identical to a run
that never crashed (the property ``tests/stream/test_crash_recovery.py``
pins).

Each line is self-checking JSON::

    {"crc": <crc32 of the record JSON>, "rec": {...packet record...},
     "seq": <1-based shard-local sequence>}

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

After a checkpoint acks sequence ``n``, :meth:`truncate_through`
atomically rewrites the spool without the acked prefix, keeping spool
size proportional to the checkpoint interval rather than the stream.
"""

from __future__ import annotations

import json
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
    crc = zlib.crc32(rec.encode("utf-8")) & 0xFFFFFFFF
    return f'{{"crc":{crc},"rec":{rec},"seq":{seq}}}'


def _decode_line(line: str) -> Tuple[int, PacketRecord]:
    """Parse one spool line; raises ``ValueError`` on any damage."""
    entry = json.loads(line)
    if not isinstance(entry, dict):
        raise ValueError("WAL line is not an object")
    seq = entry["seq"]
    if not isinstance(seq, int) or seq < 1:
        raise ValueError(f"bad WAL sequence number {seq!r}")
    rec_json = json.dumps(entry["rec"], sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(rec_json.encode("utf-8")) & 0xFFFFFFFF
    if crc != entry["crc"]:
        raise ValueError("WAL record failed its CRC")
    return seq, record_from_dict(entry["rec"])


class WriteAheadLog:
    """Append/replay/truncate view of one shard's spool blob."""

    def __init__(self, store: BlobStore, name: str) -> None:
        self.store = store
        self.name = name
        #: Torn-tail records dropped across all replays (diagnostics).
        self.torn_tail_dropped = 0
        #: ``(seq, line)`` buffered by the open :meth:`group`, else None.
        self._group: Optional[List[Tuple[int, str]]] = None

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
        return out, torn

    def replay(self, after_seq: int) -> Iterator[Tuple[int, PacketRecord]]:
        """Yield ``(seq, record)`` for every entry with ``seq > after_seq``."""
        entries, _torn = self._parse_all()
        for seq, record in entries:
            if seq > after_seq:
                yield seq, record

    def truncate_through(self, seq: int) -> int:
        """Atomically drop entries with sequence <= ``seq``; returns kept count."""
        entries, _torn = self._parse_all()
        kept = [_encode_line(s, record) for s, record in entries if s > seq]
        if kept:
            self.store.replace_lines(self.name, kept)
        else:
            self.store.delete(self.name)
        return len(kept)

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
        kept = [_encode_line(s, record) for s, record in entries if s <= seq]
        dropped = len(entries) - len(kept)
        if dropped or torn:
            if kept:
                self.store.replace_lines(self.name, kept)
            else:
                self.store.delete(self.name)
        return dropped

    def __len__(self) -> int:
        return len(self._parse_all()[0])

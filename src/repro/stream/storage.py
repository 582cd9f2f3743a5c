"""Durable state stores for the streaming sink (checkpoints + WAL spools).

Checkpoints and write-ahead spools share a tiny blob-store interface so
the recovery logic is identical whether state lives on disk
(:class:`DirectoryStore` — a real ``repro serve`` deployment) or in
memory (:class:`MemoryStore` — fast tests and ephemeral runs without a
state directory).

:class:`DirectoryStore` owns the crash-safety discipline this PR's
"latent checkpoint risk" satellite demands:

* **atomic replace** — every whole-file write lands in a same-directory
  temp file, is flushed and ``fsync``-ed, then ``os.replace``-d over the
  target, and the directory entry itself is fsynced; a reader (or a
  restart) can never observe a half-written checkpoint;
* **durable appends** — :meth:`~BlobStore.append_lines` writes a whole
  batch of WAL lines with one write and one ``fsync``; the WAL commits
  each shard's round this way (group commit), so a record is acked only
  once its batch is on disk and survives the process dying on the next
  instruction.

Torn *tails* (the one failure atomic replace cannot prevent: a crash
mid-append, which leaves the batch's complete lines plus at most one
partial final line) are the WAL layer's job to detect and drop — see
:mod:`repro.stream.wal`.
"""

from __future__ import annotations

import os
import pathlib
import re
import tempfile
from typing import Dict, List, Sequence

__all__ = ["BlobStore", "DirectoryStore", "MemoryStore"]

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid blob name {name!r} (flat names only)")
    return name


def _joined(lines: Sequence[str]) -> bytes:
    """``lines`` as UTF-8, each terminated by a newline."""
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


class BlobStore:
    """Named-blob interface shared by checkpoint and WAL persistence."""

    def exists(self, name: str) -> bool:
        raise NotImplementedError

    def read(self, name: str) -> bytes:
        """Blob contents; raises ``FileNotFoundError`` when absent."""
        raise NotImplementedError

    def write_atomic(self, name: str, data: bytes) -> None:
        """Replace ``name`` with ``data`` all-or-nothing."""
        raise NotImplementedError

    def append_line(self, name: str, line: str) -> None:
        """Append one newline-terminated line (creating the blob)."""
        raise NotImplementedError

    def append_lines(self, name: str, lines: Sequence[str]) -> None:
        """Append newline-terminated lines in one durable write.

        Creates the blob on first use; an empty batch touches nothing.
        """
        raise NotImplementedError

    def read_lines(self, name: str) -> List[str]:
        """All lines of a line-oriented blob ([] when absent)."""
        raise NotImplementedError

    def replace_lines(self, name: str, lines: Sequence[str]) -> None:
        """Atomically replace a line-oriented blob's contents."""
        self.write_atomic(name, _joined(lines))

    def delete(self, name: str) -> None:
        """Remove a blob if present (idempotent)."""
        raise NotImplementedError

    def names(self) -> List[str]:
        """Sorted names of all blobs currently stored."""
        raise NotImplementedError


class MemoryStore(BlobStore):
    """In-process store — same semantics, no filesystem."""

    def __init__(self) -> None:
        self._blobs: Dict[str, bytes] = {}

    def exists(self, name: str) -> bool:
        return _check_name(name) in self._blobs

    def read(self, name: str) -> bytes:
        try:
            return self._blobs[_check_name(name)]
        except KeyError:
            raise FileNotFoundError(name) from None

    def write_atomic(self, name: str, data: bytes) -> None:
        self._blobs[_check_name(name)] = bytes(data)

    def append_line(self, name: str, line: str) -> None:
        self.append_lines(name, (line,))

    def append_lines(self, name: str, lines: Sequence[str]) -> None:
        _check_name(name)
        if not lines:
            return
        existing = self._blobs.get(name, b"")
        self._blobs[name] = existing + _joined(lines)

    def read_lines(self, name: str) -> List[str]:
        if not self.exists(name):
            return []
        return self.read(name).decode("utf-8").splitlines()

    def delete(self, name: str) -> None:
        self._blobs.pop(_check_name(name), None)

    def names(self) -> List[str]:
        return sorted(self._blobs)


class DirectoryStore(BlobStore):
    """One flat directory of state files with crash-safe writes."""

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> pathlib.Path:
        return self.root / _check_name(name)

    def _fsync_dir(self) -> None:
        fd = os.open(str(self.root), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def exists(self, name: str) -> bool:
        return self._path(name).exists()

    def read(self, name: str) -> bytes:
        return self._path(name).read_bytes()

    def write_atomic(self, name: str, data: bytes) -> None:
        path = self._path(name)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            self._fsync_dir()
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - tmp-file cleanup race; the original exception is re-raised
                pass
            raise

    def append_line(self, name: str, line: str) -> None:
        self.append_lines(name, (line,))

    def append_lines(self, name: str, lines: Sequence[str]) -> None:
        path = self._path(name)
        if not lines:
            return
        with path.open("ab") as fh:
            fh.write(_joined(lines))
            fh.flush()
            os.fsync(fh.fileno())

    def read_lines(self, name: str) -> List[str]:
        path = self._path(name)
        if not path.exists():
            return []
        return path.read_text(encoding="utf-8").splitlines()

    def delete(self, name: str) -> None:
        try:
            self._path(name).unlink()
        except FileNotFoundError:  # idempotent delete: absence is the desired postcondition
            pass
        self._fsync_dir()

    def names(self) -> List[str]:
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_file() and not p.name.endswith(".tmp")
        )

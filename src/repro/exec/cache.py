"""Content-addressed on-disk cache of replicate results.

Each entry is one computed task result (e.g. one ``run_comparison``
replicate), stored under a key that digests the full task description
plus :func:`repro.exec.hashing.code_version`. Re-running a bench or a
replicated sweep therefore only computes the replicates that are
actually missing; everything else is a file read.

Layout (two-level fan-out keeps directories small)::

    <cache_dir>/<key[:2]>/<key>.pkl

Every entry pickles a ``{"description": <canonical key text>,
"result": <object>}`` mapping, so entries can be audited with
:meth:`ResultCache.inspect` without re-deriving the key. Writes are
atomic (temp file + ``os.replace``) so a crashed or parallel writer can
never leave a truncated entry behind; concurrent writers of the same key
simply race to an identical file.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.exec.hashing import code_version, stable_describe, stable_digest

__all__ = ["ResultCache"]


class ResultCache:
    """Content-addressed pickle store keyed by task description + code version."""

    def __init__(self, cache_dir: "str | os.PathLike[str]") -> None:
        self.root = Path(cache_dir)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- keys -------------------------------------------------------------------

    def key_for(self, *parts: Any) -> str:
        """Digest of ``parts`` plus the current code version."""
        return stable_digest(code_version(), *parts)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- store / load -----------------------------------------------------------

    def load(self, key: str) -> Optional[Any]:
        """Return the cached result for ``key``, or None on miss.

        Unreadable entries (truncated, written by an incompatible
        pickle) are treated as misses and removed.
        """
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                entry = pickle.load(fh)
            return entry["result"]
        except FileNotFoundError:
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - cleanup race is benign: the entry is re-deleted on next miss
                pass
            return None

    def store(self, key: str, result: Any, *parts: Any) -> None:
        """Atomically persist ``result`` under ``key``.

        ``parts`` (the same values passed to :meth:`key_for`) are stored
        as canonical text alongside the result for later inspection.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "description": stable_describe(tuple(parts)),
            "result": result,
        }
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                # Durability, not just atomicity: without the fsync a crash
                # shortly after os.replace can leave a zero-length entry.
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # tmp-file cleanup race; the original exception is re-raised
                pass
            raise

    # -- maintenance / inspection -----------------------------------------------

    def _entries(self) -> Iterator[Path]:
        yield from self.root.glob("??/*.pkl")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def inspect(self, key: str) -> Optional[Tuple[str, Any]]:
        """(canonical description, result) for an entry, or None."""
        path = self._path(key)
        if not path.exists():
            return None
        with path.open("rb") as fh:
            entry = pickle.load(fh)
        return entry["description"], entry["result"]

    def keys(self) -> Iterator[str]:
        for path in self._entries():
            yield path.stem

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent wipe already removed it; `removed` stays accurate
                pass
        return removed

    def size_bytes(self) -> int:
        """Total bytes of all entries (for `du`-style reporting)."""
        return sum(p.stat().st_size for p in self._entries())

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self), "bytes": self.size_bytes()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResultCache({str(self.root)!r}, entries={len(self)})"

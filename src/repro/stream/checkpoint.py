"""Versioned, checksummed checkpoint encoding (satellite: no unpickling garbage).

A checkpoint is two lines of UTF-8 JSON::

    {"magic": "repro-ckpt", "version": 1, "sha256": "<hex>", "length": N}
    <canonical JSON payload, N bytes>

The header is self-contained and tiny, so every corruption mode is
*detected before the payload is interpreted* and surfaces as a typed
:class:`CheckpointError` naming the cause:

* **missing** — no blob under that name;
* **truncated** — payload shorter than the header's byte count (the
  classic torn write; cannot happen under
  :meth:`~repro.stream.storage.DirectoryStore.write_atomic`, but a
  checkpoint copied around or written by older code can still tear);
* **corrupt** — payload bytes don't hash to the header's SHA-256;
* **version** — schema from a future (or unknown) writer;
* **malformed** — header or payload is not the JSON it claims to be.

JSON (not pickle) on purpose: restoring a checkpoint must never execute
attacker- or corruption-chosen reduce callables, and canonical JSON
(sorted keys, fixed separators) makes equal states byte-equal — which
the kill-restore equivalence tests exploit.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping

from repro.sanitize import hooks as _sanitize_hooks
from repro.stream.storage import BlobStore

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "decode_checkpoint",
    "encode_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
]

CHECKPOINT_VERSION = 1
_MAGIC = "repro-ckpt"


class CheckpointError(RuntimeError):
    """A checkpoint could not be loaded or validated.

    ``cause`` is a stable machine-readable tag: ``missing``,
    ``truncated``, ``corrupt``, ``version`` or ``malformed``.
    """

    def __init__(self, cause: str, message: str) -> None:
        super().__init__(f"{cause}: {message}")
        self.cause = cause


def encode_checkpoint(payload: Mapping[str, Any]) -> bytes:
    """Serialize a JSON-able payload into the framed checkpoint format."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    body_bytes = body.encode("utf-8")
    header = {
        "magic": _MAGIC,
        "version": CHECKPOINT_VERSION,
        "sha256": hashlib.sha256(body_bytes).hexdigest(),
        "length": len(body_bytes),
    }
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body_bytes


def decode_checkpoint(data: bytes) -> Dict[str, Any]:
    """Validate framing, version and checksum; return the payload.

    Raises :class:`CheckpointError` instead of ever returning a payload
    whose bytes were not exactly what the writer hashed.
    """
    newline = data.find(b"\n")
    if newline < 0:
        raise CheckpointError("truncated", "no header line (empty or torn file)")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError("malformed", f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != _MAGIC:
        raise CheckpointError("malformed", "missing checkpoint magic")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            "version",
            f"checkpoint version {version!r} unsupported "
            f"(expected {CHECKPOINT_VERSION})",
        )
    body = data[newline + 1 :]
    length = header.get("length")
    if not isinstance(length, int) or len(body) < length:
        raise CheckpointError(
            "truncated",
            f"payload has {len(body)} bytes, header promises {length!r}",
        )
    body = body[:length]
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(
            "corrupt", "payload checksum mismatch (bit rot or partial write)"
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # pragma: no cover
        # Unreachable without a sha256 collision; kept as defense in depth.
        raise CheckpointError("malformed", f"unreadable payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError("malformed", "payload is not a JSON object")
    return payload


def save_checkpoint(store: BlobStore, name: str, payload: Mapping[str, Any]) -> None:
    """Atomically persist a payload under ``name``."""
    store.write_atomic(name, encode_checkpoint(payload))
    sanitizer = _sanitize_hooks.ACTIVE
    if sanitizer is not None and "manifest" in name:
        # A "manifest"-named blob is the resume index, and the effect
        # protocol requires it to precede the checkpoints it describes.
        # Shard checkpoints are recorded (with WAL correlation) by
        # ShardWorker.checkpoint instead.
        round_no = payload.get("round_no")
        detail = round_no if isinstance(round_no, int) else 0
        sanitizer.record_effect("manifest-write", name, detail)


def load_checkpoint(store: BlobStore, name: str) -> Dict[str, Any]:
    """Load and validate the checkpoint stored under ``name``."""
    try:
        data = store.read(name)
    except FileNotFoundError:
        raise CheckpointError("missing", f"no checkpoint named {name!r}") from None
    return decode_checkpoint(data)

"""Durability effects out of order: both must-precede edges inverted.

The evidence is applied before the WAL append that makes it durable,
and the checkpoint is written before the manifest that indexes it. Uses
the real stream-layer primitives so
``tests/sanitize/test_rule_runtime_pin.py`` can run these exact
functions under the sanitizer and watch ``verify_effect_protocol`` flag
both inversions.
"""

from repro.stream.checkpoint import save_checkpoint
from repro.stream.shard import shard_apply_task

MANIFEST = "fixture.manifest"


def bad_round(worker, records):
    """Applies evidence before spooling it: a crash between the two
    statements replays nothing, yet the estimator already counted."""
    delta = shard_apply_task(
        worker.max_attempts, worker.truncation_correction, records
    )
    worker.absorb(delta, len(records))
    worker.log(records)


def bad_snapshot(worker, store, round_no):
    """Checkpoints before the manifest that must index it."""
    worker.checkpoint()
    save_checkpoint(
        store, MANIFEST, {"round_no": round_no, "watermark": worker.seq_logged}
    )

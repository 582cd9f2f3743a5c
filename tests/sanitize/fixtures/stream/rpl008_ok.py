"""WAL append before apply, manifest before checkpoint — the real sink's
order."""

from repro.stream.checkpoint import save_checkpoint
from repro.stream.shard import shard_apply_task

MANIFEST = "fixture.manifest"


def good_round(worker, records):
    worker.log(records)
    delta = shard_apply_task(
        worker.max_attempts, worker.truncation_correction, records
    )
    worker.absorb(delta, len(records))


def good_snapshot(worker, store, round_no):
    save_checkpoint(
        store, MANIFEST, {"round_no": round_no, "watermark": worker.seq_logged}
    )
    worker.checkpoint()

"""Fingerprint comparison: name the *first* divergent draw.

Two sanitized runs that should be bit-identical (same seed on two
engines, one run before and after a refactor, jobs=1 vs jobs=N) are
compared here. The differ's contract is precision of blame: the first
:class:`Divergence` names the stream, the draw index within it, and the
``file:line`` call sites that produced the differing value on each
side — so a regression report reads "draw #3072 of stream
``arq/2/7``: ``src/repro/net/fastsim.py:214`` vs
``src/repro/net/sim.py:188``", not "arrays differ".

Two comparison modes:

* ``stream`` (default) — per-stream flattened value sequences. This is
  the cross-engine mode: the array kernel batches draws (one block call
  replaces many scalar calls), so call shapes legitimately differ while
  the value sequence must not. A longer run's surplus is
  tolerated only when it is a *block tail*: every extra value lies in
  the longer run's final call record for that stream, and that record
  overlaps the compared prefix — i.e. the last batched block was simply
  not fully consumed. A surplus produced by an additional call is a
  divergence.
* ``global`` — strict call-record interleaving (stream, method, count
  and values per call, in global order). This is the same-engine mode:
  any reordering or reshaping of draws is a divergence even when the
  per-stream values happen to match.

Event-queue pop order and durability effects are compared exactly in
both modes. :func:`verify_effect_protocol` separately checks the
crash-safety ordering invariants (WAL append before apply; manifest
before checkpoint) within a single fingerprint, which is what the
kill-restore suites assert — a restore legitimately changes the effect
log, but never the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sanitize.fingerprint import DrawRecord, Fingerprint

__all__ = ["Divergence", "diff_fingerprints", "verify_effect_protocol"]


@dataclass(frozen=True)
class Divergence:
    """One observed difference between two fingerprints."""

    kind: str  #: "draw" | "draw-count" | "call" | "pop" | "pop-count" | "effect"
    message: str
    stream: Optional[str] = None
    index: Optional[int] = None
    site_a: Optional[str] = None
    site_b: Optional[str] = None

    def describe(self) -> str:
        parts = [self.message]
        if self.site_a or self.site_b:
            parts.append(f"  A: {self.site_a or '<absent>'}")
            parts.append(f"  B: {self.site_b or '<absent>'}")
        return "\n".join(parts)


def _site_at(fp: Fingerprint, stream: str, index: int) -> Optional[str]:
    rec = fp.record_at(stream, index)
    return rec.site if rec is not None else None


def _diff_stream_values(
    a: Fingerprint, b: Fingerprint, stream: str
) -> Optional[Divergence]:
    va = a.stream_values(stream)
    vb = b.stream_values(stream)
    common = min(len(va), len(vb))
    for i in range(common):
        if va[i] != vb[i]:
            return Divergence(
                kind="draw",
                stream=stream,
                index=i,
                site_a=_site_at(a, stream, i),
                site_b=_site_at(b, stream, i),
                message=(
                    f"stream `{stream}`: first divergent draw at index {i} "
                    f"(A={va[i]:#018x}, B={vb[i]:#018x})"
                ),
            )
    if len(va) == len(vb):
        return None
    longer, shorter = (a, b) if len(va) > len(vb) else (b, a)
    long_n, short_n = max(len(va), len(vb)), common
    records = longer.stream_records(stream)
    tail: Optional[DrawRecord] = records[-1] if records else None
    # Block-tail allowance: the surplus is benign only if it is entirely
    # the unconsumed remainder of the longer run's final (batched) call,
    # and that call started inside the compared prefix — an *extra call*
    # after the prefix is a real divergence.
    if tail is not None and tail.start < short_n and tail.end == long_n:
        return None
    surplus_site = _site_at(longer, stream, short_n)
    a_longer = longer is a
    return Divergence(
        kind="draw-count",
        stream=stream,
        index=short_n,
        site_a=surplus_site if a_longer else None,
        site_b=None if a_longer else surplus_site,
        message=(
            f"stream `{stream}`: {'A' if a_longer else 'B'} drew "
            f"{long_n - short_n} extra value(s) beyond index {short_n - 1 if short_n else 0} "
            f"({short_n} vs {long_n} draws); first extra draw at index {short_n}"
        ),
    )


def _diff_streams(a: Fingerprint, b: Fingerprint) -> List[Divergence]:
    out: List[Divergence] = []
    names = list(a.stream_names())
    for name in b.stream_names():
        if name not in names:
            names.append(name)
    for stream in names:
        na, nb = len(a.stream_values(stream)), len(b.stream_values(stream))
        if na == 0 or nb == 0:
            if na == nb:
                continue
            absent = "B" if nb == 0 else "A"
            present_fp = a if nb == 0 else b
            out.append(
                Divergence(
                    kind="draw-count",
                    stream=stream,
                    index=0,
                    site_a=_site_at(a, stream, 0),
                    site_b=_site_at(b, stream, 0),
                    message=(
                        f"stream `{stream}`: {absent} never drew from it "
                        f"({present_fp.label or 'other side'} drew {max(na, nb)})"
                    ),
                )
            )
            continue
        div = _diff_stream_values(a, b, stream)
        if div is not None:
            out.append(div)
    return out


def _diff_global(a: Fingerprint, b: Fingerprint) -> List[Divergence]:
    out: List[Divergence] = []
    for i, (ra, rb) in enumerate(zip(a.draws, b.draws)):
        if (ra.stream, ra.method, ra.values) != (rb.stream, rb.method, rb.values):
            what = (
                "stream" if ra.stream != rb.stream
                else "method" if ra.method != rb.method
                else "values"
            )
            out.append(
                Divergence(
                    kind="call",
                    stream=ra.stream if ra.stream == rb.stream else None,
                    index=i,
                    site_a=ra.site,
                    site_b=rb.site,
                    message=(
                        f"draw call #{i}: {what} differ — "
                        f"A `{ra.stream}`.{ra.method} x{ra.count} vs "
                        f"B `{rb.stream}`.{rb.method} x{rb.count}"
                    ),
                )
            )
            return out
    if len(a.draws) != len(b.draws):
        longer = a if len(a.draws) > len(b.draws) else b
        i = min(len(a.draws), len(b.draws))
        extra = longer.draws[i]
        out.append(
            Divergence(
                kind="call",
                stream=extra.stream,
                index=i,
                site_a=extra.site if longer is a else None,
                site_b=None if longer is a else extra.site,
                message=(
                    f"draw call #{i}: {'A' if longer is a else 'B'} made "
                    f"{abs(len(a.draws) - len(b.draws))} extra call(s), first on "
                    f"stream `{extra.stream}` ({extra.method} x{extra.count})"
                ),
            )
        )
    return out


def _diff_pops(a: Fingerprint, b: Fingerprint, mode: str) -> List[Divergence]:
    if mode == "stream" and (not a.pops or not b.pops):
        # Cross-engine comparison: the array kernel has no event queue,
        # so a side with *no* pop log at all is a different engine, not
        # a divergence. (Both-sides-present pop logs still must match.)
        return []
    if mode == "stream" and a.pop_profile != b.pop_profile:
        # Different pop disciplines (e.g. batched forwarding elides and
        # reorders pops by design): the sequences are incomparable, while
        # the draw streams and effects above remain strictly compared.
        # Global mode stays strict — same-engine runs must match pops.
        return []
    for i, (pa, pb) in enumerate(zip(a.pops, b.pops)):
        if pa != pb:
            return [
                Divergence(
                    kind="pop",
                    index=i,
                    message=(
                        f"event-queue pop #{i} differs: "
                        f"A=(t={pa[0]!r}, seq={pa[1]}) vs B=(t={pb[0]!r}, seq={pb[1]})"
                    ),
                )
            ]
    if len(a.pops) != len(b.pops):
        return [
            Divergence(
                kind="pop-count",
                index=min(len(a.pops), len(b.pops)),
                message=(
                    f"event-queue pop counts differ: A={len(a.pops)} vs B={len(b.pops)}"
                ),
            )
        ]
    return []


def _diff_effects(a: Fingerprint, b: Fingerprint) -> List[Divergence]:
    for i, (ea, eb) in enumerate(zip(a.effects, b.effects)):
        if ea != eb:
            return [
                Divergence(
                    kind="effect",
                    index=i,
                    message=(
                        f"effect #{i} differs: A=({ea.kind}, {ea.key}, {ea.detail!r}) "
                        f"vs B=({eb.kind}, {eb.key}, {eb.detail!r})"
                    ),
                )
            ]
    if len(a.effects) != len(b.effects):
        return [
            Divergence(
                kind="effect",
                index=min(len(a.effects), len(b.effects)),
                message=(
                    f"effect counts differ: A={len(a.effects)} vs B={len(b.effects)}"
                ),
            )
        ]
    return []


def diff_fingerprints(
    a: Fingerprint, b: Fingerprint, mode: str = "stream"
) -> List[Divergence]:
    """Compare two fingerprints; an empty list means equivalent.

    ``mode="stream"`` compares per-stream value sequences (cross-engine,
    batching-tolerant); ``mode="global"`` compares strict call-record
    interleaving (same-engine). Pops and effects are exact in both.
    """
    if mode not in ("stream", "global"):
        raise ValueError(f"unknown diff mode {mode!r} (use 'stream' or 'global')")
    out: List[Divergence] = []
    if mode == "stream":
        out.extend(_diff_streams(a, b))
    else:
        out.extend(_diff_global(a, b))
    out.extend(_diff_pops(a, b, mode))
    out.extend(_diff_effects(a, b))
    return out


# ---------------------------------------------------------------------------
# Effect-protocol verification (single fingerprint)
# ---------------------------------------------------------------------------

WAL_APPEND_KIND = "wal-append"
APPLY_KIND = "apply"
MANIFEST_KIND = "manifest-write"
CHECKPOINT_KIND = "checkpoint-write"


def verify_effect_protocol(fp: Fingerprint) -> List[str]:
    """Check the stream-layer crash-safety ordering within one run.

    Invariants (the WAL-before-apply and manifest-before-checkpoint
    rules of DESIGN.md §11):

    1. *WAL append dominates apply*: an apply that advances a shard's
       ``seq_applied`` watermark to ``n`` requires the records it
       absorbed (sequences ``<= n``; sequences are 1-based counts) to be
       durable — so at apply time the same WAL must already hold appends
       up to at least seq ``n``.
    2. *Manifest dominates checkpoint*: a checkpoint covering applied
       state ``<= n`` requires a manifest write after every same-WAL
       append with sequence ``<= n`` — otherwise resume reads shard
       state the manifest does not describe.

    Returns human-readable violation strings; empty means the protocol
    held. Restores are invisible here (replay records no effects), so
    kill-restore runs verify clean while their raw effect logs differ.
    """
    problems: List[str] = []
    max_appended: Dict[str, int] = {}  # wal name -> highest appended seq
    # wal name -> highest appended seq NOT yet covered by a manifest write
    unmanifested: Dict[str, int] = {}
    saw_manifest = False
    for i, eff in enumerate(fp.effects):
        if eff.kind == WAL_APPEND_KIND:
            seq = int(eff.detail) if not isinstance(eff.detail, str) else -1
            prev = max_appended.get(eff.key, -1)
            max_appended[eff.key] = max(prev, seq)
            unmanifested[eff.key] = max(unmanifested.get(eff.key, -1), seq)
        elif eff.kind == APPLY_KIND:
            # Sequences are 1-based counts (seq_logged increments before
            # append), so watermark n requires an append with seq >= n.
            watermark = int(eff.detail) if not isinstance(eff.detail, str) else 0
            durable = max_appended.get(eff.key, -1)
            if watermark > durable:
                problems.append(
                    f"effect #{i}: apply advanced `{eff.key}` watermark to "
                    f"{watermark} but only seq <= {durable} is durable in the "
                    "WAL — apply precedes the append (DESIGN §11)"
                )
        elif eff.kind == MANIFEST_KIND:
            saw_manifest = True
            unmanifested.clear()
        elif eff.kind == CHECKPOINT_KIND:
            covered = int(eff.detail) if not isinstance(eff.detail, str) else 0
            if not saw_manifest:
                problems.append(
                    f"effect #{i}: checkpoint of `{eff.key}` (state <= {covered}) "
                    "with no prior manifest write — resume cannot locate it "
                    "(DESIGN §11)"
                )
                continue
            pending = unmanifested.get(eff.key, -1)
            if 0 <= pending <= covered:
                problems.append(
                    f"effect #{i}: checkpoint of `{eff.key}` covers applied "
                    f"state <= {covered}, but append seq {pending} on the same "
                    "WAL postdates the last manifest write — the manifest "
                    "does not describe this checkpoint (DESIGN §11)"
                )
    return problems

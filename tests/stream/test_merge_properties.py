"""Property tests for ``PerLinkEstimator.merge`` (satellite 1).

The streaming sink's correctness rests on merge being a proper monoid
over sufficient statistics: any partition of the record stream into
shards, merged in any order, must yield the same ``state_dict()`` (and
so the same per-link estimates) as one estimator fed everything. These
properties are exercised over hypothesis-generated packet streams,
including a round trip through the checkpoint encoding
(merge-of-checkpointed-shards ≡ single estimator).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import PerLinkEstimator
from repro.stream import (
    PacketRecord,
    decode_checkpoint,
    encode_checkpoint,
    feed_estimator,
    shard_index,
)
from tests.stream.conftest import estimate_fields

MAX_ATTEMPTS = 4

hop = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=MAX_ATTEMPTS),
    st.booleans(),
)

record = st.builds(
    PacketRecord,
    origin=st.integers(min_value=0, max_value=5),
    seqno=st.integers(min_value=0, max_value=500),
    created_at=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    delivered=st.booleans(),
    hops=st.lists(hop, max_size=4).map(tuple),
)

records = st.lists(record, max_size=40)


def fed(recs):
    est = PerLinkEstimator(MAX_ATTEMPTS)
    feed_estimator(est, recs)
    return est


def merged(*ests):
    out = PerLinkEstimator(MAX_ATTEMPTS)
    for est in ests:
        out.merge(est)
    return out


@settings(max_examples=60, deadline=None)
@given(records, records)
def test_merge_is_commutative(recs_a, recs_b):
    ab = merged(fed(recs_a), fed(recs_b))
    ba = merged(fed(recs_b), fed(recs_a))
    assert ab.state_dict() == ba.state_dict()
    assert estimate_fields(ab.estimates()) == estimate_fields(ba.estimates())


@settings(max_examples=60, deadline=None)
@given(records, records, records)
def test_merge_is_associative(recs_a, recs_b, recs_c):
    left = merged(merged(fed(recs_a), fed(recs_b)), fed(recs_c))
    right = merged(fed(recs_a), merged(fed(recs_b), fed(recs_c)))
    assert left.state_dict() == right.state_dict()


@settings(max_examples=60, deadline=None)
@given(records, st.integers(min_value=1, max_value=5))
def test_shard_split_merge_equals_single(recs, n_shards):
    single = fed(recs)
    shards = [
        fed([r for r in recs if shard_index(r.origin, r.seqno, n_shards) == s])
        for s in range(n_shards)
    ]
    combined = merged(*shards)
    assert combined.state_dict() == single.state_dict()
    assert estimate_fields(combined.estimates()) == estimate_fields(
        single.estimates()
    )


@settings(max_examples=40, deadline=None)
@given(records, st.integers(min_value=1, max_value=4))
def test_merge_of_checkpointed_shards_equals_single(recs, n_shards):
    """Shard → checkpoint-encode → decode → restore → merge ≡ single."""
    single = fed(recs)
    restored = []
    for s in range(n_shards):
        est = fed(
            [r for r in recs if shard_index(r.origin, r.seqno, n_shards) == s]
        )
        blob = encode_checkpoint({"estimator": est.state_dict()})
        payload = decode_checkpoint(blob)
        restored.append(PerLinkEstimator.from_state(payload["estimator"]))
    combined = merged(*restored)
    assert combined.state_dict() == single.state_dict()
    assert estimate_fields(combined.estimates()) == estimate_fields(
        single.estimates()
    )


@settings(max_examples=40, deadline=None)
@given(records)
def test_state_roundtrip_is_lossless(recs):
    est = fed(recs)
    clone = PerLinkEstimator.from_state(est.state_dict())
    assert clone.state_dict() == est.state_dict()
    assert estimate_fields(clone.estimates()) == estimate_fields(est.estimates())


def test_merge_rejects_mismatched_configuration():
    import pytest

    a = PerLinkEstimator(3)
    b = PerLinkEstimator(4)
    with pytest.raises(ValueError):
        a.merge(b)

"""The word-level coder against its bit-serial oracle (``bitserial.py``).

Every writer stream, encoder output, decoder result and serialized
annotation must be identical to what the bit-at-a-time code produces,
including the edges the word-level batching creates: width-1 intervals
(a 32-bit renormalization), long pending runs, model totals at the
precision cap, zero-width reads and reads past the end at every bit
offset.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.arithmetic import MAX_MODEL_TOTAL, ArithmeticDecoder, ArithmeticEncoder
from repro.coding.bitio import BitReader, BitWriter
from repro.coding.freq import FrequencyTable
from repro.core.annotation import AnnotationCodec
from repro.core.config import DophyConfig
from repro.core.model import ModelManager
from repro.core.path_codec import PathRankModel
from repro.core.symbols import SymbolSet
from repro.net.topology import grid_topology

from tests.coding import bitserial

# -- bit I/O ------------------------------------------------------------------

writer_op = st.one_of(
    st.tuples(st.just("bit"), st.integers(0, 1)),
    st.integers(0, 70).flatmap(
        lambda w: st.tuples(st.just("uint"), st.integers(0, (1 << w) - 1), st.just(w))
    ),
    st.tuples(st.just("unary"), st.integers(0, 80)),
)


def apply_write(writer, op):
    if op[0] == "bit":
        writer.write_bit(op[1])
    elif op[0] == "uint":
        writer.write_uint(op[1], op[2])
    else:
        writer.write_unary(op[1])


def writer_state(writer):
    return writer.getvalue(), writer.bit_length, writer.byte_length, writer.to_bits()


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(writer_op, max_size=40), fork_at=st.integers(0, 40))
def test_writer_streams_match_the_oracle(ops, fork_at):
    new, old = BitWriter(), bitserial.BitWriter()
    for i, op in enumerate(ops):
        if i == fork_at:
            new, old = new.copy(), old.copy()
        apply_write(new, op)
        apply_write(old, op)
        assert writer_state(new) == writer_state(old)
    assert len(new) == len(old)


def test_writer_stays_linear_on_a_long_stream():
    # 40k fields through the bounded accumulator, checked bit-exactly.
    new, old = BitWriter(), bitserial.BitWriter()
    for i in range(40_000):
        width = 1 + i % 37
        value = (i * 2_654_435_761) & ((1 << width) - 1)
        new.write_uint(value, width)
        old.write_uint(value, width)
    assert writer_state(new) == writer_state(old)


reader_op = st.one_of(
    st.just(("bit",)),
    st.tuples(st.just("uint"), st.integers(0, 70)),
    st.just(("unary",)),
)


def apply_read(reader, op):
    try:
        if op[0] == "bit":
            return reader.read_bit()
        if op[0] == "uint":
            return reader.read_uint(op[1])
        return reader.read_unary()
    except ValueError as exc:
        return ("ValueError", str(exc))


def reader_state(reader):
    return reader.bits_consumed, reader.bits_remaining, reader.exhausted


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=24), cut=st.integers(0, 192), ops=st.lists(reader_op, max_size=40))
def test_reader_matches_the_oracle_past_the_end(data, cut, ops):
    # Bits past ``bit_length`` read as 0 even when the buffer holds ones there.
    bit_length = min(cut, 8 * len(data))
    new = BitReader(data, bit_length)
    old = bitserial.BitReader(data, bit_length)
    for op in ops:
        assert apply_read(new, op) == apply_read(old, op)
        assert reader_state(new) == reader_state(old)


@pytest.mark.parametrize("bit_length", [0, 1, 13, 37, 40])
def test_unaligned_reads_at_every_bit_offset(bit_length):
    data = bytes([0xA5, 0xFF, 0x3C, 0x81, 0xE7])
    for offset in range(bit_length + 9):
        for width in range(0, 41):
            new = BitReader(data, bit_length)
            old = bitserial.BitReader(data, bit_length)
            for _ in range(offset):
                assert new.read_bit() == old.read_bit()
            assert new.read_uint(width) == old.read_uint(width), (offset, width)
            assert reader_state(new) == reader_state(old)


def test_zero_width_read_returns_zero_and_stays_put():
    reader = BitReader(b"\xff", 8)
    assert reader.read_uint(0) == 0
    assert reader.bits_consumed == 0
    reader.read_uint(8)
    assert reader.read_uint(0) == 0
    assert reader.bits_consumed == 8
    with pytest.raises(ValueError):
        reader.read_uint(-1)


# -- arithmetic coder ---------------------------------------------------------

#: Models whose totals sit at the precision cap make width-1 intervals
#: (low == high, a 32-bit renormalization) as soon as the span drops
#: below twice the total.
CAP_MODELS = [
    FrequencyTable([MAX_MODEL_TOTAL - 1, 1]),
    FrequencyTable([1, MAX_MODEL_TOTAL - 2, 1]),
    FrequencyTable([MAX_MODEL_TOTAL - 3, 1, 1, 1]),
]
#: The middle symbol's interval straddles one half: every use of it is
#: an underflow step, so runs of it build long pending runs.
MIDDLE = FrequencyTable([1, 2, 1])

model_strategy = st.one_of(
    st.lists(st.integers(1, 1000), min_size=2, max_size=12).map(FrequencyTable),
    st.sampled_from(CAP_MODELS + [MIDDLE]),
)


@st.composite
def coded_streams(draw):
    """A list of models and one symbol per model."""
    models = draw(st.lists(model_strategy, min_size=1, max_size=4))
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, len(models) - 1), st.integers(0, 2**16)),
            max_size=120,
        )
    )
    out = []
    for index, raw in steps:
        model = models[index]
        out.append((model, raw % model.num_symbols))
    return out


def encoder_state(encoder):
    return encoder.bit_length, encoder.finalized_bit_length(), encoder.symbols_encoded


@settings(max_examples=200, deadline=None)
@given(stream=coded_streams(), fork_at=st.integers(0, 120))
def test_encoder_matches_the_oracle(stream, fork_at):
    new, old = ArithmeticEncoder(), bitserial.ArithmeticEncoder()
    for i, (model, symbol) in enumerate(stream):
        if i == fork_at:
            new, old = new.copy(), old.copy()
        new.encode_symbol(model, symbol)
        old.encode_symbol(model, symbol)
        assert encoder_state(new) == encoder_state(old)
        assert new.copy().finish() == old.copy().finish()
    assert new.finish() == old.finish()
    assert new.finalized_bit_length() == old.finalized_bit_length()


def edge_streams():
    cap = CAP_MODELS[0]
    return {
        # Rare symbol of a cap-total model: width-1 intervals, k = 32.
        "width_one": [(cap, 1)] * 40,
        "width_one_mixed": [(cap, 1), (cap, 0)] * 30 + [(CAP_MODELS[2], 3)] * 10,
        # A 500-bit pending run resolved by a prefix step.
        "long_pending_low": [(MIDDLE, 1)] * 500 + [(MIDDLE, 0)] * 3,
        "long_pending_high": [(MIDDLE, 1)] * 500 + [(MIDDLE, 2)] * 3,
        # A pending run still open at finish().
        "pending_at_finish": [(MIDDLE, 1)] * 200,
        "cap_everything": [(m, s) for m in CAP_MODELS for s in range(m.num_symbols)] * 5,
    }


@pytest.mark.parametrize("name", sorted(edge_streams()))
def test_encoder_and_decoder_edges_match_the_oracle(name):
    stream = edge_streams()[name]
    new, old = ArithmeticEncoder(), bitserial.ArithmeticEncoder()
    for model, symbol in stream:
        new.encode_symbol(model, symbol)
        old.encode_symbol(model, symbol)
        assert encoder_state(new) == encoder_state(old)
    payload = new.finish()
    assert payload == old.finish()
    reader = BitReader(*payload)
    decoder = ArithmeticDecoder.from_reader(reader)
    reference = bitserial.ArithmeticDecoder(*payload)
    for model, symbol in stream:
        assert decoder.decode_symbol(model) == reference.decode_symbol(model) == symbol
        assert reader.bits_consumed == reference._reader.bits_consumed


@settings(max_examples=200, deadline=None)
@given(
    models=st.lists(model_strategy, min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 3), max_size=80),
    data=st.binary(max_size=16),
    cut=st.integers(0, 128),
)
def test_decoder_matches_the_oracle_on_any_bits(models, picks, data, cut):
    # Arbitrary bytes, so most decodes run far past the end of the stream.
    bit_length = min(cut, 8 * len(data))
    reader = BitReader(data, bit_length)
    new = ArithmeticDecoder.from_reader(reader)
    old = bitserial.ArithmeticDecoder(data, bit_length)
    assert reader.bits_consumed == old._reader.bits_consumed
    for pick in picks:
        model = models[pick % len(models)]
        assert new.decode_symbol(model) == old.decode_symbol(model)
        assert reader.bits_consumed == old._reader.bits_consumed
    assert new.symbols_decoded == old.symbols_decoded


def test_decoder_reads_on_from_a_reader_mid_stream():
    model = FrequencyTable([5, 3, 1])
    encoder = ArithmeticEncoder()
    for symbol in [0, 2, 1, 0, 0, 1]:
        encoder.encode_symbol(model, symbol)
    data, bits = encoder.finish()
    head = BitWriter()
    head.write_uint(0b101, 3)
    head.write_uint(int.from_bytes(data, "big") >> (-bits & 7), bits)
    reader = BitReader(head.getvalue(), head.bit_length)
    assert reader.read_uint(3) == 0b101
    decoder = ArithmeticDecoder.from_reader(reader)
    assert decoder.decode_sequence(model, 6) == [0, 2, 1, 0, 0, 1]


# -- annotation serialization -----------------------------------------------

TOPOLOGY = grid_topology(4, 4)


def make_codec(path_encoding, escape_mode, link_classes, updated):
    config = DophyConfig(
        max_count=12,
        aggregation_threshold=3,
        escape_mode=escape_mode,
        path_encoding=path_encoding,
        link_classes=link_classes,
        model_update_period=30.0,
    )
    models = ModelManager(
        SymbolSet(config.max_count, config.aggregation_threshold),
        update_period=config.model_update_period,
        num_classes=config.link_classes,
        num_nodes_for_dissemination=TOPOLOGY.num_nodes,
    )
    if updated:
        # A published epoch with its own tables and (with classes) a class map.
        models.observe_hops(
            [((u, v), (u * 7 + v) % 6) for u, v in TOPOLOGY.directed_edges()], 1.0
        )
        models.maybe_update(30.0)
    path_model = PathRankModel(TOPOLOGY) if path_encoding == "compressed" else None
    return AnnotationCodec(config, models, TOPOLOGY.num_nodes, path_model)


@st.composite
def walks(draw):
    """A walk over the grid's edges and one retransmission count per hop."""
    node = draw(st.integers(0, TOPOLOGY.num_nodes - 1))
    path = [node]
    for _ in range(draw(st.integers(0, 20))):
        path.append(draw(st.sampled_from(sorted(TOPOLOGY.neighbors(path[-1])))))
    counts = draw(st.lists(st.integers(0, 12), min_size=len(path) - 1, max_size=len(path) - 1))
    return path, counts


@settings(max_examples=150, deadline=None)
@given(
    path_encoding=st.sampled_from(["explicit", "compressed", "assumed"]),
    escape_mode=st.sampled_from(["exact", "censored"]),
    link_classes=st.sampled_from([1, 3]),
    updated=st.booleans(),
    walk=walks(),
)
def test_serialize_matches_the_oracle(path_encoding, escape_mode, link_classes, updated, walk):
    path, counts = walk
    codec = make_codec(path_encoding, escape_mode, link_classes, updated)
    annotation = codec.new_annotation()
    reference = bitserial.ReferenceAnnotation(annotation.epoch)
    for sender, receiver, count in zip(path, path[1:], counts):
        codec.annotate_hop(annotation, sender, receiver, count)
        bitserial.annotate_hop(codec, reference, sender, receiver, count)
        assert annotation.encoder.bit_length == reference.encoder.bit_length
    wire = codec.serialize(annotation)
    assert wire == bitserial.serialize(codec, reference)
    assert codec.wire_size_bits(annotation) == wire[1]

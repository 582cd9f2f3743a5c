"""Sink-side decoding of Dophy annotations.

Inverts the wire format documented in :mod:`repro.core.annotation`:
header → path ids → single arithmetic stream in which escape extras are
bypass-coded inline. The result is the per-link retransmission evidence
the estimator consumes — for each traversed link either an exact count
or, in censored mode for escaped symbols, a ``count >= K`` interval.

Decode failures carry a **cause taxonomy** so the sink can attribute
every packet it could not decode:

* ``unknown_epoch`` — the annotation pins a model epoch the sink no
  longer (or never) retained;
* ``truncated`` — the bit stream is shorter than its own structure
  claims (header or path section cut off, impossible hop count);
* ``corrupt_symbol`` — a decoded symbol or escape extension is outside
  the alphabet (CRC-escaping bit corruption);
* ``inconsistent_path`` — the recovered node sequence contradicts the
  packet (wrong origin/sink endpoints, unknown neighbor rank).

When a failure happens *after* some hops decoded cleanly, the error
carries that prefix (``partial_hops`` / ``partial_path``) so the sink
can salvage the evidence — gated by a path-consistency check at the
protocol layer (see :meth:`repro.core.dophy.DophySystem`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.coding.arithmetic import ArithmeticDecoder
from repro.coding.baseline_codes import EliasGammaCode
from repro.coding.bitio import BitReader
from repro.core.annotation import BYPASS_MODEL, AnnotationCodec

__all__ = [
    "AnnotationDecodeError",
    "DECODE_FAILURE_CAUSES",
    "DecodedHop",
    "DecodedAnnotation",
    "decode_annotation",
]

_GAMMA = EliasGammaCode()

#: Every cause :class:`AnnotationDecodeError` can carry.
DECODE_FAILURE_CAUSES = (
    "unknown_epoch",
    "truncated",
    "corrupt_symbol",
    "inconsistent_path",
)


class AnnotationDecodeError(Exception):
    """The annotation bits are inconsistent with the expected format.

    ``cause`` is one of :data:`DECODE_FAILURE_CAUSES`. ``partial_hops``
    and ``partial_path`` hold the hop prefix decoded cleanly before the
    failure point (empty when the failure precedes any hop).
    """

    def __init__(
        self,
        message: str,
        *,
        cause: str = "corrupt_symbol",
        partial_hops: Sequence["DecodedHop"] = (),
        partial_path: Sequence[int] = (),
    ) -> None:
        super().__init__(message)
        if cause not in DECODE_FAILURE_CAUSES:
            raise ValueError(f"unknown decode-failure cause {cause!r}")
        self.cause = cause
        self.partial_hops: Tuple["DecodedHop", ...] = tuple(partial_hops)
        self.partial_path: Tuple[int, ...] = tuple(partial_path)


@dataclass(frozen=True)
class DecodedHop:
    """One hop's evidence recovered at the sink."""

    link: Tuple[int, int]
    #: Exact retransmission count, when known.
    retx_count: Optional[int]
    #: Inclusive bounds when only an interval is known (censored escape).
    retx_bounds: Tuple[int, int]

    @property
    def exact(self) -> bool:
        return self.retx_count is not None

    def exact_count(self) -> int:
        """The exact count, raising on censored hops (narrows Optional
        for type checkers; call only after checking :attr:`exact`)."""
        if self.retx_count is None:
            raise ValueError("hop is censored; only retx_bounds is known")
        return self.retx_count


@dataclass(frozen=True)
class DecodedAnnotation:
    """Full decode result for one delivered packet."""

    epoch: int
    path: List[int]
    hops: List[DecodedHop]
    symbols: List[int]
    wire_bits: int


def _decode_bypass_gamma(arith: ArithmeticDecoder, *, max_zeros: int = 64) -> int:
    """Read one Elias-gamma value whose bits are bypass-coded in the stream."""
    zeros = 0
    while True:
        bit = arith.decode_symbol(BYPASS_MODEL)
        if bit == 1:
            break
        zeros += 1
        if zeros > max_zeros:
            raise AnnotationDecodeError(
                "malformed bypass gamma code", cause="corrupt_symbol"
            )
    n = 1
    for _ in range(zeros):
        n = (n << 1) | arith.decode_symbol(BYPASS_MODEL)
    return n - 1


def decode_annotation(
    data: bytes,
    bit_length: int,
    codec: AnnotationCodec,
    *,
    origin: int,
    sink: int,
    assumed_path: Optional[List[int]] = None,
) -> DecodedAnnotation:
    """Decode one annotation delivered by a packet from ``origin``.

    ``assumed_path`` supplies the node sequence when the codec runs in
    ``"assumed"`` path mode (the sink is presumed to learn paths out of
    band); it must be the full path origin..sink.
    """
    reader = BitReader(data, bit_length)
    models = codec.models
    if bit_length < models.epoch_field_bits + 1:
        raise AnnotationDecodeError(
            f"annotation shorter than its header ({bit_length} bits)",
            cause="truncated",
        )
    epoch_field = reader.read_uint(models.epoch_field_bits)
    try:
        hop_count = _GAMMA.decode_value(reader)
    except ValueError as exc:
        raise AnnotationDecodeError(
            f"bad hop-count field: {exc}",
            cause="truncated" if reader.exhausted else "corrupt_symbol",
        ) from exc
    try:
        epoch = models.resolve_epoch_field(epoch_field)
        model = models.epoch_model(epoch)
    except KeyError as exc:
        raise AnnotationDecodeError(str(exc), cause="unknown_epoch") from exc

    # A corrupted gamma field can claim an absurd hop count; reject it
    # before looping (each hop needs at least one payload bit somewhere).
    if hop_count > bit_length:
        raise AnnotationDecodeError(
            f"hop count {hop_count} impossible for a {bit_length}-bit annotation",
            cause="truncated",
        )

    # Path section (compressed mode reconstructs the path in-stream below).
    mode = codec.config.path_encoding
    path: List[int]
    if mode == "explicit":
        if hop_count * codec.node_id_bits > reader.bits_remaining:
            raise AnnotationDecodeError(
                "annotation truncated inside path section", cause="truncated"
            )
        id_bits = codec.node_id_bits
        ids = reader.read_uint(hop_count * id_bits)
        mask = (1 << id_bits) - 1
        path = [origin]
        path.extend(
            (ids >> (id_bits * i)) & mask for i in range(hop_count - 1, -1, -1)
        )
    elif mode == "assumed":
        if assumed_path is None:
            raise AnnotationDecodeError(
                "assumed path mode requires assumed_path", cause="inconsistent_path"
            )
        if len(assumed_path) != hop_count + 1:
            raise AnnotationDecodeError(
                f"assumed path length {len(assumed_path)} != hop_count+1 ({hop_count + 1})",
                cause="inconsistent_path",
            )
        path = list(assumed_path)
    else:  # compressed
        path = [origin]

    # Arithmetic section: everything that remains.
    arith = ArithmeticDecoder.from_reader(reader)
    symbol_set = model.symbol_set
    tables = model.tables
    class_map = model.class_map

    hops: List[DecodedHop] = []
    symbols: List[int] = []

    def fail(message: str, cause: str) -> AnnotationDecodeError:
        # Attach whatever decoded cleanly before this point for salvage.
        return AnnotationDecodeError(
            message,
            cause=cause,
            partial_hops=hops,
            partial_path=path[: len(hops) + 1],
        )

    for i in range(hop_count):
        if mode == "compressed":
            rank = arith.decode_symbol(codec.path_model.table)
            try:
                path.append(codec.path_model.neighbor_at(path[-1], rank))
            except ValueError as exc:
                raise fail(str(exc), "inconsistent_path") from exc
        link = (path[i], path[i + 1])
        symbol = arith.decode_symbol(tables[class_map.get(link, 0)])
        if not 0 <= symbol < symbol_set.num_symbols:
            raise fail("decoded symbol out of alphabet", "corrupt_symbol")
        symbols.append(symbol)
        if symbol_set.is_escape(symbol):
            if codec.config.escape_mode == "exact":
                try:
                    extra = _decode_bypass_gamma(arith)
                    count = symbol_set.from_symbol(symbol, extra)
                except AnnotationDecodeError as exc:
                    raise fail(str(exc), exc.cause) from exc
                except ValueError as exc:
                    raise fail(str(exc), "corrupt_symbol") from exc
                hops.append(DecodedHop(link, count, (count, count)))
            else:
                lo, hi = symbol_set.symbol_counts_range(symbol)
                hops.append(DecodedHop(link, None, (lo, hi)))
        else:
            count = symbol_set.from_symbol(symbol)
            hops.append(DecodedHop(link, count, (count, count)))

    if path[0] != origin:
        raise AnnotationDecodeError(
            "path does not start at the packet origin",
            cause="inconsistent_path",
            partial_hops=hops,
            partial_path=path,
        )
    if hop_count > 0 and path[-1] != sink:
        raise AnnotationDecodeError(
            "path does not end at the sink",
            cause="inconsistent_path",
            partial_hops=hops,
            partial_path=path,
        )
    return DecodedAnnotation(
        epoch=epoch, path=path, hops=hops, symbols=symbols, wire_bits=bit_length
    )

"""Sublayer <-> fountain-block mapping (Sec 2.6).

The paper uses a Jigsaw sublayer as the coding unit: "each sublayer contains
20 symbols" with 6000-byte symbols (their 4K sublayers are ~120 KB).  At
other resolutions we keep the 20-symbols-per-unit structure by shrinking the
symbol, capped at the paper's 6000 B choice (which sits at the encode/decode
time minimum of Fig 2 and fits an 802.11ad A-MSDU).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..errors import FountainCodeError
from ..obs import OBS
from ..types import NUM_LAYERS
from ..video.jigsaw import SUBLAYER_COUNTS, LayeredFrame, LayerStructure
from .gf256 import gf_ranks
from .precode import Precode, PrecodeDecoder, PrecodeEncoder
from .raptor import (
    FountainDecoder,
    FountainEncoder,
    FountainSymbol,
    SymbolBatch,
    dense_rank_matrices,
)

#: Paper's symbol size (Fig 2 minimum).
DEFAULT_SYMBOL_SIZE = 6000

#: Paper's symbols per coding unit.
TARGET_SYMBOLS_PER_UNIT = 20

#: The seed dense random-linear codec (golden-pinned wire format).
DENSE_CODEC = "dense"

#: The RaptorQ-style precode codec (sparse LT over intermediates).
PRECODE_CODEC = "precode"

#: Codecs selectable via ``SystemConfig.fountain_codec``.
FOUNTAIN_CODECS = (DENSE_CODEC, PRECODE_CODEC)

_Encoder = Union[FountainEncoder, PrecodeEncoder]
_Decoder = Union[FountainDecoder, PrecodeDecoder]

_ENCODER_OF_CODEC: Dict[str, Type[_Encoder]] = {
    DENSE_CODEC: FountainEncoder,
    PRECODE_CODEC: PrecodeEncoder,
}
_DECODER_OF_CODEC: Dict[str, Type[_Decoder]] = {
    DENSE_CODEC: FountainDecoder,
    PRECODE_CODEC: PrecodeDecoder,
}

#: One decodability question: (codec, block id, K, symbol ids held).
DecodableRequest = Tuple[str, int, int, Sequence[int]]


def _check_codec(codec: str) -> str:
    if codec not in FOUNTAIN_CODECS:
        raise FountainCodeError(
            f"fountain codec must be one of {FOUNTAIN_CODECS}, got {codec!r}"
        )
    return codec


def units_decodable(requests: Sequence[DecodableRequest]) -> np.ndarray:
    """For each request, can a receiver holding exactly those ids decode?

    The one place the "received-id set -> decodable" decision lives: it
    agrees with ``is_decoded`` of the codec's decoder after ingesting those
    ids, without touching a payload, so array-based receiver state
    (:class:`repro.transport.cohort.FrameCohort`) needs no decoder objects
    and no knowledge of the codec behind the name.

    Both codecs are systematic, so counting settles most requests: fewer
    than K distinct ids never decode, all K systematic ids always do.
    What is left is a rank question per codec — :func:`dense_rank_matrices`,
    :meth:`Precode.rank_matrix` (whose verdicts are remembered per K) —
    and all of them, whatever their codec and K, go through one stacked
    :func:`gf_ranks` elimination: decodable iff full column rank.
    """
    verdicts = np.zeros(len(requests), dtype=bool)
    dense: Dict[int, List[Tuple[int, int, np.ndarray]]] = {}
    #: (request, matrix, the per-K precode that remembers the verdict, ids)
    asked: List[Tuple[int, np.ndarray, Optional[Precode], np.ndarray]] = []
    for index, (codec, block_id, k, symbol_ids) in enumerate(requests):
        _check_codec(codec)
        ids = np.unique(np.asarray(symbol_ids, dtype=np.int64))
        if ids.size < k:
            continue
        # Sorted, distinct and non-negative: slot K-1 holds id K-1 exactly
        # when every systematic id is there.
        if ids[k - 1] == k - 1:
            verdicts[index] = True
        elif codec == DENSE_CODEC:
            dense.setdefault(k, []).append((index, block_id, ids))
        else:
            precode = Precode.for_k(k)
            known = precode.known_verdict(ids)
            if known is None:
                asked.append((index, precode.rank_matrix(ids), precode, ids))
            else:
                verdicts[index] = known
    for k, held in dense.items():
        matrices = dense_rank_matrices(
            k, [(block_id, ids) for _, block_id, ids in held]
        )
        asked += [
            (index, matrix, None, ids)
            for (index, _, ids), matrix in zip(held, matrices)
        ]
    if asked:
        ranks = gf_ranks([matrix for _, matrix, _, _ in asked])
        for (index, matrix, precode, ids), rank in zip(asked, ranks):
            verdicts[index] = rank == matrix.shape[1]
            if precode is not None:
                precode.remember_verdict(ids, bool(verdicts[index]))
    return verdicts


@dataclass(frozen=True, order=True)
class CodingUnitId:
    """Identifies one coding unit (= one sublayer of one frame).

    The flat ``block_id`` carried inside fountain symbols encodes
    (frame, layer, sublayer) so receivers can route symbols without extra
    headers.
    """

    frame_index: int
    layer: int
    sublayer: int

    #: Cumulative sublayer counts per layer; a ClassVar so it stays out of
    #: the generated __init__ and order=True comparisons.
    _SUBLAYER_BASE: ClassVar[Tuple[int, ...]] = tuple(
        accumulate((0,) + SUBLAYER_COUNTS[:-1])
    )

    def __post_init__(self) -> None:
        if not 0 <= self.layer < NUM_LAYERS:
            raise FountainCodeError(f"layer {self.layer} out of range")
        if not 0 <= self.sublayer < SUBLAYER_COUNTS[self.layer]:
            raise FountainCodeError(
                f"sublayer {self.sublayer} out of range for layer {self.layer}"
            )

    @property
    def block_id(self) -> int:
        """Flat id: 87 units per frame."""
        per_frame = sum(SUBLAYER_COUNTS)
        return (
            self.frame_index * per_frame
            + self._SUBLAYER_BASE[self.layer]
            + self.sublayer
        )

    @classmethod
    def from_block_id(cls, block_id: int) -> "CodingUnitId":
        """Inverse of :attr:`block_id`."""
        per_frame = sum(SUBLAYER_COUNTS)
        frame_index, offset = divmod(block_id, per_frame)
        for layer in range(NUM_LAYERS - 1, -1, -1):
            if offset >= cls._SUBLAYER_BASE[layer]:
                return cls(frame_index, layer, offset - cls._SUBLAYER_BASE[layer])
        raise FountainCodeError(f"unreachable block id {block_id}")


def symbol_size_for(structure: LayerStructure) -> int:
    """Symbol size preserving ~20 symbols per sublayer, capped at 6000 B."""
    per_unit = structure.sublayer_nbytes
    return max(1, min(DEFAULT_SYMBOL_SIZE, -(-per_unit // TARGET_SYMBOLS_PER_UNIT)))


def all_unit_ids(frame_index: int) -> List[CodingUnitId]:
    """Every coding unit of one frame, layer-major then sublayer order."""
    units = []
    for layer in range(NUM_LAYERS):
        for sub in range(SUBLAYER_COUNTS[layer]):
            units.append(CodingUnitId(frame_index, layer, sub))
    return units


class FrameBlockEncoder:
    """Fountain encoders for every sublayer of one encoded frame.

    The sender-side object: it turns a :class:`LayeredFrame` into per-unit
    symbol streams and tracks how many symbols it has emitted per unit (so
    retransmissions continue the stream instead of repeating symbols).
    """

    def __init__(
        self,
        frame_index: int,
        layered: LayeredFrame,
        symbol_size: int = 0,
        codec: str = DENSE_CODEC,
    ) -> None:
        self.frame_index = int(frame_index)
        self.structure = layered.structure
        self.symbol_size = int(symbol_size) or symbol_size_for(layered.structure)
        self.codec = _check_codec(codec)
        encoder_cls = _ENCODER_OF_CODEC[self.codec]
        self._encoders: Dict[CodingUnitId, _Encoder] = {}
        self._next_symbol_id: Dict[CodingUnitId, int] = {}
        for unit in all_unit_ids(self.frame_index):
            payload = layered.sublayer_payload(unit.layer, unit.sublayer)
            self._encoders[unit] = encoder_cls(
                unit.block_id, payload, self.symbol_size
            )
            self._next_symbol_id[unit] = 0

    @property
    def units(self) -> List[CodingUnitId]:
        """All coding units, in layer/sublayer order."""
        return sorted(self._encoders)

    def symbols_per_unit(self) -> int:
        """Source symbols (K) in each coding unit."""
        any_encoder = next(iter(self._encoders.values()))
        return any_encoder.num_source_symbols

    def unit_nbytes(self) -> int:
        """Source bytes per coding unit."""
        return self.structure.sublayer_nbytes

    def next_batches(
        self, requests: Sequence[Tuple[CodingUnitId, int]]
    ) -> List[SymbolBatch]:
        """Emit the next ``count`` fresh symbols of each ``(unit, count)``.

        Every request continues its unit's symbol stream (a unit asked for
        twice gets consecutive ranges), which is what makes retransmissions
        and overlapping multicast groups redundancy-free.  A transmission
        pass asks for everything it will send in one call, so the codec
        does its per-pass work — the dense coefficient derivation — once.
        """
        # (encoder, first id, count); every encoder is of this frame's
        # codec class, which the type cannot say.
        ranges: List[Tuple[Any, int, int]] = []
        for unit, count in requests:
            if unit not in self._encoders:
                raise FountainCodeError(f"unknown unit {unit}")
            ranges.append((self._encoders[unit], self._next_symbol_id[unit], count))
            self._next_symbol_id[unit] += count
        encode_many = _ENCODER_OF_CODEC[self.codec].encode_many
        t0 = perf_counter() if OBS.mode else 0.0
        batches = encode_many(ranges)
        if OBS.mode:
            symbols = sum(count for _, count in requests)
            OBS.count("fountain.symbols_encoded", symbols)
            OBS.record_span(
                "encode.fountain",
                t0,
                perf_counter(),
                frame=self.frame_index,
                fields={"symbols": symbols},
            )
        return batches

    def next_symbols(self, unit: CodingUnitId, count: int) -> SymbolBatch:
        """:meth:`next_batches` for one unit."""
        return self.next_batches([(unit, count)])[0]

    def emitted_count(self, unit: CodingUnitId) -> int:
        """Symbols emitted so far for a unit."""
        return self._next_symbol_id[unit]

    def symbol_at(self, unit: CodingUnitId, symbol_id: int) -> FountainSymbol:
        """A specific symbol of a unit (plain/non-rateless packetisation).

        The without-source-coding baseline addresses raw segments by index
        instead of drawing fresh coded symbols, so overlapping multicast
        groups re-send identical segments.
        """
        if unit not in self._encoders:
            raise FountainCodeError(f"unknown unit {unit}")
        return self._encoders[unit].symbol(symbol_id)

    def symbols_at(
        self, unit: CodingUnitId, symbol_ids: Sequence[int]
    ) -> SymbolBatch:
        """:meth:`symbol_at` for each of ``symbol_ids`` (at least one, in
        any order, repeats allowed), as one batch."""
        return SymbolBatch.of([self.symbol_at(unit, i) for i in symbol_ids])


class FrameBlockDecoder:
    """Fountain decoders for every sublayer of one frame (receiver side).

    Tracks reception at sublayer granularity — the lightweight feedback unit
    of Sec 2.6 — and assembles decoded payloads back into a
    :class:`LayeredFrame` for the video decoder.
    """

    def __init__(
        self,
        frame_index: int,
        structure: LayerStructure,
        symbol_size: int = 0,
        codec: str = DENSE_CODEC,
    ) -> None:
        self.frame_index = int(frame_index)
        self.structure = structure
        self.symbol_size = int(symbol_size) or symbol_size_for(structure)
        self.codec = _check_codec(codec)
        decoder_cls = _DECODER_OF_CODEC[self.codec]
        self._decoders: Dict[CodingUnitId, _Decoder] = {}
        for unit in all_unit_ids(self.frame_index):
            self._decoders[unit] = decoder_cls(
                unit.block_id, structure.sublayer_nbytes, self.symbol_size
            )

    def ingest(self, symbol: FountainSymbol) -> bool:
        """Route one received symbol to its unit decoder.

        Returns True when that unit just became (or already was) decodable.
        Symbols belonging to other frames are rejected.
        """
        unit = CodingUnitId.from_block_id(symbol.block_id)
        if unit.frame_index != self.frame_index:
            raise FountainCodeError(
                f"symbol for frame {unit.frame_index} fed to frame "
                f"{self.frame_index} decoder"
            )
        return self._decoders[unit].add_symbol(symbol)

    def unit_decoder(self, unit: CodingUnitId) -> _Decoder:
        """The per-unit decoder (feedback needs its reception detail)."""
        if unit not in self._decoders:
            raise FountainCodeError(f"unknown unit {unit}")
        return self._decoders[unit]

    def received_counts(self) -> Dict[CodingUnitId, int]:
        """Per-unit distinct symbols received (the sublayer-level feedback)."""
        return {unit: dec.received_count for unit, dec in self._decoders.items()}

    def decoded_units(self) -> List[CodingUnitId]:
        """Units that are fully decodable right now."""
        return [u for u, d in self._decoders.items() if d.is_decoded]

    def sublayer_masks(self) -> List[np.ndarray]:
        """Boolean per-layer masks of decoded sublayers (video-decoder input)."""
        masks = [np.zeros(count, dtype=bool) for count in SUBLAYER_COUNTS]
        for unit, decoder in self._decoders.items():
            if decoder.is_decoded:
                masks[unit.layer][unit.sublayer] = True
        return masks

    def assemble(self) -> Tuple[LayeredFrame, List[np.ndarray]]:
        """Build a partial :class:`LayeredFrame` from decoded units.

        Returns the frame plus the per-layer masks to pass to
        :meth:`repro.video.jigsaw.JigsawCodec.decode`.
        """
        layered = LayeredFrame.empty(self.structure)
        masks = self.sublayer_masks()
        for unit, decoder in self._decoders.items():
            if decoder.is_decoded:
                layered.set_sublayer_payload(unit.layer, unit.sublayer, decoder.decode())
        return layered, masks

    def bytes_received_per_layer(self) -> np.ndarray:
        """Useful payload bytes received per layer (for FrameStats)."""
        totals = np.zeros(NUM_LAYERS)
        for unit, decoder in self._decoders.items():
            received = min(decoder.received_count, decoder.num_source_symbols)
            totals[unit.layer] += received * self.symbol_size
        return totals

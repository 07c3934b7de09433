"""Systematic random-linear fountain code (the RaptorQ stand-in).

Encoding: a source block of ``K`` symbols (fixed symbol size, zero-padded)
produces an unbounded stream of coded symbols.  Symbol ids below ``K`` are
systematic (the source symbols themselves); higher ids are random GF(256)
linear combinations whose coefficients both endpoints derive from
``(block_id, symbol_id)``, so no coefficient vector is ever transmitted.

Decoding: any set of symbols whose coefficient matrix has rank ``K``
reconstructs the block.  For random GF(256) combinations the probability
that ``K + h`` received symbols fail is about ``256^-(h+1)`` — matching the
RaptorQ guarantee quoted in Sec 2.6 of the paper.

Wire format (:func:`coefficient_rows`): coefficient ``j`` of repair symbol
``(block_id, symbol_id)`` is byte ``j % 8``, little-endian, of the 64-bit
word ``mix64(key + (j // 8 + 1) * G)`` with ``key = mix64(mix64(block_id +
0x5EED) + symbol_id * G)``, ``G`` the 64-bit golden-ratio increment and
``mix64`` the splitmix64 finaliser; a row whose ``K`` bytes all came out
zero gets coefficient 0 set to 1.  It is a counter-based hash, so any set
of ``(block, symbol)`` pairs — contiguous or scattered, one or thousands —
is one numpy expression, and no generator is ever constructed.

* **Batched encoding** — a pass asks for all its ``(encoder, first id,
  count)`` ranges at once (:meth:`FountainEncoder.encode_many`): one
  coefficient derivation covers every repair row, each range is one
  :func:`gf_matmul` against its source block, and what comes back is a
  :class:`SymbolBatch` — an id array plus one payload matrix — that
  creates :class:`FountainSymbol` objects only when iterated.
* **Coefficient-row cache** — single-row consumers (``symbol()``, the
  incremental decoder) read rows through a process-wide LRU cache keyed on
  ``(block_id, K)``.  Block ids embed the frame index, so a live session
  never sees a block twice and the whole-pass paths do not go through it.
* **Incremental Gaussian elimination** — the decoder keeps a reduced
  row-echelon system and folds each arriving symbol in as it lands, so
  rank grows online and completion is O(K) row operations per symbol
  instead of a full re-solve per decode attempt.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union, overload

import numpy as np

from ..errors import FountainCodeError
from ..obs import OBS
from .gf256 import gf_inverse, gf_matmul, gf_multiply, gf_scale_row


#: 2**64 / golden ratio: the splitmix64 stream increment.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

#: Domain constant of the dense codec's coefficient hash.
_HASH_SEED = np.uint64(0x5EED)


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, element-wise on uint64 (wrapping)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def coefficient_rows(block_ids, symbol_ids, k: int) -> np.ndarray:
    """``(n, k)`` repair coefficient rows of ``n`` ``(block, symbol)`` pairs.

    ``block_ids`` and ``symbol_ids`` broadcast against each other (one
    block with many symbols, or one pair per row).  The module docstring
    gives the format; rows are never all-zero.
    """
    blocks = np.atleast_1d(np.asarray(block_ids, dtype=np.uint64))
    symbols = np.atleast_1d(np.asarray(symbol_ids, dtype=np.uint64))
    key = _mix64(_mix64(blocks + _HASH_SEED) + symbols * _GOLDEN)
    counters = np.arange(1, -(-k // 8) + 1, dtype=np.uint64) * _GOLDEN
    words = _mix64(key[:, None] + counters)
    # "<u8" spells the byte order out: coefficient j is byte j % 8 of its
    # word counting from the least significant, on any host.
    rows = words.astype("<u8", copy=False).view(np.uint8)[:, :k]
    rows[~rows.any(axis=1), 0] = 1
    return rows


class CoefficientCache:
    """Process-wide LRU cache of repair coefficient rows.

    One entry per ``(block_id, k)`` holds a contiguous ``(n, k)`` matrix
    covering repair symbol ids ``k .. k+n-1``, filled by one
    :func:`coefficient_rows` call and at least doubled whenever a request
    runs past its end, so a decoder asking ids one at a time derives each
    row once and copies it O(1) times.
    """

    def __init__(self, max_blocks: int = 4096) -> None:
        if max_blocks <= 0:
            raise FountainCodeError(
                f"max_blocks must be positive, got {max_blocks}"
            )
        self.max_blocks = int(max_blocks)
        self._blocks: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._blocks)

    def clear(self) -> None:
        self._blocks.clear()

    def rows(self, block_id: int, k: int, first_symbol_id: int, count: int) -> np.ndarray:
        """Coefficient rows for repair ids ``first_symbol_id .. +count-1``.

        ``first_symbol_id`` must be >= ``k`` (repair region).  Returns a
        read-only ``(count, k)`` view into the cached matrix.
        """
        if first_symbol_id < k:
            raise FountainCodeError(
                f"repair rows start at symbol id {k}, got {first_symbol_id}"
            )
        if count <= 0:
            return np.zeros((0, k), dtype=np.uint8)
        key = (int(block_id), int(k))
        have = self._blocks.get(key)
        if have is None:
            have = np.zeros((0, k), dtype=np.uint8)
        held = have.shape[0]
        need = first_symbol_id - k + count
        if held < need:
            fresh = coefficient_rows(
                block_id, np.arange(k + held, k + max(need, 2 * held)), k
            )
            have = np.concatenate([have, fresh])
            have.setflags(write=False)
            self._blocks[key] = have
        self._blocks.move_to_end(key)
        while len(self._blocks) > self.max_blocks:
            self._blocks.popitem(last=False)
        return have[first_symbol_id - k : first_symbol_id - k + count]

    def row(self, block_id: int, k: int, symbol_id: int) -> np.ndarray:
        """One repair coefficient row (cached)."""
        return self.rows(block_id, k, symbol_id, 1)[0]


#: The shared cache every encoder/decoder in this process draws from.
COEFFICIENT_CACHE = CoefficientCache()


def dense_rank_matrices(
    k: int, requests: Sequence[Tuple[int, np.ndarray]]
) -> List[np.ndarray]:
    """Per ``(block_id, held ids)``, the matrix whose rank decides decoding.

    Payload-free twin of :class:`FountainDecoder`'s success condition: the
    held coefficient rows must have GF(256) rank ``K``.  With systematic
    ids ``S`` and repair rows ``R`` the identity ``rank([I_S; R]) = |S| +
    rank(R[:, complement(S)])`` reduces that to the repair rows over the
    missing systematic columns: the holder decodes iff the returned matrix
    has full column rank.  ``ids`` are sorted and distinct; the repair rows
    of all requests — exactly the ids held, nothing in between — come from
    one :func:`coefficient_rows` call.
    """
    splits = [int(np.searchsorted(ids, k)) for _, ids in requests]
    repair = [ids[split:] for (_, ids), split in zip(requests, splits)]
    rows = coefficient_rows(
        np.repeat(
            [block_id for block_id, _ in requests], [ids.size for ids in repair]
        ),
        np.concatenate(repair),
        k,
    )
    matrices = []
    start = 0
    for (_, ids), split, held in zip(requests, splits, repair):
        missing = np.ones(k, dtype=bool)
        missing[ids[:split]] = False
        matrices.append(rows[start : start + held.size][:, missing])
        start += held.size
    return matrices


@dataclass(frozen=True)
class FountainSymbol:
    """One coded symbol in flight.

    Attributes:
        block_id: Identifies the source block (coding unit).
        symbol_id: Stream index; < K means systematic.
        payload: ``symbol_size`` bytes.
    """

    block_id: int
    symbol_id: int
    payload: bytes


class SymbolBatch:
    """Coded symbols of one block as arrays: what a pass puts on the air.

    ``ids[i]`` is the stream index of the symbol whose payload is
    ``payloads[i]``.  Slicing (or indexing by an index array) gives another
    batch over views of the same arrays; an integer index or iteration
    builds the :class:`FountainSymbol` a decoder ingests, which is the only
    time a per-symbol object or a ``bytes`` copy exists.
    """

    __slots__ = ("block_id", "ids", "payloads")

    def __init__(self, block_id: int, ids: np.ndarray, payloads: np.ndarray) -> None:
        self.block_id = block_id
        self.ids = ids
        self.payloads = payloads

    @classmethod
    def of(cls, symbols: Sequence[FountainSymbol]) -> "SymbolBatch":
        """The batch holding ``symbols`` (non-empty, of one block)."""
        if not symbols:
            raise FountainCodeError("a batch of no symbols has no block")
        ids = np.fromiter(
            (s.symbol_id for s in symbols), dtype=np.int64, count=len(symbols)
        )
        payloads = np.frombuffer(
            b"".join(s.payload for s in symbols), dtype=np.uint8
        ).reshape(len(symbols), -1)
        return cls(symbols[0].block_id, ids, payloads)

    def __len__(self) -> int:
        return self.ids.shape[0]

    @overload
    def __getitem__(self, index: int) -> FountainSymbol: ...

    @overload
    def __getitem__(self, index: Union[slice, np.ndarray]) -> "SymbolBatch": ...

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return SymbolBatch(self.block_id, self.ids[index], self.payloads[index])
        return FountainSymbol(
            self.block_id, int(self.ids[index]), self.payloads[index].tobytes()
        )

    def __iter__(self) -> Iterator[FountainSymbol]:
        for symbol_id, payload in zip(self.ids.tolist(), self.payloads):
            yield FountainSymbol(self.block_id, symbol_id, payload.tobytes())


class FountainEncoder:
    """Produces the coded-symbol stream for one source block.

    Args:
        block_id: Block identifier carried in every symbol.
        data: Source bytes (padded internally to a whole number of symbols).
        symbol_size: Bytes per symbol.
    """

    def __init__(self, block_id: int, data: bytes, symbol_size: int):
        if symbol_size <= 0:
            raise FountainCodeError(f"symbol_size must be positive, got {symbol_size}")
        if not data:
            raise FountainCodeError("cannot encode an empty block")
        self.block_id = int(block_id)
        self.symbol_size = int(symbol_size)
        self.data_len = len(data)
        self.num_source_symbols = -(-len(data) // symbol_size)
        padded = data + b"\x00" * (self.num_source_symbols * symbol_size - len(data))
        self._source = np.frombuffer(padded, dtype=np.uint8).reshape(
            self.num_source_symbols, symbol_size
        )

    def symbol(self, symbol_id: int) -> FountainSymbol:
        """The coded symbol with stream index ``symbol_id``."""
        if symbol_id < 0:
            raise FountainCodeError(f"symbol_id must be >= 0, got {symbol_id}")
        if symbol_id < self.num_source_symbols:
            payload = self._source[symbol_id].tobytes()
        else:
            coeffs = COEFFICIENT_CACHE.row(
                self.block_id, self.num_source_symbols, symbol_id
            )
            payload = gf_matmul(coeffs[None, :], self._source)[0].tobytes()
        return FountainSymbol(self.block_id, symbol_id, payload)

    def symbols(self, first_id: int, count: int) -> SymbolBatch:
        """``count`` consecutive symbols from ``first_id``: the one-range
        form of :meth:`encode_many`."""
        return self.encode_many([(self, first_id, count)])[0]

    @staticmethod
    def encode_many(
        ranges: Sequence[Tuple["FountainEncoder", int, int]]
    ) -> List[SymbolBatch]:
        """One batch per ``(encoder, first id, count)`` range of one pass.

        All encoders share one K.  The repair rows of every range come from
        a single :func:`coefficient_rows` call and each range's repair
        payloads from one :func:`gf_matmul` against its source block; an
        all-systematic range is a view of the source and costs nothing.
        """
        if any(first < 0 or count < 0 for _, first, count in ranges):
            raise FountainCodeError("symbol ids and counts must be >= 0")
        ks = {encoder.num_source_symbols for encoder, _, _ in ranges}
        if len(ks) > 1:
            raise FountainCodeError(f"one pass encodes one K, got {sorted(ks)}")
        k = ks.pop() if ks else 0
        # The part of each range past the systematic ids: (first id, count).
        repairs = [
            (max(first, k), max(0, first + count - max(first, k)))
            for _, first, count in ranges
        ]
        if any(count for _, count in repairs):
            rows = coefficient_rows(
                np.repeat(
                    [encoder.block_id for encoder, _, _ in ranges],
                    [count for _, count in repairs],
                ),
                np.concatenate(
                    [np.arange(first, first + count) for first, count in repairs]
                ),
                k,
            )
        batches = []
        start = 0
        for (encoder, first, count), (_, coded) in zip(ranges, repairs):
            payloads = encoder._source[first : first + count - coded]
            if coded:
                repair = gf_matmul(rows[start : start + coded], encoder._source)
                start += coded
                payloads = (
                    np.concatenate([payloads, repair]) if coded < count else repair
                )
            batches.append(
                SymbolBatch(
                    encoder.block_id, np.arange(first, first + count), payloads
                )
            )
        return batches


class FountainDecoder:
    """Accumulates symbols for one block and decodes once rank-complete.

    The decoder maintains a reduced row-echelon system incrementally: each
    arriving symbol is eliminated against the current pivots, becomes a new
    pivot if it carries fresh rank, and the block is decoded the instant
    rank reaches ``K`` — no re-solving.

    Args:
        block_id: Must match the encoder's.
        data_len: Original (unpadded) block length in bytes.
        symbol_size: Bytes per symbol.
    """

    def __init__(self, block_id: int, data_len: int, symbol_size: int):
        if symbol_size <= 0:
            raise FountainCodeError(f"symbol_size must be positive, got {symbol_size}")
        if data_len <= 0:
            raise FountainCodeError(f"data_len must be positive, got {data_len}")
        self.block_id = int(block_id)
        self.symbol_size = int(symbol_size)
        self.data_len = int(data_len)
        self.num_source_symbols = -(-data_len // symbol_size)
        self._decoded: Optional[bytes] = None
        k = self.num_source_symbols
        self._ids: Set[int] = set()
        self._mat = np.zeros((k, k), dtype=np.uint8)
        self._pay = np.zeros((k, self.symbol_size), dtype=np.uint8)
        self._pivot_row_of_col = np.full(k, -1, dtype=np.int64)
        self._rank = 0

    @property
    def received_count(self) -> int:
        """Distinct symbols received so far."""
        return len(self._ids)

    @property
    def is_decoded(self) -> bool:
        """Whether the block has been reconstructed."""
        return self._decoded is not None

    @property
    def rank(self) -> int:
        """Independent dimensions received (== K once decodable)."""
        return self._rank

    def received_ids(self) -> set:
        """Distinct symbol ids received (plain-mode retransmission needs the
        exact missing segment indices)."""
        return set(self._ids)

    @property
    def symbols_missing(self) -> int:
        """Symbols still needed before a decode attempt can succeed."""
        return max(0, self.num_source_symbols - self.received_count)

    def add_symbol(self, symbol: FountainSymbol) -> bool:
        """Ingest one symbol; returns True once the block is decodable.

        Duplicate symbol ids are ignored (they carry no new information).
        """
        if symbol.block_id != self.block_id:
            raise FountainCodeError(
                f"symbol for block {symbol.block_id} fed to decoder for "
                f"block {self.block_id}"
            )
        if len(symbol.payload) != self.symbol_size:
            raise FountainCodeError(
                f"payload is {len(symbol.payload)} bytes, expected {self.symbol_size}"
            )
        if self._decoded is not None:
            return True
        t0 = perf_counter() if OBS.mode else 0.0
        self._ingest(symbol)
        if OBS.mode:
            t1 = perf_counter()
            OBS.count("fountain.symbols_received")
            OBS.histogram("decode.fountain").observe(t1 - t0)
            if self._decoded is not None:
                OBS.count("fountain.blocks_decoded")
                OBS.event(
                    "decode.fountain",
                    t0,
                    t1,
                    block=self.block_id,
                    symbols=self.received_count,
                    k=self.num_source_symbols,
                )
        return self._decoded is not None

    def _ingest(self, symbol: FountainSymbol) -> None:
        if symbol.symbol_id not in self._ids:
            self._ids.add(symbol.symbol_id)
            self._absorb(symbol.symbol_id, symbol.payload)

    def decode(self) -> bytes:
        """The reconstructed block; raises if not yet decodable."""
        if self._decoded is None:
            raise FountainCodeError(
                f"block {self.block_id} not decodable: "
                f"{self.received_count}/{self.num_source_symbols} symbols"
            )
        return self._decoded

    # ------------------------------------------------- incremental elimination

    def _absorb(self, symbol_id: int, payload: bytes) -> None:
        """Fold one fresh symbol into the reduced system."""
        k = self.num_source_symbols
        if symbol_id < k:
            row = np.zeros(k, dtype=np.uint8)
            row[symbol_id] = 1
        else:
            row = COEFFICIENT_CACHE.row(self.block_id, k, symbol_id).copy()
        data = np.frombuffer(payload, dtype=np.uint8).copy()

        # Eliminate every pivot the row touches.  Pivot rows are zero at all
        # *other* pivot columns (full RREF invariant), so one pass suffices.
        nonzero = np.nonzero(row)[0]
        rows_idx = self._pivot_row_of_col[nonzero]
        hit = rows_idx >= 0
        if hit.any():
            rows_idx = rows_idx[hit]
            factors = row[nonzero[hit]]
            row ^= gf_matmul(factors[None, :], self._mat[rows_idx])[0]
            data ^= gf_matmul(factors[None, :], self._pay[rows_idx])[0]
            nonzero = np.nonzero(row)[0]

        if nonzero.size == 0:
            return  # linearly dependent: no new rank
        lead = int(nonzero[0])
        inv = gf_inverse(int(row[lead]))
        if inv != 1:
            row = gf_scale_row(row, inv)
            data = gf_scale_row(data, inv)

        # Back-substitute the new pivot out of every stored row.
        if self._rank:
            lead_vals = self._mat[: self._rank, lead]
            hits = np.nonzero(lead_vals)[0]
            if hits.size:
                factors = lead_vals[hits]
                self._mat[hits] ^= gf_multiply(factors[:, None], row[None, :])
                self._pay[hits] ^= gf_multiply(factors[:, None], data[None, :])

        slot = self._rank
        self._mat[slot] = row
        self._pay[slot] = data
        self._pivot_row_of_col[lead] = slot
        self._rank += 1
        if self._rank == k:
            self._decoded = self._pay[self._pivot_row_of_col].tobytes()[
                : self.data_len
            ]

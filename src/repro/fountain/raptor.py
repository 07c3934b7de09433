"""Systematic random-linear fountain code (the RaptorQ stand-in).

Encoding: a source block of ``K`` symbols (fixed symbol size, zero-padded)
produces an unbounded stream of coded symbols.  Symbol ids below ``K`` are
systematic (the source symbols themselves); higher ids are random GF(256)
linear combinations whose coefficients are derived deterministically from
``(block_id, symbol_id)``, so encoder and decoder agree without transmitting
coefficient vectors.

Decoding: any set of symbols whose coefficient matrix has rank ``K``
reconstructs the block.  For random GF(256) combinations the probability
that ``K + h`` received symbols fail is about ``256^-(h+1)`` — matching the
RaptorQ guarantee quoted in Sec 2.6 of the paper.

Performance layer (results identical to the original implementations):

* **Batched encoding** — a request for ``n`` repair symbols stacks their
  coefficient rows into one ``(n, K)`` matrix and runs a single
  :func:`gf_matmul` against the source block, instead of one row-product
  per symbol.
* **Coefficient-row cache** — rows are derived per ``(block_id,
  symbol_id)``, which is deterministic, so a process-wide LRU cache keyed
  on ``(block_id, K)`` stores every row ever derived; encoder, decoder and
  repeated emulation runs of the same frames all reuse them.
* **Incremental Gaussian elimination** — the decoder keeps a reduced
  row-echelon system and folds each arriving symbol in as it lands, so
  rank grows online and completion is O(K) row operations per symbol
  instead of a full re-solve per decode attempt.

The original per-symbol / re-solve code paths are preserved and selected by
:func:`repro.perf.mode.perf_mode` (``"seed"``) so benchmarks and
equivalence tests can compare both inside one process.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Set

import numpy as np

from ..errors import FountainCodeError
from ..obs import OBS
from ..perf.mode import seed_path_active
from .gf256 import (
    gf_inverse,
    gf_matmul,
    gf_matmul_reference,
    gf_multiply,
    gf_rank,
    gf_scale_row,
    gf_solve,
)


def decode_failure_probability(extra_symbols: int) -> float:
    """Probability that ``K + extra`` random symbols fail to decode."""
    if extra_symbols < 0:
        return 1.0
    return float(256.0 ** -(extra_symbols + 1))


def _coefficients(block_id: int, symbol_id: int, k: int) -> np.ndarray:
    """Deterministic coefficient row for a repair symbol.

    Seeded from (block_id, symbol_id) so both endpoints derive identical
    rows.  Rows are guaranteed non-zero.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=0x5EED, spawn_key=(block_id, symbol_id))
    )
    row = rng.integers(0, 256, size=k, dtype=np.uint8)
    while not row.any():
        row = rng.integers(0, 256, size=k, dtype=np.uint8)
    return row


class CoefficientCache:
    """Process-wide LRU cache of repair coefficient rows.

    One entry per ``(block_id, k)`` holds a contiguous ``(n, k)`` matrix
    covering repair symbol ids ``k .. k+n-1``; the matrix grows on demand.
    Rows are exactly those :func:`_coefficients` would derive, so cached
    and uncached paths are interchangeable.
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
        need = first_symbol_id - k + count
        if have is None or have.shape[0] < need:
            grown = np.zeros((need, k), dtype=np.uint8)
            start = 0
            if have is not None:
                grown[: have.shape[0]] = have
                start = have.shape[0]
            for offset in range(start, need):
                grown[offset] = _coefficients(block_id, k + offset, k)
            grown.setflags(write=False)
            have = grown
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


def dense_decodable(block_id: int, k: int, symbol_ids) -> bool:
    """Whether a receiver holding exactly ``symbol_ids`` can decode.

    Payload-free twin of :class:`FountainDecoder`'s success condition: the
    received coefficient rows must have GF(256) rank ``K``.  With
    systematic ids ``S`` and repair rows ``R`` the identity
    ``rank([I_S; R]) = |S| + rank(R[:, complement(S)])`` reduces that to a
    small elimination over the repair rows only; with every systematic id
    present no elimination runs at all.
    """
    ids = np.unique(np.asarray(symbol_ids, dtype=np.int64))
    systematic = ids[ids < k]
    repair = ids[ids >= k]
    need = k - systematic.size
    if need == 0:
        return True
    if repair.size < need:
        return False
    missing = np.ones(k, dtype=bool)
    missing[systematic] = False
    coeffs = COEFFICIENT_CACHE.rows(block_id, k, k, int(repair[-1]) - k + 1)
    return gf_rank(coeffs[repair - k][:, missing]) >= need


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
        elif seed_path_active():
            coeffs = _coefficients(self.block_id, symbol_id, self.num_source_symbols)
            payload = gf_matmul_reference(coeffs[None, :], self._source)[0].tobytes()
        else:
            coeffs = COEFFICIENT_CACHE.row(
                self.block_id, self.num_source_symbols, symbol_id
            )
            payload = gf_matmul(coeffs[None, :], self._source)[0].tobytes()
        return FountainSymbol(self.block_id, symbol_id, payload)

    def symbols(self, first_id: int, count: int) -> List[FountainSymbol]:
        """``count`` consecutive symbols starting at ``first_id``.

        Repair symbols in the range are encoded as one batch: their cached
        coefficient rows form a ``(count, K)`` matrix multiplied against
        the source block in a single :func:`gf_matmul`.
        """
        if first_id < 0:
            raise FountainCodeError(f"symbol ids must be >= 0, got {first_id}")
        if count <= 0:
            return []
        if not OBS.mode:
            return self._symbols(first_id, count)
        t0 = perf_counter()
        out = self._symbols(first_id, count)
        OBS.count("fountain.symbols_encoded", count)
        OBS.record_span(
            "encode.fountain",
            t0,
            perf_counter(),
            fields={"block": self.block_id, "symbols": count},
        )
        return out

    def _symbols(self, first_id: int, count: int) -> List[FountainSymbol]:
        if seed_path_active():
            return [self.symbol(first_id + i) for i in range(count)]
        k = self.num_source_symbols
        out: List[FountainSymbol] = []
        for sid in range(first_id, min(first_id + count, k)):
            out.append(FountainSymbol(self.block_id, sid, self._source[sid].tobytes()))
        repair_start = max(first_id, k)
        repair_count = first_id + count - repair_start
        if repair_count > 0:
            rows = COEFFICIENT_CACHE.rows(self.block_id, k, repair_start, repair_count)
            payloads = gf_matmul(rows, self._source)
            out.extend(
                FountainSymbol(self.block_id, repair_start + i, payloads[i].tobytes())
                for i in range(repair_count)
            )
        return out


class FountainDecoder:
    """Accumulates symbols for one block and decodes once rank-complete.

    The optimized path maintains a reduced row-echelon system
    incrementally: each arriving symbol is eliminated against the current
    pivots, becomes a new pivot if it carries fresh rank, and the block is
    decoded the instant rank reaches ``K`` — no re-solving.  The seed path
    (full Gaussian elimination per decode attempt) is preserved under
    ``perf_mode("seed")``.

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
        self._incremental = not seed_path_active()
        if self._incremental:
            k = self.num_source_symbols
            self._ids: Set[int] = set()
            self._mat = np.zeros((k, k), dtype=np.uint8)
            self._pay = np.zeros((k, self.symbol_size), dtype=np.uint8)
            self._pivot_row_of_col = np.full(k, -1, dtype=np.int64)
            self._rank = 0
        else:
            self._symbols: Dict[int, bytes] = {}

    @property
    def received_count(self) -> int:
        """Distinct symbols received so far."""
        if self._incremental:
            return len(self._ids)
        return len(self._symbols)

    @property
    def is_decoded(self) -> bool:
        """Whether the block has been reconstructed."""
        return self._decoded is not None

    @property
    def rank(self) -> int:
        """Independent dimensions received (== K once decodable)."""
        if self._incremental:
            return self._rank
        # The seed path never tracks rank online; the best cheap bound is
        # the distinct-symbol count capped at K.
        return min(len(self._symbols), self.num_source_symbols)

    def received_ids(self) -> set:
        """Distinct symbol ids received (plain-mode retransmission needs the
        exact missing segment indices)."""
        if self._incremental:
            return set(self._ids)
        return set(self._symbols)

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
        if not OBS.mode:
            self._ingest(symbol)
            return self._decoded is not None
        t0 = perf_counter()
        self._ingest(symbol)
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
        if self._incremental:
            if symbol.symbol_id not in self._ids:
                self._ids.add(symbol.symbol_id)
                self._absorb(symbol.symbol_id, symbol.payload)
        else:
            self._symbols.setdefault(symbol.symbol_id, symbol.payload)
            if len(self._symbols) >= self.num_source_symbols:
                self._try_decode()

    def decode(self) -> bytes:
        """The reconstructed block; raises if not yet decodable."""
        if self._decoded is None and not self._incremental:
            self._try_decode()
        if self._decoded is None:
            raise FountainCodeError(
                f"block {self.block_id} not decodable: "
                f"{self.received_count}/{self.num_source_symbols} symbols"
            )
        return self._decoded

    # ------------------------------------------------- incremental elimination

    def _absorb(self, symbol_id: int, payload: bytes) -> None:
        """Fold one fresh symbol into the reduced system (optimized path)."""
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

    # -------------------------------------------------------- seed-path solve

    def _try_decode(self) -> None:
        k = self.num_source_symbols
        if len(self._symbols) < k:
            return
        ids = sorted(self._symbols)
        systematic = [i for i in ids if i < k]
        if len(systematic) == k:
            data = b"".join(self._symbols[i] for i in range(k))
            self._decoded = data[: self.data_len]
            return
        matrix = np.zeros((len(ids), k), dtype=np.uint8)
        rhs = np.zeros((len(ids), self.symbol_size), dtype=np.uint8)
        for row, symbol_id in enumerate(ids):
            if symbol_id < k:
                matrix[row, symbol_id] = 1
            else:
                matrix[row] = _coefficients(self.block_id, symbol_id, k)
            rhs[row] = np.frombuffer(self._symbols[symbol_id], dtype=np.uint8)
        solved = gf_solve(matrix, rhs)
        if solved is None:
            return
        source, _ = solved
        self._decoded = source.tobytes()[: self.data_len]

"""RaptorQ-style precode: LDPC + HDPC intermediate symbols, LT encoding.

The dense random-linear code in :mod:`repro.fountain.raptor` pays ``O(K)``
table-gather work per coded symbol and full Gaussian elimination per decode.
Production RaptorQ codecs (RFC 6330; Bulut, arXiv:2004.12461) avoid both
with a *precode*: the ``K`` source symbols are first expanded into ``L``
intermediate symbols constrained by ``S`` sparse LDPC rows and ``H`` dense
GF(256) HDPC rows, and every coded symbol is a *sparse* LT combination of
intermediates.  Encoding a symbol then costs a handful of XORs, and decoding
peels the sparse component with inactivation decoding
(:mod:`repro.fountain.inactivation`) so only a small dense core ever reaches
Gaussian elimination.

Layout of the ``L = K + S + H`` intermediate symbols:

* columns ``0 .. K+S-1`` — the *active* (peelable) symbols ``W``; LT and
  LDPC rows reference them with binary coefficients,
* columns ``K+S .. L-1`` — the ``H`` *PI* symbols, permanently inactive;
  LT rows reference two of them and HDPC rows tie them to the rest with
  dense GF(256) coefficients (this is what makes the core full-rank with
  overwhelming probability).

The constraint matrix ``A`` stacks ``S`` LDPC rows, ``H`` HDPC rows and the
``K`` systematic LT rows; intermediates solve ``A C = [0; 0; D]`` so symbol
ids below ``K`` reproduce the source exactly (systematic code, same wire
contract as the dense codec).  ``A`` depends only on ``K`` (plus a
deterministic salt bumped until ``A`` is invertible), so its inverse — and
every LT row — is cached process-wide and shared by all blocks.

Wire compatibility: :class:`PrecodeEncoder` / :class:`PrecodeDecoder`
mirror the :class:`repro.fountain.raptor.FountainEncoder` /
``FountainDecoder`` APIs and the :class:`FountainSymbol` framing, so
:mod:`repro.fountain.block` can select either codec per
``SystemConfig.fountain_codec``.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import FountainCodeError
from ..obs import OBS
from .gf256 import gf2_matmul, gf_matmul, gf_solve
from .inactivation import InactivationStats, solve_inactivation
from .raptor import FountainSymbol, SymbolBatch

__all__ = [
    "Precode",
    "PrecodeEncoder",
    "PrecodeDecoder",
    "ldpc_count",
    "hdpc_count",
]

#: Entropy constant for every precode RNG stream (distinct from the dense
#: codec's 0x5EED so the two symbol spaces never collide).
_PRECODE_ENTROPY = 0xA970C0DE

#: RFC 6330-style cumulative degree distribution, scaled to 2**20.  Index
#: ``d`` holds the cumulative weight of degrees ``<= d``; sampling draws a
#: uniform v in [0, 2**20) and takes the first degree whose cumulative
#: weight exceeds it.  Mean degree ~4.6, max 30.
_DEGREE_CDF = (
    0, 5243, 529531, 704294, 791675, 844104, 879057, 904023, 922747,
    937311, 948962, 958494, 966438, 973160, 978921, 983914, 988283,
    992138, 995565, 998631, 1001391, 1003887, 1006157, 1008229, 1010129,
    1011876, 1013490, 1014983, 1016370, 1017662, 1048576,
)
_DEGREE_SCALE = 1 << 20

#: PI columns referenced per LT row (RaptorQ uses 2-3; 2 keeps rows light).
_PI_PER_ROW = 2


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def ldpc_count(k: int) -> int:
    """LDPC constraint rows for a K-symbol block (smallest prime >= floor)."""
    s = max(3, -(-k * 5 // 100) + 2)
    while not _is_prime(s):
        s += 1
    return s


def hdpc_count(k: int) -> int:
    """Dense GF(256) HDPC rows — the core's rank insurance."""
    return 4 + k // 64


def _sample_degree(v: int) -> int:
    for d in range(1, len(_DEGREE_CDF)):
        if v < _DEGREE_CDF[d]:
            return d
    return len(_DEGREE_CDF) - 1


class Precode:
    """Per-K precode structure: constraints, LT generator, encode matrix.

    Instances are immutable after construction and cached process-wide via
    :meth:`for_k`; building one costs a single ``L x L`` solve (the
    constraint-matrix inversion) plus the LDPC/HDPC row derivations.
    """

    _CACHE: "OrderedDict[int, Precode]" = OrderedDict()
    MAX_CACHE = 512
    MAX_SALT = 64
    MAX_DECODABLE = 1 << 16

    def __init__(self, k: int, salt: Optional[int] = None) -> None:
        if k <= 0:
            raise FountainCodeError(f"precode needs k >= 1, got {k}")
        self.k = int(k)
        self.s = ldpc_count(self.k)
        self.h = hdpc_count(self.k)
        self.w = self.k + self.s
        self.l = self.w + self.h
        self.pi_per_row = min(_PI_PER_ROW, self.h)
        self._ldpc_cols = self._build_ldpc()
        self._hdpc_active = self._build_hdpc()
        self._constraints = self._constraint_rows()
        self._lt_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._decodable: Dict[frozenset, bool] = {}
        self._repair_idx = np.zeros(0, dtype=np.int64)
        self._repair_cum = np.zeros(1, dtype=np.int64)
        if salt is None:
            encode_matrix = None
            for candidate in range(self.MAX_SALT):
                self.salt = candidate
                self._lt_cache.clear()
                encode_matrix = self._invert_constraints()
                if encode_matrix is not None:
                    break
            if encode_matrix is None:
                raise FountainCodeError(
                    f"no invertible precode found for k={k} within "
                    f"{self.MAX_SALT} salts"
                )
        else:
            self.salt = int(salt)
            encode_matrix = self._invert_constraints()
            if encode_matrix is None:
                raise FountainCodeError(
                    f"precode constraint matrix singular for k={k}, "
                    f"salt={salt}"
                )
        self.encode_matrix = encode_matrix
        self.systematic_mask = self._row_mask(range(self.k))

    @classmethod
    def for_k(cls, k: int) -> "Precode":
        """The cached precode for K source symbols (built on first use)."""
        cached = cls._CACHE.get(k)
        if cached is None:
            cached = cls(k)
            cls._CACHE[k] = cached
        cls._CACHE.move_to_end(k)
        while len(cls._CACHE) > cls.MAX_CACHE:
            cls._CACHE.popitem(last=False)
        return cached

    @classmethod
    def clear_cache(cls) -> None:
        cls._CACHE.clear()

    # ------------------------------------------------------------ structure

    def _build_ldpc(self) -> List[np.ndarray]:
        """R10-style circulant LDPC rows over the first K columns, plus the
        identity coefficient on each row's own LDPC symbol."""
        k, s = self.k, self.s
        toggles = np.zeros((s, k), dtype=bool)
        for i in range(k):
            a = 1 + (i // s) % (s - 1)
            b = i % s
            for _ in range(3):
                toggles[b, i] ^= True
                b = (b + a) % s
        rows = []
        for j in range(s):
            cols = np.nonzero(toggles[j])[0]
            rows.append(
                np.concatenate([cols, np.array([k + j], dtype=np.int64)])
            )
        return rows

    def _build_hdpc(self) -> np.ndarray:
        """Dense GF(256) HDPC coefficients over the W active columns."""
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=_PRECODE_ENTROPY, spawn_key=(self.k, 0, 0)
            )
        )
        return rng.integers(0, 256, size=(self.h, self.w), dtype=np.uint8)

    def lt_indices(self, symbol_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """LT row for ``symbol_id``: (active column indices, PI indices).

        Deterministic per ``(k, salt, symbol_id)`` — block-independent, so
        encoder, decoder and every block of the same K share one row cache.
        """
        cached = self._lt_cache.get(symbol_id)
        if cached is not None:
            return cached
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=_PRECODE_ENTROPY,
                spawn_key=(self.k, self.salt, 1 + symbol_id),
            )
        )
        degree = min(_sample_degree(int(rng.integers(0, _DEGREE_SCALE))), self.w)
        active = np.sort(rng.choice(self.w, size=degree, replace=False))
        pi = np.sort(rng.choice(self.h, size=self.pi_per_row, replace=False))
        row = (active.astype(np.int64), pi.astype(np.int64))
        self._lt_cache[symbol_id] = row
        return row

    def _row_mask(self, symbol_ids) -> np.ndarray:
        """Boolean ``(len(ids), L)`` LT rows for :func:`gf2_matmul`."""
        ids = list(symbol_ids)
        mask = np.zeros((len(ids), self.l), dtype=bool)
        for r, sid in enumerate(ids):
            active, pi = self.lt_indices(sid)
            mask[r, active] = True
            mask[r, self.w + pi] = True
        mask.setflags(write=False)
        return mask

    def repair_rows(
        self, first_symbol_id: int, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cached flat LT rows for repair ids ``first .. first+count-1``.

        Returns ``(indices, offsets)`` — the concatenated intermediate-row
        indices of the requested rows plus segment starts — shaped for one
        gather + :func:`numpy.bitwise_xor.reduceat` batch encode.  Grows a
        contiguous per-K index array on demand, the precode analogue of the
        dense codec's :class:`repro.fountain.raptor.CoefficientCache`.
        """
        if first_symbol_id < self.k:
            raise FountainCodeError(
                f"repair rows start at symbol id {self.k}, got "
                f"{first_symbol_id}"
            )
        if count <= 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        need = first_symbol_id - self.k + count
        have = self._repair_cum.shape[0] - 1
        if have < need:
            fresh = []
            lengths = []
            for sid in range(self.k + have, self.k + need):
                active, pi = self.lt_indices(sid)
                row = np.concatenate([active, self.w + pi])
                fresh.append(row)
                lengths.append(row.shape[0])
            self._repair_idx = np.concatenate([self._repair_idx, *fresh])
            self._repair_cum = np.concatenate(
                [
                    self._repair_cum,
                    self._repair_cum[-1]
                    + np.cumsum(np.array(lengths, dtype=np.int64)),
                ]
            )
        lo = first_symbol_id - self.k
        start = int(self._repair_cum[lo])
        stop = int(self._repair_cum[lo + count])
        indices = self._repair_idx[start:stop]
        offsets = self._repair_cum[lo : lo + count] - start
        return indices, offsets

    # ----------------------------------------------------------- inversion

    def _constraint_rows(self) -> np.ndarray:
        """The ``S`` LDPC rows then the ``H`` HDPC rows, ``(S + H, L)``."""
        a = np.zeros((self.s + self.h, self.l), dtype=np.uint8)
        for j, cols in enumerate(self._ldpc_cols):
            a[j, cols] = 1
        for j in range(self.h):
            a[self.s + j, : self.w] = self._hdpc_active[j]
            a[self.s + j, self.w + j] = 1
        return a

    def _constraint_matrix(self) -> np.ndarray:
        return np.concatenate(
            [self._constraints, self._row_mask(range(self.k))]
        )

    def rank_matrix(self, symbol_ids: np.ndarray) -> np.ndarray:
        """The matrix whose rank decides whether ``symbol_ids`` decode.

        Payload-free twin of :class:`PrecodeDecoder`'s success condition.
        Inactivation decoding is exact, so a holder of ``symbol_ids``
        (fewer than all K systematic ids, the decoder's own short-circuit)
        decodes iff the constraint rows plus its LT rows have full column
        rank ``L``.
        """
        return np.concatenate(
            [self._constraints, self._row_mask(symbol_ids.tolist())]
        )

    def known_verdict(self, symbol_ids: np.ndarray) -> Optional[bool]:
        """A remembered rank verdict for this id set, else None.

        LT rows are block-independent, so a verdict holds for every block
        of this K.
        """
        return self._decodable.get(frozenset(symbol_ids.tolist()))

    def remember_verdict(self, symbol_ids: np.ndarray, verdict: bool) -> None:
        """Keep the verdict :meth:`rank_matrix` of these ids came to."""
        if len(self._decodable) >= self.MAX_DECODABLE:
            self._decodable.clear()
        self._decodable[frozenset(symbol_ids.tolist())] = verdict

    def _invert_constraints(self) -> Optional[np.ndarray]:
        """``A^-1`` columns that map source symbols to intermediates.

        Solving ``A C = [0; 0; D]`` needs only the last K columns of the
        inverse: ``C = A^-1[:, S+H:] @ D``.
        """
        identity = np.eye(self.l, dtype=np.uint8)
        solved = gf_solve(self._constraint_matrix(), identity)
        if solved is None:
            return None
        inverse, _ = solved
        matrix = np.ascontiguousarray(inverse[:, self.s + self.h :])
        matrix.setflags(write=False)
        return matrix


class PrecodeEncoder:
    """Systematic precode encoder for one source block.

    Same constructor contract and symbol stream semantics as
    :class:`repro.fountain.raptor.FountainEncoder`; repair symbols are
    sparse LT combinations of the intermediate block, batch-encoded with
    the bit-sliced :func:`repro.fountain.gf256.gf2_matmul` kernel.
    """

    def __init__(self, block_id: int, data: bytes, symbol_size: int):
        if symbol_size <= 0:
            raise FountainCodeError(
                f"symbol_size must be positive, got {symbol_size}"
            )
        if not data:
            raise FountainCodeError("cannot encode an empty block")
        self.block_id = int(block_id)
        self.symbol_size = int(symbol_size)
        self.data_len = len(data)
        self.num_source_symbols = -(-len(data) // symbol_size)
        padded = data + b"\x00" * (
            self.num_source_symbols * symbol_size - len(data)
        )
        self._source = np.frombuffer(padded, dtype=np.uint8).reshape(
            self.num_source_symbols, symbol_size
        )
        self.precode = Precode.for_k(self.num_source_symbols)
        self._intermediate: Optional[np.ndarray] = None
        self._intermediate_words: Optional[np.ndarray] = None

    @property
    def intermediate(self) -> np.ndarray:
        """The ``(L, symbol_size)`` intermediate block (computed once)."""
        if self._intermediate is None:
            self._intermediate = gf_matmul(
                self.precode.encode_matrix, self._source
            )
        return self._intermediate

    @property
    def _words(self) -> np.ndarray:
        """Intermediates as ``uint64`` words (symbol padded to 8n bytes).

        XOR is bytewise, so word width is free throughput: the segmented
        repair reduction touches 8x fewer elements than a ``uint8`` view.
        """
        if self._intermediate_words is None:
            inter = self.intermediate
            pad = (-self.symbol_size) % 8
            if pad:
                padded = np.zeros(
                    (inter.shape[0], self.symbol_size + pad), dtype=np.uint8
                )
                padded[:, : self.symbol_size] = inter
            else:
                padded = np.ascontiguousarray(inter)
            self._intermediate_words = padded.view(np.uint64)
        return self._intermediate_words

    def symbol(self, symbol_id: int) -> FountainSymbol:
        """The coded symbol with stream index ``symbol_id``."""
        if symbol_id < 0:
            raise FountainCodeError(
                f"symbol_id must be >= 0, got {symbol_id}"
            )
        if symbol_id < self.num_source_symbols:
            payload = self._source[symbol_id].tobytes()
        else:
            active, pi = self.precode.lt_indices(symbol_id)
            rows = np.concatenate([active, self.precode.w + pi])
            payload = np.bitwise_xor.reduce(
                self.intermediate[rows], axis=0
            ).tobytes()
        return FountainSymbol(self.block_id, symbol_id, payload)

    def payload_block(self, first_id: int, count: int) -> np.ndarray:
        """``(count, symbol_size)`` payload matrix, no per-symbol objects.

        The throughput API: systematic rows are sliced from the source (an
        all-systematic range is a read-only view of it) and repair rows
        come out of one gather plus a segmented XOR reduction over the
        cached flat LT rows — a handful of XORs per symbol, which is the
        path the ``precode`` benchmark stage rates.
        """
        if first_id < 0:
            raise FountainCodeError(
                f"symbol ids must be >= 0, got {first_id}"
            )
        if count <= 0:
            return np.zeros((0, self.symbol_size), dtype=np.uint8)
        k = self.num_source_symbols
        if first_id + count <= k:
            return self._source[first_id : first_id + count]
        out = np.empty((count, self.symbol_size), dtype=np.uint8)
        sys_end = min(first_id + count, k)
        if first_id < k:
            out[: sys_end - first_id] = self._source[first_id:sys_end]
        repair_start = max(first_id, k)
        repair_count = first_id + count - repair_start
        if repair_count > 0:
            indices, offsets = self.precode.repair_rows(
                repair_start, repair_count
            )
            words = np.bitwise_xor.reduceat(
                self._words[indices], offsets, axis=0
            )
            out[count - repair_count :] = words.view(np.uint8)[
                :, : self.symbol_size
            ]
        return out

    def symbols(self, first_id: int, count: int) -> SymbolBatch:
        """``count`` consecutive symbols starting at ``first_id``."""
        return SymbolBatch(
            self.block_id,
            np.arange(first_id, first_id + count),
            self.payload_block(first_id, count),
        )

    @staticmethod
    def encode_many(
        ranges: Sequence[Tuple["PrecodeEncoder", int, int]]
    ) -> List[SymbolBatch]:
        """One batch per ``(encoder, first id, count)`` range of one pass.

        LT rows are cached per K, not derived per block, so there is
        nothing for the ranges of a pass to share.
        """
        return [encoder.symbols(first, count) for encoder, first, count in ranges]


class PrecodeDecoder:
    """Accumulates precode symbols and decodes by inactivation.

    Mirrors the :class:`repro.fountain.raptor.FountainDecoder` surface.
    A decode attempt runs once the distinct-symbol count reaches K and is
    retried only when fresh symbols arrive; each attempt peels the sparse
    LT/LDPC component and solves only the small inactivated core, so the
    cost no longer scales with full ``O(K^3)`` elimination.
    """

    def __init__(self, block_id: int, data_len: int, symbol_size: int):
        if symbol_size <= 0:
            raise FountainCodeError(
                f"symbol_size must be positive, got {symbol_size}"
            )
        if data_len <= 0:
            raise FountainCodeError(
                f"data_len must be positive, got {data_len}"
            )
        self.block_id = int(block_id)
        self.symbol_size = int(symbol_size)
        self.data_len = int(data_len)
        self.num_source_symbols = -(-data_len // symbol_size)
        self.precode = Precode.for_k(self.num_source_symbols)
        self._payloads: Dict[int, bytes] = {}
        self._decoded: Optional[bytes] = None
        self._attempted_at = -1
        self.last_stats: Optional[InactivationStats] = None

    @property
    def received_count(self) -> int:
        """Distinct symbols received so far."""
        return len(self._payloads)

    @property
    def is_decoded(self) -> bool:
        """Whether the block has been reconstructed."""
        return self._decoded is not None

    @property
    def rank(self) -> int:
        """Cheap decodability bound (distinct symbols capped at K)."""
        return min(len(self._payloads), self.num_source_symbols)

    def received_ids(self) -> Set[int]:
        """Distinct symbol ids received."""
        return set(self._payloads)

    @property
    def symbols_missing(self) -> int:
        """Symbols still needed before a decode attempt can succeed."""
        return max(0, self.num_source_symbols - self.received_count)

    def add_symbol(self, symbol: FountainSymbol) -> bool:
        """Ingest one symbol; returns True once the block is decodable."""
        if symbol.block_id != self.block_id:
            raise FountainCodeError(
                f"symbol for block {symbol.block_id} fed to decoder for "
                f"block {self.block_id}"
            )
        if len(symbol.payload) != self.symbol_size:
            raise FountainCodeError(
                f"payload is {len(symbol.payload)} bytes, expected "
                f"{self.symbol_size}"
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
        self._payloads.setdefault(symbol.symbol_id, symbol.payload)
        if (
            len(self._payloads) >= self.num_source_symbols
            and len(self._payloads) != self._attempted_at
        ):
            self._attempt_decode()

    def decode(self) -> bytes:
        """The reconstructed block; raises if not yet decodable."""
        if self._decoded is None:
            if len(self._payloads) != self._attempted_at:
                self._attempt_decode()
        if self._decoded is None:
            raise FountainCodeError(
                f"block {self.block_id} not decodable: "
                f"{self.received_count}/{self.num_source_symbols} symbols"
            )
        return self._decoded

    def _attempt_decode(self) -> None:
        k = self.num_source_symbols
        self._attempted_at = len(self._payloads)
        if len(self._payloads) < k:
            return
        if all(i in self._payloads for i in range(k)):
            data = b"".join(self._payloads[i] for i in range(k))
            self._decoded = data[: self.data_len]
            return
        pre = self.precode
        ids = sorted(self._payloads)
        n_rows = pre.s + len(ids)
        sparse_cols: List[np.ndarray] = list(pre._ldpc_cols)
        sparse_pi = np.zeros((n_rows, pre.h), dtype=np.uint8)
        payloads = np.zeros((n_rows, self.symbol_size), dtype=np.uint8)
        for offset, sid in enumerate(ids):
            active, pi = pre.lt_indices(sid)
            sparse_cols.append(active)
            sparse_pi[pre.s + offset, pi] = 1
            payloads[pre.s + offset] = np.frombuffer(
                self._payloads[sid], dtype=np.uint8
            )
        dense_pi = np.eye(pre.h, dtype=np.uint8)
        dense_payloads = np.zeros((pre.h, self.symbol_size), dtype=np.uint8)
        solved = solve_inactivation(
            pre.w,
            pre.h,
            sparse_cols,
            sparse_pi,
            payloads,
            pre._hdpc_active,
            dense_pi,
            dense_payloads,
        )
        if solved is None:
            return
        intermediates, stats = solved
        self.last_stats = stats
        source = gf2_matmul(pre.systematic_mask, intermediates)
        self._decoded = source.tobytes()[: self.data_len]

"""GF(256) arithmetic on numpy arrays.

The Galois field GF(2^8) with the AES/RaptorQ-standard primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D generator tables).

Every product is one lookup in a dense 256x256 product table (:data:`_MUL`,
64 KiB) read flat: the product of ``a`` and ``b`` sits at index
``(a << 8) | b``, so a whole batch of products is one uint16 index
expression and one ``np.take`` — no log/antilog round trip, no zero masks
and no two-array fancy gather.  The table itself is built from log/antilog
tables with the log-table sentinel trick: ``log[0]`` maps to a sentinel
index past every reachable nonzero sum, and the antilog table is zero from
that region onward, so ``exp[log[a] + log[b]]`` is correct for all inputs,
zeros included.

The ``*_reference`` functions preserve the original mask-based
implementations as oracles for the table kernels; nothing on a hot path
calls them.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import FountainCodeError
from ..obs import OBS

#: The field's primitive polynomial (0x11D) reduced modulo x^8.
_PRIMITIVE_POLY = 0x1D

#: Sentinel log value for zero: past 2*254, so any sum involving it lands in
#: the zero region of the antilog table.
_LOG_ZERO = 510


def _build_tables() -> Tuple[np.ndarray, np.ndarray]:
    # exp covers indices up to 2 * _LOG_ZERO; everything at or beyond
    # _LOG_ZERO stays zero so zero operands fall through without masking.
    exp = np.zeros(2 * _LOG_ZERO + 1, dtype=np.uint8)
    log = np.full(256, _LOG_ZERO, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x = (x ^ _PRIMITIVE_POLY) & 0xFF
    exp[255:510] = exp[:255]  # duplicated so (log a + log b) needs no modulo
    return exp, log


_EXP, _LOG = _build_tables()

#: Dense product table: ``_MUL[a, b]`` is the GF(256) product of a and b.
_MUL = _EXP[_LOG[:, None] + _LOG[None, :]]

#: The product table read flat: ``a * b`` sits at ``(a << 8) | b``.
_MUL_FLAT = _MUL.ravel()

#: Multiplicative inverses, with ``_INV[0] = 0`` so a missing pivot scales
#: its column's elimination factors to zero instead of needing a mask.
_INV = np.zeros(256, dtype=np.uint8)
_INV[1:] = _EXP[255 - _LOG[1:]]

#: Seed-era tables (log[0] = 0, 512-entry antilog) kept for the reference
#: implementations below.
_EXP_REF = np.zeros(512, dtype=np.int32)
_EXP_REF[:510] = _EXP[:510]
_LOG_REF = np.where(np.arange(256) == 0, 0, _LOG).astype(np.int32)


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise products of uint8 arrays (broadcasting): one flat-table
    lookup through a uint16 index the size of the broadcast result."""
    return _MUL_FLAT.take((a.astype(np.uint16) << 8) | b)


def gf_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise GF(256) product of two uint8 arrays (broadcasting)."""
    return _products(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))


def gf_multiply_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pre-sentinel gf_multiply (explicit zero masks); the oracle's kernel."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    result = _EXP_REF[_LOG_REF[a.astype(np.int32)] + _LOG_REF[b.astype(np.int32)]]
    zero = (a == 0) | (b == 0)
    return np.where(zero, 0, result).astype(np.uint8)


def gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(256)."""
    if a == 0:
        raise FountainCodeError("zero has no inverse in GF(256)")
    return int(_INV[a])


def gf_scale_row(row: np.ndarray, factor: int) -> np.ndarray:
    """Multiply a uint8 row by a scalar field element."""
    row = np.asarray(row, dtype=np.uint8)
    if factor == 0:
        return np.zeros_like(row)
    if factor == 1:
        return row.copy()
    return _products(row, np.asarray(factor, dtype=np.uint8))


#: Element budget of one row block's ``(rows, k, n)`` products: 256K keeps
#: the block's uint16 index (512 KiB) and its products (256 KiB) in L2;
#: budgets of 1M and more measured slower on 4.8M-product encodes.
_BLOCK_ELEMS = 1 << 18


def gf_matmul(
    a: np.ndarray, b: np.ndarray, block_elems: int = _BLOCK_ELEMS
) -> np.ndarray:
    """GF(256) matrix product of uint8 matrices ``(m, k) @ (k, n)``.

    The one kernel for every row count: dense repair encoding, precode
    intermediates and the decoder's single-row elimination steps.  Per row
    block, every ``(rows, k, n)`` product is one flat-table lookup
    (:func:`_products`), XOR-reduced along ``k`` straight into the output —
    no Python loop over source columns.  Row blocks are sized so the
    products and their uint16 index stay under ``block_elems`` elements
    (tests shrink it to force several blocks).
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    b = np.atleast_2d(np.asarray(b, dtype=np.uint8))
    if a.shape[1] != b.shape[0]:
        raise FountainCodeError(f"shape mismatch: {a.shape} @ {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n), dtype=np.uint8)  # k = 0 reduces to XOR's identity, 0
    rows_per_block = max(1, int(block_elems) // max(1, k * n))
    for start in range(0, m, rows_per_block):
        block = a[start : start + rows_per_block]
        np.bitwise_xor.reduce(
            _products(block[:, :, None], b[None, :, :]),
            axis=1,
            out=out[start : start + block.shape[0]],
        )
    return out


def gf2_matmul(mask: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit-sliced GF(2) matrix product: XOR rows of ``b`` selected by ``mask``.

    ``mask`` is boolean ``(m, k)``; the result row ``i`` is the XOR of every
    ``b[j]`` with ``mask[i, j]`` set — the hot kernel for binary LT/LDPC
    coefficient rows.  Implementation is bit-sliced: ``b`` is unpacked to
    bit-planes, selections are *counted* with one float32 BLAS matmul
    (exact for ``k`` up to 2**24), and the count parity is repacked to
    bytes.  XOR over GF(2) is exactly the parity of the selection count.
    """
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    b = np.atleast_2d(np.asarray(b, dtype=np.uint8))
    if mask.shape[1] != b.shape[0]:
        raise FountainCodeError(f"shape mismatch: {mask.shape} @ {b.shape}")
    m, k = mask.shape
    n = b.shape[1]
    if m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.uint8)
    if k == 0:
        return np.zeros((m, n), dtype=np.uint8)
    if k >= (1 << 24):
        raise FountainCodeError(
            f"bit-sliced parity matmul supports k < 2**24, got {k}"
        )
    bits = np.unpackbits(b, axis=1).astype(np.float32)
    counts = mask.astype(np.float32) @ bits
    parity = (counts.astype(np.int64) & 1).astype(np.uint8)
    return np.packbits(parity, axis=1)


def gf_matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pre-optimization gf_matmul (mask-based per-column products)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    b = np.atleast_2d(np.asarray(b, dtype=np.uint8))
    if a.shape[1] != b.shape[0]:
        raise FountainCodeError(f"shape mismatch: {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for j in range(a.shape[1]):
        column = a[:, j]
        nonzero = np.nonzero(column)[0]
        if nonzero.size == 0:
            continue
        products = gf_multiply_reference(column[nonzero, None], b[j][None, :])
        out[nonzero] ^= products
    return out


def gf_ranks(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """GF(256) rank of every matrix in ``matrices``, in one elimination.

    The matrices are zero-padded into one ``(p, m, n)`` stack (padding adds
    no rank) and eliminated forward together, one Python step per column
    for the whole stack.  Per matrix and column the pivot is the row of
    the largest entry (any nonzero one serves; ``argmax`` finds one without
    a mask), and *every* row with a nonzero entry in the column — the pivot
    row included — has its multiple of the pivot row XORed off.  That
    zeroes the pivot row itself, so spent rows never need swapping aside or
    masking: all-zero rows cannot be chosen again, live rows stay zero in
    every finished column, and a column without a pivot has inverse 0 and
    changes nothing.  The rank is the number of columns that found one.
    """
    count = len(matrices)
    blocks = [np.atleast_2d(np.asarray(m, dtype=np.uint8)) for m in matrices]
    rows = max((b.shape[0] for b in blocks), default=0)
    cols = max((b.shape[1] for b in blocks), default=0)
    stack = np.zeros((count, rows, cols), dtype=np.uint8)
    for block, padded in zip(blocks, stack):
        padded[: block.shape[0], : block.shape[1]] = block
    if rows == 0:
        return np.zeros(count, dtype=np.int64)
    which = np.arange(count)
    pivots = np.empty((cols, count), dtype=np.uint8)
    for col in range(cols):
        column = stack[:, :, col]
        pivot_rows = stack[which, column.argmax(axis=1), col:]
        pivots[col] = pivot_rows[:, 0]
        factors = _products(column, _INV[pivots[col]][:, None])
        stack[:, :, col:] ^= _products(factors[:, :, None], pivot_rows[:, None, :])
    return np.count_nonzero(pivots, axis=0)


def gf_solve(
    matrix: np.ndarray, rhs: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Solve ``matrix @ x = rhs`` over GF(256) by Gaussian elimination.

    Args:
        matrix: ``(m, k)`` coefficient matrix with ``m >= k``.
        rhs: ``(m, s)`` right-hand sides (one symbol payload per row).

    Returns:
        ``(x, rhs_reduced)`` where ``x`` is the ``(k, s)`` solution, or None
        when the matrix is rank-deficient (decode failure).
    """
    a = np.array(matrix, dtype=np.uint8)
    b = np.array(rhs, dtype=np.uint8)
    m, k = a.shape
    if b.shape[0] != m:
        raise FountainCodeError(f"rhs has {b.shape[0]} rows, expected {m}")
    # Elimination cost tallies: one row op per scaled/updated row, element
    # ops weighted by the full (coefficients + payload) row width.  Local
    # ints in the loop, a single OBS emission at the end, so the counters
    # cost nothing per pivot when observability is off.
    row_width = k + b.shape[1]
    row_ops = 0
    elem_ops = 0
    row = 0
    solved = True
    for col in range(k):
        pivot_candidates = np.nonzero(a[row:, col])[0]
        if pivot_candidates.size == 0:
            solved = False
            break
        pivot = row + int(pivot_candidates[0])
        if pivot != row:
            a[[row, pivot]] = a[[pivot, row]]
            b[[row, pivot]] = b[[pivot, row]]
        inv = gf_inverse(int(a[row, col]))
        a[row] = gf_scale_row(a[row], inv)
        b[row] = gf_scale_row(b[row], inv)
        targets = np.nonzero(a[:, col])[0]
        targets = targets[targets != row]
        if targets.size:
            factors = a[targets, col]
            a[targets] ^= gf_multiply(factors[:, None], a[row][None, :])
            b[targets] ^= gf_multiply(factors[:, None], b[row][None, :])
        row_ops += int(targets.size) + 1
        elem_ops += (int(targets.size) + 1) * row_width
        row += 1
        if row == k:
            break
    if OBS.mode:
        OBS.count("fountain.gf.solve_calls")
        OBS.count("fountain.gf.solve_row_ops", row_ops)
        OBS.count("fountain.gf.solve_elem_ops", elem_ops)
    if not solved or row < k:
        return None
    return b[:k], b

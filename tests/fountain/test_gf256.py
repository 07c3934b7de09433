"""Tests for GF(256) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FountainCodeError
from repro.fountain.gf256 import (
    gf2_matmul,
    gf_inverse,
    gf_matmul,
    gf_matmul_reference,
    gf_multiply,
    gf_multiply_reference,
    gf_ranks,
    gf_scale_row,
    gf_solve,
)
from repro.obs import observed


class TestMultiply:
    def test_zero_annihilates(self):
        a = np.arange(256, dtype=np.uint8)
        assert np.all(gf_multiply(a, np.zeros_like(a)) == 0)

    def test_one_is_identity(self):
        a = np.arange(256, dtype=np.uint8)
        np.testing.assert_array_equal(gf_multiply(a, np.ones_like(a)), a)

    def test_commutative(self, rng):
        a = rng.integers(0, 256, 100, dtype=np.uint8)
        b = rng.integers(0, 256, 100, dtype=np.uint8)
        np.testing.assert_array_equal(gf_multiply(a, b), gf_multiply(b, a))

    def test_associative(self, rng):
        a, b, c = (rng.integers(0, 256, 50, dtype=np.uint8) for _ in range(3))
        left = gf_multiply(gf_multiply(a, b), c)
        right = gf_multiply(a, gf_multiply(b, c))
        np.testing.assert_array_equal(left, right)

    def test_distributes_over_xor(self, rng):
        a, b, c = (rng.integers(0, 256, 50, dtype=np.uint8) for _ in range(3))
        left = gf_multiply(a, b ^ c)
        right = gf_multiply(a, b) ^ gf_multiply(a, c)
        np.testing.assert_array_equal(left, right)

    def test_known_value(self):
        # In GF(256) with 0x11D: 2 * 128 = 0x1D = 29.
        assert int(gf_multiply(np.uint8(2), np.uint8(128))) == 29


class TestInverse:
    def test_all_nonzero_elements_invert(self):
        for value in range(1, 256):
            inverse = gf_inverse(value)
            product = int(gf_multiply(np.uint8(value), np.uint8(inverse)))
            assert product == 1

    def test_zero_rejected(self):
        with pytest.raises(FountainCodeError):
            gf_inverse(0)


class TestScaleRow:
    def test_scale_by_zero(self, rng):
        row = rng.integers(0, 256, 16, dtype=np.uint8)
        assert np.all(gf_scale_row(row, 0) == 0)

    def test_scale_then_unscale(self, rng):
        row = rng.integers(0, 256, 16, dtype=np.uint8)
        scaled = gf_scale_row(row, 7)
        unscaled = gf_scale_row(scaled, gf_inverse(7))
        np.testing.assert_array_equal(unscaled, row)


class TestSolve:
    def test_identity_system(self, rng):
        rhs = rng.integers(0, 256, (4, 10), dtype=np.uint8)
        solution, _ = gf_solve(np.eye(4, dtype=np.uint8), rhs)
        np.testing.assert_array_equal(solution, rhs)

    def test_random_invertible_system(self, rng):
        k = 8
        x = rng.integers(0, 256, (k, 32), dtype=np.uint8)
        matrix = rng.integers(0, 256, (k, k), dtype=np.uint8)
        rhs = gf_matmul(matrix, x)
        result = gf_solve(matrix, rhs)
        if result is not None:  # random matrix is invertible w.h.p.
            np.testing.assert_array_equal(result[0], x)

    def test_overdetermined_consistent(self, rng):
        k = 5
        x = rng.integers(0, 256, (k, 8), dtype=np.uint8)
        matrix = rng.integers(0, 256, (k + 3, k), dtype=np.uint8)
        rhs = gf_matmul(matrix, x)
        result = gf_solve(matrix, rhs)
        assert result is not None
        np.testing.assert_array_equal(result[0], x)

    def test_rank_deficient_returns_none(self):
        matrix = np.array([[1, 2], [2, 4], [0, 0]], dtype=np.uint8)
        # Row 2 = 2 * row 1 in GF(256)? 2*[1,2] = [2,4] indeed.
        rhs = np.zeros((3, 4), dtype=np.uint8)
        assert gf_solve(matrix, rhs) is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FountainCodeError):
            gf_solve(np.eye(3, dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8))

    def test_matmul_shape_mismatch_rejected(self):
        with pytest.raises(FountainCodeError):
            gf_matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 2), dtype=np.uint8))


def _scalar_rank(matrix: np.ndarray) -> int:
    """``gf_rank`` as it stood before the stacked kernel, frozen: forward
    elimination of one matrix with first-nonzero pivots and row swaps."""
    a = np.atleast_2d(np.array(matrix, dtype=np.uint8))
    m, k = a.shape
    if m == 0 or k == 0:
        return 0
    row = 0
    for col in range(k):
        pivot_candidates = np.nonzero(a[row:, col])[0]
        if pivot_candidates.size == 0:
            continue
        pivot = row + int(pivot_candidates[0])
        if pivot != row:
            a[[row, pivot]] = a[[pivot, row]]
        a[row] = gf_scale_row(a[row], gf_inverse(int(a[row, col])))
        targets = np.nonzero(a[row + 1:, col])[0]
        if targets.size:
            targets = targets + row + 1
            factors = a[targets, col]
            a[targets] ^= gf_multiply(factors[:, None], a[row][None, :])
        row += 1
        if row == m:
            break
    return row


class TestStackedRank:
    """One elimination over a zero-padded stack ranks every matrix as the
    scalar elimination ranks it alone."""

    @staticmethod
    def _matrix(rng, rows, cols):
        kind = rng.integers(0, 4)
        if kind == 0:  # full random: rank min(rows, cols) but for 1/255
            matrix = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
        elif kind == 1:  # a chosen rank below full
            inner = int(rng.integers(0, min(rows, cols) + 1))
            matrix = gf_matmul(
                rng.integers(0, 256, (rows, inner), dtype=np.uint8),
                rng.integers(0, 256, (inner, cols), dtype=np.uint8),
            )
        elif kind == 2:  # sparse binary, as precode LT rows are
            matrix = (rng.random((rows, cols)) < 0.2).astype(np.uint8)
        else:
            matrix = np.zeros((rows, cols), dtype=np.uint8)
        if rng.random() < 0.3:
            matrix[:, rng.integers(0, cols)] = 0
        if rows > 1 and rng.random() < 0.3:
            matrix[rng.integers(1, rows)] = matrix[0]
        return matrix

    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 24), st.integers(1, 22)),
            min_size=1, max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(deadline=None, max_examples=60)
    def test_ragged_stacks_match_scalar_elimination(self, shapes, seed):
        rng = np.random.default_rng(seed)
        matrices = [self._matrix(rng, rows, cols) for rows, cols in shapes]
        before = [matrix.copy() for matrix in matrices]
        ranks = gf_ranks(matrices)
        assert ranks.tolist() == [_scalar_rank(matrix) for matrix in matrices]
        for matrix, copy in zip(matrices, before):
            np.testing.assert_array_equal(matrix, copy)  # inputs untouched

    def test_one_matrix_form(self, rng):
        matrix = rng.integers(0, 256, (9, 7), dtype=np.uint8)
        matrix[5] = matrix[2]
        assert gf_ranks([matrix])[0] == _scalar_rank(matrix) == 7
        assert gf_ranks([np.eye(4, dtype=np.uint8)[:3]])[0] == 3

    def test_degenerate_shapes(self):
        assert gf_ranks([]).tolist() == []
        assert gf_ranks([np.zeros((0, 5), np.uint8), np.zeros((3, 0), np.uint8)]).tolist() == [0, 0]
        assert gf_ranks([np.zeros((0, 0), dtype=np.uint8)])[0] == 0


class TestBlockedMatmul:
    """The table-blocked kernel pinned against reference accumulation."""

    @given(
        m=st.integers(min_value=0, max_value=40),
        k=st.integers(min_value=0, max_value=40),
        n=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=60)
    def test_blocked_matches_reference(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (m, k), dtype=np.uint8)
        b = rng.integers(0, 256, (k, n), dtype=np.uint8)
        np.testing.assert_array_equal(
            gf_matmul(a, b), gf_matmul_reference(a, b)
        )

    @given(
        m=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=20),
        n=st.integers(min_value=1, max_value=20),
        block_elems=st.integers(min_value=1, max_value=256),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=60)
    def test_block_size_does_not_change_result(self, m, k, n, block_elems, seed):
        """Tiny block budgets force multi-block paths; output is invariant."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (m, k), dtype=np.uint8)
        b = rng.integers(0, 256, (k, n), dtype=np.uint8)
        np.testing.assert_array_equal(
            gf_matmul(a, b, block_elems=block_elems),
            gf_matmul_reference(a, b),
        )

    @given(
        m=st.integers(min_value=2, max_value=30),
        k=st.integers(min_value=1, max_value=30),
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=60)
    def test_gf_matmul_multi_row_uses_blocked_result(self, m, k, n, seed):
        """gf_matmul at several rows equals the column-loop reference."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (m, k), dtype=np.uint8)
        b = rng.integers(0, 256, (k, n), dtype=np.uint8)
        np.testing.assert_array_equal(
            gf_matmul(a, b), gf_matmul_reference(a, b)
        )

    def test_single_row_fast_path_matches(self, rng):
        """One row (a decoder elimination step) runs the same kernel."""
        a = rng.integers(0, 256, (1, 50), dtype=np.uint8)
        b = rng.integers(0, 256, (50, 64), dtype=np.uint8)
        np.testing.assert_array_equal(
            gf_matmul(a, b), gf_matmul_reference(a, b)
        )


class TestFlatTableKernel:
    """The flat-table kernel at the shapes and operand layouts production
    hands it: K source symbols of n bytes, zero, one or many coefficient
    rows, row blocks down to one row, views into larger arrays."""

    @staticmethod
    def _operands(rng, m, k, n, layout, fill):
        if fill == "max":  # every product reads the table's last entry
            a = np.full((m, k), 255, dtype=np.uint8)
            b = np.full((k, n), 255, dtype=np.uint8)
        else:
            a = rng.integers(0, 256, (m, k), dtype=np.uint8)
            b = rng.integers(0, 256, (k, n), dtype=np.uint8)
        if layout == "row slice":  # rows[start:start + coded] of one pass
            rows = np.zeros((m + 5, k), dtype=np.uint8)
            rows[3 : 3 + m] = a
            a = rows[3 : 3 + m]
        elif layout == "strided":  # every-other-column / -row views
            wide = np.zeros((m, 2 * k), dtype=np.uint8)
            wide[:, ::2] = a
            tall = np.zeros((2 * k, n + 1), dtype=np.uint8)
            tall[::2, 1:] = b
            a, b = wide[:, ::2], tall[::2, 1:]
        return a, b

    @given(
        k=st.sampled_from([20, 27]),
        n=st.sampled_from([116, 6000]),
        m=st.sampled_from([0, 1, 2, 5]),
        rows_per_block=st.sampled_from([None, 1, 2]),
        layout=st.sampled_from(["contiguous", "row slice", "strided"]),
        fill=st.sampled_from(["random", "max"]),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=40)
    def test_matches_reference(self, k, n, m, rows_per_block, layout, fill, seed):
        rng = np.random.default_rng(seed)
        a, b = self._operands(rng, m, k, n, layout, fill)
        expected = gf_matmul_reference(a, b)
        if rows_per_block is None:
            got = gf_matmul(a, b)
        else:  # a budget of one or two rows: m > 2 spans several blocks
            got = gf_matmul(a, b, block_elems=rows_per_block * k * n)
        assert got.dtype == np.uint8 and got.shape == (m, n)
        np.testing.assert_array_equal(got, expected)

    @given(
        k=st.sampled_from([20, 27]),
        n=st.sampled_from([116, 6000]),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=20)
    def test_one_strided_column_as_a_row(self, k, n, seed):
        """A column ``a[:, j]`` of a wider matrix is a one-row product."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (k, 9), dtype=np.uint8)
        b = rng.integers(0, 256, (k, n), dtype=np.uint8)
        j = int(rng.integers(0, 9))
        np.testing.assert_array_equal(
            gf_matmul(a[:, j], b), gf_matmul_reference(a[:, j], b)
        )

    def test_every_product_matches_reference(self):
        """All 65,536 table entries, the corners 0 and 65535 included."""
        a, b = np.meshgrid(
            np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8),
            indexing="ij",
        )
        np.testing.assert_array_equal(
            gf_multiply(a, b), gf_multiply_reference(a, b)
        )
        for factor in (0, 1, 2, 255):
            np.testing.assert_array_equal(
                gf_scale_row(b[0], factor),
                gf_multiply_reference(np.uint8(factor), b[0]),
            )


class TestGF2Matmul:
    """Bit-sliced parity matmul pinned against reference XOR accumulation."""

    @given(
        m=st.integers(min_value=0, max_value=40),
        k=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_reference_accumulation(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, (m, k)).astype(bool)
        b = rng.integers(0, 256, (k, n), dtype=np.uint8)
        # A boolean mask is a GF(256) coefficient matrix of zeros and ones.
        expected = gf_matmul_reference(mask.astype(np.uint8), b)
        np.testing.assert_array_equal(gf2_matmul(mask, b), expected)

    def test_empty_selection_is_zero(self):
        mask = np.zeros((3, 5), dtype=bool)
        b = np.arange(5 * 4, dtype=np.uint8).reshape(5, 4)
        np.testing.assert_array_equal(
            gf2_matmul(mask, b), np.zeros((3, 4), dtype=np.uint8)
        )

    def test_full_selection_is_xor_of_all_rows(self, rng):
        b = rng.integers(0, 256, (7, 16), dtype=np.uint8)
        mask = np.ones((1, 7), dtype=bool)
        np.testing.assert_array_equal(
            gf2_matmul(mask, b)[0], np.bitwise_xor.reduce(b, axis=0)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FountainCodeError):
            gf2_matmul(np.ones((2, 3), dtype=bool), np.zeros((4, 2), dtype=np.uint8))


class TestSolveInstrumentation:
    """gf_solve reports elimination effort through obs counters."""

    def test_counters_emitted_inside_observed(self, rng):
        k = 6
        matrix = rng.integers(0, 256, (k, k), dtype=np.uint8)
        rhs = rng.integers(0, 256, (k, 8), dtype=np.uint8)
        with observed("counters") as registry:
            gf_solve(matrix, rhs)
        counters = registry.counters()
        assert counters.get("fountain.gf.solve_calls") == 1.0
        assert counters.get("fountain.gf.solve_row_ops", 0) > 0
        assert counters.get("fountain.gf.solve_elem_ops", 0) > 0

    def test_no_counters_outside_observed(self, rng):
        k = 4
        matrix = rng.integers(0, 256, (k, k), dtype=np.uint8)
        rhs = rng.integers(0, 256, (k, 4), dtype=np.uint8)
        with observed("counters") as registry:
            pass
        gf_solve(matrix, rhs)
        assert "fountain.gf.solve_calls" not in registry.counters()

    def test_singular_solve_still_counts(self):
        matrix = np.array([[1, 2], [2, 4]], dtype=np.uint8)
        rhs = np.zeros((2, 3), dtype=np.uint8)
        with observed("counters") as registry:
            assert gf_solve(matrix, rhs) is None
        assert registry.counters().get("fountain.gf.solve_calls") == 1.0

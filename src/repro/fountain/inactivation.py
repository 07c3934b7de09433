"""Inactivation decoding: peel the sparse component, solve a small core.

The precode decoder's equation system has RaptorQ's shape: most rows are
*sparse binary* combinations of the first ``W`` intermediate symbols (the LT
and LDPC rows), a handful are *dense* GF(256) rows (HDPC), and a few columns
(the PI symbols) are referenced densely from the start.  Full Gaussian
elimination on that system costs ``O(L^3)``; inactivation decoding exploits
the sparsity so the cost stops scaling cubically:

1. **Peel** — repeatedly pick a sparse row with exactly one unsolved active
   column.  That row *defines* the column; eliminating it from the other
   rows is a pure XOR (binary coefficients) and — because the pivot row has
   no other active column — introduces no fill-in.
2. **Inactivate** — when no degree-1 row exists, demote the highest-degree
   active column to the *inactive* set: rows keep a coefficient for it, but
   it no longer blocks peeling.  This is the classic trade: each
   inactivation grows the dense core by one column and restarts the ripple.
3. **Solve the core** — after peeling, the unused rows plus the dense HDPC
   rows form a small system over only the inactive columns (PI symbols +
   inactivated columns).  That core is handed to the existing
   :func:`repro.fountain.gf256.gf_solve`; its size is what the decode-cost
   scaling tests pin sub-cubic.
4. **Back-substitute** — peeled columns are recovered in reverse order;
   sparse rows stay binary throughout, so each value is an XOR of core
   solutions plus the defining row's payload.

The solver is exact: it succeeds if and only if the equation system has
full column rank, so decodability matches what full Gaussian elimination
would conclude — only the cost differs.

Elimination effort is tallied (row ops, and element ops weighted by row
width) and reported through ``OBS`` counters
(``fountain.inactivation.*``) so the sub-cubic claim is enforced by tests
rather than asserted in prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..obs import OBS
from .gf256 import gf_multiply, gf_solve


@dataclass(frozen=True)
class InactivationStats:
    """Cost accounting for one inactivation solve.

    Attributes:
        peeled: Columns recovered by the ripple (cheap XOR eliminations).
        inactivated: Active columns demoted to the dense core.
        core_rows, core_cols: Dimensions of the system given to ``gf_solve``.
        row_ops: Row operations across peeling, core solve and back-subst.
        elem_ops: Element operations (row ops weighted by row width) — the
            quantity whose growth in K the scaling tests bound.
    """

    peeled: int
    inactivated: int
    core_rows: int
    core_cols: int
    row_ops: int
    elem_ops: int


def solve_inactivation(
    n_active: int,
    pi_width: int,
    sparse_cols: List[np.ndarray],
    sparse_pi: np.ndarray,
    sparse_payloads: np.ndarray,
    dense_active: np.ndarray,
    dense_pi: np.ndarray,
    dense_payloads: np.ndarray,
) -> Optional[Tuple[np.ndarray, InactivationStats]]:
    """Solve a sparse-plus-dense GF(256) system by inactivation decoding.

    Unknowns are ``n_active`` *active* columns (binary coefficients in the
    sparse rows) followed by ``pi_width`` permanently-inactive PI columns.

    Args:
        n_active: Active (peelable) unknowns, indexed ``0 .. n_active-1``.
        pi_width: PI unknowns, indexed ``n_active .. n_active+pi_width-1``.
        sparse_cols: Per sparse row, the active column indices it XORs
            (binary coefficients; duplicates not allowed within a row).
        sparse_pi: ``(n_sparse, pi_width)`` binary PI coefficients.
        sparse_payloads: ``(n_sparse, symbol_size)`` right-hand sides.
        dense_active: ``(n_dense, n_active)`` GF(256) coefficients (HDPC).
        dense_pi: ``(n_dense, pi_width)`` GF(256) PI coefficients.
        dense_payloads: ``(n_dense, symbol_size)`` right-hand sides.

    Returns:
        ``(solution, stats)`` with ``solution`` of shape
        ``(n_active + pi_width, symbol_size)``, or ``None`` when the system
        is rank-deficient (decode failure).
    """
    n_sparse = len(sparse_cols)
    n_dense = dense_active.shape[0]
    sz = sparse_payloads.shape[1] if n_sparse else dense_payloads.shape[1]
    # Inactive-side coefficients: PI columns first, inactivated columns
    # appended in inactivation order.  Width is bounded by pi + active.
    ext_width = pi_width + n_active
    ext = np.zeros((n_sparse, ext_width), dtype=np.uint8)
    if pi_width:
        ext[:, :pi_width] = sparse_pi
    pay = np.array(sparse_payloads, dtype=np.uint8)
    d_active = np.array(dense_active, dtype=np.uint8)
    d_ext = np.zeros((n_dense, ext_width), dtype=np.uint8)
    if pi_width:
        d_ext[:, :pi_width] = dense_pi
    d_pay = np.array(dense_payloads, dtype=np.uint8)

    active_sets = [set(int(c) for c in cols) for cols in sparse_cols]
    col_rows: List[set] = [set() for _ in range(n_active)]
    for r, cols in enumerate(active_sets):
        for c in cols:
            col_rows[c].add(r)

    solved_by = np.full(n_active, -1, dtype=np.int64)
    peel_order: List[int] = []
    inact_of_col = np.full(n_active, -1, dtype=np.int64)
    n_inact = 0
    used = np.zeros(n_sparse, dtype=bool)
    unsolved = set(range(n_active))
    ripple = [r for r, cols in enumerate(active_sets) if len(cols) == 1]
    row_ops = 0
    elem_ops = 0

    def eliminate(r: int, c: int) -> None:
        """Fold defining row ``r`` (active part == {c}) out of the system."""
        nonlocal row_ops, elem_ops
        width = pi_width + n_inact + sz
        for s in list(col_rows[c]):
            if s == r or used[s]:
                continue
            active_sets[s].discard(c)
            ext[s] ^= ext[r]
            pay[s] ^= pay[r]
            row_ops += 1
            elem_ops += width
            if len(active_sets[s]) == 1:
                ripple.append(s)
        col_rows[c].clear()
        if n_dense:
            factors = d_active[:, c]
            hits = np.nonzero(factors)[0]
            if hits.size:
                d_ext[hits] ^= gf_multiply(
                    factors[hits, None], ext[r][None, :]
                )
                d_pay[hits] ^= gf_multiply(
                    factors[hits, None], pay[r][None, :]
                )
                d_active[hits, c] = 0
                row_ops += int(hits.size)
                elem_ops += int(hits.size) * width

    while unsolved:
        r = -1
        while ripple:
            cand = ripple.pop()
            if not used[cand] and len(active_sets[cand]) == 1:
                r = cand
                break
        if r >= 0:
            c = next(iter(active_sets[r]))
            if c not in unsolved:  # stale ripple entry
                continue
            active_sets[r].clear()
            col_rows[c].discard(r)
            used[r] = True
            solved_by[c] = r
            peel_order.append(c)
            unsolved.discard(c)
            eliminate(r, c)
            continue
        # Ripple dry: inactivate the highest-degree unsolved column (ties
        # broken by lowest index for determinism).  Degree-0 columns are
        # inactivated too — only the core can still determine them.
        c = max(
            unsolved,
            key=lambda col: (len(col_rows[col]), -col),
        )
        unsolved.discard(c)
        slot = pi_width + n_inact
        inact_of_col[c] = n_inact
        for s in col_rows[c]:
            if used[s]:
                continue
            active_sets[s].discard(c)
            ext[s, slot] = 1
            if len(active_sets[s]) == 1:
                ripple.append(s)
        col_rows[c].clear()
        if n_dense:
            d_ext[:, slot] = d_active[:, c]
            d_active[:, c] = 0
        n_inact += 1

    # Core system over (PI + inactivated) columns: every unused sparse row
    # plus all dense rows.  Their active parts are fully eliminated.
    core_cols = pi_width + n_inact
    free_rows = np.nonzero(~used)[0]
    core = np.concatenate(
        [ext[free_rows, :core_cols], d_ext[:, :core_cols]], axis=0
    )
    core_rhs = np.concatenate([pay[free_rows], d_pay], axis=0)
    core_rows = core.shape[0]
    solution = np.zeros((n_active + pi_width, sz), dtype=np.uint8)
    if core_cols:
        solved = gf_solve(core, core_rhs)
        if solved is None:
            _emit_counters(
                len(peel_order), n_inact, core_rows, core_cols,
                row_ops, elem_ops, success=False,
            )
            return None
        core_values, _ = solved
        # Upper-bound accounting for the dense core elimination: pivots x
        # rows x row width.  gf_solve reports its own exact tally to OBS;
        # this keeps the returned stats self-contained.
        row_ops += core_rows * core_cols
        elem_ops += core_rows * core_cols * (core_cols + sz)
        for j in range(pi_width):
            solution[n_active + j] = core_values[j]
        inactivated = np.nonzero(inact_of_col >= 0)[0]
        for c in inactivated:
            solution[c] = core_values[pi_width + int(inact_of_col[c])]
    elif core_rows and not np.array_equal(
        core_rhs, np.zeros_like(core_rhs)
    ):
        # No unknowns left but inconsistent leftover equations can only
        # arise from duplicate contradictory rows; treat as failure.
        _emit_counters(
            len(peel_order), n_inact, core_rows, core_cols,
            row_ops, elem_ops, success=False,
        )
        return None

    # Back-substitution in reverse peel order.  Sparse rows stay binary, so
    # each peeled value is the defining row's payload XOR selected core
    # solutions.
    for c in reversed(peel_order):
        r = int(solved_by[c])
        value = pay[r].copy()
        mask = np.nonzero(ext[r, :core_cols])[0]
        if mask.size:
            value ^= np.bitwise_xor.reduce(
                solution[_core_index(mask, pi_width, inact_of_col, n_active)],
                axis=0,
            )
            row_ops += 1
            elem_ops += int(mask.size) * sz
        solution[c] = value

    stats = InactivationStats(
        peeled=len(peel_order),
        inactivated=n_inact,
        core_rows=core_rows,
        core_cols=core_cols,
        row_ops=row_ops,
        elem_ops=elem_ops,
    )
    _emit_counters(
        stats.peeled, stats.inactivated, core_rows, core_cols,
        row_ops, elem_ops, success=True,
    )
    return solution, stats


def _core_index(
    slots: np.ndarray,
    pi_width: int,
    inact_of_col: np.ndarray,
    n_active: int,
) -> np.ndarray:
    """Map inactive-side slot indices back to solution row indices."""
    out = np.empty(slots.shape[0], dtype=np.int64)
    inact_cols = np.nonzero(inact_of_col >= 0)[0]
    slot_to_col = np.empty(inact_cols.shape[0], dtype=np.int64)
    slot_to_col[inact_of_col[inact_cols]] = inact_cols
    for i, slot in enumerate(slots):
        if slot < pi_width:
            out[i] = n_active + int(slot)
        else:
            out[i] = int(slot_to_col[int(slot) - pi_width])
    return out


def _emit_counters(
    peeled: int,
    inactivated: int,
    core_rows: int,
    core_cols: int,
    row_ops: int,
    elem_ops: int,
    success: bool,
) -> None:
    if not OBS.mode:
        return
    OBS.count("fountain.inactivation.solves")
    OBS.count("fountain.inactivation.peeled", peeled)
    OBS.count("fountain.inactivation.inactivated", inactivated)
    OBS.count("fountain.inactivation.core_rows", core_rows)
    OBS.count("fountain.inactivation.core_cols", core_cols)
    OBS.count("fountain.inactivation.row_ops", row_ops)
    OBS.count("fountain.inactivation.elem_ops", elem_ops)
    if not success:
        OBS.count("fountain.inactivation.failures")

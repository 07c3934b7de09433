"""Layers no session call isolates, timed by calling them directly.

The fountain codecs run on the workload's first probe frame with the real
K and symbol size; each round trip is checked before its time counts.  Both
codecs are measured in every traced run, whichever one the workload streams
with, so an encode- or decode-only change shows on its own line.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any, Dict

#: Symbols sent beyond K per unit, enough for either decoder to finish.
OVERHEAD_SYMBOLS = 2


def direct_metrics(ctx: Any, smoke: bool) -> Dict[str, float]:
    repeats = 2 if smoke else 7
    out: Dict[str, float] = {}
    init_ms = []
    for codec in ("dense", "precode"):
        rounds = [_fountain_round_trip(ctx.probes[0], codec) for _ in range(repeats)]
        out[f"fountain.{codec}_encode_msym_s"] = statistics.median(r["encode"] for r in rounds)
        out[f"fountain.{codec}_decode_msym_s"] = statistics.median(r["decode"] for r in rounds)
        init_ms.extend(r["init_ms"] for r in rounds)
    # Encoder construction as the FrameEncoder stage pays it, both codecs.
    out["fountain.encoder_init_ms"] = statistics.median(init_ms)
    out["quality.dnn_predict_us"] = _dnn_predict_us(ctx, 20 if smoke else 300)
    return out


def _fountain_round_trip(probe: Any, codec: str) -> Dict[str, float]:
    from repro.fountain.block import FrameBlockDecoder, FrameBlockEncoder, symbol_size_for

    structure = probe.layered.structure
    symbol_size = symbol_size_for(structure)
    t0 = perf_counter()
    encoder = FrameBlockEncoder(0, probe.layered, symbol_size, codec=codec)
    t1 = perf_counter()
    units = encoder.units
    per_unit = encoder.symbols_per_unit() + OVERHEAD_SYMBOLS
    batches = [encoder.next_symbols(unit, per_unit) for unit in units]
    t2 = perf_counter()
    decoder = FrameBlockDecoder(0, structure, symbol_size, codec=codec)
    for batch in batches:
        for symbol in batch:
            decoder.ingest(symbol)
    layered, _masks = decoder.assemble()
    t3 = perf_counter()
    for unit in units:
        sent = probe.layered.sublayer_payload(unit.layer, unit.sublayer)
        if layered.sublayer_payload(unit.layer, unit.sublayer) != sent:
            raise AssertionError(f"{codec} round trip lost unit {unit}")
    msymbols = len(units) * per_unit / 1e6
    return {
        "init_ms": (t1 - t0) * 1e3,
        "encode": msymbols / (t2 - t1),
        "decode": msymbols / (t3 - t2),
    }


def _dnn_predict_us(ctx: Any, calls: int) -> float:
    features = ctx.probes[0].features([1.0, 0.75, 0.5, 0.25])
    samples = []
    for _ in range(calls):
        t0 = perf_counter()
        ctx.dnn.predict(features)
        samples.append((perf_counter() - t0) * 1e6)
    return statistics.median(samples)

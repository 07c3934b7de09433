"""Fig 2: Raptor encode/decode time vs symbol size.

Paper: both times first decrease then increase with symbol size; 6000 B sits
near the minimum, which is why the system uses it.  We sweep symbol size on
a fixed ~120 KB coding unit (the paper's 4K sublayer size) and report both
the absolute times and time per useful byte (padding waste makes very large
symbols inefficient).
"""

import time

import numpy as np

from repro.fountain import FountainDecoder, FountainEncoder

from conftest import run_once

UNIT_BYTES = 120_000
SYMBOL_SIZES = (500, 1500, 3000, 6000, 12000, 30000, 60000)


def test_fig2_symbol_size_sweep(benchmark):
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=UNIT_BYTES, dtype=np.uint8).tobytes()

    def experiment():
        rows = []
        for symbol_size in SYMBOL_SIZES:
            encoder = FountainEncoder(1, data, symbol_size)
            k = encoder.num_source_symbols
            start = time.perf_counter()
            repair = encoder.symbols(k, max(2, k // 2))
            encode_s = time.perf_counter() - start

            decoder = FountainDecoder(1, len(data), symbol_size)
            mixture = [*encoder.symbols(0, k - max(1, k // 2)), *repair]
            start = time.perf_counter()
            for symbol in mixture:
                decoder.add_symbol(symbol)
            decoded = decoder.is_decoded
            decode_s = time.perf_counter() - start
            rows.append((symbol_size, k, encode_s, decode_s, decoded))
        return rows

    rows = run_once(benchmark, experiment)

    print("\n=== Fig 2: encode/decode time vs symbol size (120 KB unit) ===")
    print(f"{'symbol (B)':>10} {'K':>5} {'encode (ms)':>12} "
          f"{'decode (ms)':>12} {'decoded':>8}")
    for symbol_size, k, encode_s, decode_s, decoded in rows:
        print(f"{symbol_size:>10} {k:>5} {encode_s * 1e3:>12.2f} "
              f"{decode_s * 1e3:>12.2f} {str(decoded):>8}")

    by_size = {r[0]: r for r in rows}
    # The paper's operating point must be fast: 6000 B far cheaper than the
    # small-symbol end of the sweep.
    assert by_size[6000][2] < by_size[500][2] / 3
    assert by_size[6000][3] < by_size[500][3] / 3
    assert all(r[4] for r in rows)

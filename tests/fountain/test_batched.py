"""Equivalence tests: batched/incremental fountain code vs frozen oracles.

The codec (cached coefficient rows, one-matmul batch encode, incremental
Gaussian elimination) must be *bit-identical* to the plain per-symbol /
re-solve arithmetic for every reception pattern.  Both references live
here: a repair symbol is its coefficient row times the source block under
the mask-based :func:`gf_matmul_reference`, and :func:`_resolve` decodes by
solving the whole held system again on every fresh symbol.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fountain.gf256 import gf_matmul_reference, gf_solve
from repro.fountain.raptor import (
    COEFFICIENT_CACHE,
    CoefficientCache,
    FountainDecoder,
    FountainEncoder,
    coefficient_rows,
)

_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=25
)


def _payload(seed: int, nbytes: int) -> bytes:
    return (
        np.random.default_rng(seed)
        .integers(0, 256, size=nbytes, dtype=np.uint8)
        .tobytes()
    )


def _reference_payload(block_id, data, symbol_size, symbol_id):
    """Symbol ``symbol_id`` by the definition: a zero-padded source row, or
    the repair coefficient row times the source block."""
    k = -(-len(data) // symbol_size)
    source = np.frombuffer(
        data.ljust(k * symbol_size, b"\0"), dtype=np.uint8
    ).reshape(k, symbol_size)
    if symbol_id < k:
        return source[symbol_id].tobytes()
    row = coefficient_rows(block_id, symbol_id, k)[0]
    return gf_matmul_reference(row[None], source)[0].tobytes()


def _resolve(block_id, data_len, symbol_size, symbols):
    """The re-solve decoder: ``(position, bytes)`` of the first symbol after
    which Gaussian elimination over every held row succeeds, else
    ``(None, None)``.  Like a real receiver it ignores repeated ids."""
    k = -(-data_len // symbol_size)
    held = {}
    for position, symbol in enumerate(symbols):
        held.setdefault(symbol.symbol_id, symbol.payload)
        if len(held) < k:
            continue
        ids = sorted(held)
        matrix = np.zeros((len(ids), k), dtype=np.uint8)
        for row, symbol_id in enumerate(ids):
            if symbol_id < k:
                matrix[row, symbol_id] = 1
            else:
                matrix[row] = coefficient_rows(block_id, symbol_id, k)[0]
        rhs = np.stack([np.frombuffer(held[i], dtype=np.uint8) for i in ids])
        solved = gf_solve(matrix, rhs)
        if solved is not None:
            return position, solved[0].tobytes()[:data_len]
    return None, None


def _round_trip(block_id, data, symbol_size, symbol_ids):
    """Encode, deliver exactly ``symbol_ids``, decode with the incremental
    decoder and the re-solve oracle (None where rank-short).

    A set of exactly ``k`` symbols containing random repair rows is
    singular with probability ~1/255, so undecodability is a legitimate
    outcome the caller must compare across decoders, not an error.
    """
    encoder = FountainEncoder(block_id, data, symbol_size)
    decoder = FountainDecoder(block_id, len(data), symbol_size)
    symbols = [encoder.symbol(symbol_id) for symbol_id in symbol_ids]
    for symbol in symbols:
        decoder.add_symbol(symbol)
    incremental = decoder.decode() if decoder.is_decoded else None
    return incremental, _resolve(block_id, len(data), symbol_size, symbols)[1]


class TestBatchedEncodeEquivalence:
    @given(
        nbytes=st.integers(min_value=1, max_value=600),
        symbol_size=st.integers(min_value=8, max_value=64),
        block_id=st.integers(min_value=0, max_value=2**31),
        count=st.integers(min_value=1, max_value=12),
        data_seed=st.integers(min_value=0, max_value=999),
    )
    @settings(**_SETTINGS)
    def test_batch_matches_per_symbol_reference(
        self, nbytes, symbol_size, block_id, count, data_seed
    ):
        data = _payload(data_seed, nbytes)
        encoder = FountainEncoder(block_id, data, symbol_size)
        k = encoder.num_source_symbols
        start = max(0, k - 2)  # straddle the systematic/repair boundary
        batched = encoder.symbols(start, count)
        ids = list(range(start, start + count))
        reference = [
            _reference_payload(block_id, data, symbol_size, i) for i in ids
        ]
        assert [s.payload for s in batched] == reference
        assert [s.symbol_id for s in batched] == ids
        # The single-symbol form, which reads rows through the cache.
        assert [encoder.symbol(i).payload for i in ids] == reference

    def test_cache_rows_match_coefficient_derivation(self):
        cache = CoefficientCache()
        k = 20
        for symbol_id in (20, 21, 57, 300):
            row = cache.row(77, k, symbol_id)
            np.testing.assert_array_equal(row, coefficient_rows(77, symbol_id, k)[0])

    def test_cache_eviction_bounds_memory(self):
        cache = CoefficientCache(max_blocks=4)
        for block_id in range(10):
            cache.row(block_id, 5, 7)
        assert len(cache._blocks) <= 4
        # Evicted entries are recomputed correctly on the next request.
        np.testing.assert_array_equal(
            cache.row(0, 5, 7), coefficient_rows(0, 7, 5)[0]
        )


class TestRoundTripEquivalence:
    """Decoded bytes identical across decoders for every reception pattern."""

    @given(
        nbytes=st.integers(min_value=1, max_value=400),
        symbol_size=st.integers(min_value=8, max_value=48),
        loss_seed=st.integers(min_value=0, max_value=999),
        extra=st.integers(min_value=0, max_value=4),
    )
    @settings(**_SETTINGS)
    def test_random_loss(self, nbytes, symbol_size, loss_seed, extra):
        data = _payload(loss_seed + 5000, nbytes)
        encoder = FountainEncoder(42, data, symbol_size)
        k = encoder.num_source_symbols
        rng = np.random.default_rng(loss_seed)
        lost = rng.random(k) < 0.35
        ids = [i for i in range(k) if not lost[i]]
        ids += list(range(k, k + int(lost.sum()) + extra))
        rng.shuffle(ids)
        optimized, reference = _round_trip(42, data, symbol_size, ids)
        # Decoders must agree on decodability; when decodable, on the bytes.
        assert optimized == reference
        if optimized is not None:
            assert optimized == data
        else:
            # Only an exactly-k set with repair rows may legitimately come
            # up rank-short (singular random submatrix).
            assert extra == 0 and int(lost.sum()) > 0

    @pytest.mark.parametrize(
        "pattern", ["systematic_only", "repair_only", "exactly_k", "k_plus_h"]
    )
    def test_canonical_patterns(self, pattern):
        data = _payload(7, 333)
        symbol_size = 21
        encoder = FountainEncoder(9, data, symbol_size)
        k = encoder.num_source_symbols
        ids = {
            "systematic_only": list(range(k)),
            "repair_only": list(range(k, 2 * k + 2)),
            "exactly_k": [0, 2] + list(range(k, 2 * k - 2)),
            "k_plus_h": list(range(3, k)) + list(range(k, k + 6)),
        }[pattern]
        optimized, reference = _round_trip(9, data, symbol_size, ids)
        assert optimized == reference == data


class TestIncrementalDecoder:
    def test_rank_grows_online(self):
        data = _payload(3, 200)
        encoder = FountainEncoder(5, data, 20)
        k = encoder.num_source_symbols
        decoder = FountainDecoder(5, len(data), 20)
        for i, symbol_id in enumerate(range(k, 2 * k)):
            decoder.add_symbol(encoder.symbol(symbol_id))
            assert decoder.rank == i + 1
        assert decoder.is_decoded

    def test_dependent_symbols_add_no_rank(self):
        data = _payload(4, 200)
        encoder = FountainEncoder(6, data, 20)
        k = encoder.num_source_symbols
        decoder = FountainDecoder(6, len(data), 20)
        for symbol_id in range(k - 1):
            decoder.add_symbol(encoder.symbol(symbol_id))
        # A duplicate id is ignored outright.
        decoder.add_symbol(encoder.symbol(0))
        assert decoder.rank == k - 1
        assert not decoder.is_decoded
        decoder.add_symbol(encoder.symbol(k - 1))
        assert decoder.is_decoded
        assert decoder.decode() == data

    def test_decodability_identical_to_resolve_stepwise(self):
        """Both decoders flip to decoded on exactly the same symbol."""
        data = _payload(8, 310)
        symbol_size = 17
        encoder = FountainEncoder(11, data, symbol_size)
        k = encoder.num_source_symbols
        rng = np.random.default_rng(2)
        ids = list(rng.permutation(np.arange(2, k + 8)))
        symbols = [encoder.symbol(int(symbol_id)) for symbol_id in ids]
        flip, reference = _resolve(11, len(data), symbol_size, symbols)
        assert flip is not None
        incremental = FountainDecoder(11, len(data), symbol_size)
        for position, symbol in enumerate(symbols):
            assert incremental.add_symbol(symbol) == (position >= flip)
        assert incremental.decode() == reference == data

    def test_shared_cache_isolated_per_block(self):
        COEFFICIENT_CACHE.clear()
        a, b = _payload(1, 100), _payload(2, 100)
        ids = list(range(10, 22))  # k = 10: repair-only, two spare
        out_a, _ = _round_trip(100, a, 10, ids)
        out_b, _ = _round_trip(101, b, 10, ids)
        assert out_a == a and out_b == b

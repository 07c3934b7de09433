"""Differential codec harness: precode vs dense decoder equivalence.

The precode codec must be a drop-in replacement for the dense random-linear
code at the :mod:`repro.fountain.block` seam: same systematic wire framing,
same recovered payloads, same ``FountainCodeError`` surface.  This suite
drives both codecs through identical reception patterns — hypothesis-chosen
and adversarial (prefix loss, every-other, all-repair, duplicates) — and
asserts the observable behaviour matches.

Decode *success* at minimal overhead is probabilistic and legitimately
differs between the codes (each fails on a ~1/256-ish sliver of symbol
sets), so equivalence is asserted where it is information-theoretically
forced: both must fail below K distinct symbols, both must succeed at the
overhead margin the adversarial patterns provide, and every success must
reproduce the original payload bit-exactly.

The default run sweeps a representative K ladder; set ``REPRO_FULL_K_SWEEP=1``
(nightly CI) to widen the hypothesis K range to the full [1, 256].
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FountainCodeError
from repro.fountain.block import units_decodable
from repro.fountain.precode import Precode, PrecodeDecoder, PrecodeEncoder
from repro.fountain.raptor import (
    COEFFICIENT_CACHE,
    FountainDecoder,
    FountainEncoder,
)

FULL_SWEEP = os.environ.get("REPRO_FULL_K_SWEEP", "") == "1"

#: Hypothesis K range: full [1, 256] nightly, a cheaper span by default.
MAX_K = 256 if FULL_SWEEP else 48

#: Deterministic K ladder for the parametrised adversarial patterns.
K_LADDER = list(range(1, 257)) if FULL_SWEEP else [1, 2, 3, 5, 8, 20, 47, 64, 128, 256]

_SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=40 if FULL_SWEEP else 20,
)


def _payload(seed: int, nbytes: int) -> bytes:
    return (
        np.random.default_rng(seed)
        .integers(0, 256, size=nbytes, dtype=np.uint8)
        .tobytes()
    )


def _deliver(codec_pair, symbol_ids):
    """Feed the same symbol-id stream through both codecs.

    Returns ``(dense_payload_or_None, precode_payload_or_None)``.
    """
    (d_enc, d_dec), (p_enc, p_dec) = codec_pair
    for sid in symbol_ids:
        d_dec.add_symbol(d_enc.symbol(sid))
        p_dec.add_symbol(p_enc.symbol(sid))
    dense = d_dec.decode() if d_dec.is_decoded else None
    pre = p_dec.decode() if p_dec.is_decoded else None
    return dense, pre


def _pair(block_id, data, symbol_size):
    return (
        (
            FountainEncoder(block_id, data, symbol_size),
            FountainDecoder(block_id, len(data), symbol_size),
        ),
        (
            PrecodeEncoder(block_id, data, symbol_size),
            PrecodeDecoder(block_id, len(data), symbol_size),
        ),
    )


class TestWireContract:
    """Both codecs present the same symbol framing and systematic prefix."""

    @given(
        k=st.integers(min_value=1, max_value=MAX_K),
        symbol_size=st.integers(min_value=1, max_value=40),
        block_id=st.integers(min_value=0, max_value=2**20),
        data_seed=st.integers(min_value=0, max_value=99),
        short=st.integers(min_value=0, max_value=30),
    )
    @settings(**_SETTINGS)
    def test_systematic_symbols_identical(
        self, k, symbol_size, block_id, data_seed, short
    ):
        nbytes = max(1, k * symbol_size - (short % symbol_size))
        data = _payload(data_seed, nbytes)
        dense = FountainEncoder(block_id, data, symbol_size)
        pre = PrecodeEncoder(block_id, data, symbol_size)
        assert pre.num_source_symbols == dense.num_source_symbols
        assert pre.data_len == dense.data_len
        for sid in range(dense.num_source_symbols):
            d_sym = dense.symbol(sid)
            p_sym = pre.symbol(sid)
            assert p_sym.payload == d_sym.payload
            assert p_sym.block_id == d_sym.block_id
            assert p_sym.symbol_id == d_sym.symbol_id

    @given(
        k=st.integers(min_value=1, max_value=MAX_K),
        symbol_size=st.integers(min_value=1, max_value=24),
        data_seed=st.integers(min_value=0, max_value=99),
    )
    @settings(**_SETTINGS)
    def test_systematic_reception_decodes_identically(
        self, k, symbol_size, data_seed
    ):
        data = _payload(data_seed, k * symbol_size)
        dense, pre = _deliver(_pair(5, data, symbol_size), range(k))
        assert dense == data
        assert pre == data


class TestAdversarialPatterns:
    """Constructed erasure patterns with a safe overhead margin."""

    @pytest.mark.parametrize("k", K_LADDER)
    def test_prefix_loss(self, k):
        """The first source symbol never arrives; repair fills the hole."""
        symbol_size = 12
        data = _payload(k, k * symbol_size)
        ids = list(range(1, k)) + list(range(k, k + 4))
        dense, pre = _deliver(_pair(7, data, symbol_size), ids)
        assert dense == data
        assert pre == data

    @pytest.mark.parametrize("k", K_LADDER)
    def test_every_other_symbol(self, k):
        symbol_size = 12
        data = _payload(k + 1, k * symbol_size)
        ids = list(range(0, 2 * k + 8, 2))
        dense, pre = _deliver(_pair(9, data, symbol_size), ids)
        assert dense == data
        assert pre == data

    @pytest.mark.parametrize("k", K_LADDER)
    def test_all_repair(self, k):
        """No systematic symbol at all — pure rateless recovery."""
        symbol_size = 12
        data = _payload(k + 2, k * symbol_size)
        ids = list(range(k, 2 * k + 8))
        dense, pre = _deliver(_pair(11, data, symbol_size), ids)
        assert dense == data
        assert pre == data

    @pytest.mark.parametrize("k", K_LADDER)
    def test_duplicates_add_no_information(self, k):
        """Duplicate symbols count once and never trigger a decode."""
        symbol_size = 12
        data = _payload(k + 3, k * symbol_size)
        below = list(range(1, k))  # k-1 distinct: undecodable
        pair = _pair(13, data, symbol_size)
        (d_enc, d_dec), (p_enc, p_dec) = pair
        for sid in below + below + below[:1] * 3:
            assert d_dec.add_symbol(d_enc.symbol(sid)) is False
            assert p_dec.add_symbol(p_enc.symbol(sid)) is False
        assert d_dec.received_count == p_dec.received_count == len(below)
        assert d_dec.received_ids() == p_dec.received_ids() == set(below)
        # Fresh repair symbols complete the decode despite the duplicates.
        dense, pre = _deliver(pair, range(k, k + 4))
        assert dense == data
        assert pre == data


class TestUndecodableSets:
    """Below K distinct symbols both codecs must refuse, identically."""

    @pytest.mark.parametrize("k", [k for k in K_LADDER if k > 1])
    def test_insufficient_symbols_raise(self, k):
        symbol_size = 8
        data = _payload(k + 4, k * symbol_size)
        ids = list(range(k - 1)) + [0, 0]  # duplicates don't help
        (d_enc, d_dec), (p_enc, p_dec) = _pair(17, data, symbol_size)
        for sid in ids:
            assert d_dec.add_symbol(d_enc.symbol(sid)) is False
            assert p_dec.add_symbol(p_enc.symbol(sid)) is False
        with pytest.raises(FountainCodeError) as dense_err:
            d_dec.decode()
        with pytest.raises(FountainCodeError) as pre_err:
            p_dec.decode()
        assert str(dense_err.value) == str(pre_err.value)
        assert not d_dec.is_decoded and not p_dec.is_decoded
        assert d_dec.symbols_missing == p_dec.symbols_missing == 1

    @given(
        k=st.integers(min_value=2, max_value=MAX_K),
        symbol_size=st.integers(min_value=1, max_value=16),
        drop=st.integers(min_value=1, max_value=4),
        data_seed=st.integers(min_value=0, max_value=99),
    )
    @settings(**_SETTINGS)
    def test_distinct_below_k_never_decodes(self, k, symbol_size, drop, data_seed):
        data = _payload(data_seed, k * symbol_size)
        n_distinct = k - min(drop, k - 1)
        ids = list(range(k, k + n_distinct))  # repair-only, still < k
        dense, pre = _deliver(_pair(19, data, symbol_size), ids)
        assert dense is None
        assert pre is None


class TestRandomizedEquivalence:
    """Hypothesis-chosen reception patterns at decodable overhead."""

    @given(
        k=st.integers(min_value=1, max_value=MAX_K),
        symbol_size=st.integers(min_value=1, max_value=24),
        data_seed=st.integers(min_value=0, max_value=999),
        pattern_seed=st.integers(min_value=0, max_value=999),
        short=st.integers(min_value=0, max_value=30),
    )
    @settings(**_SETTINGS)
    def test_random_patterns_roundtrip(
        self, k, symbol_size, data_seed, pattern_seed, short
    ):
        nbytes = max(1, k * symbol_size - (short % symbol_size))
        data = _payload(data_seed, nbytes)
        rng = np.random.default_rng(pattern_seed)
        # Overhead 3 over a window twice the block: erasures everywhere,
        # margin enough that both codecs are expected to succeed.
        ids = rng.choice(2 * k + 8, size=k + 3, replace=False).tolist()
        dense, pre = _deliver(_pair(23, data, symbol_size), ids)
        if dense is not None:
            assert dense == data
        if pre is not None:
            assert pre == data
        # At +3 overhead a failure is a ~1e-7-class event for either codec;
        # flag it loudly rather than letting silent skews accumulate.
        assert dense is not None
        assert pre is not None

    @given(
        k=st.integers(min_value=1, max_value=MAX_K),
        data_seed=st.integers(min_value=0, max_value=999),
    )
    @settings(**_SETTINGS)
    def test_decode_is_idempotent(self, k, data_seed):
        symbol_size = 10
        data = _payload(data_seed, k * symbol_size)
        (_, _), (p_enc, p_dec) = _pair(29, data, symbol_size)
        for sid in range(k, 2 * k + 4):
            p_dec.add_symbol(p_enc.symbol(sid))
        first = p_dec.decode()
        assert p_dec.decode() == first == data
        # Late symbols after decode are accepted and change nothing.
        assert p_dec.add_symbol(p_enc.symbol(0)) is True
        assert p_dec.decode() == data


class TestDecodabilityOracle:
    """``units_decodable`` — the payload-free verdict the cohort receiver
    model runs on — against each codec's real decoder, around the K
    threshold where rank deficiency lives."""

    @pytest.mark.parametrize("k", K_LADDER)
    def test_oracle_matches_decoders(self, k):
        symbol_size = 6
        block_id = 31
        data = _payload(k + 5, k * symbol_size)
        rng = np.random.default_rng(k)
        codecs = {
            "dense": (FountainEncoder(block_id, data, symbol_size), FountainDecoder),
            "precode": (PrecodeEncoder(block_id, data, symbol_size), PrecodeDecoder),
        }
        requests, decoded = [], []
        for _ in range(6 if k > 64 else 24):
            # Mostly-systematic receptions plus a few repair symbols, one
            # short of K up to three over: the band sessions operate in.
            held = int(rng.integers(max(0, k - 4), k + 1))
            count = max(1, k + int(rng.integers(-1, 4)))
            ids = rng.choice(k, size=held, replace=False).tolist()
            ids += (k + rng.choice(k + 8, size=max(0, count - held),
                                   replace=False)).tolist()
            for codec, (encoder, decoder_cls) in codecs.items():
                decoder = decoder_cls(block_id, len(data), symbol_size)
                for sid in ids:
                    decoder.add_symbol(encoder.symbol(sid))
                requests.append((codec, block_id, k, ids))
                decoded.append(decoder.is_decoded)
        # Every request of both codecs in one call (one stacked elimination),
        # then one by one (the precode's now out of its verdict memo).
        assert units_decodable(requests).tolist() == decoded
        for request, verdict in zip(requests, decoded):
            assert units_decodable([request])[0] == verdict, request
        for codec in codecs:
            assert any(v for r, v in zip(requests, decoded) if r[0] == codec)

    def test_oracle_refuses_rank_deficient_sets(self):
        """K=20 patterns with >= K distinct ids that still fail: a dense
        set built around a repair row blind to the one missing source
        symbol, and the precode failures a seeded search turns up."""
        k, symbol_size, block_id = 20, 6, 37
        data = _payload(3, k * symbol_size)
        (d_enc, _), (p_enc, _) = _pair(block_id, data, symbol_size)
        sid = k
        while COEFFICIENT_CACHE.row(block_id, k, sid)[0] != 0:
            sid += 1
        ids = list(range(1, k)) + [sid]
        decoder = FountainDecoder(block_id, len(data), symbol_size)
        for i in ids:
            decoder.add_symbol(d_enc.symbol(i))
        assert not decoder.is_decoded
        assert not units_decodable([("dense", block_id, k, ids)])[0]

        rng = np.random.default_rng(0)
        failures = 0
        for _ in range(200):
            ids = rng.choice(2 * k, size=k, replace=False).tolist()
            decoder = PrecodeDecoder(block_id, len(data), symbol_size)
            for i in ids:
                decoder.add_symbol(p_enc.symbol(i))
            assert units_decodable([("precode", block_id, k, ids)])[0] == decoder.is_decoded
            failures += not decoder.is_decoded
        assert 0 < failures < 200


class TestPrecodeStructure:
    """Structural invariants of the cached per-K precode."""

    @pytest.mark.parametrize("k", K_LADDER)
    def test_constraint_dimensions(self, k):
        pre = Precode.for_k(k)
        assert pre.l == pre.k + pre.s + pre.h
        assert pre.w == pre.k + pre.s
        assert pre.encode_matrix.shape == (pre.l, pre.k)
        assert pre.s >= 3 and pre.h >= 4

    def test_for_k_caches(self):
        assert Precode.for_k(20) is Precode.for_k(20)

    def test_lt_rows_block_independent(self):
        """Same (K, symbol_id) row regardless of which block asks."""
        pre = Precode.for_k(20)
        a_active, a_pi = pre.lt_indices(57)
        b_active, b_pi = Precode.for_k(20).lt_indices(57)
        np.testing.assert_array_equal(a_active, b_active)
        np.testing.assert_array_equal(a_pi, b_pi)

    @pytest.mark.parametrize("k", K_LADDER)
    def test_repair_rows_sparse(self, k):
        """Mean LT degree stays bounded — the sparsity the speedup rests on."""
        pre = Precode.for_k(k)
        degrees = [
            len(pre.lt_indices(sid)[0]) + len(pre.lt_indices(sid)[1])
            for sid in range(k, k + 200)
        ]
        assert max(degrees) <= 32
        assert float(np.mean(degrees)) < 12.0

"""Tests for the systematic fountain code."""

import numpy as np
import pytest

from repro.core import MulticastStreamer, SystemConfig
from repro.errors import FountainCodeError
from repro.fountain import raptor
from repro.fountain.gf256 import gf_ranks
from repro.fountain.raptor import (
    COEFFICIENT_CACHE,
    FountainDecoder,
    FountainEncoder,
    coefficient_rows,
)
from repro.obs import OBS, observed


@pytest.fixture()
def payload(rng):
    return rng.integers(0, 256, size=4321, dtype=np.uint8).tobytes()


class TestEncoder:
    def test_k_from_data_and_symbol_size(self, payload):
        encoder = FountainEncoder(1, payload, 500)
        assert encoder.num_source_symbols == 9  # ceil(4321/500)

    def test_systematic_symbols_are_source(self, payload):
        encoder = FountainEncoder(1, payload, 500)
        assert encoder.symbol(0).payload == payload[:500]
        assert encoder.symbol(1).payload == payload[500:1000]

    def test_repair_symbols_differ_from_source(self, payload):
        encoder = FountainEncoder(1, payload, 500)
        repair = encoder.symbol(encoder.num_source_symbols + 3)
        assert repair.payload != payload[:500]
        assert len(repair.payload) == 500

    def test_symbols_deterministic(self, payload):
        a = FountainEncoder(7, payload, 500)
        b = FountainEncoder(7, payload, 500)
        assert a.symbol(20).payload == b.symbol(20).payload

    def test_different_block_ids_give_different_repair(self, payload):
        a = FountainEncoder(1, payload, 500)
        b = FountainEncoder(2, payload, 500)
        sid = a.num_source_symbols + 1
        assert a.symbol(sid).payload != b.symbol(sid).payload

    def test_empty_data_rejected(self):
        with pytest.raises(FountainCodeError):
            FountainEncoder(1, b"", 500)

    def test_bad_symbol_size_rejected(self, payload):
        with pytest.raises(FountainCodeError):
            FountainEncoder(1, payload, 0)


class TestDecoder:
    def test_systematic_roundtrip(self, payload):
        encoder = FountainEncoder(1, payload, 500)
        decoder = FountainDecoder(1, len(payload), 500)
        for symbol in encoder.symbols(0, encoder.num_source_symbols):
            decoder.add_symbol(symbol)
        assert decoder.decode() == payload

    def test_repair_only_roundtrip(self, payload):
        encoder = FountainEncoder(1, payload, 500)
        decoder = FountainDecoder(1, len(payload), 500)
        k = encoder.num_source_symbols
        for symbol in encoder.symbols(k, k + 2):  # only repair symbols
            decoder.add_symbol(symbol)
        assert decoder.is_decoded
        assert decoder.decode() == payload

    def test_mixed_roundtrip_with_losses(self, payload, rng):
        encoder = FountainEncoder(1, payload, 500)
        decoder = FountainDecoder(1, len(payload), 500)
        for symbol in encoder.symbols(0, 2 * encoder.num_source_symbols):
            if rng.random() > 0.45:
                decoder.add_symbol(symbol)
        assert decoder.decode() == payload

    def test_duplicates_add_nothing(self, payload):
        encoder = FountainEncoder(1, payload, 500)
        decoder = FountainDecoder(1, len(payload), 500)
        symbol = encoder.symbol(0)
        for _ in range(10):
            decoder.add_symbol(symbol)
        assert decoder.received_count == 1
        assert not decoder.is_decoded

    def test_insufficient_symbols_raise(self, payload):
        encoder = FountainEncoder(1, payload, 500)
        decoder = FountainDecoder(1, len(payload), 500)
        decoder.add_symbol(encoder.symbol(0))
        with pytest.raises(FountainCodeError):
            decoder.decode()

    def test_wrong_block_rejected(self, payload):
        encoder = FountainEncoder(1, payload, 500)
        decoder = FountainDecoder(2, len(payload), 500)
        with pytest.raises(FountainCodeError):
            decoder.add_symbol(encoder.symbol(0))

    def test_wrong_payload_size_rejected(self, payload):
        decoder = FountainDecoder(1, len(payload), 500)
        from repro.fountain.raptor import FountainSymbol

        with pytest.raises(FountainCodeError):
            decoder.add_symbol(FountainSymbol(1, 0, b"short"))

    def test_received_ids_tracked(self, payload):
        encoder = FountainEncoder(1, payload, 500)
        decoder = FountainDecoder(1, len(payload), 500)
        decoder.add_symbol(encoder.symbol(3))
        decoder.add_symbol(encoder.symbol(12))
        assert decoder.received_ids() == {3, 12}

    def test_single_symbol_block(self):
        encoder = FountainEncoder(1, b"tiny", 500)
        decoder = FountainDecoder(1, 4, 500)
        decoder.add_symbol(encoder.symbol(0))
        assert decoder.decode() == b"tiny"


class TestOverheadProperty:
    def test_exact_k_decodes_with_high_probability(self, rng):
        """Receiving exactly K random repair symbols should almost always
        decode (failure ~ 1/256 per missing rank)."""
        data = rng.integers(0, 256, size=3000, dtype=np.uint8).tobytes()
        successes = 0
        trials = 30
        for trial in range(trials):
            encoder = FountainEncoder(trial, data, 300)
            decoder = FountainDecoder(trial, len(data), 300)
            k = encoder.num_source_symbols
            for symbol in encoder.symbols(k + trial, k):  # K repair symbols
                decoder.add_symbol(symbol)
            successes += decoder.is_decoded
        assert successes >= trials - 2

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _documented_row(block_id: int, symbol_id: int, k: int) -> bytes:
    """The wire format as the ``raptor`` docstring states it, on Python ints."""
    golden = 0x9E3779B97F4A7C15
    key = _mix64((_mix64((block_id + 0x5EED) & _MASK64) + symbol_id * golden) & _MASK64)
    row = b"".join(
        _mix64((key + (word + 1) * golden) & _MASK64).to_bytes(8, "little")
        for word in range(-(-k // 8))
    )[:k]
    return row if any(row) else b"\x01" + row[1:]


class TestCoefficientWireFormat:
    """The repair coefficient rows are a wire format: both endpoints derive
    them, so a change to these bytes is a protocol change."""

    #: (block_id, symbol_id, k) -> row bytes, frozen.  K not a multiple of
    #: 8 included; ``(0, 158, 1)`` hashes to zero and shows the fix-up.
    KNOWN = {
        (0, 20, 20): "9ea40fa134f0a18bf200708ee5003a4277cecf43",
        (3572, 23, 20): "404c3bffd031d07123a64d97b2ab8d2717e6a834",
        (2**31, 7, 5): "fd06fa900e",
        (1234567, 300, 13): "9eb3c3f46cfe63f87ba40923de",
        (3, 8, 8): "d757fc7f01ead3a5",
        (9, 1, 1): "22",
        (0, 158, 1): "01",
    }

    def test_known_answers(self):
        for (block_id, symbol_id, k), row in self.KNOWN.items():
            assert coefficient_rows(block_id, symbol_id, k)[0].tobytes().hex() == row

    def test_matches_the_documented_formula(self, rng):
        for _ in range(200):
            block_id = int(rng.integers(0, 2**40))
            symbol_id = int(rng.integers(0, 2**20))
            k = int(rng.integers(1, 70))
            assert coefficient_rows(block_id, symbol_id, k)[0].tobytes() == (
                _documented_row(block_id, symbol_id, k)
            )

    def test_single_range_and_scattered_derivations_agree(self, rng):
        k = 20
        block_ids = rng.integers(0, 10_000, size=300)
        symbol_ids = rng.integers(k, 5 * k, size=300)
        scattered = coefficient_rows(block_ids, symbol_ids, k)
        assert scattered.shape == (300, k) and scattered.dtype == np.uint8
        for row, block_id, symbol_id in zip(scattered, block_ids, symbol_ids):
            assert row.tobytes() == coefficient_rows(int(block_id), int(symbol_id), k)[0].tobytes()
        block_id = int(block_ids[0])
        contiguous = coefficient_rows(block_id, np.arange(k, 5 * k), k)
        cached = COEFFICIENT_CACHE.rows(block_id, k, k, 4 * k)
        assert contiguous.tobytes() == cached.tobytes()
        picks = symbol_ids[block_ids == block_id]
        assert (contiguous[picks - k] == scattered[block_ids == block_id]).all()

    def test_no_row_is_all_zero(self):
        # K = 1 makes the raw hash hit zero once in 256.
        rows = coefficient_rows(
            np.repeat(np.arange(40), 1000), np.tile(np.arange(1, 1001), 40), 1
        )
        assert rows.shape == (40_000, 1)
        assert rows.all()
        assert (rows == 1).mean() == pytest.approx(2 / 256, abs=2e-3)

    def test_k_consecutive_repair_rows_are_singular_one_time_in_255(self):
        """What decoding overhead rests on: K random rows are rank-deficient
        with probability 1 - prod(1 - 256^-i), about 1/255."""
        k, draws = 20, 20_000
        block_ids = 87 * np.arange(1000, 1000 + draws) + np.arange(draws) % 87
        rows = coefficient_rows(
            np.repeat(block_ids, k), np.tile(np.arange(k, 2 * k), draws), k
        ).reshape(draws, k, k)
        singular = sum(
            int((gf_ranks(list(rows[i : i + 500])) < k).sum())
            for i in range(0, draws, 500)
        )
        expected = draws * (1.0 - np.prod(1.0 - 256.0 ** -np.arange(1, k + 1)))
        # Binomial: sd = sqrt(78.4 * 0.996) = 8.8; four sd either side.
        assert abs(singular - expected) < 4 * np.sqrt(expected)

    def test_distinct_pairs_give_distinct_rows(self):
        pairs = 120_000
        rows = coefficient_rows(
            np.arange(pairs) // 40, 20 + np.arange(pairs) % 40, 20
        )
        assert len({row.tobytes() for row in rows}) == pairs
        assert abs(float(rows.mean()) - 127.5) < 0.2

    def test_cache_growth_is_geometric(self, monkeypatch):
        """A decoder asking ids one at a time must not re-derive (or copy)
        the whole matrix per request."""
        derived = []
        real = raptor.coefficient_rows

        def counting(block_ids, symbol_ids, k):
            derived.append(np.size(symbol_ids))
            return real(block_ids, symbol_ids, k)

        monkeypatch.setattr(raptor, "coefficient_rows", counting)
        cache = raptor.CoefficientCache()
        for symbol_id in range(20, 20 + 512):
            row = cache.row(5, 20, symbol_id)
            assert row.tobytes() == real(5, symbol_id, 20).tobytes()
        assert len(derived) <= 11
        assert sum(derived) <= 2 * 512


    def test_decodability_derives_exactly_the_rows_held(self, monkeypatch):
        """A far-out repair id costs one row, not every row up to it."""
        asked = []
        real = raptor.coefficient_rows

        def recording(block_ids, symbol_ids, k):
            asked.append(np.asarray(symbol_ids).tolist())
            return real(block_ids, symbol_ids, k)

        monkeypatch.setattr(raptor, "coefficient_rows", recording)
        held = [i for i in range(20) if i not in (3, 11)] + [25, 9000]
        (matrix,) = raptor.dense_rank_matrices(20, [(9, np.array(held))])
        assert asked == [[25, 9000]]
        # Two repair rows over the two missing systematic columns.
        assert matrix.tobytes() == real(9, [25, 9000], 20)[:, [3, 11]].tobytes()


def _pcg_rows(block_ids, symbol_ids, k):
    """The wire format before the hash, frozen: one PCG64 stream per row."""
    blocks, symbols = np.broadcast_arrays(
        np.atleast_1d(block_ids), np.atleast_1d(symbol_ids)
    )
    rows = np.empty((blocks.size, k), dtype=np.uint8)
    for row, block_id, symbol_id in zip(rows, blocks.tolist(), symbols.tolist()):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=0x5EED, spawn_key=(block_id, symbol_id))
        )
        row[:] = rng.integers(0, 256, size=k, dtype=np.uint8)
        while not row.any():
            row[:] = rng.integers(0, 256, size=k, dtype=np.uint8)
    return rows


class TestOnlyTheFormatChanged:
    """Symbol batches, the stacked rank elimination and the cached SSIM
    reference half are refactors: with the old coefficient derivation
    patched back in, a session's outcome is the one recorded before them."""

    #: ``outcome.fingerprint()`` of the session below at commit 4c5e9b2
    #: (per-row PCG seeding, symbol lists, scalar ``gf_rank``, five-pass SSIM).
    PARENT_FINGERPRINT = (
        "a3810cbcbf2db2cd6d583582e98631d089381e9342d6665074857f06338fa404"
    )
    #: ``fountain.symbols_encoded`` of the same run at that commit.
    PARENT_SYMBOLS_ENCODED = 12285

    def test_dense_session_matches_the_parent_commit(
        self, scenario, tiny_dnn, hr_probe, lr_probe, monkeypatch
    ):
        monkeypatch.setattr(raptor, "coefficient_rows", _pcg_rows)
        COEFFICIENT_CACHE.clear()
        try:
            positions = scenario.place_arc(4, 3.0, 60, seed=61)
            trace = scenario.static_trace(positions, duration_s=0.4, seed=62)
            streamer = MulticastStreamer(
                SystemConfig(height=144, width=256), tiny_dnn,
                [hr_probe, lr_probe], scenario.channel_model, seed=63,
            )
            with observed("counters"):
                outcome = streamer.session(trace).run(12)
                counters = OBS.counters()
        finally:
            COEFFICIENT_CACHE.clear()
        assert outcome.fingerprint() == self.PARENT_FINGERPRINT
        # One span per transmission pass, the parent's symbol total.
        assert counters["fountain.symbols_encoded"] == self.PARENT_SYMBOLS_ENCODED
        assert 12 <= counters["encode.fountain.calls"] <= 12 * 3

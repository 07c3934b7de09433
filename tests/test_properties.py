"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fountain.gf256 import gf_inverse, gf_multiply
from repro.fountain.raptor import FountainDecoder, FountainEncoder
from repro.phy.antenna import PhasedArray
from repro.scheduling.allocation import _project_capped_simplex
from repro.transport.link import packet_error_rate
from repro.video.frame import VideoFrame
from repro.video.jigsaw import JigsawCodec
from repro.video.metrics import psnr, ssim

_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=25
)

gf_elem = st.integers(min_value=0, max_value=255)


class TestGf256Properties:
    @given(a=gf_elem, b=gf_elem, c=gf_elem)
    @settings(**_SETTINGS)
    def test_field_laws(self, a, b, c):
        av, bv, cv = (np.uint8(v) for v in (a, b, c))
        # commutativity
        assert gf_multiply(av, bv) == gf_multiply(bv, av)
        # associativity
        assert gf_multiply(gf_multiply(av, bv), cv) == gf_multiply(
            av, gf_multiply(bv, cv)
        )
        # distributivity over XOR (field addition)
        assert gf_multiply(av, np.uint8(b ^ c)) == (
            gf_multiply(av, bv) ^ gf_multiply(av, cv)
        )

    @given(a=st.integers(min_value=1, max_value=255))
    @settings(**_SETTINGS)
    def test_inverse_law(self, a):
        assert int(gf_multiply(np.uint8(a), np.uint8(gf_inverse(a)))) == 1


class TestFountainProperties:
    @given(
        data=st.binary(min_size=1, max_size=2000),
        symbol_size=st.integers(min_value=16, max_value=400),
        extra=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(**_SETTINGS)
    def test_any_sufficient_symbol_subset_decodes(
        self, data, symbol_size, extra, seed
    ):
        """K+extra random distinct symbols decode the block (w.h.p.; the
        ~256^-(extra+1) failure tail is far below test noise)."""
        encoder = FountainEncoder(1, data, symbol_size)
        decoder = FountainDecoder(1, len(data), symbol_size)
        k = encoder.num_source_symbols
        rng = np.random.default_rng(seed)
        ids = rng.choice(3 * k + 8, size=k + extra, replace=False)
        for symbol_id in ids:
            decoder.add_symbol(encoder.symbol(int(symbol_id)))
        assert decoder.decode() == data

    @given(
        data=st.binary(min_size=1, max_size=500),
        symbol_size=st.integers(min_value=8, max_value=64),
    )
    @settings(**_SETTINGS)
    def test_padding_roundtrip(self, data, symbol_size):
        encoder = FountainEncoder(2, data, symbol_size)
        decoder = FountainDecoder(2, len(data), symbol_size)
        for symbol in encoder.symbols(0, encoder.num_source_symbols):
            decoder.add_symbol(symbol)
        assert decoder.decode() == data


class TestCodecProperties:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(deadline=None, max_examples=8)
    def test_roundtrip_near_lossless_on_random_frames(self, seed):
        rng = np.random.default_rng(seed)
        h, w = 48, 64
        base = rng.integers(60, 200, size=(h, w))
        texture = rng.normal(0, 15, size=(h, w))
        y = np.clip(base + texture, 0, 255).astype(np.uint8)
        u = rng.integers(0, 256, size=(h // 2, w // 2), dtype=np.uint8).astype(np.uint8)
        frame = VideoFrame(y, u, u.copy())
        codec = JigsawCodec(h, w)
        decoded = codec.decode_fractions(codec.encode(frame), [1, 1, 1, 1])
        assert psnr(frame, decoded) > 40

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4
        ),
    )
    @settings(deadline=None, max_examples=10)
    def test_any_fraction_vector_decodes_in_bounds(self, seed, fractions):
        rng = np.random.default_rng(seed)
        h, w = 48, 64
        y = rng.integers(0, 256, size=(h, w), dtype=np.uint8).astype(np.uint8)
        u = np.full((h // 2, w // 2), 128, dtype=np.uint8)
        frame = VideoFrame(y, u, u.copy())
        codec = JigsawCodec(h, w)
        decoded = codec.decode_fractions(codec.encode(frame), fractions)
        quality = ssim(frame, decoded)
        assert -1.0 <= quality <= 1.0
        assert decoded.y.shape == frame.y.shape


class TestQuantisationProperties:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(**_SETTINGS)
    def test_quantised_weights_always_realisable(self, seed):
        rng = np.random.default_rng(seed)
        array = PhasedArray(16, 2)
        weights = rng.normal(size=16) + 1j * rng.normal(size=16)
        quantised = array.quantise_weights(weights)
        assert np.linalg.norm(quantised) == pytest.approx(1.0)
        mags = np.abs(quantised)
        np.testing.assert_allclose(mags, mags[0], rtol=1e-9)


class TestSimplexProjectionProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        budget=st.floats(min_value=1e-4, max_value=1.0),
    )
    @settings(**_SETTINGS)
    def test_projection_feasible(self, seed, budget):
        rng = np.random.default_rng(seed)
        time = rng.normal(0, 1, size=(4, 4))
        projected = _project_capped_simplex(time, budget)
        assert np.all(projected >= 0)
        assert projected.sum() <= budget + 1e-9


class TestTransportProperties:
    @given(margin=st.floats(min_value=-30, max_value=30))
    @settings(**_SETTINGS)
    def test_per_is_probability(self, margin):
        per = packet_error_rate(margin)
        assert 0.0 < per < 1.0


class TestCodingGroupProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        num_groups=st.integers(min_value=1, max_value=4),
    )
    @settings(deadline=None, max_examples=15)
    def test_greedy_never_exceeds_budgets(self, seed, num_groups):
        from repro.beamforming.selection import BeamPlan
        from repro.phy.mcs import entry_for_index
        from repro.scheduling.coding_groups import assign_coding_groups
        from repro.scheduling.groups import CandidateGroup

        rng = np.random.default_rng(seed)
        unit = 1000.0
        groups = []
        for gi in range(num_groups):
            members = tuple(
                sorted(rng.choice(4, size=int(rng.integers(1, 4)), replace=False))
            )
            plan = BeamPlan(
                user_ids=tuple(int(u) for u in members),
                beam=np.ones(4) / 2,
                per_user_rss_dbm={int(u): -55.0 for u in members},
                min_rss_dbm=-55.0,
                mcs=entry_for_index(4),
                rate_mbps=850.0,
            )
            groups.append(CandidateGroup(index=gi, plan=plan))
        budgets = rng.uniform(0, 5 * unit, size=(num_groups, 4))
        assignments = assign_coding_groups(budgets.copy(), groups, unit)
        spent = np.zeros_like(budgets)
        for a in assignments:
            assert a.nbytes >= 0
            spent[a.group_index, a.layer] += a.nbytes
        assert np.all(spent <= budgets + 1e-6)

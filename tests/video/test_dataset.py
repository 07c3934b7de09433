"""Tests for quality-model dataset generation."""

import numpy as np
import pytest

from repro.video import metrics
from repro.video.dataset import (
    NUM_FEATURES,
    FrameQualityProbe,
    generate_dataset,
)
from repro.types import NUM_LAYERS
from repro.video.frame import blank_frame
from repro.video.jigsaw import SUBLAYER_COUNTS, JigsawCodec
from repro.video.metrics import SsimReference, psnr, ssim


class TestFrameQualityProbe:
    def test_cumulative_ssim_is_monotone(self, hr_probe):
        values = hr_probe.cumulative_ssim
        assert np.all(np.diff(values) >= -1e-9)

    def test_full_layers_reach_near_one(self, hr_probe):
        assert hr_probe.cumulative_ssim[-1] > 0.99

    def test_blank_ssim_below_base_layer(self, hr_probe):
        assert hr_probe.blank_ssim < hr_probe.cumulative_ssim[0]

    def test_features_have_nine_dims(self, hr_probe):
        feats = hr_probe.features([0.5, 0.5, 0.0, 0.0])
        assert feats.shape == (NUM_FEATURES,)

    def test_features_clip_fractions(self, hr_probe):
        feats = hr_probe.features([2.0, -1.0, 0.5, 0.0])
        assert feats[0] == 1.0
        assert feats[1] == 0.0

    def test_measure_matches_sample(self, hr_probe):
        quality, _ = hr_probe.measure([1, 0.5, 0, 0])
        feats, sampled = hr_probe.sample([1, 0.5, 0, 0])
        assert sampled == pytest.approx(quality)
        np.testing.assert_allclose(feats, hr_probe.features([1, 0.5, 0, 0]))

    def test_measure_masks_agrees_with_fractions(self, codec, hr_probe):
        fractions = [1, 0.5, 0.25, 0]
        masks = codec.masks_for_fractions(fractions)
        via_masks, _ = hr_probe.measure_masks(masks)
        via_fracs, _ = hr_probe.measure(fractions)
        assert via_masks == pytest.approx(via_fracs)

    def test_lr_base_layer_scores_higher_than_hr(self, hr_probe, lr_probe):
        """LR content concentrates energy in the base layer (Sec 2.3)."""
        assert lr_probe.cumulative_ssim[0] > hr_probe.cumulative_ssim[0]


class TestCachedSsimReferenceHalf:
    """``measure_masks`` scores against the reference-side half of SSIM
    kept on the probe; the scores are the one-shot functions', bit for bit."""

    @staticmethod
    def _fresh(probe):
        # As the frame-budget harness builds them: positionally.
        return FrameQualityProbe(
            probe.codec, probe.reference, probe.layered,
            probe.cumulative_ssim, probe.blank_ssim,
        )

    @staticmethod
    def _random_masks(rng, count):
        return [
            [rng.random(n) < rng.uniform(0.2, 1.0) for n in SUBLAYER_COUNTS]
            for _ in range(count)
        ]

    def test_scores_equal_one_shot_ssim_and_psnr(self, rng, hr_probe):
        probe = self._fresh(hr_probe)
        assert probe._ssim_reference is None and not probe._mask_cache
        double = SsimReference(probe.reference, dtype=np.float64)
        for masks in self._random_masks(rng, 24):
            decoded = probe.codec.decode(probe.layered, masks)
            assert probe.measure_masks(masks) == (
                ssim(probe.reference, decoded), psnr(probe.reference, decoded)
            )
            assert double.score(decoded) == ssim(
                probe.reference, decoded, dtype=np.float64
            )

    def test_probe_holds_two_extra_planes(self, rng, hr_probe):
        probe = self._fresh(hr_probe)
        for masks in self._random_masks(rng, 3):
            probe.measure_masks(masks)
        kept = vars(probe._ssim_reference)
        planes = [v for v in kept.values() if isinstance(v, np.ndarray)]
        assert len(planes) == 2
        assert all(
            p.dtype == np.float32 and p.shape == probe.reference.y.shape
            for p in planes
        )
        # Everything else it keeps is the probe's own reference, not a copy.
        assert any(v is probe.reference for v in kept.values())

    def test_two_stacked_filter_passes_per_memo_miss(self, rng, hr_probe, monkeypatch):
        depths = []
        real = metrics.gaussian_filter1d

        def counting(stack, *args, **kwargs):
            depths.append(stack.shape[0])
            return real(stack, *args, **kwargs)

        monkeypatch.setattr(metrics, "gaussian_filter1d", counting)
        probe = self._fresh(hr_probe)
        first, second = self._random_masks(rng, 2)
        probe.measure_masks(first)
        # The reference half (x, x^2), once; then the score's y, y^2, x*y:
        # each a stack filtered in one call per axis.
        assert depths == [2, 2, 3, 3]
        probe.measure_masks(second)
        assert depths == [2, 2, 3, 3, 3, 3]
        probe.measure_masks(first)  # memo hit
        assert depths == [2, 2, 3, 3, 3, 3]

    def test_chroma_bits_share_one_memo_entry(self, rng, hr_probe):
        """The memo keys on what decoded Y reads: receptions that differ
        only in the U/V base sublayers decode the same Y and share a score."""
        probe = self._fresh(hr_probe)
        refinements = self._random_masks(rng, 1)[0][1:]
        lumas, scores = set(), set()
        for u in (False, True):
            for v in (False, True):
                masks = [np.array([True, u, v]), *refinements]
                lumas.add(probe.codec.decode(probe.layered, masks).y.tobytes())
                scores.add(probe.measure_masks(masks))
        assert len(lumas) == 1 and len(scores) == 1
        assert len(probe._mask_cache) == 1
        probe.measure_masks([np.array([False, True, True]), *refinements])
        assert len(probe._mask_cache) == 2


class TestProbesDecodeLumaOnly:
    """``from_frame`` and ``measure`` decode the luma plane only and score
    it against one :class:`SsimReference` each: the one-shot
    ``decode_fractions`` + ``ssim`` values, bit for bit, with no chroma
    decoded and the reference half filtered once, not once per score."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        calls = {"decode_fractions": 0, "decode": 0, "filter_depths": []}
        real_filter = metrics.gaussian_filter1d

        def filtering(stack, *args, **kwargs):
            calls["filter_depths"].append(stack.shape[0])
            return real_filter(stack, *args, **kwargs)

        def counting(name):
            real = getattr(JigsawCodec, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(metrics, "gaussian_filter1d", filtering)
        for name in ("decode_fractions", "decode"):
            monkeypatch.setattr(JigsawCodec, name, counting(name))
        return calls

    def test_from_frame_filters_the_reference_once(self, codec, hr_video, counted):
        probe = FrameQualityProbe.from_frame(codec, hr_video.frame(0))
        assert counted["decode_fractions"] == counted["decode"] == 0
        # The reference half (x, x^2) once, then four cumulative scores and
        # the blank score (y, y^2, x*y), each stack in one call per axis.
        assert counted["filter_depths"] == [2, 2] + [3, 3] * (NUM_LAYERS + 1)
        assert probe._ssim_reference is None

    def test_from_frame_features_equal_one_shot_scores(self, codec, hr_video):
        frame = hr_video.frame(0)
        probe = FrameQualityProbe.from_frame(codec, frame)
        cumulative = [
            ssim(frame, codec.decode_fractions(
                probe.layered, [1.0 if j <= upto else 0.0 for j in range(NUM_LAYERS)]
            ))
            for upto in range(NUM_LAYERS)
        ]
        assert probe.cumulative_ssim.tolist() == cumulative
        assert probe.blank_ssim == ssim(frame, blank_frame(frame.height, frame.width))

    def test_measure_equals_one_shot_scores(self, codec, hr_video, rng, counted):
        probe = FrameQualityProbe.from_frame(codec, hr_video.frame(0))
        counted["filter_depths"].clear()
        fractions = [[1.0, *rng.uniform(0.0, 1.0, NUM_LAYERS - 1)] for _ in range(6)]
        scores = [probe.measure(f) for f in fractions]
        assert counted["decode_fractions"] == counted["decode"] == 0
        # The reference half once, on the first score; then three planes.
        assert counted["filter_depths"] == [2, 2] + [3, 3] * len(fractions)
        for f, score in zip(fractions, scores):
            decoded = codec.decode_fractions(probe.layered, f)
            assert score == (
                ssim(probe.reference, decoded), psnr(probe.reference, decoded)
            )


class TestGenerateDataset:
    def test_shapes(self, small_dataset):
        n = len(small_dataset)
        assert small_dataset.features.shape == (n, NUM_FEATURES)
        assert small_dataset.ssim.shape == (n,)
        assert small_dataset.psnr.shape == (n,)

    def test_labels_in_valid_range(self, small_dataset):
        assert np.all(small_dataset.ssim <= 1.0 + 1e-9)
        assert np.all(small_dataset.ssim >= -1.0)
        assert np.all(small_dataset.psnr > 0)

    def test_covers_hole_vectors(self, small_dataset):
        """The mode-3 sampler must include missing-lower-layer samples."""
        fractions = small_dataset.features[:, :4]
        holes = (fractions[:, 0] == 0.0) & (fractions[:, 1:].max(axis=1) > 0.4)
        assert holes.any()

    def test_split_is_disjoint_and_sized(self, small_dataset):
        train, test = small_dataset.split(train_fraction=0.7, seed=1)
        assert len(train) + len(test) == len(small_dataset)
        assert len(train) == int(round(0.7 * len(small_dataset)))

    def test_split_deterministic(self, small_dataset):
        a, _ = small_dataset.split(seed=3)
        b, _ = small_dataset.split(seed=3)
        np.testing.assert_array_equal(a.features, b.features)

    def test_deterministic_generation(self, hr_video):
        a = generate_dataset([hr_video], frames_per_video=1,
                             samples_per_frame=4, seed=5)
        b = generate_dataset([hr_video], frames_per_video=1,
                             samples_per_frame=4, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.ssim, b.ssim)

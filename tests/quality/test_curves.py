"""Tests for frame feature contexts and progressive quality curves."""

import numpy as np
import pytest

from repro.errors import QualityModelError
from repro.quality.curves import (
    FrameFeatureBatch,
    FrameFeatureContext,
)


class TestFrameFeatureContext:
    def test_from_probe_copies_static_features(self, hr_probe):
        context = FrameFeatureContext.from_probe(hr_probe)
        np.testing.assert_allclose(
            context.cumulative_ssim, hr_probe.cumulative_ssim
        )
        assert context.blank_ssim == pytest.approx(hr_probe.blank_ssim)

    def test_features_for_bytes_single(self, hr_probe):
        context = FrameFeatureContext.from_probe(hr_probe)
        sizes = np.asarray(context.layer_sizes)
        feats = context.features_for_bytes(sizes * 0.5)
        np.testing.assert_allclose(feats[:4], 0.5)
        assert feats.shape == (9,)

    def test_features_for_bytes_batched(self, hr_probe):
        context = FrameFeatureContext.from_probe(hr_probe)
        sizes = np.asarray(context.layer_sizes)
        batch = np.stack([sizes * 0.2, sizes * 1.5])
        feats = context.features_for_bytes(batch)
        assert feats.shape == (2, 9)
        np.testing.assert_allclose(feats[0, :4], 0.2)
        np.testing.assert_allclose(feats[1, :4], 1.0)  # clipped

    def test_matches_probe_features(self, hr_probe):
        context = FrameFeatureContext.from_probe(hr_probe)
        sizes = np.asarray(context.layer_sizes)
        fractions = np.array([1.0, 0.5, 0.25, 0.0])
        np.testing.assert_allclose(
            context.features_for_bytes(sizes * fractions),
            hr_probe.features(fractions),
        )

    def test_rejects_wrong_dims(self, hr_probe):
        context = FrameFeatureContext.from_probe(hr_probe)
        with pytest.raises(QualityModelError):
            context.features_for_bytes(np.zeros(3))

    def test_rejects_bad_construction(self):
        with pytest.raises(QualityModelError):
            FrameFeatureContext((0.5, 0.6), 0.1, (1, 2, 3, 4))
        with pytest.raises(QualityModelError):
            FrameFeatureContext((0.5, 0.6, 0.7, 0.8), 0.1, (0, 2, 3, 4))


class TestFrameFeatureBatch:
    def test_rows_equal_each_contexts_own_features_bit_for_bit(
        self, hr_probe, lr_probe
    ):
        contexts = [
            FrameFeatureContext.from_probe(probe)
            for probe in (hr_probe, lr_probe, hr_probe)
        ]
        batch = FrameFeatureBatch(contexts)
        rng = np.random.default_rng(0)
        for _ in range(3):  # the buffer is reused; every call must refill it
            # Fractions from below 0 to above 1, so the clip acts on both ends.
            amounts = batch.layer_sizes * rng.uniform(-0.5, 1.5, size=(3, 4))
            rows = batch.features_for_bytes(amounts)
            for context, amount, row in zip(contexts, amounts, rows):
                assert row.tobytes() == context.features_for_bytes(amount).tobytes()

    def test_layer_sizes_follow_the_contexts(self, hr_probe):
        context = FrameFeatureContext.from_probe(hr_probe)
        batch = FrameFeatureBatch([context, context])
        np.testing.assert_array_equal(batch.layer_sizes, [context.layer_sizes] * 2)

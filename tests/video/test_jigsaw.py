"""Tests for the Jigsaw-style layered codec."""

import numpy as np
import pytest

from repro.errors import CodecError, VideoFormatError
from repro.video.frame import VideoFrame
from repro.video.jigsaw import (
    SUBLAYER_COUNTS,
    LayeredFrame,
    LayerStructure,
    _GRID_SIDE,
    _merge_sublayers,
    _split_sublayers,
)
from repro.video.metrics import psnr, ssim


class TestLayerStructure:
    def test_sublayer_counts_match_paper(self):
        structure = LayerStructure(144, 256)
        assert structure.sublayer_counts == (3, 4, 16, 64)

    def test_sublayer_bytes_is_one_per_8x8_block(self):
        structure = LayerStructure(144, 256)
        assert structure.sublayer_nbytes == (144 // 8) * (256 // 8)

    def test_layer_sizes_are_count_times_sublayer(self):
        structure = LayerStructure(144, 256)
        sizes = structure.layer_sizes()
        expected = np.array([3, 4, 16, 64]) * structure.sublayer_nbytes
        np.testing.assert_array_equal(sizes, expected)

    def test_total_bytes(self):
        structure = LayerStructure(144, 256)
        assert structure.total_nbytes == 87 * structure.sublayer_nbytes

    def test_4k_sublayer_is_about_130kb(self):
        structure = LayerStructure(2160, 3840)
        assert structure.sublayer_nbytes == 270 * 480

    def test_rejects_non_multiple_of_8(self):
        with pytest.raises(VideoFormatError):
            LayerStructure(100, 256)


class TestSublayerReshaping:
    @pytest.mark.parametrize("grid", [2, 4, 8])
    def test_split_merge_roundtrip(self, grid, rng):
        plane = rng.integers(-128, 128, size=(16 * grid, 24 * grid)).astype(np.int8)
        merged = _merge_sublayers(_split_sublayers(plane, grid), grid)
        np.testing.assert_array_equal(merged, plane)

    def test_split_k_indexes_intra_block_position(self):
        # Build a plane where the value equals the intra-block position.
        grid = 2
        plane = np.zeros((8 * grid, 8 * grid), dtype=np.int8)
        for r in range(grid):
            for c in range(grid):
                plane[r::grid, c::grid] = r * grid + c
        subs = _split_sublayers(plane, grid)
        for k in range(grid * grid):
            assert np.all(subs[k] == k)


class TestCodecRoundtrip:
    def test_full_reception_is_near_lossless(self, codec, hr_video):
        frame = hr_video.frame(0)
        layered = codec.encode(frame)
        decoded = codec.decode_fractions(layered, [1, 1, 1, 1])
        assert ssim(frame, decoded) > 0.995
        assert psnr(frame, decoded) > 45.0

    def test_quality_monotone_in_layers(self, codec, hr_video):
        frame = hr_video.frame(0)
        layered = codec.encode(frame)
        qualities = []
        for upto in range(4):
            fractions = [1.0 if j <= upto else 0.0 for j in range(4)]
            decoded = codec.decode_fractions(layered, fractions)
            qualities.append(ssim(frame, decoded))
        assert qualities == sorted(qualities)

    def test_partial_sublayers_improve_quality(self, codec, hr_video):
        frame = hr_video.frame(0)
        layered = codec.encode(frame)
        base = ssim(frame, codec.decode_fractions(layered, [1, 0, 0, 0]))
        half = ssim(frame, codec.decode_fractions(layered, [1, 0.5, 0, 0]))
        assert half > base

    def test_sublayers_are_independent_corrections(self, codec, hr_video):
        """Applying layer 2 without layer 1 must still decode (and help)."""
        frame = hr_video.frame(0)
        layered = codec.encode(frame)
        masks = codec.masks_for_fractions([1, 0, 0, 0])
        masks[2][:] = True  # layer 2 complete, layer 1 missing
        decoded = codec.decode(layered, masks)
        baseline = codec.decode_fractions(layered, [1, 0, 0, 0])
        assert ssim(frame, decoded) > ssim(frame, baseline)

    def test_missing_base_layer_falls_back_to_grey(self, codec, hr_video):
        layered = codec.encode(hr_video.frame(0))
        masks = codec.masks_for_fractions([0, 0, 0, 0])
        decoded = codec.decode(layered, masks)
        assert decoded.u[0, 0] == 128

    def test_wrong_frame_size_rejected(self, codec):
        other = VideoFrame(
            np.zeros((64, 64), dtype=np.uint8),
            np.zeros((32, 32), dtype=np.uint8),
            np.zeros((32, 32), dtype=np.uint8),
        )
        with pytest.raises(CodecError):
            codec.encode(other)


class TestPayloads:
    def test_payload_roundtrip_reconstructs_frame(self, codec, hr_video):
        frame = hr_video.frame(1)
        layered = codec.encode(frame)
        rebuilt = LayeredFrame.empty(codec.structure)
        for layer in range(4):
            for sub in range(SUBLAYER_COUNTS[layer]):
                rebuilt.set_sublayer_payload(
                    layer, sub, layered.sublayer_payload(layer, sub)
                )
        original = codec.decode_fractions(layered, [1, 1, 1, 1])
        copy = codec.decode_fractions(rebuilt, [1, 1, 1, 1])
        np.testing.assert_array_equal(original.y, copy.y)

    def test_payload_has_sublayer_size(self, codec, hr_probe):
        payload = hr_probe.layered.sublayer_payload(2, 5)
        assert len(payload) == codec.structure.sublayer_nbytes

    def test_bad_payload_length_rejected(self, codec, hr_probe):
        with pytest.raises(CodecError):
            hr_probe.layered.set_sublayer_payload(1, 0, b"short")

    def test_bad_sublayer_index_rejected(self, hr_probe):
        with pytest.raises(CodecError):
            hr_probe.layered.sublayer_payload(1, 4)
        with pytest.raises(CodecError):
            hr_probe.layered.sublayer_payload(4, 0)


def _pixel_layout_luma(layered, masks):
    """The luma pyramid as the paper states it: upsample each level 2x with
    ``np.repeat`` and add the next layer's merged float32 deltas."""
    level = np.where(masks[0][0], layered.base_y, 128).astype(np.float32)
    for layer in (1, 2, 3):
        subs = layered.deltas[layer - 1].astype(np.float32)
        subs = subs * np.asarray(masks[layer])[:, None, None]
        level = np.repeat(np.repeat(level, 2, axis=0), 2, axis=1)
        level = level + _merge_sublayers(subs, _GRID_SIDE[layer])
    return np.clip(np.round(level), 0, 255).astype(np.uint8)


class TestLumaDecode:
    def test_equals_the_pixel_layout_pyramid(self, rng, codec, hr_probe):
        layered = hr_probe.layered
        for _ in range(24):
            masks = [rng.random(n) < rng.uniform(0.0, 1.0) for n in SUBLAYER_COUNTS]
            expected = _pixel_layout_luma(layered, masks)
            luma = codec.decode_luma(layered, masks)
            assert luma.dtype == np.uint8
            np.testing.assert_array_equal(luma, expected)
            np.testing.assert_array_equal(codec.decode(layered, masks).y, expected)

    def test_reads_no_chroma_bit(self, codec, hr_probe):
        masks = codec.masks_for_fractions([1, 0.5, 0.25, 0.5])
        lumas = {
            codec.decode_luma(hr_probe.layered, [np.array([True, u, v]), *masks[1:]])
            .tobytes()
            for u in (False, True) for v in (False, True)
        }
        assert len(lumas) == 1

    def test_validates_masks(self, codec, hr_probe):
        masks = codec.masks_for_fractions([1, 1, 1, 1])
        masks[3] = masks[3][:-1]
        with pytest.raises(CodecError):
            codec.decode_luma(hr_probe.layered, masks)


class TestMasks:
    def test_fraction_to_mask_uses_ceiling(self, codec):
        masks = codec.masks_for_fractions([0.01, 0.3, 0.5, 0.0])
        assert masks[0].sum() == 1  # ceil(0.01 * 3)
        assert masks[1].sum() == 2  # ceil(0.3 * 4)
        assert masks[2].sum() == 8
        assert masks[3].sum() == 0

    def test_rejects_bad_fraction(self, codec):
        with pytest.raises(CodecError):
            codec.masks_for_fractions([1.5, 0, 0, 0])

    def test_rejects_wrong_mask_shape(self, codec, hr_probe):
        masks = codec.masks_for_fractions([1, 1, 1, 1])
        masks[1] = masks[1][:-1]
        with pytest.raises(CodecError):
            codec.decode(hr_probe.layered, masks)

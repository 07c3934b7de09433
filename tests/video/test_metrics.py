"""Tests for SSIM and PSNR."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from repro.errors import VideoFormatError
from repro.video.frame import blank_frame
from repro.video.jigsaw import SUBLAYER_COUNTS
from repro.video.metrics import PSNR_CAP_DB, psnr, ssim


def _image(rng, h=64, w=64):
    return rng.integers(0, 256, size=(h, w)).astype(np.uint8)


class TestSsim:
    def test_identical_images_score_one(self, rng):
        image = _image(rng)
        assert ssim(image, image) == pytest.approx(1.0, abs=1e-9)

    def test_noise_reduces_ssim(self, rng):
        # Use a smooth reference: SSIM is contrast-normalised, so noise on a
        # noise image barely registers, but noise on structure does.
        yy, xx = np.mgrid[0:64, 0:64]
        image = (128 + 60 * np.sin(xx / 6.0)).astype(np.uint8)
        noisy = np.clip(
            image.astype(int) + rng.normal(0, 20, image.shape), 0, 255
        ).astype(np.uint8)
        assert ssim(image, noisy) < 0.9

    def test_more_noise_scores_lower(self, rng):
        image = _image(rng)
        mild = np.clip(image.astype(int) + rng.normal(0, 5, image.shape), 0, 255)
        harsh = np.clip(image.astype(int) + rng.normal(0, 40, image.shape), 0, 255)
        assert ssim(image, harsh.astype(np.uint8)) < ssim(image, mild.astype(np.uint8))

    def test_bounded_by_one(self, rng):
        a, b = _image(rng), _image(rng)
        assert -1.0 <= ssim(a, b) <= 1.0

    def test_accepts_video_frames(self, hr_video):
        frame = hr_video.frame(0)
        assert ssim(frame, frame) == pytest.approx(1.0, abs=1e-9)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(VideoFormatError):
            ssim(_image(rng, 64, 64), _image(rng, 32, 32))

    def test_symmetry(self, rng):
        a, b = _image(rng), _image(rng)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)

    def test_blank_frame_ssim_is_low_for_rich_content(self, hr_video):
        frame = hr_video.frame(0)
        blank = blank_frame(frame.height, frame.width)
        assert ssim(frame, blank) < 0.4

    def test_float32_matches_float64(self, rng, hr_video):
        # The default float32 working precision must agree with a full
        # float64 computation far beyond the 3-decimal reporting precision.
        pairs = [
            (_image(rng), _image(rng)),
            (hr_video.frame(0), hr_video.frame(1)),
        ]
        for reference, distorted in pairs:
            fast = ssim(reference, distorted, dtype=np.float32)
            exact = ssim(reference, distorted, dtype=np.float64)
            assert fast == pytest.approx(exact, abs=1e-4)


class TestPsnr:
    def test_identical_images_hit_cap(self, rng):
        image = _image(rng)
        assert psnr(image, image) == PSNR_CAP_DB

    def test_known_mse(self):
        a = np.zeros((16, 16), dtype=np.uint8)
        b = np.full((16, 16), 16, dtype=np.uint8)  # MSE = 256
        expected = 10 * np.log10(255**2 / 256)
        assert psnr(a, b) == pytest.approx(expected, abs=1e-6)

    def test_monotone_with_noise(self, rng):
        image = _image(rng)
        mild = np.clip(image.astype(int) + 4, 0, 255).astype(np.uint8)
        harsh = np.clip(image.astype(int) + 32, 0, 255).astype(np.uint8)
        assert psnr(image, harsh) < psnr(image, mild)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(VideoFormatError):
            psnr(_image(rng, 64, 64), _image(rng, 32, 32))


def _textbook_ssim(reference, distorted, dtype):
    """Wang et al. 2004: five 2-D Gaussian filters (sigma 1.5) and the SSIM
    formula, operand for operand, averaged in float64."""
    c1, c2 = (0.01 * 255.0) ** 2, (0.03 * 255.0) ** 2
    x, y = reference.astype(dtype), distorted.astype(dtype)
    mu_x = gaussian_filter(x, 1.5)
    mu_y = gaussian_filter(y, 1.5)
    e_xx = gaussian_filter(x * x, 1.5)
    e_yy = gaussian_filter(y * y, 1.5)
    e_xy = gaussian_filter(x * y, 1.5)
    mu_x2, mu_y2, mu_xy = mu_x * mu_x, mu_y * mu_y, mu_x * mu_y
    sigma_x2, sigma_y2, sigma_xy = e_xx - mu_x2, e_yy - mu_y2, e_xy - mu_xy
    numerator = (2.0 * mu_xy + c1) * (2.0 * sigma_xy + c2)
    denominator = (mu_x2 + mu_y2 + c1) * (sigma_x2 + sigma_y2 + c2)
    return float(np.mean(numerator / denominator, dtype=np.float64))


def _textbook_psnr(reference, distorted):
    mse = float(np.mean(
        (reference.astype(np.float64) - distorted.astype(np.float64)) ** 2
    ))
    if mse <= 0.0:
        return PSNR_CAP_DB
    return float(min(10.0 * np.log10(255.0**2 / mse), PSNR_CAP_DB))


class TestBitIdentity:
    """SSIM and PSNR equal the textbook statements above, bit for bit."""

    @staticmethod
    def _pairs(rng, codec, hr_probe):
        frame = hr_probe.reference.y
        yield _image(rng), _image(rng)
        yield _image(rng, 48, 80), _image(rng, 48, 80)
        for _ in range(6):
            masks = [rng.random(n) < rng.uniform(0.2, 1.0) for n in SUBLAYER_COUNTS]
            yield frame, codec.decode_luma(hr_probe.layered, masks)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ssim_equals_textbook(self, rng, codec, hr_probe, dtype):
        for reference, distorted in self._pairs(rng, codec, hr_probe):
            assert ssim(reference, distorted, dtype=dtype) == _textbook_ssim(
                reference, distorted, dtype
            )

    def test_psnr_equals_textbook(self, rng, codec, hr_probe):
        for reference, distorted in self._pairs(rng, codec, hr_probe):
            assert psnr(reference, distorted) == _textbook_psnr(reference, distorted)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_identical_pair(self, rng, dtype):
        image = _image(rng)
        assert psnr(image, image) == _textbook_psnr(image, image) == PSNR_CAP_DB
        assert ssim(image, image, dtype=dtype) == _textbook_ssim(image, image, dtype)

    def test_4k_extremes_do_not_overflow(self):
        """All-0 against all-255 at 2160x3840: MSE is exactly 255^2."""
        black = np.zeros((2160, 3840), dtype=np.uint8)
        white = np.full((2160, 3840), 255, dtype=np.uint8)
        assert psnr(black, white) == 0.0

    def test_psnr_rejects_non_8_bit_planes(self, rng):
        image = _image(rng)
        with pytest.raises(VideoFormatError):
            psnr(image.astype(np.float64), image)


class TestSsimPsnrCorrespondence:
    def test_metrics_rank_distortions_consistently(self, codec, hr_video):
        """SSIM and PSNR must agree on which reception decodes better."""
        frame = hr_video.frame(0)
        layered = codec.encode(frame)
        low = codec.decode_fractions(layered, [1, 0.5, 0, 0])
        high = codec.decode_fractions(layered, [1, 1, 1, 0.5])
        assert ssim(frame, high) > ssim(frame, low)
        assert psnr(frame, high) > psnr(frame, low)

"""Video quality metrics: SSIM and PSNR, implemented from scratch.

The paper computes SSIM with FFmpeg; we implement the original
Wang-Bovik-Sheikh-Simoncelli SSIM (IEEE TIP 2004) with the standard 11x11
Gaussian window (sigma = 1.5) on the luma plane.  PSNR is the usual
``10 * log10(MAX^2 / MSE)`` on luma.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from scipy.ndimage import gaussian_filter

from ..errors import VideoFormatError
from .frame import VideoFrame

#: SSIM stabilisation constants for 8-bit content (K1=0.01, K2=0.03, L=255).
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2

#: Standard deviation of the SSIM Gaussian window.
_SSIM_SIGMA = 1.5

#: Cap applied to PSNR for identical images (MSE == 0), in dB.
PSNR_CAP_DB = 100.0

_PlaneOrFrame = Union[np.ndarray, VideoFrame]


def _as_luma(image: _PlaneOrFrame, dtype=np.float64) -> np.ndarray:
    """Extract a float luma plane from a frame or a raw 2-D array."""
    if isinstance(image, VideoFrame):
        plane = image.y
    else:
        plane = np.asarray(image)
        if plane.ndim != 2:
            raise VideoFormatError(f"expected a 2-D plane, got {plane.ndim}-D")
    return plane.astype(dtype)


class SsimReference:
    """SSIM against one reference frame, its reference-side half kept.

    Of the five Gaussian-filtered planes SSIM needs, two — ``mu_x`` and
    ``E[x^2]`` — depend on the reference alone.  They are filtered here,
    once, and kept as ``mu_x`` and ``sigma_x^2`` (two ``dtype`` planes and
    nothing else: not the float reference, not ``mu_x^2``), so each
    :meth:`score` runs the three passes that involve the distorted frame.
    Every score is the same arithmetic in the same order as a one-shot
    :func:`ssim`, hence the same bits.

    All filter passes run on ``dtype`` planes (float32 by default — the
    filters are memory-bound, so halving the element width roughly doubles
    throughput).  float32 agrees with float64 to well under 1e-4 on 8-bit
    content; pass ``dtype=np.float64`` for the double-precision value.
    """

    def __init__(self, reference: _PlaneOrFrame, dtype=np.float32) -> None:
        self._reference = reference
        self._dtype = dtype
        ref = _as_luma(reference, dtype)
        self._mu_x = gaussian_filter(ref, _SSIM_SIGMA)
        e_xx = gaussian_filter(ref * ref, _SSIM_SIGMA)
        self._sigma_x2 = e_xx - self._mu_x * self._mu_x

    def score(self, distorted: _PlaneOrFrame) -> float:
        """Mean SSIM of ``distorted`` against the reference, in ``[-1, 1]``."""
        ref = _as_luma(self._reference, self._dtype)
        dist = _as_luma(distorted, self._dtype)
        if ref.shape != dist.shape:
            raise VideoFormatError(f"shape mismatch: {ref.shape} vs {dist.shape}")

        # One buffer for the three filtered planes mu_y, E[y^2], E[xy];
        # plus one scratch plane for the products being filtered.
        filtered = np.empty((3,) + ref.shape, dtype=self._dtype)
        scratch = np.empty_like(ref)
        gaussian_filter(dist, _SSIM_SIGMA, output=filtered[0])
        np.multiply(dist, dist, out=scratch)
        gaussian_filter(scratch, _SSIM_SIGMA, output=filtered[1])
        np.multiply(ref, dist, out=scratch)
        gaussian_filter(scratch, _SSIM_SIGMA, output=filtered[2])

        mu_x, sigma_x2 = self._mu_x, self._sigma_x2
        mu_y, e_yy, e_xy = filtered
        mu_x2 = mu_x * mu_x
        mu_y2 = mu_y * mu_y
        mu_xy = mu_x * mu_y

        sigma_y2 = e_yy - mu_y2
        sigma_xy = e_xy - mu_xy

        numerator = (2.0 * mu_xy + _C1) * (2.0 * sigma_xy + _C2)
        denominator = (mu_x2 + mu_y2 + _C1) * (sigma_x2 + sigma_y2 + _C2)
        return float(np.mean(numerator / denominator, dtype=np.float64))


def ssim(
    reference: _PlaneOrFrame, distorted: _PlaneOrFrame, dtype=np.float32
) -> float:
    """Mean SSIM between two frames (luma plane).

    A :class:`SsimReference` used once; keep the object to score many
    frames against one reference.

    Args:
        reference: Ground-truth frame or Y plane.
        distorted: Reconstructed frame or Y plane, same shape.
        dtype: Working precision of the filter passes.

    Returns:
        Mean SSIM over the frame, in ``[-1, 1]`` (1 means identical).
    """
    return SsimReference(reference, dtype).score(distorted)


def psnr(reference: _PlaneOrFrame, distorted: _PlaneOrFrame) -> float:
    """Peak signal-to-noise ratio between two frames (luma plane), in dB.

    Identical frames return :data:`PSNR_CAP_DB` rather than infinity so the
    value stays usable in averages.
    """
    ref = _as_luma(reference)
    dist = _as_luma(distorted)
    if ref.shape != dist.shape:
        raise VideoFormatError(f"shape mismatch: {ref.shape} vs {dist.shape}")
    mse = float(np.mean((ref - dist) ** 2))
    if mse <= 0.0:
        return PSNR_CAP_DB
    return float(min(10.0 * np.log10(255.0**2 / mse), PSNR_CAP_DB))

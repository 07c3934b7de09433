"""Video quality metrics: SSIM and PSNR, implemented from scratch.

The paper computes SSIM with FFmpeg; we implement the original
Wang-Bovik-Sheikh-Simoncelli SSIM (IEEE TIP 2004) with the standard 11x11
Gaussian window (sigma = 1.5) on the luma plane.  PSNR is the usual
``10 * log10(MAX^2 / MSE)`` on luma.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np
from scipy.ndimage import gaussian_filter1d

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

#: One filter workspace per ``(shape, dtype)`` in the process (see
#: :func:`_workspace`).
_WORKSPACES: Dict[Tuple[Tuple[int, ...], np.dtype], np.ndarray] = {}


def _luma(image: _PlaneOrFrame) -> np.ndarray:
    """The luma plane of a frame, or a raw 2-D array, as stored."""
    if isinstance(image, VideoFrame):
        return image.y
    plane = np.asarray(image)
    if plane.ndim != 2:
        raise VideoFormatError(f"expected a 2-D plane, got {plane.ndim}-D")
    return plane


def _luma_pair(
    reference: _PlaneOrFrame, distorted: _PlaneOrFrame
) -> Tuple[np.ndarray, np.ndarray]:
    ref, dist = _luma(reference), _luma(distorted)
    if ref.shape != dist.shape:
        raise VideoFormatError(f"shape mismatch: {ref.shape} vs {dist.shape}")
    return ref, dist


def _workspace(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """The process's four scratch planes for SSIM at one ``(shape, dtype)``.

    :func:`_filter_stack` takes a stack of up to three planes, transposed,
    in planes 1-3 and leaves it filtered in planes 0-2, so a score's three
    filtered planes and its arithmetic fit in four.  The buffer belongs to
    the process, not to a caller, and every use overwrites it.  Sharing is
    safe because nothing in ``repro`` runs Python threads (the worker pools
    are processes, the service is one event loop); a threaded caller would
    need a workspace per thread.
    """
    key = (shape, np.dtype(dtype))
    work = _WORKSPACES.get(key)
    if work is None:
        work = _WORKSPACES[key] = np.empty((4,) + tuple(shape), dtype)
    return work


def _columns(work: np.ndarray, depth: int) -> np.ndarray:
    """Where :func:`_filter_stack` reads ``depth`` planes: planes
    ``1 .. depth`` of ``work`` viewed as ``(depth, W, H)``, each holding one
    plane transposed."""
    height, width = work.shape[1:]
    return work[1 : depth + 1].reshape(depth, width, height)


def _filter_stack(work: np.ndarray, depth: int) -> np.ndarray:
    """``gaussian_filter(plane, 1.5)`` of every plane in
    ``_columns(work, depth)``, each pass over contiguous lines; returns the
    filtered planes, ``work[:depth]``.

    The transposed planes are filtered along their lines (the planes' axis
    0), transposed back and filtered along axis 1 — ``gaussian_filter``'s
    axis order.  scipy filters each line in double and stores the
    intermediate in the buffer's dtype, the same arithmetic whatever the
    memory layout, so every plane comes out bit for bit as a 2-D
    ``gaussian_filter`` call would leave it.
    """
    columns, rows = _columns(work, depth), work[:depth]
    gaussian_filter1d(columns, _SSIM_SIGMA, axis=-1, output=columns)
    for row, column in zip(rows, columns):
        # Row k takes the memory of column k - 1, which is already copied.
        np.copyto(row, column.T)
    gaussian_filter1d(rows, _SSIM_SIGMA, axis=-1, output=rows)
    return rows


class SsimReference:
    """SSIM against one reference frame, its reference-side half kept.

    Of the five Gaussian-filtered planes SSIM needs, two — ``mu_x`` and
    ``E[x^2]`` — depend on the reference alone.  They are filtered here,
    once, and kept as ``mu_x`` and ``sigma_x^2`` (two ``dtype`` planes and
    nothing else: not the float reference, not ``mu_x^2``), so each
    :meth:`score` filters only the three planes that involve the distorted
    frame, stacked, in two passes.  Every score is the same arithmetic in
    the same order as a one-shot :func:`ssim`, hence the same bits.

    All filter passes run on ``dtype`` planes (float32 by default — the
    filters are memory-bound, so halving the element width roughly doubles
    throughput).  float32 agrees with float64 to well under 1e-4 on 8-bit
    content; pass ``dtype=np.float64`` for the double-precision value.
    Scratch planes come from the process's workspace for the frame shape
    and ``dtype`` (:func:`_workspace`), not from each score.
    """

    def __init__(self, reference: _PlaneOrFrame, dtype=np.float32) -> None:
        self._reference = reference
        self._dtype = dtype
        ref = _luma(reference)
        work = _workspace(ref.shape, dtype)
        x, x2 = _columns(work, 2)
        np.copyto(x, ref.T, casting="unsafe")
        np.multiply(x, x, out=x2)
        mu_x, e_xx = _filter_stack(work, 2)
        self._mu_x = mu_x.copy()
        self._sigma_x2 = e_xx - self._mu_x * self._mu_x

    def score(self, distorted: _PlaneOrFrame) -> float:
        """Mean SSIM of ``distorted`` against the reference, in ``[-1, 1]``."""
        ref, dist = _luma_pair(self._reference, distorted)

        # The distorted-side planes y, y^2 and x*y, filtered as one stack.
        work = _workspace(ref.shape, self._dtype)
        y, y2, xy = _columns(work, 3)
        np.copyto(y, dist.T, casting="unsafe")
        np.multiply(y, y, out=y2)
        np.multiply(ref.T, y, out=xy, dtype=self._dtype, casting="unsafe")
        mu_y, e_yy, e_xy = _filter_stack(work, 3)

        # The 2004 formula in place, in those three planes and the fourth:
        # the same products and sums of the same operands as the one-shot
        # statement, scheduled so that no fifth plane is needed.
        mu_x, sigma_x2 = self._mu_x, self._sigma_x2
        mu_xy = np.multiply(mu_x, mu_y, out=work[3])
        mu_y2 = np.multiply(mu_y, mu_y, out=mu_y)
        sigma_y2 = np.subtract(e_yy, mu_y2, out=e_yy)
        sigma_xy = np.subtract(e_xy, mu_xy, out=e_xy)

        # numerator = (2 mu_xy + C1) * (2 sigma_xy + C2)
        numerator = np.multiply(mu_xy, 2.0, out=mu_xy)
        np.add(numerator, _C1, out=numerator)
        np.multiply(sigma_xy, 2.0, out=sigma_xy)
        np.add(sigma_xy, _C2, out=sigma_xy)
        np.multiply(numerator, sigma_xy, out=numerator)
        # denominator = (mu_x2 + mu_y2 + C1) * (sigma_x2 + sigma_y2 + C2)
        denominator = np.multiply(mu_x, mu_x, out=sigma_xy)
        np.add(denominator, mu_y2, out=denominator)
        np.add(denominator, _C1, out=denominator)
        np.add(sigma_x2, sigma_y2, out=sigma_y2)
        np.add(sigma_y2, _C2, out=sigma_y2)
        np.multiply(denominator, sigma_y2, out=denominator)

        np.divide(numerator, denominator, out=numerator)
        return float(np.mean(numerator, dtype=np.float64))


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
    """Peak signal-to-noise ratio between two 8-bit frames (luma plane), in dB.

    Identical frames return :data:`PSNR_CAP_DB` rather than infinity so the
    value stays usable in averages.

    The squared error is summed in integers: each squared difference is an
    integer of at most 255^2 and every partial sum stays below 2^53, so the
    int64 total is exactly the float64 sum in any order, and the MSE is the
    bits a float64 ``mean`` of the squares would give.
    """
    ref, dist = _luma_pair(reference, distorted)
    if ref.dtype != np.uint8 or dist.dtype != np.uint8:
        raise VideoFormatError(
            f"PSNR takes uint8 planes, got {ref.dtype} and {dist.dtype}"
        )
    diff = np.subtract(ref, dist, dtype=np.int16)
    total = int(np.square(diff, dtype=np.int32).sum(dtype=np.int64))
    if total == 0:
        return PSNR_CAP_DB
    mse = total / diff.size
    return float(min(10.0 * np.log10(255.0**2 / mse), PSNR_CAP_DB))

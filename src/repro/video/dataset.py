"""Quality-model dataset generation (paper Sec 2.3).

For each frame of a training corpus we feed different fractions of each video
layer into the decoder and record the resulting SSIM (and PSNR), exactly as
the paper does with FFmpeg.  Each sample also records the nine model-input
features:

1-4.  Amount of data received at each layer (normalised to the layer size —
      equivalent to the paper's "number of packets received at each layer"
      up to a constant per-layer factor).
5-8.  SSIM when everything up to the i-th layer has been received completely
      (these capture how much each layer matters for *this* frame).
9.    SSIM of the blank frame (how different this frame is from blank).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..types import NUM_LAYERS, validate_seed
from .frame import VideoFrame, blank_frame
from .jigsaw import JigsawCodec, LayeredFrame
from .metrics import SsimReference, psnr
from .synthetic import SyntheticVideo

#: Number of quality-model input features.
NUM_FEATURES = 9


@dataclass
class FrameQualityProbe:
    """Quality measurements for a single encoded frame.

    Precomputes the static features (cumulative per-layer SSIM and blank-frame
    SSIM) once, then answers arbitrary fraction queries with one decode each.
    """

    codec: JigsawCodec
    reference: VideoFrame
    layered: LayeredFrame
    cumulative_ssim: np.ndarray
    blank_ssim: float
    #: Memoized mask-reception measurements: receivers in one multicast group
    #: routinely decode identical sublayer sets, so repeated mask queries are
    #: the common case in emulation.  LRU-bounded.
    _mask_cache: "OrderedDict[bytes, Tuple[float, float]]" = field(
        default_factory=OrderedDict, repr=False, compare=False
    )
    #: The reference-side half of SSIM (two float32 planes), filtered on the
    #: first score and reused by every later one.
    _ssim_reference: Optional[SsimReference] = field(
        default=None, repr=False, compare=False
    )

    _MASK_CACHE_LIMIT = 1024

    @classmethod
    def from_frame(cls, codec: JigsawCodec, frame: VideoFrame) -> "FrameQualityProbe":
        """Encode ``frame`` and precompute its static quality features.

        Every feature is a luma-only decode scored against one
        :class:`SsimReference` of ``frame``.  The probe does not keep it:
        a probe used only as a template (copied field by field per
        session) would carry two frame-sized planes for nothing.
        """
        layered = codec.encode(frame)
        reference = SsimReference(frame)
        cumulative = []
        for upto in range(NUM_LAYERS):
            fractions = [1.0 if j <= upto else 0.0 for j in range(NUM_LAYERS)]
            masks = codec.masks_for_fractions(fractions)
            cumulative.append(reference.score(codec.decode_luma(layered, masks)))
        blank = reference.score(blank_frame(frame.height, frame.width))
        return cls(
            codec=codec,
            reference=frame,
            layered=layered,
            cumulative_ssim=np.asarray(cumulative, dtype=float),
            blank_ssim=float(blank),
        )

    def features(self, fractions: Sequence[float]) -> np.ndarray:
        """The 9-dimensional model input for a per-layer reception vector."""
        fracs = np.clip(np.asarray(fractions, dtype=float), 0.0, 1.0)
        return np.concatenate([fracs, self.cumulative_ssim, [self.blank_ssim]])

    def measure(self, fractions: Sequence[float]) -> Tuple[float, float]:
        """Decode at the given per-layer fractions and return (SSIM, PSNR)."""
        return self._scores(self.codec.masks_for_fractions(fractions))

    def measure_masks(self, masks: Sequence[np.ndarray]) -> Tuple[float, float]:
        """Decode an explicit sublayer-mask reception and return (SSIM, PSNR).

        This is the emulation path: the transport reports exactly which
        sublayers each receiver decoded before the frame deadline.
        """
        # Keyed on what the decoded Y reads: the layer-0 Y bit and layers
        # 1-3.  Both scores are luma-only, so receptions that differ only in
        # the U/V sublayers share one entry.
        key = b"".join(
            np.asarray(m, dtype=bool).tobytes() for m in ([masks[0][0]], *masks[1:])
        )
        cached = self._mask_cache.get(key)
        if cached is not None:
            self._mask_cache.move_to_end(key)
            return cached
        result = self._scores(masks)
        self._mask_cache[key] = result
        while len(self._mask_cache) > self._MASK_CACHE_LIMIT:
            self._mask_cache.popitem(last=False)
        return result

    def _scores(self, masks: Sequence[np.ndarray]) -> Tuple[float, float]:
        """(SSIM, PSNR) of the luma plane ``masks`` decode to; both scores
        read luma only, so no chroma is decoded."""
        decoded = self.codec.decode_luma(self.layered, masks)
        if self._ssim_reference is None:
            self._ssim_reference = SsimReference(self.reference)
        return self._ssim_reference.score(decoded), psnr(self.reference, decoded)

    def sample(self, fractions: Sequence[float]) -> Tuple[np.ndarray, float]:
        """One (features, SSIM) training sample."""
        quality, _ = self.measure(fractions)
        return self.features(fractions), quality


@dataclass
class QualityDataset:
    """A feature/label matrix pair for training quality models."""

    features: np.ndarray
    ssim: np.ndarray
    psnr: np.ndarray

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def split(
        self, train_fraction: float = 0.7, seed: Optional[int] = 0
    ) -> Tuple["QualityDataset", "QualityDataset"]:
        """Random non-overlapping train/test split (paper uses 7:3)."""
        rng = validate_seed(seed)
        order = rng.permutation(len(self))
        cut = int(round(train_fraction * len(self)))
        train_idx, test_idx = order[:cut], order[cut:]
        return self._subset(train_idx), self._subset(test_idx)

    def _subset(self, idx: np.ndarray) -> "QualityDataset":
        return QualityDataset(
            features=self.features[idx],
            ssim=self.ssim[idx],
            psnr=self.psnr[idx],
        )


def _sample_fraction_vectors(
    rng: np.random.Generator, count: int
) -> Iterable[np.ndarray]:
    """Yield diverse per-layer fraction vectors.

    Mixes four regimes so the model sees the whole operating range:
    progressive fills (lower layers first, the scheduler's common case),
    fully random vectors, per-layer axis sweeps, and "hole" vectors with a
    missing lower layer.  The hole regime matters: without it the model never
    learns that skipping the base layer is catastrophic, and the allocation
    optimizer will happily game the model by dropping layer 0.
    """
    for i in range(count):
        mode = i % 4
        if mode == 0:
            progress = rng.uniform(0.0, float(NUM_LAYERS))
            fractions = np.clip(progress - np.arange(NUM_LAYERS), 0.0, 1.0)
        elif mode == 1:
            fractions = rng.uniform(0.0, 1.0, size=NUM_LAYERS)
        elif mode == 2:
            fractions = np.zeros(NUM_LAYERS)
            upto = int(rng.integers(0, NUM_LAYERS))
            fractions[:upto] = 1.0
            fractions[upto] = rng.uniform(0.0, 1.0)
        else:
            fractions = rng.uniform(0.5, 1.0, size=NUM_LAYERS)
            hole = int(rng.integers(0, NUM_LAYERS - 1))
            fractions[hole] = 0.0
        yield fractions


def generate_dataset(
    videos: Sequence[SyntheticVideo],
    frames_per_video: int = 4,
    samples_per_frame: int = 24,
    seed: Optional[int] = 0,
) -> QualityDataset:
    """Generate a quality dataset over a corpus of videos.

    Args:
        videos: Source sequences (typically ``make_standard_videos()``).
        frames_per_video: Evenly spaced frames probed per video.
        samples_per_frame: Fraction vectors decoded per frame.
        seed: RNG seed for fraction sampling.

    Returns:
        A :class:`QualityDataset` with one row per decode.
    """
    rng = validate_seed(seed)
    feats: List[np.ndarray] = []
    ssims: List[float] = []
    psnrs: List[float] = []
    for video in videos:
        codec = JigsawCodec(video.height, video.width)
        indices = np.linspace(0, video.num_frames - 1, frames_per_video).astype(int)
        for frame_idx in np.unique(indices):
            probe = FrameQualityProbe.from_frame(codec, video.frame(int(frame_idx)))
            for fractions in _sample_fraction_vectors(rng, samples_per_frame):
                quality, quality_db = probe.measure(fractions)
                feats.append(probe.features(fractions))
                ssims.append(quality)
                psnrs.append(quality_db)
    return QualityDataset(
        features=np.vstack(feats),
        ssim=np.asarray(ssims, dtype=float),
        psnr=np.asarray(psnrs, dtype=float),
    )

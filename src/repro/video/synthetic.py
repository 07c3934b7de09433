"""Procedural YUV420 video sources.

The paper trains and evaluates on six uncompressed 4K sequences from Derf's
collection, three high-richness (HR) and three low-richness (LR), where
richness is the variance of the Y plane (Sec 2.3).  Those sequences are not
redistributable here, so this module generates procedural stand-ins with the
two properties the paper's pipeline actually depends on:

* a controllable split of energy across the block-average pyramid (HR content
  has substantial fine-scale texture, so higher layers matter; LR content is
  dominated by the base layer), and
* temporal coherence with controllable motion (objects and texture translate
  smoothly between frames).

Each video is a deterministic function of its seed, so datasets and
experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np
from scipy.ndimage import gaussian_filter

from ..errors import VideoFormatError
from ..types import Richness, validate_seed
from .frame import VideoFrame

#: Default resolution used by tests and quality-model dataset generation.
#: The codec and pipeline are resolution-agnostic; 4K (3840x2160) works the
#: same way but costs ~360x more CPU per frame.
DEFAULT_HEIGHT = 288
DEFAULT_WIDTH = 512

#: Full 4K resolution as used in the paper.
UHD_HEIGHT = 2160
UHD_WIDTH = 3840


@dataclass(frozen=True)
class _Blob:
    """A moving elliptical object composited over the background."""

    center: Tuple[float, float]
    velocity: Tuple[float, float]
    radius: float
    luma: float
    chroma: Tuple[float, float]


@dataclass
class SyntheticVideo:
    """A deterministic, procedurally generated YUV420 sequence.

    Attributes:
        name: Human-readable identifier.
        richness: HIGH or LOW spatial richness (Sec 2.3 split).
        height: Luma height in pixels (multiple of 16).
        width: Luma width in pixels (multiple of 16).
        num_frames: Sequence length.
        motion: Pixels per frame of global texture drift; also scales blob
            velocities.
        seed: RNG seed; the same seed always yields the same video.
    """

    name: str
    richness: Richness
    height: int = DEFAULT_HEIGHT
    width: int = DEFAULT_WIDTH
    num_frames: int = 60
    motion: float = 2.0
    seed: int = 0
    _texture: np.ndarray = field(init=False, repr=False)
    _background: np.ndarray = field(init=False, repr=False)
    _blobs: List[_Blob] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.height % 16 or self.width % 16:
            raise VideoFormatError(
                f"dimensions must be multiples of 16, got {self.height}x{self.width}"
            )
        if self.num_frames <= 0:
            raise VideoFormatError("num_frames must be positive")
        rng = validate_seed(self.seed)
        self._texture = self._make_texture(rng)
        self._background = self._make_background(rng)
        self._blobs = self._make_blobs(rng)

    # ------------------------------------------------------------- components

    def _make_texture(self, rng: np.random.Generator) -> np.ndarray:
        """A wrap-around texture tile that translates over time.

        HR videos receive strong band-pass texture (energy in the fine
        layers); LR videos receive weak, heavily smoothed texture.
        """
        tile = rng.normal(size=(self.height, self.width)).astype(np.float32)
        coarse = gaussian_filter(tile, 6.0)
        coarse = coarse / (coarse.std() + 1e-9)
        if self.richness is Richness.HIGH:
            fine = gaussian_filter(tile, 1.5) - gaussian_filter(tile, 3.5)
            fine = fine / (fine.std() + 1e-9)
            texture = 5.0 * fine + 15.0 * coarse
        else:
            texture = 8.0 * coarse
        return texture

    def _make_background(self, rng: np.random.Generator) -> np.ndarray:
        """A static smooth luma gradient built from a few 2-D sinusoids."""
        yy, xx = np.meshgrid(
            np.linspace(0, 2 * np.pi, self.height, dtype=np.float32),
            np.linspace(0, 2 * np.pi, self.width, dtype=np.float32),
            indexing="ij",
        )
        # LR content is flatter end to end — the paper's richness split is
        # on total Y variance, so the background swing scales with richness.
        amplitude = 22.0 if self.richness is Richness.HIGH else 11.0
        background = np.full((self.height, self.width), 120.0, dtype=np.float32)
        for _ in range(3):
            fy, fx = rng.uniform(0.5, 2.0, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            background += amplitude * np.sin(fy * yy + fx * xx + phase).astype(np.float32)
        return background

    def _make_blobs(self, rng: np.random.Generator) -> List[_Blob]:
        count = 6 if self.richness is Richness.HIGH else 3
        luma_swing = 70.0 if self.richness is Richness.HIGH else 35.0
        blobs = []
        for _ in range(count):
            blobs.append(
                _Blob(
                    center=(
                        float(rng.uniform(0, self.height)),
                        float(rng.uniform(0, self.width)),
                    ),
                    velocity=(
                        float(rng.uniform(-1.5, 1.5) * self.motion),
                        float(rng.uniform(-1.5, 1.5) * self.motion),
                    ),
                    radius=float(rng.uniform(0.04, 0.12) * self.width),
                    luma=float(rng.uniform(-luma_swing, luma_swing)),
                    chroma=(
                        float(rng.uniform(-45, 45)),
                        float(rng.uniform(-45, 45)),
                    ),
                )
            )
        return blobs

    # ------------------------------------------------------------------ frames

    def frame(self, index: int) -> VideoFrame:
        """Render frame ``index`` (0-based)."""
        if not 0 <= index < self.num_frames:
            raise VideoFormatError(
                f"frame index {index} out of range [0, {self.num_frames})"
            )
        shift = int(round(index * self.motion))
        texture = np.roll(self._texture, (shift, 2 * shift), axis=(0, 1))
        y = self._background + texture

        u = np.full((self.height, self.width), 0.0, dtype=np.float32)
        v = np.full((self.height, self.width), 0.0, dtype=np.float32)
        yy, xx = np.ogrid[: self.height, : self.width]
        for blob in self._blobs:
            cy = (blob.center[0] + blob.velocity[0] * index) % self.height
            cx = (blob.center[1] + blob.velocity[1] * index) % self.width
            dist2 = (yy - cy) ** 2 + (xx - cx) ** 2
            mask = np.exp(-dist2 / (2.0 * blob.radius**2)).astype(np.float32)
            y = y + blob.luma * mask
            u = u + blob.chroma[0] * mask
            v = v + blob.chroma[1] * mask

        y8 = np.clip(np.round(y), 0, 255).astype(np.uint8)
        u8 = np.clip(np.round(128.0 + u[::2, ::2]), 0, 255).astype(np.uint8)
        v8 = np.clip(np.round(128.0 + v[::2, ::2]), 0, 255).astype(np.uint8)
        return VideoFrame(y8, u8, v8)

    def frames(self) -> List[VideoFrame]:
        """Render the full sequence (memory-heavy at 4K; prefer :meth:`frame`)."""
        return [self.frame(i) for i in range(self.num_frames)]

    def y_variance(self, sample_frames: int = 3) -> float:
        """Mean Y-plane variance over the first few frames.

        The paper's HR/LR split is by this statistic; tests assert that HR
        videos score higher than LR videos.
        """
        count = min(sample_frames, self.num_frames)
        variances = [
            float(np.var(self.frame(i).y.astype(np.float64))) for i in range(count)
        ]
        return float(np.mean(variances))


def make_standard_videos(
    height: int = DEFAULT_HEIGHT,
    width: int = DEFAULT_WIDTH,
    num_frames: int = 30,
    seed: int = 7,
) -> List[SyntheticVideo]:
    """Return the 6-video corpus mirroring the paper's dataset (3 HR + 3 LR)."""
    rng = validate_seed(seed)
    videos = []
    for i in range(3):
        videos.append(
            SyntheticVideo(
                name=f"hr_{i}",
                richness=Richness.HIGH,
                height=height,
                width=width,
                num_frames=num_frames,
                motion=float(rng.uniform(1.0, 4.0)),
                seed=int(rng.integers(0, 2**31)),
            )
        )
    for i in range(3):
        videos.append(
            SyntheticVideo(
                name=f"lr_{i}",
                richness=Richness.LOW,
                height=height,
                width=width,
                num_frames=num_frames,
                motion=float(rng.uniform(0.5, 2.0)),
                seed=int(rng.integers(0, 2**31)),
            )
        )
    return videos

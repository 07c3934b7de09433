"""Common value types shared across subsystems.

These are small frozen dataclasses and enums used at subsystem boundaries so
that packages can interoperate without importing each other's internals.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigurationError

#: Number of pyramid layers in the Jigsaw-style codec (base + 3 refinements).
NUM_LAYERS = 4

#: Frame budget for 30 FPS live video, in seconds (the paper's deadline).
FRAME_BUDGET_30FPS = 1.0 / 30.0


class Richness(enum.Enum):
    """Spatial-richness class of a video, split by Y-plane variance (Sec 2.3)."""

    HIGH = "high"
    LOW = "low"


class BeamformingScheme(enum.Enum):
    """The four beamforming schemes compared throughout the evaluation."""

    OPTIMIZED_MULTICAST = "optimized_multicast"
    PREDEFINED_MULTICAST = "predefined_multicast"
    OPTIMIZED_UNICAST = "optimized_unicast"
    PREDEFINED_UNICAST = "predefined_unicast"


class SchedulerKind(enum.Enum):
    """Packet/time scheduling policies."""

    OPTIMIZED = "optimized"
    ROUND_ROBIN = "round_robin"


class AdaptationPolicy(enum.Enum):
    """Channel-adaptation policies for mobile experiments (Sec 4.3.4)."""

    REALTIME_UPDATE = "realtime_update"
    NO_UPDATE = "no_update"


@dataclass(frozen=True)
class Position:
    """A 2-D position in metres within the room plane."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance in metres to ``other``."""
        return float(np.hypot(self.x - other.x, self.y - other.y))

    def angle_from(self, origin: "Position") -> float:
        """Azimuth angle in radians of this point as seen from ``origin``."""
        return float(np.arctan2(self.y - origin.y, self.x - origin.x))

    def as_array(self) -> np.ndarray:
        """Return the position as a length-2 float array."""
        return np.array([self.x, self.y], dtype=float)


@dataclass
class FrameStats:
    """Per-frame streaming outcome for one receiver.

    Collected by the end-to-end pipeline and aggregated by the emulation
    harness into the per-figure statistics the paper reports.
    """

    frame_index: int
    user_id: int
    ssim: float
    psnr_db: float
    bytes_received_per_layer: Tuple[float, ...] = field(
        default_factory=lambda: (0.0,) * NUM_LAYERS
    )
    deadline_met: bool = True
    decode_failures: int = 0


class OutcomeStats:
    """Per-(frame, user) stats accumulator shared by streaming outcomes.

    Both the multicast system's ``StreamOutcome`` and the ABR baselines'
    ``AbrOutcome`` collect one :class:`FrameStats` per (frame, user) and are
    queried the same ways; this base class carries the aggregation methods
    so the emulation harness can treat every session outcome uniformly.

    Two ingestion paths feed it: ``outcome.stats.append(...)`` per (frame,
    user), and :meth:`append_block` with one frame's whole user cohort as
    arrays.  Blocks are kept columnar and only expanded into
    :class:`FrameStats` objects when ``stats`` is actually read, so
    aggregate queries (``mean_ssim`` over a 1,000-user sweep) never build
    per-user objects at all.

    Per-user series are indexed once per stats generation (the index is
    rebuilt lazily whenever ``stats`` has grown) instead of re-sorting the
    full stats list on every :meth:`ssim_series` call.
    """

    def __init__(self, stats: Optional[List[FrameStats]] = None) -> None:
        self._stats: List[FrameStats] = stats if stats is not None else []
        self._blocks: List[
            Tuple[int, List[int], np.ndarray, np.ndarray, np.ndarray, bool]
        ] = []
        self._series_index: Optional[Dict[int, List[FrameStats]]] = None
        self._series_len: int = -1

    @property
    def stats(self) -> List[FrameStats]:
        """All per-(frame, user) stats, expanding pending cohort blocks."""
        if self._blocks:
            self._materialize()
        return self._stats

    def append_block(
        self,
        frame_index: int,
        user_ids: List[int],
        ssim: np.ndarray,
        psnr_db: np.ndarray,
        bytes_per_layer: np.ndarray,
        deadline_met: bool,
    ) -> None:
        """Append one frame's cohort outcome as arrays (row order = user).

        Equivalent to appending one :class:`FrameStats` per user in
        ``user_ids`` order, but stored columnar until somebody reads
        ``stats``.
        """
        self._blocks.append(
            (
                int(frame_index),
                list(user_ids),
                np.asarray(ssim, dtype=np.float64),
                np.asarray(psnr_db, dtype=np.float64),
                np.asarray(bytes_per_layer, dtype=np.float64),
                bool(deadline_met),
            )
        )

    def _materialize(self) -> None:
        for frame_index, user_ids, ssim, psnr, layer_bytes, met in self._blocks:
            for i, user in enumerate(user_ids):
                self._stats.append(
                    FrameStats(
                        frame_index=frame_index,
                        user_id=user,
                        ssim=float(ssim[i]),
                        psnr_db=float(psnr[i]),
                        bytes_received_per_layer=tuple(layer_bytes[i]),
                        deadline_met=met,
                    )
                )
        self._blocks.clear()

    def _ssim_column(self) -> np.ndarray:
        """Every SSIM sample without materializing pending blocks."""
        parts = [np.asarray([s.ssim for s in self._stats])] if self._stats else []
        parts.extend(block[2] for block in self._blocks)
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    @property
    def mean_ssim(self) -> float:
        column = self._ssim_column()
        if column.size == 0:
            return float("nan")
        return float(np.mean(column))

    @property
    def mean_psnr_db(self) -> float:
        parts = (
            [np.asarray([s.psnr_db for s in self._stats])] if self._stats else []
        )
        parts.extend(block[3] for block in self._blocks)
        if not parts:
            return float("nan")
        return float(np.mean(np.concatenate(parts)))

    def _per_user_index(self) -> Dict[int, List[FrameStats]]:
        """Frame-ordered per-user stats, rebuilt only when stats changed."""
        stats = self.stats
        if self._series_index is None or self._series_len != len(stats):
            index: Dict[int, List[FrameStats]] = {}
            for stat in stats:
                index.setdefault(stat.user_id, []).append(stat)
            for series in index.values():
                series.sort(key=lambda s: s.frame_index)
            self._series_index = index
            self._series_len = len(stats)
        return self._series_index

    def per_user_ssim(self) -> Dict[int, float]:
        """Mean SSIM per user."""
        index = self._per_user_index()
        return {
            u: float(np.mean([s.ssim for s in index[u]]))
            for u in sorted(index)
        }

    def ssim_series(self, user_id: int) -> List[float]:
        """Per-frame SSIM of one user, in frame order."""
        return [s.ssim for s in self._per_user_index().get(user_id, [])]

    def fingerprint(self) -> str:
        """A bit-exact, order-independent digest of the per-frame stats.

        Floats are hex-encoded before hashing, so two outcomes share a
        fingerprint iff every (frame, user) stat matches bitwise — the
        contract the chaos determinism check and the service layer's
        served-vs-in-process equivalence both assert.
        """
        rows = sorted(
            (
                s.frame_index,
                s.user_id,
                float(s.ssim).hex(),
                float(s.psnr_db).hex(),
                tuple(float(b).hex() for b in s.bytes_received_per_layer),
                s.deadline_met,
            )
            for s in self.stats
        )
        digest = hashlib.sha256(repr(rows).encode("utf-8"))
        return digest.hexdigest()


def frame_count(duration_s: float, fps: int) -> int:
    """Frames in ``duration_s`` seconds at ``fps``, rounded: 4.1 s at 30 fps
    is 123 frames, though ``4.1 * 30`` is a hair under 123."""
    return int(round(duration_s * fps))


def validate_seed(seed: Optional[int]) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces a non-deterministic generator; an int produces a
    deterministic one.  All stochastic components in the library accept a
    seed or generator through this helper so experiments are reproducible.
    """
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    if isinstance(seed, np.random.Generator):
        return seed
    raise ConfigurationError(f"seed must be None, int or Generator, got {type(seed)!r}")

"""Per-frame quality context for the scheduler.

The **scheduler** (Sec 2.4) evaluates the DNN ``Q(D_1..D_4)`` while
optimizing time allocation.  It needs the per-frame features that are
constant during the optimization — the cumulative per-layer SSIM values and
the blank-frame SSIM — bundled here as :class:`FrameFeatureContext`.

End-to-end emulation never uses the model for reported numbers — it decodes
the actual delivered sublayers and measures SSIM/PSNR directly, so reported
quality is not circular with the model the optimizer climbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import QualityModelError
from ..types import NUM_LAYERS
from ..video.dataset import FrameQualityProbe


@dataclass(frozen=True)
class FrameFeatureContext:
    """Static per-frame inputs of the quality model (features 5-9, Sec 2.3).

    Attributes:
        cumulative_ssim: SSIM when everything up to layer i is received,
            for i = 0..3.
        blank_ssim: SSIM of the blank frame against this frame.
        layer_sizes: Per-layer sizes in bytes (to normalise received data
            into the model's fraction features).
    """

    cumulative_ssim: Sequence[float]
    blank_ssim: float
    layer_sizes: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.cumulative_ssim) != NUM_LAYERS:
            raise QualityModelError(
                f"need {NUM_LAYERS} cumulative SSIM values, got "
                f"{len(self.cumulative_ssim)}"
            )
        if len(self.layer_sizes) != NUM_LAYERS:
            raise QualityModelError(
                f"need {NUM_LAYERS} layer sizes, got {len(self.layer_sizes)}"
            )
        if any(s <= 0 for s in self.layer_sizes):
            raise QualityModelError("layer sizes must be positive")

    @classmethod
    def from_probe(cls, probe: FrameQualityProbe) -> "FrameFeatureContext":
        """Build the context from an encoded frame probe."""
        return cls(
            cumulative_ssim=tuple(float(v) for v in probe.cumulative_ssim),
            blank_ssim=float(probe.blank_ssim),
            layer_sizes=tuple(probe.codec.structure.layer_sizes()),
        )

    def features_for_bytes(self, bytes_per_layer: np.ndarray) -> np.ndarray:
        """Assemble 9-feature rows from per-layer byte counts.

        Args:
            bytes_per_layer: Array ``(..., 4)`` of received bytes per layer.

        Returns:
            Array ``(..., 9)`` ready for the quality model.
        """
        amounts = np.asarray(bytes_per_layer, dtype=float)
        if amounts.shape[-1] != NUM_LAYERS:
            raise QualityModelError(
                f"last axis must be {NUM_LAYERS}, got {amounts.shape}"
            )
        fractions = np.clip(amounts / np.asarray(self.layer_sizes, dtype=float), 0, 1)
        static = np.asarray(self.static_features(), dtype=float)
        tiled = np.broadcast_to(static, fractions.shape[:-1] + (NUM_LAYERS + 1,))
        return np.concatenate([fractions, tiled], axis=-1)

    def static_features(self) -> List[float]:
        """Features 5-9 of a row: the four cumulative SSIMs, then the blank SSIM."""
        return [*self.cumulative_ssim, self.blank_ssim]


class FrameFeatureBatch:
    """``features_for_bytes`` for several users' contexts in one array op.

    Row ``k`` of :meth:`features_for_bytes` is bit for bit
    ``contexts[k].features_for_bytes(bytes_per_layer[k])``: the same division
    and clip for the fractions, the same static columns after them.  The
    Problem-1 ascent asks for a feature matrix at every gradient step, so the
    static columns are written once, here, and a call only refreshes the
    fractions.

    Attributes:
        layer_sizes: ``(n_contexts, 4)`` per-layer sizes in bytes, row ``k``
            from ``contexts[k]``.
    """

    def __init__(self, contexts: Sequence[FrameFeatureContext]) -> None:
        self.layer_sizes = np.vstack(
            [np.asarray(c.layer_sizes, dtype=float) for c in contexts]
        )
        self._rows = np.empty((len(contexts), 2 * NUM_LAYERS + 1))
        self._rows[:, NUM_LAYERS:] = [c.static_features() for c in contexts]

    def features_for_bytes(self, bytes_per_layer: np.ndarray) -> np.ndarray:
        """9-feature rows for ``(n_contexts, 4)`` received bytes per layer.

        The returned ``(n_contexts, 9)`` array is this batch's own buffer:
        the next call overwrites it.
        """
        self._rows[:, :NUM_LAYERS] = (bytes_per_layer / self.layer_sizes).clip(0, 1)
        return self._rows

"""Session adapter making the ABR baselines drop-in streamers.

The multicast system streams through ``MulticastStreamer.stream_trace``;
the DASH/MPC baselines historically went through the free function
:func:`repro.baselines.mpc.simulate_abr_session` with a different calling
convention.  :class:`AbrSession` wraps the baseline in the same
``stream_trace(trace, num_frames)`` session interface, so the emulation
harness can drive all four mobile-comparison approaches through one code
path (see :func:`repro.emulation.shard.run_session_sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..beamforming import SectorCodebook
from ..phy.channel import ChannelModel
from ..phy.csi import CsiTrace
from .abr import FreezeModel, RateQualityModel
from .mpc import AbrOutcome, simulate_abr_session


@dataclass
class AbrSession:
    """A live unicast DASH session bundle with the streamer interface.

    Args:
        controller_factory: Callable returning a fresh MPC controller given
            (ladder, quality) — e.g. ``RobustMpc`` or ``FastMpc``.
        channel_model: PHY for RSS/goodput computation.
        quality: Rate-quality model of the DASH encodings.
        freeze: GoP freeze model for missed deadlines.
        fps: Frame rate.
        rate_scale: Emulation link-rate divisor (must match the system's).
        codebook: Predefined sectors for the baseline's SLS beams.
        seed: Measurement-noise seed.
    """

    controller_factory: Callable
    channel_model: ChannelModel
    quality: RateQualityModel
    freeze: FreezeModel
    fps: int = 30
    rate_scale: float = 1.0
    codebook: Optional[SectorCodebook] = None
    seed: Optional[int] = 0

    def stream_trace(
        self, trace: CsiTrace, num_frames: Optional[int] = None
    ) -> AbrOutcome:
        """Stream ``num_frames`` frames over a recorded CSI trace."""
        if num_frames is None:
            num_frames = int(trace.duration_s * self.fps)
        return simulate_abr_session(
            self.controller_factory,
            trace,
            self.channel_model,
            self.quality,
            self.freeze,
            num_frames=int(num_frames),
            fps=self.fps,
            rate_scale=self.rate_scale,
            codebook=self.codebook,
            seed=self.seed,
        )

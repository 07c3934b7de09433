"""Robust MPC and Fast MPC bitrate adaptation (Yin et al., Sec 4.3.4).

Both controllers choose the next chunk's bitrate by maximising a QoE
objective over a lookahead horizon of ``n = 5`` chunks:

    QoE = sum_k [ q(b_k) - mu * rebuffer_k - sigma * |q(b_k) - q(b_{k-1})| ]

under a throughput prediction.  Fast MPC predicts with the harmonic mean of
recent samples; Robust MPC divides the prediction by ``1 + max recent
error`` (the robustness discount of the original paper).  Following the
table-enumeration trick of Fast MPC we search bitrate sequences that are
constant over the horizon — for a 12-rung ladder this is exact enough and
keeps per-chunk cost trivial.

:func:`simulate_abr_session` runs a full live unicast DASH session per user
over a CSI trace: each user owns a TDMA share of the air, downloads chunks
at its predefined-beam unicast goodput, and suffers GoP freezes when chunks
miss their live deadline.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..beamforming import GroupBeamPlanner, SectorCodebook
from ..errors import ConfigurationError
from ..phy.channel import ChannelModel
from ..phy.csi import CsiTrace
from ..transport.link import packet_error_rate
from ..types import (
    BeamformingScheme,
    FrameStats,
    OutcomeStats,
    validate_seed,
)
from .abr import BitrateLadder, FreezeModel, RateQualityModel

#: Lookahead horizon in chunks (the paper's n = 5).
HORIZON_CHUNKS = 5

#: Live chunk duration in seconds.
CHUNK_DURATION_S = 0.5

#: QoE weight of rebuffering time (per second).
REBUFFER_PENALTY = 8.0

#: QoE weight of quality switches.
SMOOTHNESS_PENALTY = 0.5

#: Throughput history window (samples).
HISTORY_WINDOW = 5


class _MpcBase:
    """Shared horizon search; subclasses differ only in the predictor."""

    name = "mpc"

    def __init__(self, ladder: BitrateLadder, quality: RateQualityModel):
        self.ladder = ladder
        self.quality = quality
        self._history: List[float] = []
        self._errors: List[float] = []
        self._last_prediction: Optional[float] = None
        self._last_bitrate: Optional[float] = None

    def observe_throughput(self, throughput_mbps: float) -> None:
        """Record a completed chunk's measured throughput."""
        throughput_mbps = max(throughput_mbps, 1e-6)
        if self._last_prediction is not None:
            error = abs(self._last_prediction - throughput_mbps) / throughput_mbps
            self._errors.append(error)
            self._errors = self._errors[-HISTORY_WINDOW:]
        self._history.append(throughput_mbps)
        self._history = self._history[-HISTORY_WINDOW:]

    def _harmonic_mean(self) -> float:
        if not self._history:
            return self.ladder.rates_mbps[0]
        values = np.asarray(self._history)
        return float(len(values) / np.sum(1.0 / values))

    def predict_throughput(self) -> float:
        """Subclasses implement the prediction rule."""
        raise NotImplementedError

    def choose_bitrate(self, buffer_s: float) -> float:
        """Pick the next chunk bitrate by maximising horizon QoE."""
        prediction = self.predict_throughput()
        self._last_prediction = prediction
        best_rate = self.ladder.rates_mbps[0]
        best_qoe = -np.inf
        previous_q = (
            self.quality.ssim_at(self._last_bitrate)
            if self._last_bitrate is not None
            else None
        )
        for rate in self.ladder.rates_mbps:
            qoe = 0.0
            buffer = buffer_s
            last_q = previous_q
            for _ in range(HORIZON_CHUNKS):
                download_s = rate * CHUNK_DURATION_S / max(prediction, 1e-6)
                rebuffer = max(0.0, download_s - CHUNK_DURATION_S - buffer)
                buffer = max(0.0, buffer + CHUNK_DURATION_S - download_s)
                q = self.quality.ssim_at(rate)
                qoe += q - REBUFFER_PENALTY * rebuffer
                if last_q is not None:
                    qoe -= SMOOTHNESS_PENALTY * abs(q - last_q)
                last_q = q
            if qoe > best_qoe:
                best_qoe = qoe
                best_rate = rate
        self._last_bitrate = best_rate
        return best_rate


class FastMpc(_MpcBase):
    """Fast MPC: harmonic-mean throughput prediction."""

    name = "fast_mpc"

    def predict_throughput(self) -> float:
        return self._harmonic_mean()


class RobustMpc(_MpcBase):
    """Robust MPC: harmonic mean discounted by the recent maximum error."""

    name = "robust_mpc"

    def predict_throughput(self) -> float:
        discount = 1.0 + (max(self._errors) if self._errors else 0.0)
        return self._harmonic_mean() / discount


class AbrOutcome(OutcomeStats):
    """Per-frame quality of an ABR session (comparable to StreamOutcome)."""


def simulate_abr_session(
    controller_factory,
    trace: CsiTrace,
    channel_model: ChannelModel,
    quality: RateQualityModel,
    freeze: FreezeModel,
    num_frames: int,
    fps: int = 30,
    rate_scale: float = 1.0,
    codebook: Optional[SectorCodebook] = None,
    seed: Optional[int] = 0,
) -> AbrOutcome:
    """Run live unicast DASH sessions for every user in a trace.

    Args:
        controller_factory: Callable returning a fresh MPC controller given
            (ladder, quality) — e.g. ``RobustMpc`` or ``FastMpc``.
        trace: Recorded channel trace (same one the multicast system used).
        channel_model: PHY for RSS/goodput computation.
        quality: Rate-quality model of the DASH encodings.
        freeze: GoP freeze model for missed deadlines.
        num_frames: Frames to stream.
        fps: Frame rate.
        rate_scale: Emulation link-rate divisor (must match the system's).
        codebook: Predefined sectors for the baseline's SLS beams.
        seed: Measurement-noise seed.

    Returns:
        Per-frame, per-user quality, directly comparable with the multicast
        system's :class:`repro.core.StreamOutcome`.
    """
    if num_frames <= 0:
        raise ConfigurationError("num_frames must be positive")
    validate_seed(seed)
    users = trace.user_ids()
    if not users:
        raise ConfigurationError("trace has no users")
    codebook = codebook or SectorCodebook(channel_model.array)
    planner = GroupBeamPlanner(
        channel_model.array,
        codebook,
        channel_model.budget,
        BeamformingScheme.PREDEFINED_UNICAST,
    )
    ladder = BitrateLadder(rate_scale=rate_scale)
    share = 1.0 / len(users)
    frames_per_chunk = max(1, int(round(CHUNK_DURATION_S * fps)))

    outcome = AbrOutcome()
    for user in users:
        controller = controller_factory(ladder, quality)
        buffer_s = 0.0
        last_decoded_frame = -1
        chunk_start = 0
        while chunk_start < num_frames:
            now = chunk_start / fps
            bitrate = controller.choose_bitrate(buffer_s)
            chunk_frames = min(frames_per_chunk, num_frames - chunk_start)
            chunk_s = chunk_frames / fps
            # The channel evolves *within* the chunk; the realised download
            # rate is the harmonic mean of the goodput over the window —
            # this is what punishes optimistic (Fast MPC) rate choices when
            # a fade starts mid-chunk.
            sample_times = np.arange(now, now + chunk_s, trace.beacon_interval_s)
            samples = [
                _user_goodput_mbps(
                    planner, trace, channel_model, user, float(t), rate_scale, share
                )
                for t in sample_times
            ]
            samples = [max(v, 1e-6) for v in samples] or [1e-6]
            throughput = len(samples) / float(np.sum(1.0 / np.asarray(samples)))
            download_s = bitrate * chunk_s / max(throughput, 1e-6)
            controller.observe_throughput(throughput)

            if download_s <= chunk_s + buffer_s:
                buffer_s = min(CHUNK_DURATION_S, buffer_s + chunk_s - download_s)
                decoded_through = chunk_start + chunk_frames - 1
            else:
                # Live deadline missed: the fraction of the chunk that
                # arrived in time decodes; the rest of the GoP freezes.
                usable = max(0.0, (chunk_s + buffer_s) / download_s)
                decoded_through = chunk_start + int(usable * chunk_frames) - 1
                buffer_s = 0.0

            chunk_quality = quality.ssim_at(bitrate)
            for frame in range(chunk_start, chunk_start + chunk_frames):
                if frame <= decoded_through:
                    frame_ssim = chunk_quality
                    last_decoded_frame = frame
                else:
                    gap = frame - last_decoded_frame if last_decoded_frame >= 0 else frame + 1
                    frame_ssim = freeze.ssim_at_gap(gap) * chunk_quality
                outcome.stats.append(
                    FrameStats(
                        frame_index=frame,
                        user_id=user,
                        ssim=float(np.clip(frame_ssim, 0.0, 1.0)),
                        psnr_db=quality.psnr_at(bitrate)
                        if frame <= decoded_through
                        else 10.0,
                        deadline_met=frame <= decoded_through,
                    )
                )
            chunk_start += chunk_frames
    return outcome


def _user_goodput_mbps(
    planner: GroupBeamPlanner,
    trace: CsiTrace,
    channel_model: ChannelModel,
    user: int,
    now_s: float,
    rate_scale: float,
    share: float,
) -> float:
    """The TDMA-shared unicast goodput a DASH user sees at time ``now``.

    Beam and MCS come from the *estimated* channel (what beam training saw);
    the packet success ratio comes from the *true* channel — the same
    estimated/true split the multicast system lives with.
    """
    snapshot = trace.at_time(now_s)
    plan = planner.plan_group(snapshot.estimated_state, [user])
    if plan.mcs is None:
        return 1e-3
    true_rss = channel_model.rss_dbm(
        plan.beam, snapshot.true_state.channels[user]
    )
    success = 1.0 - packet_error_rate(true_rss - plan.mcs.sensitivity_dbm)
    return float(plan.rate_mbps / rate_scale * success * share)

"""The end-to-end multicast streamer (system workflow of Fig 3).

:class:`MulticastStreamer` assembles the component bundle — codec,
codebook, beam planner, group enumerator, time-allocation optimizer and
transmitter — and streams traces by driving a
:class:`repro.core.pipeline.StreamSession` through the staged per-frame
pipeline.  Per beacon interval (100 ms) the session's ``Planner`` stage
re-optimizes (or, for the ``No Update`` baseline of Sec 4.3.4, applies the
configured :mod:`repro.core.policy` strategy); per video frame (33 ms) the
remaining stages fountain-encode, map the allocation onto coding units,
transmit with leaky-bucket pacing and feedback-driven makeup packets over
the true channels, then decode at every receiver and score SSIM/PSNR.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..beamforming import GroupBeamPlanner, SectorCodebook
from ..errors import ConfigurationError
from ..faults import FaultController
from ..fountain.block import symbol_size_for
from ..phy.channel import ChannelModel
from ..phy.csi import CsiTrace
from ..quality.curves import FrameFeatureContext
from ..quality.dnn import DNNQualityModel
from ..scheduling import (
    AllocationResult,
    GroupEnumerator,
    TimeAllocationOptimizer,
    round_robin_allocation,
)
from ..transport import CohortBandwidthEstimator, FrameTransmitter, LinkModel
from ..types import SchedulerKind, frame_count, validate_seed
from ..video.dataset import FrameQualityProbe
from ..video.jigsaw import JigsawCodec
from .config import SystemConfig
from .pipeline import PipelineStage, StreamOutcome, StreamSession
from .policy import AdaptationStrategy

__all__ = ["MulticastStreamer", "StreamOutcome"]

#: Narrow sectors of the predefined codebook (beside its 8 default wide ones).
CODEBOOK_BEAMS = 16
#: The one STA that is MAC-associated (Sec 3.2 pseudo multicast); the
#: others run in monitor mode.
ASSOCIATED_USER = 0


class MulticastStreamer:
    """Runs the full system over a CSI trace.

    Args:
        config: System configuration.
        quality_model: Trained DNN Q(.) for the allocation optimizer.
        probes: Encoded reference frames (cycled to form the live stream);
            all receivers watch the same video, as in the paper.
        channel_model: The PHY the trace was recorded against (supplies the
            link budget for RSS computation).
        seed: Loss/noise randomness seed.
    """

    def __init__(
        self,
        config: SystemConfig,
        quality_model: DNNQualityModel,
        probes: Sequence[FrameQualityProbe],
        channel_model: ChannelModel,
        seed: Optional[int] = 0,
    ) -> None:
        if not probes:
            raise ConfigurationError("need at least one reference frame probe")
        self.config = config
        self.quality_model = quality_model
        self.probes = list(probes)
        self.channel_model = channel_model
        self.rng = validate_seed(seed)

        self.codec = JigsawCodec(config.height, config.width)
        structure = self.codec.structure
        for probe in self.probes:
            if probe.codec.structure != structure:
                raise ConfigurationError(
                    "probe resolution does not match the configured codec"
                )
        self.symbol_size = symbol_size_for(structure)
        self.fountain_codec = config.fountain_codec

        array = channel_model.array
        self.codebook = SectorCodebook(array, num_beams=CODEBOOK_BEAMS)
        self.planner = GroupBeamPlanner(
            array,
            self.codebook,
            channel_model.budget,
            config.scheme,
            mcs_backoff_db=config.mcs_backoff_db,
        )
        self.enumerator = GroupEnumerator(
            self.planner,
            min_rate_mbps=config.min_group_rate_mbps,
            rate_scale=config.rate_scale,
            max_group_size=config.max_group_size,
        )
        self.optimizer = TimeAllocationOptimizer(
            quality_model,
            traffic_penalty_per_byte=config.traffic_penalty_per_byte,
        )
        self.transmitter = FrameTransmitter(
            link=LinkModel(channel_model, associated_user=ASSOCIATED_USER),
            rate_control=config.rate_control,
            source_coding=config.source_coding,
        )

    # ------------------------------------------------------------------ run

    def session(
        self,
        trace: CsiTrace,
        stages: Optional[Sequence[PipelineStage]] = None,
        strategy: Optional[AdaptationStrategy] = None,
        faults: Optional["FaultController"] = None,
    ) -> StreamSession:
        """A new staged session over ``trace`` (stage/strategy injectable)."""
        return StreamSession(
            self, trace, stages=stages, strategy=strategy, faults=faults
        )

    def stream_trace(
        self, trace: CsiTrace, num_frames: Optional[int] = None
    ) -> StreamOutcome:
        """Stream ``num_frames`` frames over a recorded CSI trace."""
        if num_frames is None:
            num_frames = frame_count(trace.duration_s, self.config.fps)
        return self.session(trace).run(int(num_frames))

    # ------------------------------------------------------------------ parts

    def _plan(
        self,
        estimated_state,
        users: List[int],
        contexts: Dict[int, FrameFeatureContext],
    ) -> AllocationResult:
        groups = self.enumerator.enumerate(estimated_state, users)
        if self.config.scheduler is SchedulerKind.ROUND_ROBIN:
            return round_robin_allocation(
                groups, contexts, self.config.plan_budget_s
            )
        return self.optimizer.optimize(groups, contexts, self.config.plan_budget_s)

    @staticmethod
    def _rate_limits(
        allocation: AllocationResult,
        estimator: CohortBandwidthEstimator,
        sent: Iterable[int],
    ) -> Dict[int, float]:
        """Pacing caps, from the previous frame's receiver feedback, of the
        groups a pass sends to: ``sent`` lists their positions in
        ``allocation.groups`` (each once); caps are keyed by group index,
        in ``sent``'s order.

        Estimates hold smoothed delivery fractions; a group's sustainable
        goodput is its least-served member's fraction x nominal MCS goodput
        (members without a measurement yet do not cap it).
        """
        groups = [allocation.groups[gi] for gi in sent]
        members = [g.user_ids for g in groups]
        sizes = np.fromiter(map(len, members), dtype=np.intp, count=len(groups))
        rows = estimator.rows([u for users in members for u in users])
        # One (groups, largest group) matrix of member estimates, NaN where
        # a member has no measurement or the group has no such member.
        filled = np.arange(sizes.max(initial=0)) < sizes[:, None]
        padded = np.full(filled.shape, np.nan)
        padded[filled] = estimator.estimates()[rows]
        floors = np.fmin.reduce(padded, axis=1, initial=np.nan)
        limits: Dict[int, float] = {}
        for gi in np.flatnonzero(~np.isnan(floors)).tolist():
            group = groups[gi]
            limits[group.index] = float(floors[gi]) * group.rate_bytes_per_s
        return limits

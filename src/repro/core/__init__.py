"""End-to-end live 4K multicast streaming system (paper Sec 3.1, Fig 3).

:class:`MulticastStreamer` runs the full per-frame pipeline on emulated
links: CSI fetch -> multicast beamforming -> group rates -> time-allocation
optimization -> fountain encoding -> packet scheduling -> paced transmission
with feedback/retransmission -> per-user decode -> SSIM/PSNR.

The per-frame loop itself is a staged session pipeline
(:mod:`repro.core.pipeline`): pluggable :class:`PipelineStage` objects
driven by a :class:`StreamSession`, one stage list at every AP count, with
beacon-boundary adaptation delegated to :mod:`repro.core.policy`
strategies and cross-AP repair in :mod:`repro.core.repair`.
"""

from .config import SystemConfig
from .pipeline import (
    CodingGroupMapper,
    FeedbackUpdater,
    FrameContext,
    FrameEncoder,
    PipelineStage,
    Planner,
    Scorer,
    SessionState,
    StreamOutcome,
    StreamSession,
    Transmitter,
)
from .policy import (
    AdaptationStrategy,
    BeamTrackingStrategy,
    FrozenStrategy,
    RealtimeUpdateStrategy,
    strategy_for,
)
from .streamer import MulticastStreamer

__all__ = [
    "SystemConfig",
    "MulticastStreamer",
    "StreamOutcome",
    "StreamSession",
    "SessionState",
    "FrameContext",
    "PipelineStage",
    "Planner",
    "FrameEncoder",
    "CodingGroupMapper",
    "Transmitter",
    "FeedbackUpdater",
    "Scorer",
    "AdaptationStrategy",
    "RealtimeUpdateStrategy",
    "BeamTrackingStrategy",
    "FrozenStrategy",
    "strategy_for",
]

"""repro — reproduction of "Optimized Live 4K Video Multicast Streaming on
Commodity WiGig Devices" (ICDCS 2024).

A from-scratch Python implementation of the paper's entire system:

* a Jigsaw-style layered 4K video codec and synthetic video corpus
  (:mod:`repro.video`),
* the DNN video-quality model and its Table 1 baselines
  (:mod:`repro.quality`),
* a 60 GHz PHY substrate — phased arrays, image-method ray tracing, the
  QCA6320 MCS table, mobility and CSI estimation (:mod:`repro.phy`),
* the four beamforming schemes including SVD-seeded max-min multicast
  beams (:mod:`repro.beamforming`),
* a GF(256) fountain code with RaptorQ's overhead-failure property
  (:mod:`repro.fountain`),
* the Problem-1 time-allocation optimizer and Problem-4 coding-group
  greedy plus the round-robin baseline (:mod:`repro.scheduling`),
* packet transport with per-group paced rate control, pseudo multicast
  and sublayer feedback (:mod:`repro.transport`),
* the end-to-end multicast streamer (:mod:`repro.core`),
* Robust/Fast MPC DASH baselines (:mod:`repro.baselines`), and
* the emulation harness regenerating every table and figure
  (:mod:`repro.emulation`).

Quickstart::

    from repro.emulation import build_context, run_beamforming_comparison

    ctx = build_context()
    results = run_beamforming_comparison(ctx, num_users=2, placement=("arc", 3, 60))
"""

from .core import MulticastStreamer, StreamOutcome, SystemConfig
from .errors import ReproError
from .types import (
    AdaptationPolicy,
    BeamformingScheme,
    Richness,
    SchedulerKind,
)

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "MulticastStreamer",
    "StreamOutcome",
    "ReproError",
    "BeamformingScheme",
    "SchedulerKind",
    "AdaptationPolicy",
    "Richness",
    "__version__",
]

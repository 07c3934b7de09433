"""The four named workloads: what runs, how much of it, and from which seeds.

Frame counts are fixed per workload — never time-boxed — so both sides of a
later comparison do the same work.  They were sized on a 2-core host so
that the measured part of one run lasts about :data:`SIZING_SECONDS`;
``--seconds`` scales them in proportion.  A run streams a few long sessions
(one placement each), every one warmed up until the probes' mask memo is
in steady state: placement decides the MCS mix and with it the frame time,
so one placement per run would make seeds disagree by more than any useful
bound, and every session contributes one set-up sample to ``setup_s``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

#: Per-workload SSIM floors live beside the bounds, in ``bounds.json``.
with (Path(__file__).resolve().parent / "bounds.json").open(encoding="utf-8") as _fh:
    SSIM_FLOOR: Dict[str, float] = json.load(_fh)["ssim_floor"]

#: ``--seconds`` value the base frame counts below were sized for.
SIZING_SECONDS = 10

#: Frames between replans (beacon 100 ms at 30 fps); measured frame counts
#: are kept a multiple of it so every session sees whole beacon periods.
FRAMES_PER_BEACON = 3

#: All session workloads place receivers on this arc (distance m, MAS deg).
ARC = (5.0, 60.0)

#: Streamer-seed offset within a run, the sweep engine's and the service
#: layer's constant, so a benchmark session matches a served one.
STREAMER_SEED_OFFSET = 7


@dataclass(frozen=True)
class SessionInputs:
    """Seeds of one session, all generated from ``--seed``."""

    placement_seed: int
    trace_seed: int
    streamer_seed: int


def session_inputs(seed: int, session_index: int) -> SessionInputs:
    base = seed * 100 + session_index
    return SessionInputs(
        placement_seed=base,
        trace_seed=base + 1,
        streamer_seed=base + STREAMER_SEED_OFFSET,
    )


@dataclass(frozen=True)
class SessionWorkload:
    """A workload that drives ``StreamSession``s in this process."""

    name: str
    why: str
    users: int
    sessions: int
    warmup_frames: int
    measured_frames: int
    ssim_floor: float
    #: ``overrides(base_config, inputs)`` -> typed ``SystemConfig`` kwargs.
    overrides: Callable[[Any, SessionInputs], Dict[str, Any]]

    def sized(self, seconds: float, smoke: bool) -> "SessionWorkload":
        """This workload at ``--seconds`` (or at ``--smoke`` size)."""
        if smoke:
            return replace(
                self, sessions=2, warmup_frames=FRAMES_PER_BEACON,
                measured_frames=2 * FRAMES_PER_BEACON,
            )
        beacons = round(
            self.measured_frames * seconds / SIZING_SECONDS / FRAMES_PER_BEACON
        )
        return replace(self, measured_frames=FRAMES_PER_BEACON * max(1, beacons))


@dataclass(frozen=True)
class ServeWorkload:
    """The service workload: a real server process under open-loop load."""

    name: str
    why: str
    sessions: int
    users: int
    feedback_hz: float
    warmup_s: float
    measured_s: float
    probe_s: float
    setup_repeats: int
    timeout_s: float
    ssim_floor: float

    def sized(self, seconds: float, smoke: bool) -> "ServeWorkload":
        if smoke:
            return replace(
                self, warmup_s=1.0, measured_s=3.0, probe_s=1.0, setup_repeats=1
            )
        scale = seconds / SIZING_SECONDS
        return replace(
            self,
            warmup_s=self.warmup_s * scale,
            measured_s=float(seconds),
            probe_s=self.probe_s * scale,
        )


def _default_config(base_config: Any, inputs: SessionInputs) -> Dict[str, Any]:
    return {}


def _repair2ap_precode(base_config: Any, inputs: SessionInputs) -> Dict[str, Any]:
    from repro.phy.topology import TopologyConfig

    return {
        "fountain_codec": "precode",
        "topology": TopologyConfig(num_aps=2),
        # bench_multi_ap's deep-blockage base, schedule seed included: the
        # blockage realization decides how many frames take the repair
        # path, so a schedule drawn per seed moved frame_ms_p50 by 30 %
        # between seeds.  Placement, channel and loss still vary.
        "faults": replace(
            base_config.faults,
            seed=11,
            blockage_rate_hz=6.0,
            blockage_duration_s=0.25,
            blockage_depth_db=25.0,
        ),
    }


def _crowd1000_rr(base_config: Any, inputs: SessionInputs) -> Dict[str, Any]:
    from repro.types import BeamformingScheme, SchedulerKind

    # bench_scale_users' overrides, typed: /start overrides cannot carry
    # max_group_size (parse_config_overrides leaves it a string).
    return {
        "max_group_size": 2,
        "scheme": BeamformingScheme.PREDEFINED_MULTICAST,
        "scheduler": SchedulerKind.ROUND_ROBIN,
    }


LIVE4_DENSE = SessionWorkload(
    name="live4_dense",
    why="4 receivers, default config: the paper's operating point; Planner "
        "dominates, Transmitter and Scorer take the cohort fast path",
    users=4, sessions=4, warmup_frames=30, measured_frames=45,
    ssim_floor=SSIM_FLOOR["live4_dense"], overrides=_default_config,
)

REPAIR2AP_PRECODE = SessionWorkload(
    name="repair2ap_precode",
    why="same 4 receivers, precode codec, 2 APs, blockage faults: per-user "
        "decoders and cross-AP repair, everything that leaves the fast path",
    users=4, sessions=4, warmup_frames=30, measured_frames=45,
    ssim_floor=SSIM_FLOOR["repair2ap_precode"], overrides=_repair2ap_precode,
)

CROWD1000_RR = SessionWorkload(
    name="crowd1000_rr",
    why="1000 receivers, round-robin, groups of 2: working set 250x larger; "
        "trace recording, mapper and the linear planner branch matter",
    users=1000, sessions=2, warmup_frames=12, measured_frames=30,
    ssim_floor=SSIM_FLOOR["crowd1000_rr"], overrides=_crowd1000_rr,
)

SERVE2X4 = ServeWorkload(
    name="serve2x4",
    why="repro-wigig serve subprocess, 2 sessions x 4 receivers, open-loop "
        "feedback: the only workload where frames share a loop with control",
    sessions=2, users=4, feedback_hz=20.0, warmup_s=3.0, measured_s=10.0,
    probe_s=5.0, setup_repeats=3, timeout_s=10.0, ssim_floor=SSIM_FLOOR["serve2x4"],
)

WORKLOADS: Tuple[Any, ...] = (LIVE4_DENSE, REPAIR2AP_PRECODE, CROWD1000_RR, SERVE2X4)
BY_NAME = {workload.name: workload for workload in WORKLOADS}

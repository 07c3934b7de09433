"""Channel-adaptation strategies for the session pipeline (Sec 4.3.4).

The per-beacon branch of the old monolithic streamer — replan in real time,
keep only firmware beam tracking, or freeze everything at t=0 — lives here
as three small strategy objects behind one :class:`AdaptationStrategy`
interface.  Whenever a beacon boundary passes, the pipeline's ``Planner``
stage hands the strategy each AP's allocation together with that AP's view
of the estimated channels (``estimated.for_ap(ap)``), at every AP count;
the strategy decides whether that means a fresh plan (every user
re-associated, every AP replanned), a firmware sector re-alignment, or
nothing at all.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

import numpy as np

from ..scheduling import AllocationResult, CandidateGroup
from ..types import AdaptationPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..beamforming import SectorCodebook
    from ..phy.channel import ChannelModel, ChannelState
    from .config import SystemConfig
    from .pipeline import StreamSession


@runtime_checkable
class AdaptationStrategy(Protocol):
    """What a session does at each beacon boundary after the initial plan.

    Both hooks are asked once per AP that serves someone, with that AP's
    allocation and its own estimated channels.
    """

    name: str

    def on_beacon(
        self,
        session: "StreamSession",
        allocation: AllocationResult,
        estimated_state: "ChannelState",
    ) -> Optional[AllocationResult]:
        """Return the allocation this AP carries forward from this beacon
        on, or ``None`` for a fresh plan: every user re-associated and
        every AP replanned from this beacon's estimate."""
        ...

    def on_beacon_lost(
        self,
        session: "StreamSession",
        allocation: AllocationResult,
        stale_estimated_state: Optional["ChannelState"],
    ) -> AllocationResult:
        """Graceful degradation once the beacon-retry budget is exhausted.

        Called with the *last successfully received* estimated state of
        this AP (or ``None`` when even the initial one is gone); must
        return the allocation to limp along with until the next beacon
        boundary.  The association is kept.
        """
        ...


class RealtimeUpdateStrategy:
    """Re-associate and re-solve beams, rates and the time allocation of
    every AP every beacon."""

    name = "realtime_update"

    def on_beacon(
        self,
        session: "StreamSession",
        allocation: AllocationResult,
        estimated_state: "ChannelState",
    ) -> None:
        """Nothing is adapted in place: every beacon is a fresh plan."""
        return None

    def on_beacon_lost(
        self,
        session: "StreamSession",
        allocation: AllocationResult,
        stale_estimated_state: Optional["ChannelState"],
    ) -> AllocationResult:
        """Without fresh CSI there is nothing to re-solve against: keep the
        last-known-good allocation (rate-limit decay and feedback rounds
        still adapt the send rate underneath it)."""
        return allocation


class BeamTrackingStrategy:
    """No Update, but with the NIC's autonomous sector tracking.

    "No Update" freezes the association, schedule, groups, MCS, time
    allocation and the *optimized* beam weights at t=0 — but 802.11ad NICs
    autonomously keep a codebook sector aligned (mandatory beam tracking),
    so each group falls back to the best predefined sector for its members,
    against its own AP's channels.
    """

    name = "no_update"

    def on_beacon(
        self,
        session: "StreamSession",
        allocation: AllocationResult,
        estimated_state: "ChannelState",
    ) -> AllocationResult:
        return self.retrack_beams(
            session.streamer.codebook,
            session.streamer.channel_model,
            allocation,
            estimated_state,
        )

    def on_beacon_lost(
        self,
        session: "StreamSession",
        allocation: AllocationResult,
        stale_estimated_state: Optional["ChannelState"],
    ) -> AllocationResult:
        """The NIC's sector tracking is local to the radios — it keeps
        running without AP-side beacons, so re-track against the freshest
        estimate we ever had (or keep everything if there is none)."""
        if stale_estimated_state is None:
            return allocation
        return self.on_beacon(session, allocation, stale_estimated_state)

    @staticmethod
    def retrack_beams(
        codebook: "SectorCodebook",
        channel_model: "ChannelModel",
        allocation: AllocationResult,
        estimated_state,
    ) -> AllocationResult:
        """Firmware-level sector re-alignment for the No-Update baseline.

        Replaces each group's (stale) beam with the best *predefined
        codebook sector* for its members — what the NIC's autonomous beam
        tracking maintains — without touching MCS, groups or allocation.
        """
        new_groups = []
        for group in allocation.groups:
            try:
                channels = [
                    estimated_state.channels[u] for u in group.user_ids
                ]
                gains = codebook.gains_multi(list(channels))
                sector = codebook.beam(int(np.argmax(gains.min(axis=1))))
                sector_gain = min(
                    channel_model.array.beam_gain(sector, h) for h in channels
                )
                frozen_gain = min(
                    channel_model.array.beam_gain(group.plan.beam, h)
                    for h in channels
                )
                # Firmware switches sectors only when the tracked sector
                # beats the currently configured beam.
                if sector_gain > frozen_gain:
                    new_groups.append(
                        CandidateGroup(
                            group.index,
                            dc_replace(group.plan, beam=sector),
                            group.rate_scale,
                        )
                    )
                else:
                    new_groups.append(group)
            except KeyError:
                new_groups.append(group)
        return AllocationResult(
            groups=new_groups,
            time_s=allocation.time_s,
            bytes_allocated=allocation.bytes_allocated,
            per_user_bytes=allocation.per_user_bytes,
            predicted_quality=allocation.predicted_quality,
        )


class FrozenStrategy:
    """No Update with beam tracking disabled: everything stays at t=0."""

    name = "no_update_frozen"

    def on_beacon(
        self,
        session: "StreamSession",
        allocation: AllocationResult,
        estimated_state: "ChannelState",
    ) -> AllocationResult:
        return allocation

    def on_beacon_lost(
        self,
        session: "StreamSession",
        allocation: AllocationResult,
        stale_estimated_state: Optional["ChannelState"],
    ) -> AllocationResult:
        """Frozen is frozen: a lost beacon changes nothing."""
        return allocation


def strategy_for(config: "SystemConfig") -> AdaptationStrategy:
    """The strategy object a config's adaptation knobs select."""
    if config.adaptation is AdaptationPolicy.REALTIME_UPDATE:
        return RealtimeUpdateStrategy()
    if config.no_update_beam_tracking:
        return BeamTrackingStrategy()
    return FrozenStrategy()

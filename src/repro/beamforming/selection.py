"""Scheme-aware beam and rate selection per multicast group.

Glues beamforming to the scheduler: for every candidate multicast group the
planner computes the transmit beam according to the active scheme, evaluates
the per-user RSS through the (estimated) channels, takes the group minimum —
the bottleneck user limits the multicast rate — and maps it to the UDP
throughput of the highest decodable MCS (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BeamformingError
from ..phy.antenna import PhasedArray
from ..phy.channel import ChannelState, LinkBudget
from ..phy.mcs import McsEntry, highest_supported_mcs
from ..types import BeamformingScheme
from .codebook import SectorCodebook
from .multicast import max_min_multicast_beams, per_user_gains


@dataclass(frozen=True)
class BeamPlan:
    """The transmission plan for one multicast group.

    Attributes:
        user_ids: Group members.
        beam: Transmit weights (unit norm).
        per_user_rss_dbm: RSS each member would see under this beam.
        min_rss_dbm: Bottleneck RSS (sets the group MCS).
        mcs: Selected MCS entry, or None when the group is unreachable.
        rate_mbps: UDP goodput at the selected MCS (0 when unreachable).
    """

    user_ids: Tuple[int, ...]
    beam: np.ndarray
    per_user_rss_dbm: Dict[int, float]
    min_rss_dbm: float
    mcs: Optional[McsEntry]
    rate_mbps: float


class GroupBeamPlanner:
    """Computes beams and rates for candidate groups under one scheme.

    Args:
        array: AP phased array.
        codebook: Predefined sector codebook (used by the PREDEFINED
            schemes).
        budget: Link budget for gain -> RSS conversion.
        scheme: Which of the four Sec 4.2.1 beamforming schemes to apply.
    """

    def __init__(
        self,
        array: PhasedArray,
        codebook: SectorCodebook,
        budget: LinkBudget,
        scheme: BeamformingScheme = BeamformingScheme.OPTIMIZED_MULTICAST,
        mcs_backoff_db: float = 2.0,
    ) -> None:
        self.array = array
        self.codebook = codebook
        self.budget = budget
        self.scheme = scheme
        # Select the MCS against RSS minus this margin: CSI estimation error
        # and mid-beacon fading mean the true RSS sits below the estimate,
        # and PER is brutal below sensitivity.  Real rate adaptation backs
        # off the same way.
        self.mcs_backoff_db = float(mcs_backoff_db)

    @property
    def allows_multiuser_groups(self) -> bool:
        """Unicast schemes restrict candidate groups to singletons."""
        return self.scheme in (
            BeamformingScheme.OPTIMIZED_MULTICAST,
            BeamformingScheme.PREDEFINED_MULTICAST,
        )

    def beam_for_group(self, channels: Sequence[np.ndarray]) -> np.ndarray:
        """Compute the scheme's transmit beam for a group of channels."""
        return self.beams_for_groups([channels])[0]

    def beams_for_groups(
        self, channel_groups: Sequence[Sequence[np.ndarray]]
    ) -> List[np.ndarray]:
        """The scheme's transmit beam for each group of channels."""
        for channels in channel_groups:
            if not len(channels):
                raise BeamformingError("empty group")
            if not self.allows_multiuser_groups and len(channels) > 1:
                raise BeamformingError(
                    f"scheme {self.scheme.value} only supports singleton groups"
                )
        if self.scheme in (
            BeamformingScheme.OPTIMIZED_MULTICAST,
            BeamformingScheme.OPTIMIZED_UNICAST,
        ):
            return max_min_multicast_beams(self.array, channel_groups)
        return [
            self.codebook.beam(k)
            for k in self.codebook.best_min_gain_beams(channel_groups)
        ]

    def plan_group(
        self, state: ChannelState, user_ids: Sequence[int]
    ) -> BeamPlan:
        """Beam + RSS + MCS + rate for one candidate group."""
        return self.plan_groups(state, [user_ids])[0]

    def plan_groups(
        self, state: ChannelState, groups: Sequence[Sequence[int]]
    ) -> List[BeamPlan]:
        """Beam + RSS + MCS + rate for each candidate group.

        ``state`` should carry the AP's *estimated* channels — the beam is
        chosen from what the AP believes, exactly as in the real system.
        All groups' beams are synthesised in one call; a group's plan does
        not depend on which other groups it is planned with.
        """
        ordered = [tuple(sorted(g)) for g in groups]
        channel_groups = [[state.channels[u] for u in users] for users in ordered]
        beams = self.beams_for_groups(channel_groups)
        plans = []
        for users, beam, channels in zip(ordered, beams, channel_groups):
            gains = per_user_gains(beam, channels)
            rss = {u: self.budget.rss_dbm(float(g)) for u, g in zip(users, gains)}
            min_rss = min(rss.values())
            mcs = highest_supported_mcs(min_rss - self.mcs_backoff_db)
            plans.append(
                BeamPlan(
                    user_ids=users,
                    beam=beam,
                    per_user_rss_dbm=rss,
                    min_rss_dbm=min_rss,
                    mcs=mcs,
                    rate_mbps=float(mcs.udp_throughput_mbps) if mcs else 0.0,
                )
            )
        return plans

"""Scheme-aware beam and rate selection per multicast group.

Glues beamforming to the scheduler: for every candidate multicast group the
planner computes the transmit beam according to the active scheme, evaluates
the per-user RSS through the (estimated) channels, takes the group minimum —
the bottleneck user limits the multicast rate — and maps it to the UDP
throughput of the highest decodable MCS (Table 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BeamformingError
from ..phy.antenna import PhasedArray
from ..phy.channel import ChannelState, LinkBudget
from ..phy.mcs import (
    MCS_BY_LEVEL,
    RATE_BY_LEVEL_MBPS,
    McsEntry,
    supported_mcs_levels,
)
from ..types import BeamformingScheme
from .codebook import SectorCodebook
from .multicast import max_min_multicast_beams


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


@dataclass
class PlannedBlock:
    """Plans of equal-size groups as arrays, one row per group.

    Attributes:
        members: ``(groups, size)`` user ids, each row ascending.
        beams: Each group's transmit beam.
        rss_dbm: ``(groups, size)`` RSS of each member under its beam.
        levels: ``(groups,)`` Table-2 levels of the bottleneck RSS after
            the MCS backoff (see :data:`repro.phy.mcs.MCS_BY_LEVEL`).
        sectors: ``(groups,)`` codebook index of each beam under the
            PREDEFINED schemes; None when the beams are synthesised.
    """

    members: np.ndarray
    beams: List[np.ndarray]
    rss_dbm: np.ndarray
    levels: np.ndarray
    sectors: Optional[np.ndarray]

    @property
    def rate_mbps(self) -> np.ndarray:
        """``(groups,)`` UDP goodput at each group's MCS."""
        return RATE_BY_LEVEL_MBPS[self.levels]

    def plan(self, row: int) -> BeamPlan:
        """The :class:`BeamPlan` of group ``row``."""
        user_ids = tuple(self.members[row].tolist())
        rss = self.rss_dbm[row].tolist()
        level = int(self.levels[row])
        return BeamPlan(
            user_ids=user_ids,
            beam=self.beams[row],
            per_user_rss_dbm=dict(zip(user_ids, rss)),
            min_rss_dbm=min(rss),
            mcs=MCS_BY_LEVEL[level],
            rate_mbps=float(RATE_BY_LEVEL_MBPS[level]),
        )


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

    def plan_group(
        self, state: ChannelState, user_ids: Sequence[int]
    ) -> BeamPlan:
        """Beam + RSS + MCS + rate for one candidate group."""
        return self.plan_groups(state, [user_ids])[0]

    def plan_groups(
        self, state: ChannelState, groups: Sequence[Sequence[int]]
    ) -> List[BeamPlan]:
        """Beam + RSS + MCS + rate for each candidate group, in order.

        ``state`` should carry the AP's *estimated* channels — the beam is
        chosen from what the AP believes, exactly as in the real system.
        Groups of one size form one :meth:`plan_blocks` block.
        """
        ordered = [tuple(sorted(g)) for g in groups]
        by_size: Dict[int, List[int]] = {}
        for gi, members in enumerate(ordered):
            by_size.setdefault(len(members), []).append(gi)
        users = np.array(sorted({u for members in ordered for u in members}))
        blocks = self.plan_blocks(
            users,
            self.channel_matrix(state, users),
            [
                np.searchsorted(users, [ordered[gi] for gi in positions])
                for positions in by_size.values()
            ],
        )
        plans: List[BeamPlan] = [None] * len(ordered)  # type: ignore[list-item]
        for positions, block in zip(by_size.values(), blocks):
            for row, gi in enumerate(positions):
                plans[gi] = block.plan(row)
        return plans

    def channel_matrix(self, state: ChannelState, users: np.ndarray) -> np.ndarray:
        """The ``(len(users), Nt)`` channels of ``users``, in order."""
        elements = self.array.num_elements
        channels = np.array(
            [state.channels[u] for u in users.tolist()] or np.empty((0, elements)),
            dtype=complex,
        )
        if channels.shape != (len(users), elements):
            raise BeamformingError(
                f"channels must have {elements} elements, got shape {channels.shape}"
            )
        return channels

    def plan_blocks(
        self,
        users: np.ndarray,
        channels: np.ndarray,
        blocks: Sequence[np.ndarray],
    ) -> List[PlannedBlock]:
        """Beam, per-member RSS and MCS level of every group, as arrays.

        ``users`` are ids, ascending, and ``channels`` their
        :meth:`channel_matrix`; each block is a ``(groups, size)`` array of
        row indices into both, rows ascending.

        Each block's channels are one ``(groups, size, Nt)`` stack taken
        from the matrix.  Codebook schemes pick each beam from one
        :meth:`SectorCodebook.gains_stacked` product per block and read the
        members' gains from its column at that beam; optimised schemes
        synthesise every group's beam in one :func:`max_min_multicast_beams`
        call and take the members' gains from one stacked ``(groups, 1,
        Nt) @ (groups, Nt, size)`` product per block.  Every group is its
        own product in a stack, so a group's plan does not depend on the
        groups planned with it.
        """
        for rows in blocks:
            if rows.ndim != 2 or rows.shape[1] == 0:
                raise BeamformingError("empty group")
            if rows.shape[1] > 1 and not self.allows_multiuser_groups:
                raise BeamformingError(
                    f"scheme {self.scheme.value} only supports singleton groups"
                )
        stacks = [channels[rows] for rows in blocks]
        optimised = self.scheme in (
            BeamformingScheme.OPTIMIZED_MULTICAST,
            BeamformingScheme.OPTIMIZED_UNICAST,
        )
        if optimised:
            synthesised = iter(max_min_multicast_beams(self.array, stacks))
        else:
            codebook_rows = list(self.codebook.beams)
        planned = []
        for rows, stack in zip(blocks, stacks):
            if optimised:
                beams = list(itertools.islice(synthesised, len(stack)))
                weights = np.array(beams).reshape(len(stack), 1, stack.shape[2])
                gains = np.abs((weights.conj() @ stack.transpose(0, 2, 1))[:, 0]) ** 2
                sectors = None
            else:
                sectors, gains = self.codebook.best_min_gain_beams(stack)
                beams = [codebook_rows[k] for k in sectors.tolist()]
            rss = self.budget.rss_dbm_array(gains)
            levels = supported_mcs_levels(rss.min(axis=1) - self.mcs_backoff_db)
            planned.append(PlannedBlock(users[rows], beams, rss, levels, sectors))
        return planned

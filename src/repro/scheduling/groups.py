"""Candidate multicast-group enumeration (Sec 2.4).

"For N clients, we enumerate all possible user groups ... We omit the groups
whose throughput is below a threshold to speed up computation."

We enumerate every non-empty subset up to ``exhaustive_max_users`` clients.
Beyond that, exhaustive enumeration (2^N - 1 beams per beacon) is too slow
even for the paper's few-millisecond budget, so we restrict to subsets that
are *contiguous in azimuth*: a single phased-array beam pattern covers an
angular sector, so the only groups a beam can serve efficiently are angular
neighbours.  Singleton groups are always included, guaranteeing every user
remains reachable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..beamforming.selection import BeamPlan, GroupBeamPlanner
from ..errors import SchedulingError
from ..phy.channel import ChannelState


@dataclass(frozen=True)
class CandidateGroup:
    """One candidate multicast group with its beam plan.

    Attributes:
        index: Stable index within this enumeration (used by the packet
            scheduler's "increasing order of group id" greedy).
        plan: Beam, per-user RSS, MCS, and rate.
        rate_scale: Divisor applied to the MCS rate.  The paper streams true
            4K; emulation at reduced resolution divides link rates by the
            pixel ratio (e.g. 4K/512x288 = 56.25) so the data-to-rate regime
            — and therefore every scheduling/beamforming trade-off — matches
            the 4K system while frames stay cheap to decode.
    """

    index: int
    plan: BeamPlan
    rate_scale: float = 1.0

    @property
    def user_ids(self) -> Tuple[int, ...]:
        """Members of the group."""
        return self.plan.user_ids

    @property
    def rate_mbps(self) -> float:
        """Group UDP goodput (bottleneck user's MCS), after scaling."""
        return self.plan.rate_mbps / self.rate_scale

    @cached_property
    def rate_bytes_per_s(self) -> float:
        """Group goodput in bytes per second, after scaling (computed once:
        the round-robin split, the pacing caps and the transmitter all read
        it every frame)."""
        return self.rate_mbps * 1e6 / 8.0


class GroupEnumerator:
    """Enumerates and prunes candidate groups for one channel snapshot.

    Args:
        planner: Scheme-aware beam/rate planner.
        min_rate_mbps: Throughput threshold below which groups are dropped
            (the paper's pruning).  Singletons are kept even below the
            threshold so no user is ever orphaned.
        exhaustive_max_users: Enumerate all subsets up to this many clients;
            above it, only azimuth-contiguous subsets.
        max_group_size: Optional cap on group membership.  ``None`` keeps
            the unbounded enumeration; a cap bounds the azimuth-window
            candidate count to O(N x cap), which is what keeps planning
            linear for thousand-receiver cohort runs.
    """

    def __init__(
        self,
        planner: GroupBeamPlanner,
        min_rate_mbps: float = 200.0,
        exhaustive_max_users: int = 4,
        rate_scale: float = 1.0,
        max_group_size: Optional[int] = None,
    ) -> None:
        if min_rate_mbps < 0:
            raise SchedulingError(f"min_rate_mbps must be >= 0, got {min_rate_mbps}")
        if rate_scale <= 0:
            raise SchedulingError(f"rate_scale must be positive, got {rate_scale}")
        if max_group_size is not None and max_group_size < 2:
            raise SchedulingError(
                f"max_group_size must be at least 2, got {max_group_size}"
            )
        self.planner = planner
        self.min_rate_mbps = float(min_rate_mbps)
        self.exhaustive_max_users = int(exhaustive_max_users)
        self.rate_scale = float(rate_scale)
        self.max_group_size = max_group_size

    def enumerate(
        self, state: ChannelState, user_ids: Sequence[int]
    ) -> List[CandidateGroup]:
        """All kept candidate groups, singletons first then by size."""
        users = sorted(user_ids)
        if not users:
            raise SchedulingError("need at least one user")
        subsets: List[Tuple[int, ...]] = [(u,) for u in users]
        if self.planner.allows_multiuser_groups and len(users) > 1:
            subsets.extend(self._multiuser_subsets(state, users))

        plans = self.planner.plan_groups(state, subsets)
        groups: List[CandidateGroup] = []
        for plan in plans:
            if plan.rate_mbps <= 0.0:
                continue
            if len(plan.user_ids) > 1 and plan.rate_mbps < self.min_rate_mbps:
                continue
            groups.append(
                CandidateGroup(
                    index=len(groups), plan=plan, rate_scale=self.rate_scale
                )
            )
        if not groups:
            # Degenerate snapshot (all users below every data MCS): keep the
            # least-bad singleton so upper layers can degrade gracefully.
            least_bad = max(
                (p for p in plans if len(p.user_ids) == 1),
                key=lambda p: p.min_rss_dbm,
            )
            groups.append(
                CandidateGroup(index=0, plan=least_bad, rate_scale=self.rate_scale)
            )
        return groups

    def _multiuser_subsets(
        self, state: ChannelState, users: List[int]
    ) -> List[Tuple[int, ...]]:
        cap = self.max_group_size or len(users)
        subsets: List[Tuple[int, ...]] = []
        if len(users) <= self.exhaustive_max_users:
            for size in range(2, min(len(users), cap) + 1):
                subsets.extend(itertools.combinations(users, size))
            return subsets
        ordered = self._sort_by_azimuth(state, users)
        for start in range(len(ordered)):
            stop = min(len(ordered), start + cap)
            for end in range(start + 2, stop + 1):
                subsets.append(tuple(sorted(ordered[start:end])))
        return sorted(set(subsets), key=lambda s: (len(s), s))

    def _sort_by_azimuth(self, state: ChannelState, users: List[int]) -> List[int]:
        """Order users by the pointing angle of their best codebook sector."""
        codebook = self.planner.codebook
        channels = np.array([[state.channels[u]] for u in users])
        best = codebook.gains_stacked(channels)[:, :, 0].argmax(axis=1).tolist()
        angles = dict(zip(users, (codebook.beam_angle_rad(k) for k in best)))
        return sorted(users, key=lambda u: angles[u])

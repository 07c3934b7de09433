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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..beamforming.selection import BeamPlan, GroupBeamPlanner, PlannedBlock
from ..errors import SchedulingError
from ..phy.channel import ChannelState


class CandidateGroup:
    """One candidate multicast group with its beam plan.

    Attributes:
        index: Stable index within this enumeration (used by the packet
            scheduler's "increasing order of group id" greedy).
        user_ids: Members of the group.
        plan: Beam, per-user RSS, MCS, and rate.
        rate_scale: Divisor applied to the MCS rate.  The paper streams true
            4K; emulation at reduced resolution divides link rates by the
            pixel ratio (e.g. 4K/512x288 = 56.25) so the data-to-rate regime
            — and therefore every scheduling/beamforming trade-off — matches
            the 4K system while frames stay cheap to decode.
    """

    __slots__ = ("index", "user_ids", "rate_scale", "_plan_rate_mbps", "_plan")

    def __init__(self, index: int, plan: BeamPlan, rate_scale: float = 1.0) -> None:
        self.index = index
        self.user_ids: Tuple[int, ...] = plan.user_ids
        self.rate_scale = rate_scale
        self._plan_rate_mbps = plan.rate_mbps
        self._plan = plan

    @property
    def plan(self) -> BeamPlan:
        """Beam, per-user RSS, MCS, and rate."""
        return self._plan

    @property
    def rate_mbps(self) -> float:
        """Group UDP goodput (bottleneck user's MCS), after scaling."""
        return self._plan_rate_mbps / self.rate_scale

    @property
    def rate_bytes_per_s(self) -> float:
        """Group goodput in bytes per second, after scaling."""
        return self.rate_mbps * 1e6 / 8.0


class _PlannedCandidate(CandidateGroup):
    """A candidate whose :class:`BeamPlan` is built when first read.

    A replan keeps thousands of candidates at a thousand receivers, and
    every frame reads their members and rates, but it sends to a few
    dozen: only those need a plan object.
    """

    __slots__ = ("_block", "_row")

    def __init__(
        self,
        index: int,
        user_ids: Tuple[int, ...],
        plan_rate_mbps: float,
        rate_scale: float,
        block: PlannedBlock,
        row: int,
    ) -> None:
        self.index = index
        self.user_ids = user_ids
        self.rate_scale = rate_scale
        self._plan_rate_mbps = plan_rate_mbps
        self._plan = None
        self._block = block
        self._row = row

    @property
    def plan(self) -> BeamPlan:
        """Beam, per-user RSS, MCS, and rate."""
        if self._plan is None:
            self._plan = self._block.plan(self._row)
        return self._plan


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
        """All kept candidate groups, singletons first then by size.

        One channel matrix serves the snapshot.  Singletons are planned
        first (under a codebook scheme their sectors give the azimuth
        order), then every multi-user candidate in one
        :meth:`GroupBeamPlanner.plan_blocks` call.  Groups are pruned by
        their planned rate before any per-group object is built, and a
        kept group builds its :class:`BeamPlan` when first read.
        """
        users = np.array(sorted(user_ids), dtype=np.int64)
        if not len(users):
            raise SchedulingError("need at least one user")
        planner = self.planner
        channels = planner.channel_matrix(state, users)
        singles = np.arange(len(users))[:, None]
        planned = planner.plan_blocks(users, channels, [singles])
        if planner.allows_multiuser_groups and len(users) > 1:
            planned += planner.plan_blocks(
                users, channels, self._multiuser_blocks(channels, planned[0])
            )

        rates = [block.rate_mbps for block in planned]
        kept = []
        for block, rate in zip(planned, rates):
            keep = rate > 0.0
            if block.members.shape[1] > 1:
                keep &= rate >= self.min_rate_mbps
            kept.append(np.flatnonzero(keep))
        if not any(len(rows) for rows in kept):
            # Degenerate snapshot (all users below every data MCS): keep the
            # least-bad singleton so upper layers can degrade gracefully.
            kept[0] = np.array([np.argmax(planned[0].rss_dbm[:, 0])])
        groups: List[CandidateGroup] = []
        for block, rate, rows in zip(planned, rates, kept):
            groups.extend(
                map(
                    _PlannedCandidate,
                    range(len(groups), len(groups) + len(rows)),
                    zip(*block.members[rows].T.tolist()),
                    rate[rows].tolist(),
                    itertools.repeat(self.rate_scale),
                    itertools.repeat(block),
                    rows.tolist(),
                )
            )
        return groups

    def _multiuser_blocks(
        self, channels: np.ndarray, singles: PlannedBlock
    ) -> List[np.ndarray]:
        """One ``(groups, size)`` block of user rows per group size.

        Up to ``exhaustive_max_users`` users, every subset; above, every
        window of consecutive users in azimuth order.  Each row is
        ascending, and a block's rows are in lexicographic order without
        repeats.
        """
        count = len(channels)
        cap = min(self.max_group_size or count, count)
        if count <= self.exhaustive_max_users:
            return [
                np.array(list(itertools.combinations(range(count), size)))
                for size in range(2, cap + 1)
            ]
        ordered = self._azimuth_order(channels, singles)
        blocks = []
        for size in range(2, cap + 1):
            windows = np.sort(
                np.lib.stride_tricks.sliding_window_view(ordered, size), axis=1
            )
            windows = windows[np.lexsort(windows.T[::-1])]
            repeat = np.all(windows[1:] == windows[:-1], axis=1)
            blocks.append(windows[np.concatenate([[True], ~repeat])])
        return blocks

    def _azimuth_order(self, channels: np.ndarray, singles: PlannedBlock) -> np.ndarray:
        """User rows ordered by the pointing angle of their best codebook
        sector (ties in user order): the singletons' own sectors under a
        codebook scheme, else one stacked codebook product."""
        codebook = self.planner.codebook
        sectors = singles.sectors
        if sectors is None:
            # A fresh (users, 1, Nt) stack, laid out as the planner's are.
            sectors = codebook.best_min_gain_beams(channels[:, None].copy())[0]
        return np.argsort(codebook.angles_rad[sectors], kind="stable")

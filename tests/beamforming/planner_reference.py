"""The per-group scalar planner, and the contract the array planner keeps.

``frozen_plan_groups`` is ``GroupBeamPlanner.plan_groups`` as it stood
while it planned one group per Python iteration: a ``gains_multi`` product
per group picks a codebook beam, ``per_user_gains`` (``np.vdot``) gives
each member's gain, the scalar ``LinkBudget.rss_dbm`` its RSS and
``highest_supported_mcs`` the MCS.  ``frozen_enumerate`` is the enumerator
of that time: tuple windows, a sorted set, pruning after planning.

The array planner reads member gains from a different product, so RSS may
differ in the last bits.  The contract (DESIGN §4):

- members, beam bytes, MCS and rate equal the scalar path's;
- per-member RSS is within ``RSS_TOLERANCE_DB`` of it;
- the one exception to equal MCS is a *tie*: a bottleneck RSS within
  ``RSS_TOLERANCE_DB`` of a data-capable Table 2 sensitivity after the MCS
  backoff, where a last-bit difference may cross the threshold.
"""

import itertools
from typing import Dict, List, Tuple

import numpy as np

from repro.beamforming.multicast import max_min_multicast_beams, per_user_gains
from repro.beamforming.selection import BeamPlan
from repro.phy.mcs import MCS_TABLE, highest_supported_mcs
from repro.types import BeamformingScheme

RSS_TOLERANCE_DB = 1e-9

_DATA_SENSITIVITIES = [e.sensitivity_dbm for e in MCS_TABLE if e.supported]


def frozen_codebook_beams(codebook, channel_groups):
    """The predefined branch of the planner as a per-group loop."""
    beams = []
    for channels in channel_groups:
        gains = codebook.gains_multi(list(channels))
        beams.append(codebook.beam(int(np.argmax(gains.min(axis=1)))))
    return beams


def frozen_plan_groups(planner, state, groups) -> List[BeamPlan]:
    """``plan_groups`` as a per-group scalar loop."""
    ordered = [tuple(sorted(g)) for g in groups]
    channel_groups = [[state.channels[u] for u in users] for users in ordered]
    if planner.scheme in (
        BeamformingScheme.OPTIMIZED_MULTICAST,
        BeamformingScheme.OPTIMIZED_UNICAST,
    ):
        beams = max_min_multicast_beams(planner.array, channel_groups)
    else:
        beams = frozen_codebook_beams(planner.codebook, channel_groups)
    plans = []
    for users, beam, channels in zip(ordered, beams, channel_groups):
        gains = per_user_gains(beam, channels)
        rss = {u: planner.budget.rss_dbm(float(g)) for u, g in zip(users, gains)}
        min_rss = min(rss.values())
        mcs = highest_supported_mcs(min_rss - planner.mcs_backoff_db)
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


def frozen_sort_by_azimuth(codebook, state, users):
    angles = {}
    for user in users:
        gains = codebook.gains(state.channels[user])
        angles[user] = float(codebook.angles_rad[int(np.argmax(gains))])
    return sorted(users, key=lambda u: angles[u])


def frozen_subsets(enumerator, state, users) -> List[Tuple[int, ...]]:
    """Every candidate the enumerator plans, in its order, as tuples."""
    users = sorted(users)
    subsets: List[Tuple[int, ...]] = [(u,) for u in users]
    if not enumerator.planner.allows_multiuser_groups or len(users) < 2:
        return subsets
    cap = enumerator.max_group_size or len(users)
    if len(users) <= enumerator.exhaustive_max_users:
        for size in range(2, min(len(users), cap) + 1):
            subsets.extend(itertools.combinations(users, size))
        return subsets
    ordered = frozen_sort_by_azimuth(enumerator.planner.codebook, state, users)
    windows = []
    for start in range(len(ordered)):
        stop = min(len(ordered), start + cap)
        for end in range(start + 2, stop + 1):
            windows.append(tuple(sorted(ordered[start:end])))
    return subsets + sorted(set(windows), key=lambda s: (len(s), s))


def frozen_enumerate(enumerator, state, users) -> List[BeamPlan]:
    """The kept plans of the per-group enumerator, in index order."""
    plans = frozen_plan_groups(
        enumerator.planner, state, frozen_subsets(enumerator, state, users)
    )
    kept = [
        plan for plan in plans
        if plan.rate_mbps > 0.0
        and (len(plan.user_ids) == 1 or plan.rate_mbps >= enumerator.min_rate_mbps)
    ]
    if not kept:
        kept = [max(
            (p for p in plans if len(p.user_ids) == 1), key=lambda p: p.min_rss_dbm
        )]
    return kept


def is_tie(min_rss_dbm: float, backoff_db: float) -> bool:
    """Whether a bottleneck RSS sits on a Table 2 threshold."""
    return any(
        abs(min_rss_dbm - backoff_db - s) <= RSS_TOLERANCE_DB
        for s in _DATA_SENSITIVITIES
    )


def assert_same_rss(left: Dict[int, float], right: Dict[int, float]) -> None:
    assert list(left) == list(right)
    for user in left:
        a, b = left[user], right[user]
        assert a == b or abs(a - b) <= RSS_TOLERANCE_DB, (user, a, b)


def contract_ties(plans, reference, backoff_db) -> List[Tuple[int, ...]]:
    """Check ``plans`` against ``reference`` plan by plan under the
    contract; return the groups that sit on a tie (where MCS and rate were
    allowed to differ)."""
    assert len(plans) == len(reference)
    ties = []
    for plan, frozen in zip(plans, reference):
        assert plan.user_ids == frozen.user_ids
        assert plan.beam.tobytes() == frozen.beam.tobytes()
        assert_same_rss(plan.per_user_rss_dbm, frozen.per_user_rss_dbm)
        if is_tie(frozen.min_rss_dbm, backoff_db):
            ties.append(plan.user_ids)
            continue
        assert plan.mcs == frozen.mcs, plan.user_ids
        assert plan.rate_mbps == frozen.rate_mbps
    return ties

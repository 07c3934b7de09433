"""The array planner against the per-group scalar planner, listing ties.

The contract (``planner_reference``, DESIGN §4): every kept group's
members, beam bytes, MCS and rate equal the scalar path's, per-member RSS
is within 1e-9 dB of it, and MCS may differ only at a tie — a bottleneck
RSS within 1e-9 dB of a data-capable Table 2 sensitivity after the 2 dB
backoff.  Each case enumerates (or plans) the way a session does, checks
the contract group by group, and lists every tie it finds.  None has been
found; a new one fails here by name rather than passing unseen.
"""

import numpy as np
import pytest

from repro.beamforming.codebook import SectorCodebook
from repro.beamforming.selection import GroupBeamPlanner
from repro.core.config import SystemConfig
from repro.core.streamer import CODEBOOK_BEAMS
from repro.scheduling.groups import GroupEnumerator
from repro.types import BeamformingScheme

from .planner_reference import contract_ties, frozen_enumerate, frozen_plan_groups

#: Ties each case is known to meet, as member tuples: none so far.
KNOWN_TIES = {
    "live4": [],
    "crowd1000": [],
    "random300": [],
    "fig15_8users": [],
}


def _enumerator(scenario, scheme, **overrides):
    """A session's planner and enumerator, from the default config."""
    config = SystemConfig(scheme=scheme, **overrides)
    planner = GroupBeamPlanner(
        scenario.array,
        SectorCodebook(scenario.array, num_beams=CODEBOOK_BEAMS),
        scenario.channel_model.budget,
        config.scheme,
        mcs_backoff_db=config.mcs_backoff_db,
    )
    return GroupEnumerator(
        planner,
        min_rate_mbps=config.min_group_rate_mbps,
        rate_scale=config.rate_scale,
        max_group_size=config.max_group_size,
    )


def _snapshot(scenario, positions, seed):
    return scenario.channel_model.snapshot(
        dict(enumerate(positions)), np.random.default_rng(seed)
    )


def _enumeration_ties(enumerator, state):
    """Check ``enumerate`` against the per-group enumerator; the ties."""
    users = sorted(state.channels)
    groups = enumerator.enumerate(state, users)
    frozen = frozen_enumerate(enumerator, state, users)
    assert [g.index for g in groups] == list(range(len(groups)))
    assert [g.user_ids for g in groups] == [p.user_ids for p in frozen]
    ties = contract_ties(
        [g.plan for g in groups], frozen, enumerator.planner.mcs_backoff_db
    )
    for group, plan in zip(groups, frozen):
        if group.user_ids not in ties:
            assert group.rate_mbps == plan.rate_mbps / enumerator.rate_scale
    return ties


def test_live4_like_snapshots(scenario):
    """Four receivers on the benchmark's 5 m, 60° arc, default config."""
    enumerator = _enumerator(scenario, BeamformingScheme.OPTIMIZED_MULTICAST)
    ties = []
    for seed in range(12):
        positions = scenario.place_arc(4, 5.0, 60.0, seed=seed)
        ties += _enumeration_ties(enumerator, _snapshot(scenario, positions, seed))
    assert ties == KNOWN_TIES["live4"]


def test_thousand_user_crowd_capped_at_pairs(scenario):
    """The round-robin crowd: 1,000 receivers, codebook beams, pairs."""
    enumerator = _enumerator(
        scenario, BeamformingScheme.PREDEFINED_MULTICAST, max_group_size=2
    )
    positions = scenario.place_arc(1000, 5.0, 60.0, seed=1)
    state = _snapshot(scenario, positions, 1)
    assert _enumeration_ties(enumerator, state) == KNOWN_TIES["crowd1000"]


@pytest.mark.parametrize(
    "scheme",
    [BeamformingScheme.PREDEFINED_MULTICAST, BeamformingScheme.OPTIMIZED_MULTICAST],
)
def test_random_groups_over_300_users(scenario, scheme):
    """Arbitrary groups of one to four, not just azimuth windows."""
    enumerator = _enumerator(scenario, scheme)
    planner = enumerator.planner
    state = _snapshot(scenario, scenario.place_arc(300, 5.0, 120.0, seed=23), 23)
    rng = np.random.default_rng(29)
    count = 600 if scheme is BeamformingScheme.PREDEFINED_MULTICAST else 60
    groups = [[u] for u in range(300)] + [
        rng.choice(300, size=int(rng.integers(2, 5)), replace=False).tolist()
        for _ in range(count)
    ]
    ties = contract_ties(
        planner.plan_groups(state, groups),
        frozen_plan_groups(planner, state, groups),
        planner.mcs_backoff_db,
    )
    assert ties == KNOWN_TIES["random300"]


def test_fig15_eight_user_placement(scenario):
    """Fig 15's setting: eight users 8-16 m, MAS 120°, every window."""
    enumerator = _enumerator(scenario, BeamformingScheme.OPTIMIZED_MULTICAST)
    ties = []
    for seed in range(3):
        positions = scenario.place_random_range(8, 8.0, 16.0, 120.0, seed=seed)
        ties += _enumeration_ties(enumerator, _snapshot(scenario, positions, seed))
    assert ties == KNOWN_TIES["fig15_8users"]

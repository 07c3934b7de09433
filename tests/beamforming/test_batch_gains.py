"""``plan_groups`` and ``plan_group`` are one path and agree exactly.

Each group's beam and member gains come from its own product in a stack,
so a plan taken out of a batch equals the plan of that group on its own:
same beam bytes, same RSS floats, same MCS.  The multi-AP repair planner
(one singleton per backup user) relies on exactly that.  Against the
scalar :func:`per_user_gains` path the planner keeps the contract of
``planner_reference``.
"""

import numpy as np
import pytest

from repro.beamforming.codebook import SectorCodebook
from repro.beamforming.selection import GroupBeamPlanner
from repro.types import BeamformingScheme

from .planner_reference import contract_ties, frozen_plan_groups

MULTICAST_GROUPS = [[0], [1], [2, 3], [0, 1, 2], [3, 1], [0, 1, 2, 3]]
SINGLETONS = [[u] for u in range(4)]


@pytest.fixture(scope="module")
def snapshot(request):
    scenario = request.getfixturevalue("scenario")
    positions = scenario.place_arc(4, 3.0, 90, seed=17)
    state = scenario.channel_model.snapshot(
        {i: p for i, p in enumerate(positions)},
        np.random.default_rng(17),
    )
    return scenario, state


def _planner(scenario, scheme):
    codebook = SectorCodebook(scenario.array, num_beams=16, num_wide_beams=4)
    return GroupBeamPlanner(
        scenario.array, codebook, scenario.channel_model.budget, scheme
    )


def assert_same_plan(left, right):
    assert left.user_ids == right.user_ids
    assert left.beam.tobytes() == right.beam.tobytes()
    assert left.per_user_rss_dbm == right.per_user_rss_dbm
    assert left.min_rss_dbm == right.min_rss_dbm
    assert left.mcs == right.mcs
    assert left.rate_mbps == right.rate_mbps


class TestPlanGroupsEqualsPlanGroup:
    @pytest.mark.parametrize("scheme", list(BeamformingScheme))
    def test_batch_plan_equals_single_plan(self, snapshot, scheme):
        scenario, state = snapshot
        planner = _planner(scenario, scheme)
        groups = MULTICAST_GROUPS if planner.allows_multiuser_groups else SINGLETONS
        batched = planner.plan_groups(state, groups)
        assert [p.user_ids for p in batched] == [tuple(sorted(g)) for g in groups]
        for group, plan in zip(groups, batched):
            assert_same_plan(plan, planner.plan_group(state, group))

    @pytest.mark.parametrize("scheme", list(BeamformingScheme))
    def test_rss_is_the_scalar_path_within_the_contract(self, snapshot, scheme):
        """RSS within 1e-9 dB of ``per_user_gains`` of the returned beam;
        members, beam, MCS and rate equal."""
        scenario, state = snapshot
        planner = _planner(scenario, scheme)
        groups = MULTICAST_GROUPS if planner.allows_multiuser_groups else SINGLETONS
        plans = planner.plan_groups(state, groups)
        frozen = frozen_plan_groups(planner, state, groups)
        assert contract_ties(plans, frozen, planner.mcs_backoff_db) == []

    def test_singleton_batch_is_the_conjugate_beam(self, snapshot):
        """The multi-AP repair planner's usage: one singleton per user."""
        scenario, state = snapshot
        planner = _planner(scenario, BeamformingScheme.OPTIMIZED_MULTICAST)
        plans = planner.plan_groups(state, SINGLETONS)
        assert [p.user_ids for p in plans] == [(u,) for u in range(4)]
        assert all(p.mcs is not None for p in plans)
        for user, plan in enumerate(plans):
            matched = scenario.array.conjugate_beam(state.channels[user])
            assert plan.beam.tobytes() == matched.tobytes()

    def test_empty_batch(self, snapshot):
        scenario, state = snapshot
        planner = _planner(scenario, BeamformingScheme.OPTIMIZED_MULTICAST)
        assert planner.plan_groups(state, []) == []

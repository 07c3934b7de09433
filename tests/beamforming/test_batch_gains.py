"""``plan_groups`` and ``plan_group`` are one path and agree exactly.

Gains are evaluated by the scalar :func:`per_user_gains` whichever entry
point is used, and a group's beam does not depend on its batch, so a plan
taken out of a batch equals the plan of that group on its own: same beam
bytes, same RSS floats, same MCS.  The multi-AP repair planner (one
singleton per backup user) relies on exactly that.
"""

import numpy as np
import pytest

from repro.beamforming.codebook import SectorCodebook
from repro.beamforming.multicast import per_user_gains
from repro.beamforming.selection import GroupBeamPlanner
from repro.types import BeamformingScheme

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

    def test_gains_are_the_scalar_path(self, snapshot):
        """RSS comes from ``per_user_gains`` of the returned beam, bit for bit."""
        scenario, state = snapshot
        planner = _planner(scenario, BeamformingScheme.OPTIMIZED_MULTICAST)
        for plan in planner.plan_groups(state, MULTICAST_GROUPS):
            channels = [state.channels[u] for u in plan.user_ids]
            gains = per_user_gains(plan.beam, channels)
            expected = {
                u: planner.budget.rss_dbm(float(g))
                for u, g in zip(plan.user_ids, gains)
            }
            assert plan.per_user_rss_dbm == expected

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

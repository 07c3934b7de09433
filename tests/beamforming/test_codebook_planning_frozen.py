"""Codebook (predefined-beam) planning, batched, still gives the same bits.

``SectorCodebook.gains_stacked`` stacks each group's ``(K x Nt) @ (Nt x
n)`` product along a group axis; beam selection
(``best_min_gain_beams``) uses it instead of one ``gains_multi`` call per
group, and the azimuth sort instead of one ``gains`` call per user.
Neither changes a floating-point operation, so the gains, the beams, the
plans built on them and the azimuth order must equal the frozen per-group
loops kept here.  (One ``(K x Nt) @ (Nt x N)`` product for all users would
not: BLAS sums it in another order.)
"""

import numpy as np
import pytest

from repro.beamforming.codebook import SectorCodebook
from repro.beamforming.multicast import max_min_multicast_beams, per_user_gains
from repro.beamforming.selection import BeamPlan, GroupBeamPlanner
from repro.phy.mcs import highest_supported_mcs
from repro.scheduling.groups import GroupEnumerator
from repro.types import BeamformingScheme

from .test_batch_gains import assert_same_plan


def frozen_codebook_beams(codebook, channel_groups):
    """The predefined branch of ``beams_for_groups`` as it stood before."""
    beams = []
    for channels in channel_groups:
        gains = codebook.gains_multi(list(channels))
        beams.append(codebook.beam(int(np.argmax(gains.min(axis=1)))))
    return beams


def frozen_plan_groups(planner, state, groups):
    """``plan_groups`` as it stood before: every member of every group."""
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
        angles[user] = codebook.beam_angle_rad(int(np.argmax(gains)))
    return sorted(users, key=lambda u: angles[u])


@pytest.fixture(scope="module")
def crowd(request):
    """300 receivers on a wide arc: many near-ties between sectors."""
    scenario = request.getfixturevalue("scenario")
    positions = scenario.place_arc(300, 5.0, 120, seed=23)
    state = scenario.channel_model.snapshot(
        {i: p for i, p in enumerate(positions)}, np.random.default_rng(23)
    )
    return scenario, state


def _planner(scenario, scheme, **codebook_kwargs):
    codebook = SectorCodebook(scenario.array, **codebook_kwargs)
    return GroupBeamPlanner(
        scenario.array, codebook, scenario.channel_model.budget, scheme
    )


def _random_groups(rng, num_users, count):
    groups = [[u] for u in range(num_users)]
    for _ in range(count):
        size = int(rng.integers(2, 5))
        groups.append(rng.choice(num_users, size=size, replace=False).tolist())
    return groups


def _assert_same_plans(planner, state, groups):
    plans = planner.plan_groups(state, groups)
    frozen = frozen_plan_groups(planner, state, groups)
    assert len(plans) == len(frozen) == len(groups)
    for plan, frozen_plan in zip(plans, frozen):
        assert_same_plan(plan, frozen_plan)


class TestCodebookBeamsMatchFrozenLoop:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_group_sizes(self, crowd, seed):
        scenario, state = crowd
        codebook = SectorCodebook(scenario.array)
        rng = np.random.default_rng(seed)
        groups = _random_groups(rng, 300, 400)
        channel_groups = [[state.channels[u] for u in g] for g in groups]
        batched = codebook.best_min_gain_beams(channel_groups)
        frozen = frozen_codebook_beams(codebook, channel_groups)
        assert [codebook.beam(k).tobytes() for k in batched] == [
            b.tobytes() for b in frozen
        ]

    def test_random_channels_small_codebook(self):
        from repro.phy.antenna import PhasedArray

        array = PhasedArray(16, 2)
        codebook = SectorCodebook(array, num_beams=8, num_wide_beams=2)
        rng = np.random.default_rng(8)
        channels = rng.normal(size=(60, 16)) + 1j * rng.normal(size=(60, 16))
        groups = _random_groups(rng, 60, 200)
        channel_groups = [[channels[u] for u in g] for g in groups]
        batched = codebook.best_min_gain_beams(channel_groups)
        frozen = frozen_codebook_beams(codebook, channel_groups)
        assert [codebook.beam(k).tobytes() for k in batched] == [
            b.tobytes() for b in frozen
        ]

    def test_no_groups(self, crowd):
        scenario, _ = crowd
        assert SectorCodebook(scenario.array).best_min_gain_beams([]) == []


class TestGainsStackedMatchesPerGroupProducts:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_slices_equal_gains_multi(self, crowd, size):
        scenario, state = crowd
        codebook = SectorCodebook(scenario.array)
        rng = np.random.default_rng(size)
        groups = [rng.choice(300, size=size, replace=False) for _ in range(300)]
        stacked = np.array([[state.channels[u] for u in g] for g in groups])
        gains = codebook.gains_stacked(stacked)
        for group, block in zip(groups, gains):
            frozen = codebook.gains_multi([state.channels[u] for u in group])
            assert block.tobytes() == frozen.tobytes()

    def test_singletons_equal_gains(self, crowd):
        scenario, state = crowd
        codebook = SectorCodebook(scenario.array)
        users = sorted(state.channels)
        stacked = codebook.gains_stacked(np.array([[state.channels[u]] for u in users]))
        for block, user in zip(stacked, users):
            single = codebook.gains(state.channels[user])
            assert block[:, 0].tobytes() == single.tobytes()

    def test_rejects_wrong_shape(self, crowd):
        from repro.errors import BeamformingError

        scenario, _ = crowd
        codebook = SectorCodebook(scenario.array)
        with pytest.raises(BeamformingError):
            codebook.gains_stacked(np.ones((3, 2, 5), dtype=complex))
        with pytest.raises(BeamformingError):
            codebook.gains_stacked(np.ones((3, 32), dtype=complex))


class TestPlanGroupsMatchesFrozenLoop:
    @pytest.mark.parametrize(
        "scheme",
        [BeamformingScheme.PREDEFINED_MULTICAST, BeamformingScheme.PREDEFINED_UNICAST],
    )
    def test_codebook_schemes_on_the_crowd(self, crowd, scheme):
        scenario, state = crowd
        planner = _planner(scenario, scheme)
        rng = np.random.default_rng(31)
        groups = (
            _random_groups(rng, 300, 500)
            if planner.allows_multiuser_groups
            else [[u] for u in range(300)]
        )
        _assert_same_plans(planner, state, groups)

    @pytest.mark.parametrize(
        "scheme",
        [BeamformingScheme.OPTIMIZED_MULTICAST, BeamformingScheme.OPTIMIZED_UNICAST],
    )
    def test_optimised_schemes(self, crowd, scheme):
        scenario, state = crowd
        planner = _planner(scenario, scheme, num_beams=16, num_wide_beams=4)
        rng = np.random.default_rng(32)
        groups = (
            _random_groups(rng, 12, 20)
            if planner.allows_multiuser_groups
            else [[u] for u in range(12)]
        )
        _assert_same_plans(planner, state, groups)


class TestAzimuthOrderMatchesFrozenLoop:
    @pytest.mark.parametrize("cap", [2, 3])
    def test_crowd_enumeration_order(self, crowd, cap):
        scenario, state = crowd
        planner = _planner(scenario, BeamformingScheme.PREDEFINED_MULTICAST)
        enumerator = GroupEnumerator(planner, max_group_size=cap)
        users = sorted(state.channels)
        assert enumerator._sort_by_azimuth(state, users) == frozen_sort_by_azimuth(
            planner.codebook, state, users
        )

"""Codebook (predefined-beam) planning, batched, against per-group loops.

``SectorCodebook.gains_stacked`` stacks each group's ``(K x Nt) @ (Nt x
n)`` product along a group axis; beam selection
(``best_min_gain_beams``) uses it instead of one ``gains_multi`` call per
group, and the azimuth sort instead of one ``gains`` call per user.
Neither changes a floating-point operation, so the gains, the beams and
the azimuth order must equal the frozen per-group loops bit for bit.  (One
``(K x Nt) @ (Nt x N)`` product for all users would not: BLAS sums it in
another order.)  Plans built on those beams keep the planner contract of
``planner_reference``: same members, beam bytes, MCS and rate, RSS within
1e-9 dB.
"""

import numpy as np
import pytest

from repro.beamforming.codebook import SectorCodebook
from repro.beamforming.selection import GroupBeamPlanner
from repro.scheduling.groups import GroupEnumerator
from repro.types import BeamformingScheme

from .planner_reference import (
    contract_ties,
    frozen_codebook_beams,
    frozen_plan_groups,
    frozen_sort_by_azimuth,
)


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
    assert len(plans) == len(groups)
    assert contract_ties(plans, frozen, planner.mcs_backoff_db) == []


def _best_beams_by_size(codebook, channel_groups):
    """``best_min_gain_beams`` over groups of mixed sizes, in input order."""
    best = [None] * len(channel_groups)
    sizes = sorted({len(g) for g in channel_groups})
    for size in sizes:
        positions = [i for i, g in enumerate(channel_groups) if len(g) == size]
        stack = np.array([channel_groups[i] for i in positions])
        for i, k in zip(positions, codebook.best_min_gain_beams(stack)[0].tolist()):
            best[i] = k
    return best


class TestCodebookBeamsMatchFrozenLoop:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_group_sizes(self, crowd, seed):
        scenario, state = crowd
        codebook = SectorCodebook(scenario.array)
        rng = np.random.default_rng(seed)
        groups = _random_groups(rng, 300, 400)
        channel_groups = [[state.channels[u] for u in g] for g in groups]
        batched = _best_beams_by_size(codebook, channel_groups)
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
        batched = _best_beams_by_size(codebook, channel_groups)
        frozen = frozen_codebook_beams(codebook, channel_groups)
        assert [codebook.beam(k).tobytes() for k in batched] == [
            b.tobytes() for b in frozen
        ]

    def test_member_gains_are_the_chosen_column(self, crowd):
        scenario, state = crowd
        codebook = SectorCodebook(scenario.array)
        rng = np.random.default_rng(4)
        groups = [rng.choice(300, size=3, replace=False) for _ in range(200)]
        stack = np.array([[state.channels[u] for u in g] for g in groups])
        best, member_gains = codebook.best_min_gain_beams(stack)
        gains = codebook.gains_stacked(stack)
        for block, k, row in zip(gains, best.tolist(), member_gains):
            assert row.tobytes() == block[k].tobytes()

    def test_no_groups(self, crowd):
        scenario, _ = crowd
        best, gains = SectorCodebook(scenario.array).best_min_gain_beams(
            np.zeros((0, 2, scenario.array.num_elements), dtype=complex)
        )
        assert best.shape == (0,) and gains.shape == (0, 2)


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
    @pytest.mark.parametrize(
        "scheme",
        [BeamformingScheme.PREDEFINED_MULTICAST, BeamformingScheme.OPTIMIZED_MULTICAST],
    )
    def test_crowd_enumeration_order(self, crowd, scheme):
        """Codebook schemes reuse the singletons' sectors, optimised ones
        take their own product: one order either way."""
        scenario, state = crowd
        planner = _planner(scenario, scheme)
        enumerator = GroupEnumerator(planner, max_group_size=2)
        users = np.array(sorted(state.channels))
        channels = planner.channel_matrix(state, users)
        singles = planner.plan_blocks(
            users, channels, [np.arange(len(users))[:, None]]
        )[0]
        assert (singles.sectors is None) == (
            scheme is BeamformingScheme.OPTIMIZED_MULTICAST
        )
        ordered = users[enumerator._azimuth_order(channels, singles)]
        assert ordered.tolist() == frozen_sort_by_azimuth(
            planner.codebook, state, users.tolist()
        )

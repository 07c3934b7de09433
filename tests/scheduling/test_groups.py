"""Tests for candidate-group enumeration."""

import numpy as np
import pytest

from repro.beamforming import GroupBeamPlanner, SectorCodebook
from repro.errors import SchedulingError
from repro.scheduling.groups import GroupEnumerator
from repro.types import BeamformingScheme, Position


@pytest.fixture(scope="module")
def snapshot(request):
    scenario = request.getfixturevalue("scenario")
    rng = np.random.default_rng(9)
    users = {
        0: Position(3.0, 7.0),
        1: Position(3.5, 6.0),
        2: Position(4.0, 5.0),
    }
    return scenario, scenario.channel_model.snapshot(users, rng)


def _enumerator(scenario, scheme, **kwargs):
    codebook = SectorCodebook(scenario.array, num_beams=16, num_wide_beams=4)
    planner = GroupBeamPlanner(
        scenario.array, codebook, scenario.channel_model.budget, scheme
    )
    return GroupEnumerator(planner, **kwargs)


class TestEnumeration:
    def test_multicast_enumerates_all_subsets(self, snapshot):
        scenario, state = snapshot
        enum = _enumerator(scenario, BeamformingScheme.OPTIMIZED_MULTICAST,
                           min_rate_mbps=0.0)
        groups = enum.enumerate(state, [0, 1, 2])
        subsets = {g.user_ids for g in groups}
        assert (0,) in subsets and (1,) in subsets and (2,) in subsets
        assert (0, 1, 2) in subsets
        assert len(subsets) <= 7

    def test_unicast_only_singletons(self, snapshot):
        scenario, state = snapshot
        enum = _enumerator(scenario, BeamformingScheme.OPTIMIZED_UNICAST)
        groups = enum.enumerate(state, [0, 1, 2])
        assert all(len(g.user_ids) == 1 for g in groups)

    def test_pruning_threshold_drops_weak_groups(self, snapshot):
        scenario, state = snapshot
        permissive = _enumerator(
            scenario, BeamformingScheme.OPTIMIZED_MULTICAST, min_rate_mbps=0.0
        )
        strict = _enumerator(
            scenario, BeamformingScheme.OPTIMIZED_MULTICAST, min_rate_mbps=2400.0
        )
        assert len(strict.enumerate(state, [0, 1, 2])) <= len(
            permissive.enumerate(state, [0, 1, 2])
        )

    def test_singletons_survive_pruning(self, snapshot):
        scenario, state = snapshot
        strict = _enumerator(
            scenario, BeamformingScheme.OPTIMIZED_MULTICAST, min_rate_mbps=1e9
        )
        groups = strict.enumerate(state, [0, 1, 2])
        singleton_users = {g.user_ids[0] for g in groups if len(g.user_ids) == 1}
        assert singleton_users  # at least the reachable users remain

    def test_contiguous_restriction_above_limit(self, snapshot):
        scenario, state = snapshot
        enum = _enumerator(
            scenario, BeamformingScheme.OPTIMIZED_MULTICAST,
            min_rate_mbps=0.0, exhaustive_max_users=2,
        )
        groups = enum.enumerate(state, [0, 1, 2])
        # With the contiguous restriction there are at most n(n+1)/2 + n
        # candidates before pruning.
        assert len(groups) <= 6

    def test_indices_are_sequential(self, snapshot):
        scenario, state = snapshot
        enum = _enumerator(scenario, BeamformingScheme.OPTIMIZED_MULTICAST)
        groups = enum.enumerate(state, [0, 1, 2])
        assert [g.index for g in groups] == list(range(len(groups)))

    def test_empty_users_rejected(self, snapshot):
        scenario, state = snapshot
        enum = _enumerator(scenario, BeamformingScheme.OPTIMIZED_MULTICAST)
        with pytest.raises(SchedulingError):
            enum.enumerate(state, [])

    def test_rate_scale_divides_rates(self, snapshot):
        scenario, state = snapshot
        plain = _enumerator(scenario, BeamformingScheme.OPTIMIZED_UNICAST)
        scaled = _enumerator(
            scenario, BeamformingScheme.OPTIMIZED_UNICAST, rate_scale=10.0
        )
        rate_plain = plain.enumerate(state, [0])[0].rate_mbps
        rate_scaled = scaled.enumerate(state, [0])[0].rate_mbps
        assert rate_scaled == pytest.approx(rate_plain / 10.0)

    def test_bad_rate_scale_rejected(self, snapshot):
        scenario, _ = snapshot
        with pytest.raises(SchedulingError):
            _enumerator(scenario, BeamformingScheme.OPTIMIZED_UNICAST, rate_scale=0)


class TestMaxGroupSize:
    def test_cap_limits_exhaustive_subsets(self, snapshot):
        scenario, state = snapshot
        enum = _enumerator(
            scenario, BeamformingScheme.OPTIMIZED_MULTICAST,
            min_rate_mbps=0.0, max_group_size=2,
        )
        groups = enum.enumerate(state, [0, 1, 2])
        assert all(len(g.user_ids) <= 2 for g in groups)
        # Pairs are still enumerated, only the triple is gone.
        assert any(len(g.user_ids) == 2 for g in groups)

    def test_cap_limits_azimuth_windows(self, snapshot):
        scenario, state = snapshot
        enum = _enumerator(
            scenario, BeamformingScheme.OPTIMIZED_MULTICAST,
            min_rate_mbps=0.0, exhaustive_max_users=2, max_group_size=2,
        )
        groups = enum.enumerate(state, [0, 1, 2])
        assert all(len(g.user_ids) <= 2 for g in groups)

    def test_none_is_unbounded(self, snapshot):
        scenario, state = snapshot
        capped = _enumerator(
            scenario, BeamformingScheme.OPTIMIZED_MULTICAST,
            min_rate_mbps=0.0, max_group_size=3,
        )
        unbounded = _enumerator(
            scenario, BeamformingScheme.OPTIMIZED_MULTICAST,
            min_rate_mbps=0.0, max_group_size=None,
        )
        sets_capped = {g.user_ids for g in capped.enumerate(state, [0, 1, 2])}
        sets_unbounded = {g.user_ids for g in unbounded.enumerate(state, [0, 1, 2])}
        assert sets_capped == sets_unbounded

    def test_bad_cap_rejected(self, snapshot):
        scenario, _ = snapshot
        with pytest.raises(SchedulingError):
            _enumerator(
                scenario, BeamformingScheme.OPTIMIZED_MULTICAST, max_group_size=1
            )


class TestDegenerateSnapshot:
    @pytest.fixture()
    def unreachable(self, snapshot):
        """Every user 120 dB down: below every data MCS, alone or grouped."""
        from repro.phy.channel import ChannelState

        scenario, state = snapshot
        weak = ChannelState(
            channels={u: h * 1e-6 for u, h in state.channels.items()},
            positions=state.positions,
        )
        return scenario, weak

    def test_keeps_the_least_bad_singleton(self, unreachable):
        scenario, weak = unreachable
        enum = _enumerator(scenario, BeamformingScheme.OPTIMIZED_MULTICAST)
        singles = enum.planner.plan_groups(weak, [[0], [1], [2]])
        assert all(plan.mcs is None for plan in singles)
        groups = enum.enumerate(weak, [0, 1, 2])
        assert len(groups) == 1
        (group,) = groups
        assert group.index == 0 and group.rate_mbps == 0.0
        best = max(singles, key=lambda plan: plan.min_rss_dbm)
        assert group.user_ids == best.user_ids
        assert group.plan.min_rss_dbm == best.min_rss_dbm

    def test_fallback_plans_nothing_twice(self, unreachable, monkeypatch):
        scenario, weak = unreachable
        enum = _enumerator(scenario, BeamformingScheme.OPTIMIZED_MULTICAST)
        batches = []
        real = enum.planner.plan_blocks

        def recording(users, channels, blocks):
            batches.append(
                [tuple(users[row].tolist()) for block in blocks for row in block]
            )
            return real(users, channels, blocks)

        monkeypatch.setattr(enum.planner, "plan_blocks", recording)
        for name in ("plan_group", "plan_groups"):
            monkeypatch.setattr(
                enum.planner, name,
                lambda *a, **k: pytest.fail("enumerate plans through plan_blocks"),
            )
        enum.enumerate(weak, [0, 1, 2])
        # Singletons, then every multi-user candidate, each planned once.
        assert [len(batch) for batch in batches] == [3, 4]
        planned = [group for batch in batches for group in batch]
        assert len(set(planned)) == 7

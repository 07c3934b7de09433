"""Tests for scheme-aware beam/rate planning."""

import numpy as np
import pytest

from repro.beamforming.codebook import SectorCodebook
from repro.beamforming.selection import GroupBeamPlanner
from repro.errors import BeamformingError
from repro.types import BeamformingScheme, Position


@pytest.fixture(scope="module")
def world(request):
    scenario = request.getfixturevalue("scenario")
    rng = np.random.default_rng(42)
    users = {
        0: Position(3.0, 6.5),
        1: Position(3.2, 5.5),
        2: Position(8.0, 7.0),
    }
    state = scenario.channel_model.snapshot(users, rng)
    codebook = SectorCodebook(scenario.array, num_beams=16, num_wide_beams=4)
    return scenario, state, codebook


class TestGroupBeamPlanner:
    def test_unicast_scheme_rejects_groups(self, world):
        scenario, state, codebook = world
        planner = GroupBeamPlanner(
            scenario.array, codebook, scenario.channel_model.budget,
            BeamformingScheme.OPTIMIZED_UNICAST,
        )
        assert not planner.allows_multiuser_groups
        with pytest.raises(BeamformingError):
            planner.plan_group(state, [0, 1])

    def test_multicast_scheme_allows_groups(self, world):
        scenario, state, codebook = world
        planner = GroupBeamPlanner(
            scenario.array, codebook, scenario.channel_model.budget,
            BeamformingScheme.OPTIMIZED_MULTICAST,
        )
        plan = planner.plan_group(state, [0, 1])
        assert plan.user_ids == (0, 1)
        assert plan.rate_mbps > 0

    def test_min_rss_is_group_minimum(self, world):
        scenario, state, codebook = world
        planner = GroupBeamPlanner(
            scenario.array, codebook, scenario.channel_model.budget,
            BeamformingScheme.OPTIMIZED_MULTICAST,
        )
        plan = planner.plan_group(state, [0, 1, 2])
        assert plan.min_rss_dbm == pytest.approx(
            min(plan.per_user_rss_dbm.values())
        )

    def test_backoff_reduces_selected_mcs(self, world):
        scenario, state, codebook = world
        aggressive = GroupBeamPlanner(
            scenario.array, codebook, scenario.channel_model.budget,
            BeamformingScheme.OPTIMIZED_UNICAST, mcs_backoff_db=0.0,
        )
        cautious = GroupBeamPlanner(
            scenario.array, codebook, scenario.channel_model.budget,
            BeamformingScheme.OPTIMIZED_UNICAST, mcs_backoff_db=10.0,
        )
        rate_fast = aggressive.plan_group(state, [2]).rate_mbps
        rate_safe = cautious.plan_group(state, [2]).rate_mbps
        assert rate_safe <= rate_fast

    def test_optimized_beats_predefined_unicast(self, world):
        scenario, state, codebook = world
        optimized = GroupBeamPlanner(
            scenario.array, codebook, scenario.channel_model.budget,
            BeamformingScheme.OPTIMIZED_UNICAST,
        )
        predefined = GroupBeamPlanner(
            scenario.array, codebook, scenario.channel_model.budget,
            BeamformingScheme.PREDEFINED_UNICAST,
        )
        assert (
            optimized.plan_group(state, [2]).min_rss_dbm
            >= predefined.plan_group(state, [2]).min_rss_dbm - 1e-9
        )

    def test_predefined_multicast_uses_codebook_beam(self, world):
        scenario, state, codebook = world
        planner = GroupBeamPlanner(
            scenario.array, codebook, scenario.channel_model.budget,
            BeamformingScheme.PREDEFINED_MULTICAST,
        )
        plan = planner.plan_group(state, [0, 1])
        matches = [
            np.allclose(plan.beam, codebook.beam(k)) for k in range(len(codebook))
        ]
        assert any(matches)

    def test_empty_group_rejected(self, world):
        scenario, state, codebook = world
        planner = GroupBeamPlanner(
            scenario.array, codebook, scenario.channel_model.budget,
        )
        with pytest.raises(BeamformingError):
            planner.plan_group(state, [])

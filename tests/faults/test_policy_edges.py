"""Strategy edge cases under beacon loss and fully blocked channels."""

import numpy as np
import pytest

from repro.core import (
    BeamTrackingStrategy,
    FrozenStrategy,
    RealtimeUpdateStrategy,
)
from repro.faults import FaultController, FaultEvent, FaultKind, FaultSchedule

from tests.faults.conftest import build_streamer


@pytest.fixture()
def planned_session(parts):
    """A session that has streamed one frame, so an allocation exists."""
    streamer = build_streamer(parts, seed=7)
    session = streamer.session(parts[3])
    session.run(1)
    return session


class TestOnBeaconLostFallbacks:
    def test_realtime_keeps_last_allocation(self, planned_session):
        session = planned_session
        allocation = session.state.ap_allocations[0]
        result = RealtimeUpdateStrategy().on_beacon_lost(
            session, allocation, session.state.last_estimated_state
        )
        assert result is allocation

    def test_frozen_is_frozen(self, planned_session):
        session = planned_session
        allocation = session.state.ap_allocations[0]
        result = FrozenStrategy().on_beacon_lost(
            session, allocation, session.state.last_estimated_state
        )
        assert result is allocation

    def test_beam_tracking_without_any_estimate_keeps_allocation(
        self, planned_session
    ):
        session = planned_session
        allocation = session.state.ap_allocations[0]
        result = BeamTrackingStrategy().on_beacon_lost(
            session, allocation, None
        )
        assert result is allocation

    def test_beam_tracking_retracks_on_stale_estimate(self, planned_session):
        session = planned_session
        allocation = session.state.ap_allocations[0]
        result = BeamTrackingStrategy().on_beacon_lost(
            session, allocation, session.state.last_estimated_state
        )
        assert result is not allocation
        assert len(result.groups) == len(allocation.groups)
        assert result.time_s is allocation.time_s


class TestRetrackAllSectorsBlocked:
    def test_zero_channels_keep_frozen_beams(self, planned_session):
        """When every sector sees a dead channel (all gains zero), firmware
        tracking has nothing better to offer: beams stay frozen."""
        session = planned_session
        allocation = session.state.ap_allocations[0]
        live = session.state.last_estimated_state

        class BlockedState:
            channels = {
                u: np.zeros_like(h) for u, h in live.channels.items()
            }

        retracked = BeamTrackingStrategy.retrack_beams(
            session.streamer.codebook,
            session.streamer.channel_model,
            allocation,
            BlockedState(),
        )
        for before, after in zip(allocation.groups, retracked.groups):
            assert np.array_equal(before.plan.beam, after.plan.beam)


class TestFrozenUnderBeaconLoss:
    def test_frozen_session_never_replans_through_an_outage(self, parts):
        """A FrozenStrategy session under a full-session beacon outage plans
        exactly once (t=0) and streams to completion."""
        streamer = build_streamer(parts, seed=7)
        controller = FaultController(
            FaultSchedule(events=[
                FaultEvent(FaultKind.BEACON_LOSS, 0.0, 10.0),
            ])
        )
        session = streamer.session(
            parts[3], strategy=FrozenStrategy(), faults=controller
        )
        calls = []
        original = streamer._plan

        def counting_plan(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        streamer._plan = counting_plan
        outcome = session.run(12)  # crosses 3 beacon boundaries
        assert len(calls) == 1  # only the t=0 plan
        assert len(outcome.stats) == 12 * 2
        assert session.state.ap_allocations[0] is not None

"""Tests for the staged session pipeline and the adaptation strategies."""

import numpy as np
import pytest

from repro.core import (
    BeamTrackingStrategy,
    CodingGroupMapper,
    FeedbackUpdater,
    FrameEncoder,
    FrozenStrategy,
    MulticastStreamer,
    Planner,
    RealtimeUpdateStrategy,
    Scorer,
    SystemConfig,
    Transmitter,
    strategy_for,
)
from repro.errors import ConfigurationError
from repro.types import AdaptationPolicy

RES = dict(height=144, width=256)


@pytest.fixture(scope="module")
def parts(request):
    scenario = request.getfixturevalue("scenario")
    dnn = request.getfixturevalue("tiny_dnn")
    probes = [request.getfixturevalue("hr_probe")]
    trace = request.getfixturevalue("static_trace_2users")
    return scenario, dnn, probes, trace


def _streamer(parts, seed=0, **overrides):
    scenario, dnn, probes, _ = parts
    config = SystemConfig(**RES, **overrides)
    return MulticastStreamer(config, dnn, probes, scenario.channel_model, seed=seed)


class TestStrategySelection:
    def test_realtime(self):
        config = SystemConfig(**RES)
        assert isinstance(strategy_for(config), RealtimeUpdateStrategy)

    def test_no_update_tracking(self):
        config = SystemConfig(**RES, adaptation=AdaptationPolicy.NO_UPDATE)
        assert isinstance(strategy_for(config), BeamTrackingStrategy)

    def test_no_update_frozen(self):
        config = SystemConfig(
            **RES,
            adaptation=AdaptationPolicy.NO_UPDATE,
            no_update_beam_tracking=False,
        )
        assert isinstance(strategy_for(config), FrozenStrategy)


def _stages():
    return [
        Planner(), FrameEncoder(), CodingGroupMapper(), Transmitter(),
        FeedbackUpdater(), Scorer(),
    ]


class TestDefaultStages:
    def test_stage_order(self, parts):
        session = _streamer(parts).session(parts[3])
        names = [stage.name for stage in session.stages]
        assert names == [
            "plan", "encode", "map", "transmit", "feedback", "score",
        ]


class TestStreamSession:
    def test_session_matches_stream_trace(self, parts):
        _, _, _, trace = parts
        direct = _streamer(parts, seed=5).stream_trace(trace, num_frames=3)
        session = _streamer(parts, seed=5).session(trace)
        staged = session.run(3)
        assert [s.ssim for s in staged.stats] == [s.ssim for s in direct.stats]

    def test_zero_frames_rejected(self, parts):
        _, _, _, trace = parts
        with pytest.raises(ConfigurationError):
            _streamer(parts).session(trace).run(0)

    def test_strategy_override_wins(self, parts):
        """A session-level strategy replaces the config-derived one."""
        _, _, _, trace = parts
        streamer = _streamer(parts, seed=5)  # realtime config...
        session = streamer.session(trace, strategy=FrozenStrategy())
        assert isinstance(session.strategy, FrozenStrategy)
        calls = []
        original = streamer._plan

        def counting_plan(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        streamer._plan = counting_plan
        session.run(12)  # 12 frames -> 4 beacon boundaries
        assert len(calls) == 1  # frozen: only the t=0 plan

    def test_custom_stage_list(self, parts):
        """Stages are pluggable: a spy stage sees every frame context."""
        _, _, _, trace = parts

        class SpyStage:
            name = "spy"

            def __init__(self):
                self.frames = []

            def run(self, ctx, session):
                self.frames.append(ctx.frame_index)
                assert ctx.result is not None  # runs after transmit

        spy = SpyStage()
        streamer = _streamer(parts, seed=2)
        session = streamer.session(trace, stages=_stages() + [spy])
        session.run(4)
        assert spy.frames == [0, 1, 2, 3]

    def test_stage_removal_changes_behaviour(self, parts):
        """Dropping the Scorer yields an empty outcome — stages really are
        the only writers."""
        _, _, _, trace = parts
        stages = [s for s in _stages() if not isinstance(s, Scorer)]
        session = _streamer(parts, seed=2).session(trace, stages=stages)
        outcome = session.run(2)
        assert outcome.stats == []


class TestControlPlaneLeave:
    def test_evicted_user_is_not_tracked_again(self, parts):
        """A control-plane leave drops the receiver for good: later frames
        open their receiver state for the live membership only, so closing
        them does not re-create the leaver's tally (faults off)."""
        scenario = parts[0]
        positions = scenario.place_arc(3, 3.0, 60, seed=4)
        trace = scenario.static_trace(positions, duration_s=0.3, seed=5)
        streamer = _streamer(parts, seed=1)
        session = streamer.session(trace)
        session.begin(3)
        session.stream_frame(0)
        assert session.evict_user(2)
        session.stream_frame(1)
        session.stream_frame(2)
        assert streamer.transmitter.tracked_users() == [0, 1]
        assert streamer.transmitter.user_state(2) is None


class TestRetrackBeams:
    def test_hoisted_retrack_matches_policy_object(self, parts):
        """The NO_UPDATE policy owns sector re-tracking; re-tracking a
        fresh allocation against the state it was planned on is a no-op."""
        scenario, _, _, trace = parts
        streamer = _streamer(parts, seed=3)
        snapshot = trace.at_time(0.0)
        users = trace.user_ids()
        from repro.quality.curves import FrameFeatureContext

        context = FrameFeatureContext.from_probe(streamer.probes[0])
        allocation = streamer._plan(
            snapshot.estimated_state, users, {u: context for u in users}
        )
        retracked = BeamTrackingStrategy.retrack_beams(
            streamer.codebook,
            streamer.channel_model,
            allocation,
            snapshot.estimated_state,
        )
        assert len(retracked.groups) == len(allocation.groups)
        assert retracked.bytes_allocated is allocation.bytes_allocated
        assert retracked.time_s is allocation.time_s

    def test_retrack_handles_missing_channels(self, parts):
        """Users absent from the estimated state keep their frozen beam."""
        _, _, _, trace = parts
        streamer = _streamer(parts, seed=3)
        snapshot = trace.at_time(0.0)
        users = trace.user_ids()
        from repro.quality.curves import FrameFeatureContext

        context = FrameFeatureContext.from_probe(streamer.probes[0])
        allocation = streamer._plan(
            snapshot.estimated_state, users, {u: context for u in users}
        )

        class EmptyState:
            channels = {}

        retracked = BeamTrackingStrategy.retrack_beams(
            streamer.codebook, streamer.channel_model, allocation, EmptyState()
        )
        for before, after in zip(allocation.groups, retracked.groups):
            assert np.array_equal(before.plan.beam, after.plan.beam)

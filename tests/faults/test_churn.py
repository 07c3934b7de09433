"""Receiver churn: mid-session leave/rejoin with correct per-user stats."""

import numpy as np

from repro.faults import FaultController, FaultEvent, FaultKind, FaultSchedule
from repro.obs import OBS, observed
from repro.types import FrameStats

from tests.faults.conftest import build_streamer


def _churn_session(parts, events, seed=7):
    streamer = build_streamer(parts, seed=seed)
    controller = FaultController(FaultSchedule(events=list(events)))
    return streamer, streamer.session(parts[3], faults=controller)


class TestLeaveRejoin:
    """User 1 leaves at t=0.05 and rejoins at t=0.15 (8 frames at 30 FPS:
    absent for frames 2-4, present for 0, 1, 5, 6, 7)."""

    EVENTS = [
        FaultEvent(FaultKind.LEAVE, 0.05, user=1),
        FaultEvent(FaultKind.JOIN, 0.15, user=1),
    ]

    def test_per_user_stats_cover_only_present_frames(self, parts):
        streamer, session = _churn_session(parts, self.EVENTS)
        outcome = session.run(8)
        frames_by_user = {}
        for stat in outcome.stats:
            frames_by_user.setdefault(stat.user_id, []).append(
                stat.frame_index
            )
        assert frames_by_user[0] == list(range(8))
        assert frames_by_user[1] == [0, 1, 5, 6, 7]
        assert len(outcome.ssim_series(1)) == 5
        assert set(outcome.per_user_ssim()) == {0, 1}
        assert np.isfinite(list(outcome.per_user_ssim().values())).all()

    def test_transmitter_state_evicted_and_rebuilt(self, parts):
        """The churn-leak fix: the departed receiver's transmitter tally is
        dropped on leave and restarts from scratch on rejoin."""
        streamer, session = _churn_session(parts, self.EVENTS)
        session.run(8)
        transmitter = streamer.transmitter
        assert transmitter.tracked_users() == [0, 1]
        assert transmitter.user_state(0).frames == 8
        assert transmitter.user_state(1).frames == 3  # post-rejoin only

    def test_rejoin_resets_bandwidth_history(self, parts):
        _, session = _churn_session(parts, self.EVENTS)
        observed_fractions = []
        # Feedback folds in per cohort; count how many batched updates
        # include user 1's row.
        estimator = session.cohort_bw
        row = estimator.rows([1])[0]
        original_rows = estimator.observe_fraction_rows

        def spy_rows(rows, fractions, rng):
            observed_fractions.extend(fractions[rows == row].tolist())
            return original_rows(rows, fractions, rng)

        estimator.observe_fraction_rows = spy_rows
        session.run(8)
        assert len(observed_fractions) == 5  # one per present frame

    def test_churn_counters(self, parts):
        _, session = _churn_session(parts, self.EVENTS)
        with observed("counters"):
            session.run(8)
            counters = OBS.counters()
        assert counters["fault.churn.leaves"] == 1
        assert counters["fault.churn.joins"] == 1
        assert counters["fault.churn.replans"] == 2  # leave + rejoin
        assert counters["transport.users_evicted"] == 1

    def test_outcome_identical_across_same_seed_runs(self, parts):
        first = _churn_session(parts, self.EVENTS)[1].run(8)
        second = _churn_session(parts, self.EVENTS)[1].run(8)
        assert [
            (s.frame_index, s.user_id, s.ssim) for s in first.stats
        ] == [(s.frame_index, s.user_id, s.ssim) for s in second.stats]


class TestEveryoneLeaves:
    def test_idle_frames_skipped_session_completes(self, parts):
        events = [
            FaultEvent(FaultKind.LEAVE, 0.0, user=0),
            FaultEvent(FaultKind.LEAVE, 0.0, user=1),
            FaultEvent(FaultKind.JOIN, 0.1, user=0),
            FaultEvent(FaultKind.JOIN, 0.1, user=1),
        ]
        _, session = _churn_session(parts, events)
        with observed("counters"):
            outcome = session.run(6)
            counters = OBS.counters()
        assert counters["fault.churn.idle_frames"] == 3  # t = 0, .033, .067
        streamed_frames = sorted({s.frame_index for s in outcome.stats})
        assert streamed_frames == [3, 4, 5]


class TestSeriesIndexRefresh:
    def test_cached_series_index_tracks_growth(self, parts):
        """Regression: OutcomeStats caches its per-user series index; stats
        appended after a query (late rejoin, incremental scoring) must show
        up in subsequent queries instead of serving the stale index."""
        _, session = _churn_session(parts, TestLeaveRejoin.EVENTS)
        outcome = session.run(8)
        before = len(outcome.ssim_series(1))
        outcome.stats.append(
            FrameStats(
                frame_index=99, user_id=1, ssim=0.5, psnr_db=20.0,
                bytes_received_per_layer=(0.0,), deadline_met=True,
            )
        )
        series = outcome.ssim_series(1)
        assert len(series) == before + 1
        assert series[-1] == 0.5
        assert 99 in [s.frame_index for s in outcome.stats if s.user_id == 1]

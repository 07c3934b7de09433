"""Graceful degradation: stale-feedback decay and bounded beacon retries."""

import pytest

from repro.core import pipeline
from repro.faults import FaultController, FaultEvent, FaultKind, FaultSchedule
from repro.faults.config import STALE_DECAY
from repro.obs import OBS, observed

from tests.faults.conftest import build_streamer


def _session_with(parts, events, seed=7, **overrides):
    streamer = build_streamer(parts, seed=seed, **overrides)
    controller = FaultController(FaultSchedule(events=list(events)))
    return streamer.session(parts[3], faults=controller)


class TestFeedbackLossDegradation:
    def test_outage_decays_estimate_and_recovers(self, parts):
        """Frames 1-2 lose user 0's report (30 FPS: window [0.03, 0.09));
        the estimator decays instead of freezing, and the staleness clears
        with a recovery count once reports resume."""
        session = _session_with(parts, [
            FaultEvent(FaultKind.FEEDBACK_LOSS, 0.03, 0.06, user=0),
        ])
        with observed("counters"):
            session.run(4)
            counters = OBS.counters()
        assert counters["fault.feedback_loss.reports_lost"] == 2
        assert counters["fault.feedback_loss.recoveries"] == 1
        assert session.state.feedback_staleness == {}

    def test_outage_estimate_below_healthy_run(self, parts):
        """A long outage with decay must end with a lower estimate than the
        healthy replay of the same session."""
        _, _, _, trace = parts
        clean_session = build_streamer(parts, seed=7).session(trace)
        clean_session.run(5)
        clean = clean_session.state.bw_estimators[0].estimate_bytes_per_s

        session = _session_with(
            parts,
            [FaultEvent(FaultKind.FEEDBACK_LOSS, 0.02, 10.0, user=0)],
        )
        session.run(5)
        # User 0 reported once (frame 0) then decayed four times by
        # STALE_DECAY.
        faulted = session.state.bw_estimators[0].estimate_bytes_per_s
        assert faulted is not None and clean is not None
        assert session.state.feedback_staleness[0] == 4
        assert faulted < clean

    def test_each_silent_frame_decays_by_stale_decay(self, parts):
        """Frame 0 reports; every later frame is silent and multiplies the
        last-known-good estimate by ``STALE_DECAY``."""
        session = _session_with(parts, [
            FaultEvent(FaultKind.FEEDBACK_LOSS, 0.02, 10.0, user=0),
        ])
        session.begin(5)
        session.stream_frame(0)
        view = session.state.bw_estimators[0]
        estimates = [view.estimate_bytes_per_s]
        for frame in range(1, 5):
            session.stream_frame(frame)
            estimates.append(view.estimate_bytes_per_s)
        for before, after in zip(estimates, estimates[1:]):
            assert after == pytest.approx(before * STALE_DECAY, rel=1e-12)

    def test_untouched_user_unaffected(self, parts):
        """User 1 keeps observing normally during user 0's outage."""
        session = _session_with(parts, [
            FaultEvent(FaultKind.FEEDBACK_LOSS, 0.0, 10.0, user=0),
        ])
        session.run(3)
        assert session.state.bw_estimators[1].estimate_bytes_per_s is not None
        assert 1 not in session.state.feedback_staleness


class TestBeaconLossDegradation:
    def test_bounded_retry_then_timeout(self, parts):
        """A beacon outage spanning frames 3-6 retries up to the configured
        bound, then falls back through the strategy exactly once."""
        session = _session_with(parts, [
            FaultEvent(FaultKind.BEACON_LOSS, 0.09, 0.16),
        ])
        with observed("counters"):
            session.run(7)
            counters = OBS.counters()
        # Beacon due at frame 3 is lost; frames 4-6 keep it due (the retry
        # path leaves last_plan_time untouched) and stay inside the window.
        assert counters["fault.beacon.lost"] == 4
        assert counters["fault.beacon.timeouts"] == 1
        assert session.state.beacon_retries == 0
        assert session.state.ap_allocations[0] is not None

    def test_short_outage_never_times_out(self, parts):
        """One lost beacon with a healthy next frame: retried, no timeout."""
        session = _session_with(parts, [
            FaultEvent(FaultKind.BEACON_LOSS, 0.09, 0.03),
        ])
        with observed("counters"):
            session.run(7)
            counters = OBS.counters()
        assert counters["fault.beacon.lost"] == 1
        assert "fault.beacon.timeouts" not in counters

    def test_retry_bound_respected(self, parts, monkeypatch):
        """A retry bound of 0 times out on the first lost beacon."""
        monkeypatch.setattr(pipeline, "MAX_BEACON_RETRIES", 0)
        session = _session_with(
            parts, [FaultEvent(FaultKind.BEACON_LOSS, 0.09, 0.16)]
        )
        with observed("counters"):
            session.run(7)
            counters = OBS.counters()
        assert counters["fault.beacon.timeouts"] == pytest.approx(
            counters["fault.beacon.lost"]
        )

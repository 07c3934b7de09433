"""FaultEvent/FaultSchedule semantics plus the seeded-generation properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults import FaultConfig, FaultEvent, FaultKind, FaultSchedule
from repro.faults.config import (
    BEACON_LOSS_DURATION_S,
    CHURN_DOWNTIME_S,
    ERASURE_DURATION_S,
    ERASURE_PROB,
)


def _ev(kind, start, duration=0.0, **kwargs):
    return FaultEvent(kind, start, duration, **kwargs)


class TestFaultEvent:
    def test_windowed_needs_duration(self):
        with pytest.raises(ConfigurationError):
            _ev(FaultKind.BLOCKAGE, 0.0, 0.0, user=0)

    def test_churn_needs_user(self):
        with pytest.raises(ConfigurationError):
            _ev(FaultKind.LEAVE, 0.1)

    @pytest.mark.parametrize("bad", [
        dict(kind=FaultKind.ERASURE, start_s=-1.0, duration_s=0.1),
        dict(kind=FaultKind.ERASURE, start_s=0.0, duration_s=-0.1),
        dict(kind=FaultKind.ERASURE, start_s=0.0, duration_s=0.1,
             probability=1.5),
        dict(kind=FaultKind.BLOCKAGE, start_s=0.0, duration_s=0.1,
             magnitude_db=-2.0),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            FaultEvent(**bad)

    def test_window_half_open(self):
        event = _ev(FaultKind.SNR_DIP, 1.0, 0.5)
        assert not event.active_at(0.999)
        assert event.active_at(1.0)
        assert event.active_at(1.499)
        assert not event.active_at(1.5)
        assert event.end_s == 1.5

    def test_applies_to(self):
        targeted = _ev(FaultKind.BLOCKAGE, 0.0, 1.0, user=3)
        broadcast = _ev(FaultKind.SNR_DIP, 0.0, 1.0)
        assert targeted.applies_to(3) and not targeted.applies_to(4)
        assert broadcast.applies_to(3) and broadcast.applies_to(4)


class TestScheduleQueries:
    def test_events_sorted_by_start(self):
        schedule = FaultSchedule(events=[
            _ev(FaultKind.SNR_DIP, 0.5, 0.1),
            _ev(FaultKind.BLOCKAGE, 0.1, 0.1, user=0),
        ])
        assert [e.start_s for e in schedule.events] == [0.1, 0.5]
        assert len(schedule) == 2

    def test_attenuation_stacks(self):
        schedule = FaultSchedule(events=[
            _ev(FaultKind.BLOCKAGE, 0.0, 1.0, user=0, magnitude_db=18.0),
            _ev(FaultKind.SNR_DIP, 0.0, 1.0, magnitude_db=6.0),
        ])
        assert schedule.rss_offset_db(0.5, 0) == -24.0
        assert schedule.rss_offset_db(0.5, 1) == -6.0  # blockage targets 0
        assert schedule.rss_offset_db(2.0, 0) == 0.0  # outside both windows

    def test_erasure_probabilities_combine_independently(self):
        schedule = FaultSchedule(events=[
            _ev(FaultKind.ERASURE, 0.0, 1.0, probability=0.5),
            _ev(FaultKind.ERASURE, 0.5, 1.0, probability=0.5),
        ])
        assert schedule.erasure_prob(0.25) == pytest.approx(0.5)
        assert schedule.erasure_prob(0.75) == pytest.approx(0.75)
        assert schedule.erasure_prob(2.0) == 0.0

    def test_feedback_and_beacon_windows(self):
        schedule = FaultSchedule(events=[
            _ev(FaultKind.FEEDBACK_LOSS, 0.0, 0.2, user=1),
            _ev(FaultKind.BEACON_LOSS, 0.1, 0.1),
        ])
        assert schedule.feedback_lost(0.1, 1)
        assert not schedule.feedback_lost(0.1, 0)
        assert not schedule.feedback_lost(0.3, 1)
        assert schedule.beacon_lost(0.15)
        assert not schedule.beacon_lost(0.05)

    def test_active_filters_kind_time_user(self):
        blockage = _ev(FaultKind.BLOCKAGE, 0.0, 1.0, user=0, magnitude_db=1.0)
        schedule = FaultSchedule(events=[
            blockage, _ev(FaultKind.ERASURE, 0.0, 1.0, probability=0.1),
        ])
        assert schedule.active(FaultKind.BLOCKAGE, 0.5, user=0) == [blockage]
        assert schedule.active(FaultKind.BLOCKAGE, 0.5, user=1) == []
        assert len(schedule.events_active_at(0.5)) == 2

    def test_churn_toggles_presence(self):
        schedule = FaultSchedule(events=[
            _ev(FaultKind.LEAVE, 0.1, user=1),
            _ev(FaultKind.JOIN, 0.3, user=1),
        ])
        assert schedule.active_users([0, 1], 0.0) == [0, 1]
        assert schedule.active_users([0, 1], 0.2) == [0]
        assert schedule.active_users([0, 1], 0.3) == [0, 1]

    def test_late_joiner_via_leave_at_zero(self):
        schedule = FaultSchedule(events=[
            _ev(FaultKind.LEAVE, 0.0, user=0),
            _ev(FaultKind.JOIN, 0.5, user=0),
        ])
        assert schedule.active_users([0], 0.0) == []
        assert schedule.active_users([0], 0.5) == [0]

    def test_summary_counts_kinds(self):
        schedule = FaultSchedule(events=[
            _ev(FaultKind.ERASURE, 0.0, 1.0),
            _ev(FaultKind.ERASURE, 1.0, 1.0),
            _ev(FaultKind.LEAVE, 0.0, user=0),
        ])
        assert schedule.summary() == {"erasure": 2, "leave": 1}


class TestGeneration:
    def test_zero_rates_empty(self):
        schedule = FaultSchedule.generate(FaultConfig(), 1.0, [0, 1])
        assert len(schedule) == 0

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.generate(FaultConfig(), 0.0, [0])

    def test_extra_events_kept(self):
        extra = _ev(FaultKind.ERASURE, 0.0, 1.0, probability=0.3)
        schedule = FaultSchedule.generate(
            FaultConfig(), 1.0, [0], extra_events=[extra]
        )
        assert schedule.events == [extra]

    def test_churn_pairs_leave_with_join(self):
        config = FaultConfig(seed=3, churn_rate_hz=2.0)
        schedule = FaultSchedule.generate(config, 2.0, [0, 1])
        summary = schedule.summary()
        assert summary.get("leave", 0) == summary.get("join", 0)
        for event in schedule.events:
            if event.kind is FaultKind.JOIN:
                assert any(
                    other.kind is FaultKind.LEAVE
                    and other.user == event.user
                    and other.start_s
                    == pytest.approx(event.start_s - CHURN_DOWNTIME_S)
                    for other in schedule.events
                )

    @given(
        seed=st.integers(0, 2**20),
        blockage=st.floats(0.0, 4.0),
        feedback=st.floats(0.0, 4.0),
        churn=st.floats(0.0, 2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_seed_reproducible(self, seed, blockage, feedback, churn):
        """Property: a (config, duration, users) triple fully determines the
        timeline — chaos runs are replayable by construction."""
        config = FaultConfig(
            seed=seed,
            blockage_rate_hz=blockage,
            feedback_loss_rate_hz=feedback,
            churn_rate_hz=churn,
        )
        first = FaultSchedule.generate(config, 1.0, [0, 1, 2])
        second = FaultSchedule.generate(config, 1.0, [0, 1, 2])
        assert first.events == second.events

    @given(seed=st.integers(0, 2**20), rate=st.floats(0.1, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_generated_events_well_formed(self, seed, rate):
        """Property: starts land in [0, duration), targets are real users,
        and every windowed event carries its configured shape."""
        config = FaultConfig(
            seed=seed, blockage_rate_hz=rate, erasure_rate_hz=rate,
            beacon_loss_rate_hz=rate,
        )
        users = [0, 7]
        duration = 1.5
        schedule = FaultSchedule.generate(config, duration, users)
        for event in schedule.events:
            assert 0.0 <= event.start_s < duration
            if event.user is not None:
                assert event.user in users
            if event.kind is FaultKind.BLOCKAGE:
                assert event.magnitude_db == config.blockage_depth_db
            if event.kind is FaultKind.ERASURE:
                assert event.probability == ERASURE_PROB
                assert event.duration_s == ERASURE_DURATION_S
            if event.kind is FaultKind.BEACON_LOSS:
                assert event.duration_s == BEACON_LOSS_DURATION_S


class TestPerApEvents:
    """AP-tagged events scope to one AP's link; untagged hit every AP."""

    def test_untagged_event_reaches_every_ap(self):
        event = _ev(FaultKind.BLOCKAGE, 0.0, 0.5, user=0, magnitude_db=10)
        assert event.applies_to_ap(None)
        assert event.applies_to_ap(0)
        assert event.applies_to_ap(3)

    def test_tagged_event_reaches_only_its_ap(self):
        event = _ev(
            FaultKind.BLOCKAGE, 0.0, 0.5, user=0, magnitude_db=10, ap=1
        )
        assert event.applies_to_ap(1)
        assert not event.applies_to_ap(0)
        # An untagged query is the single-AP pipeline, which means AP 0.
        assert not event.applies_to_ap(None)

    def test_ap0_tag_matches_untagged_query(self):
        event = _ev(
            FaultKind.BLOCKAGE, 0.0, 0.5, user=0, magnitude_db=10, ap=0
        )
        assert event.applies_to_ap(None)

    def test_rss_offset_scoped_per_ap(self):
        schedule = FaultSchedule(events=[
            _ev(FaultKind.BLOCKAGE, 0.0, 1.0, user=0, magnitude_db=20, ap=0),
            _ev(FaultKind.BLOCKAGE, 0.0, 1.0, user=0, magnitude_db=5, ap=1),
            _ev(FaultKind.SNR_DIP, 0.0, 1.0, magnitude_db=3),  # every AP
        ])
        assert schedule.rss_offset_db(0.5, 0, ap=0) == -23.0
        assert schedule.rss_offset_db(0.5, 0, ap=1) == -8.0
        assert schedule.rss_offset_db(0.5, 0) == -23.0  # None -> AP 0

    def test_multi_ap_generation_keeps_ap0_draws(self):
        """AP 0's blockage timeline inside a 2-AP schedule must replay the
        single-AP schedule's draws exactly — the failover sweep's 1-AP arm
        depends on it."""
        config = FaultConfig(seed=11, blockage_rate_hz=6.0)
        single = FaultSchedule.generate(config, 1.0, [0, 1])
        double = FaultSchedule.generate(config, 1.0, [0, 1], n_aps=2)
        single_blockage = [
            e for e in single.events if e.kind is FaultKind.BLOCKAGE
        ]
        ap0_blockage = [
            e for e in double.events
            if e.kind is FaultKind.BLOCKAGE and e.ap == 0
        ]
        assert [
            (e.start_s, e.duration_s, e.user, e.magnitude_db)
            for e in ap0_blockage
        ] == [
            (e.start_s, e.duration_s, e.user, e.magnitude_db)
            for e in single_blockage
        ]

    def test_multi_ap_generation_tags_only_blockage(self):
        config = FaultConfig(
            seed=3, blockage_rate_hz=4.0, erasure_rate_hz=4.0,
            snr_dip_rate_hz=4.0,
        )
        schedule = FaultSchedule.generate(config, 1.0, [0], n_aps=2)
        for event in schedule.events:
            if event.kind is FaultKind.BLOCKAGE:
                assert event.ap in (0, 1)
            else:
                assert event.ap is None

    def test_single_ap_generation_stays_untagged(self):
        config = FaultConfig(seed=3, blockage_rate_hz=4.0)
        schedule = FaultSchedule.generate(config, 1.0, [0])
        assert all(e.ap is None for e in schedule.events)

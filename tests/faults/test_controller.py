"""FaultController clock/queries, OBS emission and estimator decay."""

import numpy as np
import pytest

from repro.errors import TransportError
from repro.faults import (
    FaultConfig,
    FaultController,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from repro.obs import OBS, observed
from repro.transport import CohortBandwidthEstimator


def _controller(events):
    return FaultController(FaultSchedule(events=list(events)))


def _estimator(measured=None, **kwargs):
    """One receiver's bandwidth estimator, as sessions hold it, after an
    optional first delivery-fraction measurement."""
    cohort = CohortBandwidthEstimator([0], **kwargs)
    if measured is not None:
        cohort.observe_fraction_rows(
            cohort.rows([0]), np.array([measured]), np.random.default_rng(0)
        )
    return cohort.view(0)


class TestControllerQueries:
    def test_clock_advances_with_begin_frame(self):
        controller = _controller([
            FaultEvent(FaultKind.ERASURE, 0.1, 0.1, probability=0.4),
        ])
        active = controller.begin_frame(0, 0.0, [0, 1])
        assert active == [0, 1]
        assert controller.erasure_scale() == 1.0
        controller.begin_frame(3, 0.15, [0, 1])
        assert controller.now == 0.15
        assert controller.frame_index == 3
        assert controller.erasure_scale() == pytest.approx(0.6)

    def test_rss_offset_and_flags(self):
        controller = _controller([
            FaultEvent(FaultKind.BLOCKAGE, 0.0, 1.0, user=0,
                       magnitude_db=18.0),
            FaultEvent(FaultKind.FEEDBACK_LOSS, 0.0, 1.0, user=1),
            FaultEvent(FaultKind.BEACON_LOSS, 0.0, 1.0),
        ])
        controller.begin_frame(0, 0.5, [0, 1])
        assert controller.rss_offsets_db([0, 1]).tolist() == [-18.0, 0.0]
        assert controller.feedback_lost(1)
        assert not controller.feedback_lost(0)
        assert controller.beacon_lost()

    def test_begin_frame_resolves_churn(self):
        controller = _controller([
            FaultEvent(FaultKind.LEAVE, 0.1, user=1),
        ])
        assert controller.begin_frame(0, 0.0, [0, 1]) == [0, 1]
        assert controller.begin_frame(4, 0.2, [0, 1]) == [0]

    def test_from_config_binds_the_drawn_schedule(self):
        config = FaultConfig(seed=11, erasure_rate_hz=3.0)
        controller = FaultController.from_config(config, 2.0, [0, 1])
        assert controller.schedule.events
        assert all(
            e.kind is FaultKind.ERASURE for e in controller.schedule.events
        )


class TestObsEmission:
    def test_counters_once_per_event_then_per_frame(self):
        controller = _controller([
            FaultEvent(FaultKind.BLOCKAGE, 0.0, 0.1, user=0,
                       magnitude_db=5.0),
        ])
        with observed("counters"):
            controller.begin_frame(0, 0.0, [0])
            controller.begin_frame(1, 0.05, [0])
            controller.begin_frame(2, 0.2, [0])  # window over
            counters = OBS.counters()
        assert counters["fault.blockage.events"] == 1
        assert counters["fault.blockage.active_frames"] == 2

    def test_silent_when_obs_off(self):
        OBS.reset()
        controller = _controller([
            FaultEvent(FaultKind.SNR_DIP, 0.0, 1.0, magnitude_db=3.0),
        ])
        controller.begin_frame(0, 0.0, [0])
        assert OBS.counters() == {}


class TestEstimatorDecay:
    def test_decay_shrinks_estimate(self):
        estimator = _estimator(1.0, noise_std_fraction=0.0)
        before = estimator.estimate_bytes_per_s
        after = estimator.decay(0.5)
        assert after == pytest.approx(before * 0.5)

    def test_decay_before_measurement_is_noop(self):
        assert _estimator().decay(0.5) is None

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_bad_factor_rejected(self, factor):
        with pytest.raises(TransportError):
            _estimator().decay(factor)

    def test_decay_floors_above_zero(self):
        estimator = _estimator(1e-6, noise_std_fraction=0.0)
        for _ in range(100):
            estimator.decay(0.1)
        assert estimator.estimate_bytes_per_s >= 1e-9


class TestRssOffsets:
    """``rss_offsets_db`` is the per-user offset array the link takes."""

    def _two_ap_controller(self):
        return _controller([
            FaultEvent(FaultKind.BLOCKAGE, 0.0, 0.5, user=0,
                       magnitude_db=25.0, ap=0),
            FaultEvent(FaultKind.BLOCKAGE, 0.0, 0.5, user=0,
                       magnitude_db=7.0, ap=1),
            FaultEvent(FaultKind.SNR_DIP, 0.0, 0.5, user=1,
                       magnitude_db=3.0, ap=1),
        ])

    def test_ap_tagged_event_attenuates_only_its_ap(self):
        controller = self._two_ap_controller()
        controller.begin_frame(0, 0.25, [0, 1])
        assert controller.rss_offsets_db([0, 1], 0).tolist() == [-25.0, 0.0]
        assert controller.rss_offsets_db([0, 1], 1).tolist() == [-7.0, -3.0]
        assert controller.rss_offsets_db([0, 1], 2).tolist() == [0.0, 0.0]

    def test_ap_zero_equals_the_untagged_query(self):
        controller = self._two_ap_controller()
        controller.begin_frame(0, 0.25, [0, 1])
        untagged = controller.rss_offsets_db([1, 0])
        assert untagged.tolist() == [0.0, -25.0]  # aligned with the ids
        assert controller.rss_offsets_db([1, 0], 0).tolist() == untagged.tolist()

    def test_no_offsets_without_attenuation_events(self):
        controller = _controller([
            FaultEvent(FaultKind.ERASURE, 0.0, 1.0, probability=0.5),
            FaultEvent(FaultKind.FEEDBACK_LOSS, 0.0, 1.0, user=0),
        ])
        controller.begin_frame(0, 0.25, [0, 1])
        assert controller.rss_offsets_db([0, 1]) is None
        assert controller.rss_offsets_db([0, 1], 1) is None

    def test_offsets_follow_the_frame_clock(self):
        controller = self._two_ap_controller()
        controller.begin_frame(0, 0.25, [0, 1])
        assert controller.rss_offsets_db([0], 1).tolist() == [-7.0]
        controller.begin_frame(20, 0.75, [0, 1])  # window over
        assert controller.rss_offsets_db([0], 1).tolist() == [0.0]

    def test_real_link_takes_the_offsets(self, tx_world):
        scenario, state, groups, _ = tx_world
        from repro.transport import LinkModel

        plan = groups[0].plan
        target = groups[0].user_ids[0]
        other = 1 - target
        controller = _controller([
            FaultEvent(FaultKind.BLOCKAGE, 0.0, 0.5, user=target,
                       magnitude_db=30.0),
        ])
        controller.begin_frame(0, 0.25, [0, 1])
        link = LinkModel(scenario.channel_model)
        users = [target, other]
        clean = link.delivery_probability_array(users, plan.beam, state, plan.mcs)
        blocked = link.delivery_probability_array(
            users, plan.beam, state, plan.mcs,
            rss_offsets_db=controller.rss_offsets_db(users),
        )
        assert blocked[0] < clean[0]
        assert blocked[1] == clean[1]

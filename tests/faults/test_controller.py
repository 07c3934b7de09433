"""FaultController clock/queries, OBS emission and estimator decay."""

import numpy as np
import pytest

from repro.errors import TransportError
from repro.faults import (
    FaultConfig,
    FaultController,
    FaultedLinkModel,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from repro.obs import OBS, observed
from repro.transport import CohortBandwidthEstimator


def _controller(events, config=None):
    return FaultController(FaultSchedule(events=list(events)), config)


def _estimator(**kwargs):
    """One receiver's bandwidth estimator, as sessions hold it."""
    return CohortBandwidthEstimator([0], **kwargs).view(0)


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
        assert controller.rss_offset_db(0) == -18.0
        assert controller.rss_offset_db(1) == 0.0
        assert controller.feedback_lost(1)
        assert not controller.feedback_lost(0)
        assert controller.beacon_lost()

    def test_begin_frame_resolves_churn(self):
        controller = _controller([
            FaultEvent(FaultKind.LEAVE, 0.1, user=1),
        ])
        assert controller.begin_frame(0, 0.0, [0, 1]) == [0, 1]
        assert controller.begin_frame(4, 0.2, [0, 1]) == [0]

    def test_from_config_binds_schedule_and_config(self):
        config = FaultConfig(seed=11, erasure_rate_hz=3.0)
        controller = FaultController.from_config(config, 2.0, [0, 1])
        assert controller.config is config
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


class _StubLink:
    """Records the offsets the wrapper hands down."""

    def __init__(self):
        self.calls = []

    def delivery_probability(self, user, beam, true_state, mcs,
                             rss_offset_db=0.0):
        self.calls.append((user, rss_offset_db))
        return 1.0 / (1.0 + abs(rss_offset_db))


class TestLinkWrapping:
    def test_wrap_is_identity_without_attenuation_events(self):
        controller = _controller([
            FaultEvent(FaultKind.ERASURE, 0.0, 1.0, probability=0.5),
        ])
        link = _StubLink()
        assert controller.wrap_link(link) is link

    def test_wrap_applies_current_offset(self):
        controller = _controller([
            FaultEvent(FaultKind.BLOCKAGE, 0.0, 0.5, user=0,
                       magnitude_db=18.0),
        ])
        link = _StubLink()
        wrapped = controller.wrap_link(link)
        assert isinstance(wrapped, FaultedLinkModel)
        controller.begin_frame(0, 0.25, [0, 1])
        probs = wrapped.delivery_probabilities([0, 1], None, None, None)
        assert link.calls == [(0, -18.0), (1, 0.0)]
        assert probs[0] < probs[1]
        controller.begin_frame(20, 0.75, [0, 1])  # window over
        assert wrapped.delivery_probability(0, None, None, None) == 1.0

    def test_real_link_attenuation_lowers_delivery(self, tx_world):
        scenario, state, groups, _ = tx_world
        from repro.transport import LinkModel

        link = LinkModel(scenario.channel_model)
        group = groups[0]
        user = group.user_ids[0]
        clean = link.delivery_probability(
            user, group.plan.beam, state, group.plan.mcs
        )
        blocked = link.delivery_probability(
            user, group.plan.beam, state, group.plan.mcs, rss_offset_db=-30.0
        )
        assert blocked < clean


class TestEstimatorDecay:
    def test_decay_shrinks_estimate(self):
        estimator = _estimator(noise_std_fraction=0.0)
        estimator.observe_window(1000.0, 1.0, np.random.default_rng(0))
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
        estimator = _estimator(noise_std_fraction=0.0)
        estimator.observe_window(1e-6, 1.0, np.random.default_rng(0))
        for _ in range(100):
            estimator.decay(0.1)
        assert estimator.estimate_bytes_per_s >= 1e-9


class TestApScopedViews:
    """``controller.for_ap(ap)`` pins attenuation queries to one AP."""

    def _two_ap_controller(self):
        return _controller([
            FaultEvent(FaultKind.BLOCKAGE, 0.0, 0.5, user=0,
                       magnitude_db=25.0, ap=0),
            FaultEvent(FaultKind.BLOCKAGE, 0.0, 0.5, user=0,
                       magnitude_db=7.0, ap=1),
        ])

    def test_offsets_scoped_per_ap(self):
        controller = self._two_ap_controller()
        controller.begin_frame(0, 0.25, [0])
        assert controller.for_ap(0).rss_offset_db(0) == -25.0
        assert controller.for_ap(1).rss_offset_db(0) == -7.0
        # The unscoped (single-AP pipeline) query means AP 0.
        assert controller.rss_offset_db(0) == -25.0

    def test_scoped_views_share_the_frame_clock(self):
        controller = self._two_ap_controller()
        view = controller.for_ap(1)
        controller.begin_frame(0, 0.25, [0])
        assert view.rss_offset_db(0) == -7.0
        controller.begin_frame(20, 0.75, [0])  # window over
        assert view.rss_offset_db(0) == 0.0

    def test_scoped_wrap_link_applies_ap_offset(self):
        controller = self._two_ap_controller()
        controller.begin_frame(0, 0.25, [0])
        link = _StubLink()
        wrapped = controller.for_ap(1).wrap_link(link)
        assert isinstance(wrapped, FaultedLinkModel)
        wrapped.delivery_probability(0, None, None, None)
        assert link.calls == [(0, -7.0)]

    def test_scoped_wrap_is_identity_without_attenuation(self):
        controller = _controller([
            FaultEvent(FaultKind.ERASURE, 0.0, 1.0, probability=0.5),
        ])
        link = _StubLink()
        assert controller.for_ap(1).wrap_link(link) is link

    def test_non_attenuation_queries_unscoped(self):
        controller = _controller([
            FaultEvent(FaultKind.FEEDBACK_LOSS, 0.0, 0.5, user=2),
            FaultEvent(FaultKind.ERASURE, 0.0, 0.5, probability=0.25),
        ])
        controller.begin_frame(0, 0.25, [0, 2])
        for view in (controller.for_ap(0), controller.for_ap(1)):
            assert view.feedback_lost(2)
            assert not view.feedback_lost(0)
            assert view.erasure_scale() == 0.75
            assert not view.beacon_lost()

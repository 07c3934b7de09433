"""Tests for the PER model and pseudo multicast."""

import numpy as np
import pytest

from repro.errors import TransportError
from repro.obs import OBS, observed
from repro.phy.mcs import entry_for_index
from repro.transport.link import LinkModel, packet_error_rate
from repro.types import Position


class TestPerCurve:
    def test_monotone_decreasing_in_margin(self):
        margins = np.linspace(-6, 6, 25)
        pers = [packet_error_rate(m) for m in margins]
        assert all(b <= a + 1e-12 for a, b in zip(pers, pers[1:]))

    def test_at_sensitivity(self):
        assert packet_error_rate(0.0) == pytest.approx(1e-2)

    def test_floor_and_ceiling(self):
        assert packet_error_rate(20.0) == pytest.approx(1e-4)
        assert packet_error_rate(-20.0) == pytest.approx(0.97)

    def test_waterfall_above_sensitivity(self):
        assert packet_error_rate(1.0) == pytest.approx(1e-3)

    def test_collapse_below_sensitivity(self):
        assert packet_error_rate(-2.0) == pytest.approx(1e-1)


class TestLinkModel:
    @pytest.fixture()
    def setup(self, scenario, rng):
        users = {0: Position(3, 6), 1: Position(3.5, 7)}
        state = scenario.channel_model.snapshot(users, rng)
        beam = scenario.array.conjugate_beam(state.channels[0])
        return scenario, state, beam

    def test_strong_link_delivers(self, setup):
        scenario, state, beam = setup
        link = LinkModel(scenario.channel_model, associated_user=0)
        (prob,) = link.delivery_probability_array(
            [0], beam, state, entry_for_index(1)
        )
        assert prob > 0.99

    def test_associated_user_gets_mac_retries(self, setup):
        scenario, state, beam = setup
        mcs = entry_for_index(12)
        plain = LinkModel(scenario.channel_model, associated_user=None)
        assoc = LinkModel(scenario.channel_model, associated_user=0, mac_retries=2)
        p_plain = plain.delivery_probability_array([0, 1], beam, state, mcs)
        p_assoc = assoc.delivery_probability_array([0, 1], beam, state, mcs)
        assert p_assoc[0] >= p_plain[0]
        assert p_assoc[1] == p_plain[1]  # monitor-mode users see raw PER

    def test_higher_mcs_lower_delivery(self, setup):
        scenario, state, beam = setup
        link = LinkModel(scenario.channel_model)
        p_low = link.delivery_probability_array([0, 1], beam, state, entry_for_index(1))
        p_high = link.delivery_probability_array(
            [0, 1], beam, state, entry_for_index(12)
        )
        assert np.all(p_high <= p_low)

    def test_unknown_user_rejected(self, setup):
        scenario, state, beam = setup
        link = LinkModel(scenario.channel_model)
        with pytest.raises(TransportError):
            link.delivery_probability_array([0, 9], beam, state, entry_for_index(1))

    def test_batch_probabilities(self, setup):
        scenario, state, beam = setup
        link = LinkModel(scenario.channel_model)
        mcs = entry_for_index(1)
        probs = link.delivery_probability_array([1, 0], beam, state, mcs)
        assert probs.dtype == np.float64 and probs.shape == (2,)
        assert np.all((0.0 <= probs) & (probs <= 1.0))
        # Aligned with the ids asked for: each entry equals its one-user cohort.
        for user, prob in zip([1, 0], probs):
            assert link.delivery_probability_array([user], beam, state, mcs)[0] == prob
        assert link.delivery_probability_array([], beam, state, mcs).shape == (0,)

    def test_zero_offset_leaves_rss_untouched(self, setup):
        scenario, state, beam = setup
        link = LinkModel(scenario.channel_model, associated_user=0)
        mcs = entry_for_index(12)
        clean = link.delivery_probability_array([0, 1], beam, state, mcs)
        zero = link.delivery_probability_array(
            [0, 1], beam, state, mcs, rss_offsets_db=np.array([0.0, -0.0])
        )
        assert clean.tobytes() == zero.tobytes()

    def test_negative_offset_lowers_delivery(self, setup):
        scenario, state, beam = setup
        link = LinkModel(scenario.channel_model)
        mcs = entry_for_index(1)
        clean = link.delivery_probability_array([0, 1], beam, state, mcs)
        blocked = link.delivery_probability_array(
            [0, 1], beam, state, mcs, rss_offsets_db=np.array([-30.0, 0.0])
        )
        assert blocked[0] < clean[0]
        assert blocked[1] == clean[1]

    def test_observation_records_the_array_result(self, setup):
        scenario, state, beam = setup
        link = LinkModel(scenario.channel_model)
        mcs = entry_for_index(1)
        offsets = np.array([-3.0, 0.0])
        with observed("counters"):
            probs = link.delivery_probability_array(
                [0, 1], beam, state, mcs, rss_offsets_db=offsets
            )
            counters, gauges = OBS.counters(), OBS.gauges()
            histogram = OBS.histograms()["link.delivery_prob"]
        assert counters["link.prob_evals"] == 2
        assert list(gauges) == [
            "link.user.0.rss_dbm", "link.user.0.margin_db",
            "link.user.1.rss_dbm", "link.user.1.margin_db",
        ]
        for user, offset in zip([0, 1], offsets):
            rss = scenario.channel_model.rss_dbm(beam, state.channels[user])
            if offset:
                rss += offset
            assert gauges[f"link.user.{user}.rss_dbm"] == rss
            assert gauges[f"link.user.{user}.margin_db"] == rss - mcs.sensitivity_dbm
        assert histogram.samples.tolist() == probs.tolist()

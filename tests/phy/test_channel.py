"""Tests for channel synthesis and the link budget."""

import numpy as np
import pytest

from repro.errors import ChannelError
from repro.phy.antenna import PhasedArray
from repro.phy.channel import ChannelModel, LinkBudget
from repro.phy.csi import CsiEstimator
from repro.phy.raytracer import RayTracer, Room
from repro.types import Position


@pytest.fixture()
def model():
    return ChannelModel(
        RayTracer(Room(20, 12), Position(0.5, 6.0)), PhasedArray(32, 2)
    )


class TestLinkBudget:
    def test_rss_formula(self):
        budget = LinkBudget(tx_power_dbm=18, rx_gain_db=3, implementation_loss_db=2)
        assert budget.rss_dbm(1.0) == pytest.approx(19.0)
        assert budget.rss_dbm(0.1) == pytest.approx(9.0)

    def test_zero_gain_is_minus_infinity(self):
        assert LinkBudget().rss_dbm(0.0) == -np.inf


class TestChannelModel:
    def test_vector_length_matches_array(self, model, rng):
        h = model.channel_vector(Position(5, 6), rng)
        assert h.shape == (32,)
        assert h.dtype == complex

    def test_magnitude_decays_with_distance(self, model, rng):
        near = np.mean([
            np.linalg.norm(model.channel_vector(Position(3, 6), rng))
            for _ in range(10)
        ])
        far = np.mean([
            np.linalg.norm(model.channel_vector(Position(15, 6), rng))
            for _ in range(10)
        ])
        assert near > far

    def test_blockage_reduces_energy(self, model, rng):
        clear = np.mean([
            np.linalg.norm(model.channel_vector(Position(5, 6), rng)) ** 2
            for _ in range(10)
        ])
        blocked = np.mean([
            np.linalg.norm(
                model.channel_vector(Position(5, 6), rng, los_extra_loss_db=22)
            ) ** 2
            for _ in range(10)
        ])
        assert blocked < clear

    def test_conjugate_rss_in_table2_range(self, model, rng):
        """At 3 m a matched beam should land comfortably inside Table 2."""
        h = model.channel_vector(Position(3.5, 6), rng)
        beam = model.array.conjugate_beam(h)
        rss = model.rss_dbm(beam, h)
        assert -60 < rss < -35

    def test_snapshot_contains_all_users(self, model, rng):
        users = {0: Position(3, 6), 1: Position(5, 7)}
        state = model.snapshot(users, rng, time_s=1.5)
        assert state.user_ids == [0, 1]
        assert state.time_s == 1.5
        assert state.positions[1] == Position(5, 7)


class TestChannelState:
    def test_stacked_shape(self, model, rng):
        state = model.snapshot({0: Position(3, 6), 1: Position(5, 7)}, rng)
        stacked = state.stacked([0, 1])
        assert stacked.shape == (2, 32)

    def test_stacked_missing_user_rejected(self, model, rng):
        state = model.snapshot({0: Position(3, 6)}, rng)
        with pytest.raises(ChannelError):
            state.stacked([0, 7])


class TestBlockIndependence:
    """A row of a block is its receiver's channel alone, from the same
    stream: U one-receiver calls equal one U-receiver call."""

    def test_snapshot_equals_one_receiver_calls(self, model):
        receivers = {
            u: Position(1.0 + 1.7 * u, 1.0 + 1.3 * u) for u in range(7)
        }
        extra = {1: 22.0, 4: 22.0}
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        state = model.snapshot(receivers, rng, los_extra_loss_db=extra)
        for user, position in receivers.items():
            alone = model.channel_vector(position, ref_rng, extra.get(user, 0.0))
            assert state.channels[user].tobytes() == alone.tobytes()
            assert state.channels[user].flags.c_contiguous
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_estimate_state_equals_one_row_estimates(self, model):
        receivers = {u: Position(2.0 + u, 3.0 + 0.5 * u) for u in range(5)}
        state = model.snapshot(receivers, np.random.default_rng(1))
        estimator = CsiEstimator(0.1)
        rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        estimated = estimator.estimate_state(state, rng)
        for user, h in state.channels.items():
            alone = estimator.estimate(h, ref_rng)
            assert estimated.channels[user].tobytes() == alone.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

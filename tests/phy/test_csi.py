"""Tests for CSI estimation and trace persistence."""

import numpy as np
import pytest

from repro.emulation.scenario import EmulationScenario
from repro.errors import ChannelError
from repro.phy.channel import ChannelState
from repro.phy.csi import CsiEstimator, CsiSnapshot, CsiTrace
from repro.types import Position


def _state(rng, time_s=0.0, users=(0, 1)):
    channels = {
        u: (rng.normal(size=8) + 1j * rng.normal(size=8)) * 1e-4 for u in users
    }
    positions = {u: Position(float(u), 1.0) for u in users}
    return ChannelState(channels, positions, time_s)


class TestCsiEstimator:
    def test_estimate_close_to_truth(self, rng):
        estimator = CsiEstimator(relative_error_std=0.05)
        truth = _state(rng)
        estimate = estimator.estimate(truth.channels[0], rng)
        relative = np.linalg.norm(estimate - truth.channels[0]) / np.linalg.norm(
            truth.channels[0]
        )
        assert relative < 0.2

    def test_error_scales_with_std(self, rng):
        truth = _state(rng).channels[0]
        tight = CsiEstimator(0.01)
        loose = CsiEstimator(0.5)
        err_tight = np.mean([
            np.linalg.norm(tight.estimate(truth, rng) - truth) for _ in range(20)
        ])
        err_loose = np.mean([
            np.linalg.norm(loose.estimate(truth, rng) - truth) for _ in range(20)
        ])
        assert err_loose > err_tight

    def test_estimate_state_preserves_users(self, rng):
        estimator = CsiEstimator()
        state = _state(rng)
        estimated = estimator.estimate_state(state, rng)
        assert estimated.user_ids == state.user_ids
        assert estimated.positions == state.positions


class TestCsiTrace:
    def _trace(self, rng, ticks=5):
        trace = CsiTrace(beacon_interval_s=0.1)
        estimator = CsiEstimator()
        for tick in range(ticks):
            t = tick * 0.1
            state = _state(rng, time_s=t)
            trace.append(CsiSnapshot(t, state, estimator.estimate_state(state, rng)))
        return trace

    def test_at_time_zero_order_hold(self, rng):
        trace = self._trace(rng)
        assert trace.at_time(0.05).time_s == pytest.approx(0.0)
        assert trace.at_time(0.25).time_s == pytest.approx(0.2)
        assert trace.at_time(99.0).time_s == pytest.approx(0.4)

    def test_duration(self, rng):
        trace = self._trace(rng, ticks=5)
        assert trace.duration_s == pytest.approx(0.5)

    def test_empty_trace_rejected(self):
        with pytest.raises(ChannelError):
            CsiTrace().at_time(0.0)
        with pytest.raises(ChannelError):
            CsiTrace().save("nope.npz")

    def test_save_load_roundtrip(self, rng, tmp_path):
        trace = self._trace(rng)
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = CsiTrace.load(path)
        assert len(loaded) == len(trace)
        assert loaded.user_ids() == trace.user_ids()
        original = trace.snapshots[2].true_state.channels[1]
        restored = loaded.snapshots[2].true_state.channels[1]
        np.testing.assert_allclose(original, restored)
        assert loaded.snapshots[3].estimated_state.positions[0] == Position(0.0, 1.0)


class TestMultiApTracePersistence:
    def test_save_load_roundtrip_is_byte_exact(self, tmp_path):
        scenario = EmulationScenario()
        positions = scenario.place_arc(3, 4.0, 90, seed=2)
        trace = scenario.static_trace(positions, duration_s=0.3, seed=4, num_aps=3)
        path = tmp_path / "trace3.npz"
        trace.save(path)
        loaded = CsiTrace.load(path)
        assert loaded.n_aps == 3
        assert len(loaded) == len(trace)
        for snap, back in zip(trace, loaded):
            assert back.time_s == snap.time_s
            for state, restored in (
                (snap.true_state, back.true_state),
                (snap.estimated_state, back.estimated_state),
            ):
                assert restored.positions == state.positions
                for ap in range(3):
                    channels = state.for_ap(ap).channels
                    again = restored.for_ap(ap).channels
                    assert list(again) == list(channels)
                    for user, h in channels.items():
                        assert again[user].tobytes() == h.tobytes()

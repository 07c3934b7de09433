"""Static traces traced once per receiver equal the per-tick ray tracing.

``static_trace`` used to re-run the image-method tracer for every receiver
on every tick.  Receivers in a static trace never move, so their paths,
carrier phasors and steering vectors are now traced once per (receiver,
AP) and only the shadowing is drawn per tick, in the same order.  The
per-tick loop over the old ``channel_vector`` is kept here, frozen, and
every true and estimated channel must equal it bit for bit.
"""

from typing import Dict, List

import numpy as np
import pytest

from repro.phy.channel import ChannelState
from repro.phy.csi import CsiSnapshot, CsiTrace
from repro.phy.mobility import BEACON_INTERVAL_S
from repro.phy.propagation import path_amplitude, path_phase_rad
from repro.types import validate_seed


def frozen_channel_vector(model, receiver, rng, los_extra_loss_db=0.0):
    """``ChannelModel.channel_vector`` as it stood before: trace, then sum."""
    paths = model.tracer.trace(receiver)
    h = np.zeros(model.array.num_elements, dtype=complex)
    for path in paths:
        loss = path.loss_db
        if path.is_los:
            loss += los_extra_loss_db
        loss += float(rng.normal(0.0, model.fading_std_db))
        amplitude = path_amplitude(loss)
        phase = path_phase_rad(path.length_m)
        h += amplitude * np.exp(1j * phase) * model.array.steering_vector(path.aod_rad)
    return h


def frozen_static_trace(scenario, positions, duration_s, seed, num_aps):
    """``static_trace`` as it stood before: every receiver traced every tick."""
    receivers = {i: p for i, p in enumerate(positions)}
    trace = CsiTrace(beacon_interval_s=BEACON_INTERVAL_S)
    ticks = max(1, int(round(duration_s / BEACON_INTERVAL_S)))
    models = (
        scenario.ap_channel_models(num_aps)
        if num_aps > 1
        else [scenario.channel_model]
    )
    rngs = [validate_seed(seed)] + [
        np.random.default_rng([seed, ap]) for ap in range(1, num_aps)
    ]
    for tick in range(ticks):
        now = tick * BEACON_INTERVAL_S
        ap_true: List[Dict[int, np.ndarray]] = []
        ap_est: List[Dict[int, np.ndarray]] = []
        for model, ap_rng in zip(models, rngs):
            channels = {
                u: frozen_channel_vector(model, p, ap_rng) for u, p in receivers.items()
            }
            state = ChannelState(channels, dict(receivers), now)
            ap_true.append(state.channels)
            ap_est.append(scenario.estimator.estimate_state(state, ap_rng).channels)
        if num_aps <= 1:
            trace.append(
                CsiSnapshot(
                    now,
                    ChannelState(ap_true[0], dict(receivers), now),
                    ChannelState(ap_est[0], dict(receivers), now),
                )
            )
        else:
            trace.append(
                CsiSnapshot(
                    now,
                    ChannelState(ap_true[0], dict(receivers), now, ap_channels=ap_true),
                    ChannelState(ap_est[0], dict(receivers), now, ap_channels=ap_est),
                )
            )
    return trace


def _assert_same_trace(trace, frozen):
    assert len(trace) == len(frozen)
    for snap, ref in zip(trace, frozen):
        assert snap.time_s == ref.time_s
        for state, ref_state in (
            (snap.true_state, ref.true_state),
            (snap.estimated_state, ref.estimated_state),
        ):
            assert state.n_aps == ref_state.n_aps
            assert state.positions == ref_state.positions
            for ap in range(state.n_aps):
                channels = state.for_ap(ap).channels
                ref_channels = ref_state.for_ap(ap).channels
                assert list(channels) == list(ref_channels)
                for user, h in ref_channels.items():
                    assert channels[user].tobytes() == h.tobytes(), (ap, user)


class TestStaticTraceMatchesPerTickTracing:
    @pytest.mark.parametrize("num_aps", [1, 2])
    @pytest.mark.parametrize("seed", [0, 6])
    def test_traces_equal(self, scenario, num_aps, seed):
        positions = scenario.place_arc(7, 4.0, 100, seed=seed + 1)
        trace = scenario.static_trace(
            positions, duration_s=0.5, seed=seed, num_aps=num_aps
        )
        frozen = frozen_static_trace(scenario, positions, 0.5, seed, num_aps)
        _assert_same_trace(trace, frozen)

    def test_random_range_placement_three_aps(self, scenario):
        positions = scenario.place_random_range(5, 2.0, 14.0, 150, seed=3)
        trace = scenario.static_trace(positions, duration_s=0.3, seed=9, num_aps=3)
        _assert_same_trace(trace, frozen_static_trace(scenario, positions, 0.3, 9, 3))


class TestChannelVectorMatchesFrozen:
    @pytest.mark.parametrize("extra_db", [0.0, 22.0])
    def test_single_vectors(self, scenario, extra_db):
        model = scenario.channel_model
        for k, position in enumerate(scenario.place_arc(6, 6.0, 120, seed=4)):
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            h = model.channel_vector(position, rng, los_extra_loss_db=extra_db)
            ref = frozen_channel_vector(model, position, ref_rng, extra_db)
            assert h.tobytes() == ref.tobytes()
            assert rng.random() == ref_rng.random()


# ------------------------------------------------- block recorder, every kind
#
# The recorder synthesises and estimates every receiver of a tick in one
# block.  The per-receiver calls it replaced are frozen below and plugged
# into a scenario through the ``snapshot`` / ``estimate_state`` seam, so the
# walk and environment traces run their own loop over frozen channels.


def frozen_estimate(estimator, channel, rng):
    """``CsiEstimator.estimate`` as it stood before: one receiver per call."""
    channel = np.asarray(channel, dtype=complex)
    scale = float(np.sqrt(np.mean(np.abs(channel) ** 2)))
    sigma = estimator.relative_error_std * scale / np.sqrt(2)
    noise = rng.normal(0.0, sigma, channel.shape)
    noise = noise + 1j * rng.normal(0.0, sigma, channel.shape)
    return channel + noise


class _FrozenEstimator:
    def __init__(self, estimator):
        self.estimator = estimator

    def estimate_state(self, state, rng):
        ap_channels = state.ap_channels or [state.channels]
        estimates = [
            {u: frozen_estimate(self.estimator, h, rng) for u, h in channels.items()}
            for channels in ap_channels
        ]
        return ChannelState(
            estimates[0], dict(state.positions), state.time_s,
            ap_channels=estimates if state.ap_channels is not None else None,
        )


def frozen_scenario():
    """A default scenario recording through the frozen per-receiver calls."""
    from repro.emulation.scenario import EmulationScenario

    frozen = EmulationScenario(seed=0)
    model = frozen.channel_model

    def snapshot(receivers, rng, time_s=0.0, los_extra_loss_db=None):
        extra = los_extra_loss_db or {}
        channels = {
            u: frozen_channel_vector(model, p, rng, extra.get(u, 0.0))
            for u, p in receivers.items()
        }
        return ChannelState(channels, dict(receivers), time_s)

    model.snapshot = snapshot
    frozen.estimator = _FrozenEstimator(frozen.estimator)
    return frozen


class TestBlockRecorderMatchesPerReceiverCalls:
    @pytest.mark.parametrize("regime", ["high", "low"])
    @pytest.mark.parametrize("moving", [[1], [0, 1, 2]])
    def test_walk_traces_equal(self, scenario, regime, moving):
        args = (3, moving, 3.0, regime)
        trace = scenario.mobile_receiver_trace(*args, seed=5)
        frozen = frozen_scenario().mobile_receiver_trace(*args, seed=5)
        _assert_same_trace(trace, frozen)

    def test_environment_traces_equal(self, scenario):
        args = (4, 5.0, 60, 3.0)
        trace = scenario.moving_environment_trace(*args, num_blockers=3, seed=3)
        frozen = frozen_scenario().moving_environment_trace(
            *args, num_blockers=3, seed=3
        )
        _assert_same_trace(trace, frozen)

    def test_thousand_receiver_static_arc(self, scenario):
        """``crowd1000_rr``'s first session at seed 0: placement seed 0,
        trace seed 1, 14 beacons, one AP."""
        positions = scenario.place_arc(1000, 5.0, 60.0, seed=0)
        trace = scenario.static_trace(positions, duration_s=1.4, seed=1)
        frozen = frozen_static_trace(frozen_scenario(), positions, 1.4, 1, 1)
        assert len(trace) == 14
        _assert_same_trace(trace, frozen)

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

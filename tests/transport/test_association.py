"""Tests for per-user AP association (strongest-RSS + hysteresis).

Association decisions must be pure functions of ``(channels, call
sequence)`` — the multi-AP pipeline replays them every beacon, so any
hidden nondeterminism would break the sweep engine's bit-identity
contract.  Synthetic two-AP channel states make the geometry explicit:
gain magnitudes are chosen so the intended winner is unambiguous.
"""

import numpy as np
import pytest

from repro.errors import TransportError
from repro.phy.channel import ChannelState
from repro.transport.association import (
    HYSTERESIS_DB,
    ApAssociationPolicy,
    association_rss_matrix,
)

NT = 32


def _channel(gain: float, rng=None, nt: int = NT) -> np.ndarray:
    """A random complex vector with ``||h||^2 == gain``."""
    rng = rng or np.random.default_rng(0)
    raw = rng.normal(size=nt) + 1j * rng.normal(size=nt)
    return raw * np.sqrt(gain) / np.linalg.norm(raw)


def _two_ap_state(gains_ap0, gains_ap1, seed=0) -> ChannelState:
    """A 2-AP snapshot with per-user matched-filter gains as given."""
    rng = np.random.default_rng(seed)
    ap0 = {u: _channel(g, rng) for u, g in gains_ap0.items()}
    ap1 = {u: _channel(g, rng) for u, g in gains_ap1.items()}
    return ChannelState(channels=ap0, ap_channels=[ap0, ap1])


@pytest.fixture(scope="module")
def budget(request):
    scenario = request.getfixturevalue("scenario")
    return scenario.channel_model.budget


class TestRssMatrix:
    def test_shape_and_ordering(self, budget):
        state = _two_ap_state({0: 1e-8, 1: 1e-9}, {0: 1e-10, 1: 1e-7})
        rss = association_rss_matrix(state, [0, 1], budget)
        assert rss.shape == (2, 2)
        # 10x gain = +10 dB, column order follows the users argument.
        assert rss[0, 0] > rss[0, 1]
        assert rss[1, 1] > rss[1, 0]

    def test_matches_scalar_budget_rss(self, budget):
        state = _two_ap_state({0: 3e-9}, {0: 5e-10})
        rss = association_rss_matrix(state, [0], budget)
        for ap in range(2):
            gain = float(
                np.sum(np.abs(state.ap_channels[ap][0]) ** 2)
            )
            assert rss[ap, 0] == pytest.approx(budget.rss_dbm(gain), abs=1e-9)

    def test_zero_channel_unreachable(self, budget):
        ap0 = {0: _channel(1e-9)}
        ap1 = {0: np.zeros(NT, dtype=complex)}
        state = ChannelState(channels=ap0, ap_channels=[ap0, ap1])
        rss = association_rss_matrix(state, [0], budget)
        assert rss[1, 0] == -np.inf

    def test_no_users_rejected(self, budget):
        state = _two_ap_state({0: 1e-9}, {0: 1e-9})
        with pytest.raises(TransportError):
            association_rss_matrix(state, [], budget)


class TestAssociationPolicy:
    def test_initial_association_is_strongest(self, budget):
        policy = ApAssociationPolicy(2, budget)
        state = _two_ap_state({0: 1e-8, 1: 1e-10}, {0: 1e-10, 1: 1e-8})
        serving = policy.update(state, [0, 1])
        assert serving == {0: 0, 1: 1}

    def test_hysteresis_blocks_small_improvement(self, budget):
        """A challenger inside the margin must not steal the user —
        ping-pong damping is the whole point of the hysteresis."""
        assert HYSTERESIS_DB == 3.0
        policy = ApAssociationPolicy(2, budget)
        policy.update(_two_ap_state({0: 1e-8}, {0: 1e-9}), [0])
        assert policy.serving[0] == 0
        # AP 1 now ~2 dB better: inside the 3 dB margin -> no handover.
        policy.update(_two_ap_state({0: 1e-8}, {0: 1.6e-8}), [0])
        assert policy.serving[0] == 0

    @pytest.mark.parametrize("excess_db, hands_over", [(-0.01, False), (0.01, True)])
    def test_the_margin_is_hysteresis_db(self, budget, excess_db, hands_over):
        """A challenger hands over only past ``HYSTERESIS_DB``, not before."""
        policy = ApAssociationPolicy(2, budget)
        policy.update(_two_ap_state({0: 1e-8}, {0: 1e-9}), [0])
        gain = 1e-8 * 10 ** ((HYSTERESIS_DB + excess_db) / 10)
        policy.update(_two_ap_state({0: 1e-8}, {0: gain}), [0])
        assert policy.serving[0] == (1 if hands_over else 0)

    def test_handover_beyond_margin(self, budget):
        policy = ApAssociationPolicy(2, budget)
        policy.update(_two_ap_state({0: 1e-8}, {0: 1e-9}), [0])
        # AP 1 now 10 dB better: clears the margin -> handover.
        policy.update(_two_ap_state({0: 1e-8}, {0: 1e-7}), [0])
        assert policy.serving[0] == 1

    def test_secondary_is_runner_up(self, budget):
        policy = ApAssociationPolicy(2, budget)
        policy.update(_two_ap_state({0: 1e-8}, {0: 1e-9}), [0])
        assert policy.secondary(0) == 1

    def test_single_ap_has_no_secondary(self, budget):
        policy = ApAssociationPolicy(1, budget)
        ap0 = {0: _channel(1e-9)}
        policy.update(ChannelState(channels=ap0), [0])
        assert policy.secondary(0) is None

    def test_departed_user_evicted_and_rejoins_fresh(self, budget):
        policy = ApAssociationPolicy(2, budget)
        policy.update(_two_ap_state({0: 1e-8}, {0: 1e-9}), [0])
        assert policy.serving == {0: 0}
        policy.update(_two_ap_state({1: 1e-9}, {1: 1e-8}), [1])
        assert 0 not in policy.serving
        # Rejoin sees AP 1 slightly stronger; no sticky history survives,
        # so the fresh association picks AP 1 outright despite being
        # inside what would have been the hysteresis margin.
        policy.update(_two_ap_state({0: 1e-8, 1: 1e-9}, {0: 1.6e-8, 1: 1e-8}), [0, 1])
        assert policy.serving[0] == 1

    def test_users_of_partitions_population(self, budget):
        policy = ApAssociationPolicy(2, budget)
        state = _two_ap_state(
            {0: 1e-8, 1: 1e-10, 2: 1e-8}, {0: 1e-10, 1: 1e-8, 2: 1e-10}
        )
        policy.update(state, [0, 1, 2])
        assert policy.users_of(0) == [0, 2]
        assert policy.users_of(1) == [1]

    def test_bad_ap_count_rejected(self, budget):
        with pytest.raises(TransportError):
            ApAssociationPolicy(0, budget)


class TestHandoverDeterminism:
    """Handover sequences replay exactly."""

    #: Near-tied geometry: small gain changes flip the strongest AP.
    def _states(self):
        return [
            _two_ap_state({0: 1e-8, 1: 2e-9}, {0: 9e-9, 1: 2.2e-9}, seed=s)
            for s in range(6)
        ]

    def _sequence(self, budget):
        policy = ApAssociationPolicy(2, budget)
        return [dict(policy.update(s, [0, 1])) for s in self._states()]

    def test_same_calls_same_sequence(self, budget):
        assert self._sequence(budget) == self._sequence(budget)

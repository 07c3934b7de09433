"""Tests for the bandwidth estimator.

Behaviour and validation are checked on a one-row cohort, measured
through ``observe_fraction_rows`` and read through ``view(0)``, the
per-user form sessions hold.  :class:`ScalarEstimator` is a frozen
oracle: one receiver's arrival-spacing EWMA written as plain scalar
arithmetic, against which every row of :class:`CohortBandwidthEstimator`
must agree op for op, with the same rng draws.
"""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.transport.bandwidth import CohortBandwidthEstimator


def _observe(cohort, fraction, rng) -> float:
    """Fold one delivery fraction into a one-row cohort's row."""
    (value,) = cohort.observe_fraction_rows(
        cohort.rows([0]), np.array([fraction]), rng
    )
    return float(value)


class ScalarEstimator:
    """Oracle: one receiver's estimate as scalar arithmetic."""

    def __init__(self, smoothing: float = 0.6, noise_std_fraction: float = 0.05):
        self.smoothing = smoothing
        self.noise_std_fraction = noise_std_fraction
        self.estimate_bytes_per_s: Optional[float] = None

    def observe_window(self, delivered_bytes, window_s, rng) -> float:
        measured = max(0.0, delivered_bytes / window_s)
        measured *= float(1.0 + rng.normal(0.0, self.noise_std_fraction))
        measured = max(measured, 1e-9)
        if self.estimate_bytes_per_s is None:
            self.estimate_bytes_per_s = measured
        else:
            self.estimate_bytes_per_s = (
                self.smoothing * measured
                + (1.0 - self.smoothing) * self.estimate_bytes_per_s
            )
        return self.estimate_bytes_per_s

    def observe_fraction(self, delivered_fraction, rng) -> float:
        return self.observe_window(delivered_fraction, 1.0, rng)

    def decay(self, factor) -> Optional[float]:
        if self.estimate_bytes_per_s is not None:
            self.estimate_bytes_per_s = max(
                self.estimate_bytes_per_s * factor, 1e-9
            )
        return self.estimate_bytes_per_s

    def reset(self) -> None:
        self.estimate_bytes_per_s = None


class TestBandwidthEstimator:
    def test_starts_unset(self):
        assert CohortBandwidthEstimator([0]).view(0).estimate_bytes_per_s is None

    def test_first_observation_sets_estimate(self, rng):
        cohort = CohortBandwidthEstimator([0], noise_std_fraction=0.0)
        assert _observe(cohort, 0.8, rng) == pytest.approx(0.8)
        assert cohort.view(0).estimate_bytes_per_s == pytest.approx(0.8)

    def test_ewma_smoothing(self, rng):
        cohort = CohortBandwidthEstimator(
            [0], smoothing=0.5, noise_std_fraction=0.0
        )
        _observe(cohort, 0.2, rng)
        assert _observe(cohort, 0.4, rng) == pytest.approx(0.3)

    def test_tracks_drops(self, rng):
        cohort = CohortBandwidthEstimator(
            [0], smoothing=1.0, noise_std_fraction=0.0
        )
        _observe(cohort, 1.0, rng)
        assert _observe(cohort, 0.1, rng) == pytest.approx(0.1)

    def test_fraction_interface(self, rng):
        cohort = CohortBandwidthEstimator(
            [0], smoothing=1.0, noise_std_fraction=0.0
        )
        assert _observe(cohort, 0.8, rng) == pytest.approx(0.8)
        # Nothing delivered floors the estimate at 1e-9, never at zero.
        assert _observe(cohort, 0.0, rng) == 1e-9
        assert cohort.view(0).estimate_bytes_per_s == 1e-9

    def test_fraction_out_of_range_rejected(self, rng):
        with pytest.raises(TransportError):
            _observe(CohortBandwidthEstimator([0]), 1.5, rng)

    def test_reset(self, rng):
        cohort = CohortBandwidthEstimator([0])
        _observe(cohort, 1.0, rng)
        cohort.view(0).reset()
        assert cohort.view(0).estimate_bytes_per_s is None

    def test_noise_keeps_estimate_positive(self):
        cohort = CohortBandwidthEstimator([0], noise_std_fraction=1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert _observe(cohort, 1.0, rng) > 0

    def test_bad_parameters_rejected(self):
        with pytest.raises(TransportError):
            CohortBandwidthEstimator([0], smoothing=0.0)


USERS = (3, 5, 8, 13)


class TestCohortRows:
    """The array form sessions batch through, one receiver per row."""

    def test_rows_follow_user_order(self):
        cohort = CohortBandwidthEstimator(USERS)
        assert len(cohort) == 4
        assert cohort.rows([13, 3]).tolist() == [3, 0]

    def test_unknown_user_rejected(self):
        cohort = CohortBandwidthEstimator(USERS)
        with pytest.raises(KeyError):
            cohort.rows([4])
        with pytest.raises(KeyError):
            cohort.view(4)

    def test_estimates_are_nan_before_measurement(self):
        cohort = CohortBandwidthEstimator(USERS)
        assert np.isnan(cohort.estimates()).all()
        assert not cohort.has_estimate().any()

    def test_batched_observe_touches_only_its_rows(self, rng):
        cohort = CohortBandwidthEstimator(USERS, noise_std_fraction=0.0)
        got = cohort.observe_fraction_rows(
            cohort.rows([5, 13]), np.array([0.5, 0.25]), rng
        )
        assert got.tolist() == [0.5, 0.25]
        assert cohort.has_estimate().tolist() == [False, True, False, True]
        assert cohort.view(3).estimate_bytes_per_s is None

    def test_batched_observe_smooths_across_frames(self, rng):
        cohort = CohortBandwidthEstimator(
            USERS, smoothing=0.5, noise_std_fraction=0.0
        )
        rows = cohort.rows([8])
        cohort.observe_fraction_rows(rows, np.array([0.5]), rng)
        assert cohort.observe_fraction_rows(rows, np.array([1.0]), rng).tolist() == [
            0.75
        ]

    def test_batched_fractions_out_of_range_rejected(self, rng):
        cohort = CohortBandwidthEstimator(USERS)
        with pytest.raises(TransportError):
            cohort.observe_fraction_rows(
                cohort.rows([3, 5]), np.array([0.5, 1.01]), rng
            )
        assert not cohort.has_estimate().any()

    def test_reset_rows_forgets_only_those_rows(self, rng):
        cohort = CohortBandwidthEstimator(USERS, noise_std_fraction=0.0)
        cohort.observe_fraction_rows(
            cohort.rows(USERS), np.array([0.1, 0.2, 0.3, 0.4]), rng
        )
        cohort.reset_rows(cohort.rows([5, 8]))
        estimates = cohort.estimates()
        assert estimates[[0, 3]].tolist() == [0.1, 0.4]
        assert np.isnan(estimates[[1, 2]]).all()

    def test_views_write_through_to_the_arrays(self, rng):
        cohort = CohortBandwidthEstimator(USERS, noise_std_fraction=0.0)
        cohort.observe_fraction_rows(cohort.rows([8]), np.array([0.6]), rng)
        assert cohort.view(8).estimate_bytes_per_s == 0.6
        # A second view over the same receiver sees the same state.
        assert cohort.view(8).decay(0.5) == 0.3
        assert cohort.estimates()[2] == 0.3


_fraction = st.floats(min_value=0.0, max_value=1.0)
_members = st.lists(st.sampled_from(USERS), min_size=1, max_size=4, unique=True)

#: One session-level operation on the estimator state.
_OPS = st.one_of(
    st.tuples(st.just("observe"), st.sampled_from(USERS), _fraction),
    st.tuples(
        st.just("observe_rows"), _members,
        st.lists(_fraction, min_size=4, max_size=4),
    ),
    st.tuples(
        st.just("decay"), st.sampled_from(USERS),
        st.floats(min_value=0.01, max_value=1.0),
    ),
    st.tuples(st.just("reset"), st.sampled_from(USERS), st.none()),
    st.tuples(st.just("rejoin"), _members, st.none()),
)


class TestCohortMatchesScalarOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(_OPS, max_size=30),
        seed=st.integers(min_value=0, max_value=2**16),
        smoothing=st.floats(min_value=0.05, max_value=1.0),
        noise=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_op_for_op(self, ops, seed, smoothing, noise):
        """Views, batched rows and re-association resets give the oracle's
        results exactly, drawing from the rng in the same order."""
        cohort = CohortBandwidthEstimator(
            USERS, smoothing=smoothing, noise_std_fraction=noise
        )
        oracle = {u: ScalarEstimator(smoothing, noise) for u in USERS}
        cohort_rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        for op, who, arg in ops:
            if op == "observe":
                (got,) = cohort.observe_fraction_rows(
                    cohort.rows([who]), np.array([arg]), cohort_rng
                )
                assert got == oracle[who].observe_fraction(arg, oracle_rng)
            elif op == "observe_rows":
                fractions = np.asarray(arg[: len(who)])
                got = cohort.observe_fraction_rows(
                    cohort.rows(who), fractions, cohort_rng
                )
                want = [
                    oracle[u].observe_fraction(f, oracle_rng)
                    for u, f in zip(who, fractions.tolist())
                ]
                assert got.tolist() == want
            elif op == "decay":
                assert cohort.view(who).decay(arg) == oracle[who].decay(arg)
            elif op == "reset":
                cohort.view(who).reset()
                oracle[who].reset()
            else:
                cohort.reset_rows(cohort.rows(who))
                for u in who:
                    oracle[u].reset()
            for u in USERS:
                assert (
                    cohort.view(u).estimate_bytes_per_s
                    == oracle[u].estimate_bytes_per_s
                )
        assert cohort_rng.random() == oracle_rng.random()

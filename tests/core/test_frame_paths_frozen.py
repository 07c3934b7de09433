"""The pacing caps and the Scorer's decode-pattern dedup, off their
per-group and structured-row paths, still produce the same bits.

``MulticastStreamer._rate_limits`` caps only the groups a pass sends to,
with one NaN-padded ``(groups, largest group)`` matrix of member estimates
and one row-wise ``fmin`` instead of an ``estimator.rows`` call per group
over every group; the Scorer packs
each boolean signature row into big-endian bytes and deduplicates the byte
strings instead of sorting structured rows.  Both must equal the frozen
forms kept here with ``==`` and ``array_equal``.
"""

import numpy as np
import pytest

from repro.beamforming.selection import BeamPlan
from repro.core.pipeline import distinct_rows
from repro.core.streamer import MulticastStreamer
from repro.phy.mcs import entry_for_index
from repro.scheduling import AllocationResult
from repro.scheduling.groups import CandidateGroup
from repro.transport import CohortBandwidthEstimator
from repro.types import NUM_LAYERS
from repro.video.jigsaw import SUBLAYER_COUNTS


def frozen_rate_limits(allocation, estimator):
    """``_rate_limits`` as it stood before: one row lookup per group."""
    estimates = estimator.estimates()
    has = estimator.has_estimate()
    limits = {}
    for group in allocation.groups:
        rows = estimator.rows(group.user_ids)
        rows = rows[has[rows]]
        if rows.size:
            limits[group.index] = float(estimates[rows].min()) * group.rate_bytes_per_s
    return limits


def frozen_sent_limits(allocation, estimator, sent):
    """The frozen caps restricted to the groups at positions ``sent``, in
    ``sent``'s order."""
    frozen = frozen_rate_limits(allocation, estimator)
    indices = (allocation.groups[gi].index for gi in sent)
    return {i: frozen[i] for i in indices if i in frozen}


def _sent(rng, num_groups):
    """Sent group positions as a pass names them: each once, in the first-
    appearance order of a random assignment list."""
    picks = rng.integers(0, num_groups, size=int(rng.integers(0, 3 * num_groups)))
    return list(dict.fromkeys(picks.tolist()))


def _all(allocation):
    return range(len(allocation.groups))


def frozen_distinct_rows(matrix):
    """The Scorer's dedup as it stood before."""
    return np.unique(matrix, axis=0, return_inverse=True)


def _allocation(rng, num_users, num_groups):
    groups = []
    for gi in range(num_groups):
        if gi < num_users:
            users = (gi,)
        else:
            size = int(rng.integers(2, 4))
            picked = rng.choice(num_users, size=min(size, num_users), replace=False)
            users = tuple(sorted(picked.tolist()))
        plan = BeamPlan(
            user_ids=users,
            beam=np.ones(4) / 2.0,
            per_user_rss_dbm={u: -55.0 for u in users},
            min_rss_dbm=-55.0,
            mcs=entry_for_index(4),
            rate_mbps=float(rng.uniform(100.0, 4600.0)),
        )
        groups.append(CandidateGroup(index=gi, plan=plan, rate_scale=56.25))
    zeros = np.zeros((num_groups, NUM_LAYERS))
    return AllocationResult(groups, zeros, zeros.copy(), {}, {})


def _estimator(rng, users, measured_share):
    estimator = CohortBandwidthEstimator(users)
    measured = [u for u in users if rng.random() < measured_share]
    for _ in range(int(rng.integers(1, 4))):
        estimator.observe_fraction_rows(
            estimator.rows(measured), rng.random(len(measured)), rng
        )
    return estimator


class TestRateLimitsMatchFrozenLoop:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        num_users = int(rng.choice([1, 4, 50, 1000]))
        num_groups = num_users + int(rng.integers(0, num_users + 1))
        allocation = _allocation(rng, num_users, num_groups)
        measured_share = float(rng.choice([0.0, 0.3, 1.0]))
        estimator = _estimator(rng, list(range(num_users)), measured_share)
        sent = _sent(rng, num_groups)
        limits = MulticastStreamer._rate_limits(allocation, estimator, sent)
        frozen = frozen_sent_limits(allocation, estimator, sent)
        assert limits == frozen
        assert list(limits) == list(frozen)
        assert all(type(v) is float for v in limits.values())

    def test_nothing_sent_no_caps(self):
        rng = np.random.default_rng(6)
        allocation = _allocation(rng, 5, 9)
        estimator = _estimator(rng, list(range(5)), 1.0)
        assert MulticastStreamer._rate_limits(allocation, estimator, []) == {}

    def test_groups_with_no_estimate_get_no_cap(self):
        rng = np.random.default_rng(3)
        allocation = _allocation(rng, 6, 12)
        estimator = CohortBandwidthEstimator(range(6))
        estimator.observe_fraction_rows(estimator.rows([0]), np.array([0.5]), rng)
        limits = MulticastStreamer._rate_limits(
            allocation, estimator, _all(allocation)
        )
        assert limits == frozen_rate_limits(allocation, estimator)
        assert all(0 in allocation.groups[gi].user_ids for gi in limits)

    def test_no_estimates_no_caps(self):
        rng = np.random.default_rng(4)
        allocation = _allocation(rng, 5, 9)
        estimator = CohortBandwidthEstimator(range(5))
        assert MulticastStreamer._rate_limits(
            allocation, estimator, _all(allocation)
        ) == {}

    def test_unknown_member_is_a_key_error(self):
        rng = np.random.default_rng(5)
        allocation = _allocation(rng, 5, 9)
        estimator = _estimator(rng, list(range(4)), 1.0)
        with pytest.raises(KeyError):
            frozen_rate_limits(allocation, estimator)
        with pytest.raises(KeyError):
            MulticastStreamer._rate_limits(allocation, estimator, _all(allocation))


def _assert_same_dedup(matrix):
    unique, inverse = distinct_rows(matrix)
    frozen_unique, frozen_inverse = frozen_distinct_rows(matrix)
    assert unique.dtype == frozen_unique.dtype
    assert np.array_equal(unique, frozen_unique)
    assert inverse.shape == frozen_inverse.shape
    assert np.array_equal(inverse, frozen_inverse)


class TestDedupMatchesFrozenUnique:
    WIDTH = sum(SUBLAYER_COUNTS)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_signatures(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.choice([1, 2, 7, 100, 1000]))
        width = self.WIDTH if seed % 2 else int(rng.integers(1, 130))
        matrix = rng.random((rows, width)) < rng.random()
        _assert_same_dedup(matrix)

    def test_few_patterns_many_duplicates(self):
        rng = np.random.default_rng(11)
        patterns = rng.random((5, self.WIDTH)) < 0.7
        _assert_same_dedup(patterns[rng.integers(0, 5, size=1000)])

    def test_all_rows_identical(self):
        for value in (False, True):
            _assert_same_dedup(np.full((1000, self.WIDTH), value))

    def test_prefix_patterns_order_like_the_layers(self):
        # Decode patterns are mostly "first k sublayers": rows differing only
        # in the tail, and in bits that straddle a packed byte.
        matrix = np.arange(self.WIDTH + 1)[:, None] > np.arange(self.WIDTH)[None, :]
        _assert_same_dedup(matrix[::-1])

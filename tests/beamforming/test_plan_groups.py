"""The batched max-min ascent: one kernel for every candidate group.

The ascent runs 150 steps and does not reach a fixed point, so a beam is
sensitive to the order of floating-point additions and cannot be pinned to
the per-group BLAS loop it replaced.  What is pinned instead:

(a) a group's plan does not depend on its batch — alone, among others, in
    any order, wherever the batches are cut: same beam bytes, RSS, MCS;
(b) every beam is at least as good as the quantised SVD heuristic and each
    member's quantised matched filter, by true min-gain;
(c) against a frozen copy of the per-group loop, bottleneck RSS agrees on
    average and the MCS agrees for nearly every group;
(d) an enumeration is one ascent, whatever the number of subsets.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.beamforming import multicast, selection
from repro.beamforming.codebook import SectorCodebook
from repro.beamforming.multicast import (
    max_min_gain,
    max_min_multicast_beam,
    max_min_multicast_beams,
    svd_multicast_beam,
)
from repro.beamforming.selection import GroupBeamPlanner
from repro.phy.mcs import highest_supported_mcs
from repro.scheduling.groups import GroupEnumerator
from repro.types import BeamformingScheme

from .planner_reference import frozen_sort_by_azimuth
from .test_batch_gains import assert_same_plan

USERS = 7


def frozen_per_group_ascent(array, channels, steps=150, temperature=8.0, step_size=0.5):
    """The per-group BLAS ascent as it stood before the batched kernel."""
    stacked = np.vstack([np.asarray(h, dtype=complex) for h in channels])
    normalised = stacked / np.linalg.norm(stacked, axis=1, keepdims=True)
    _, _, vh = np.linalg.svd(np.conj(normalised), full_matrices=False)
    candidates = [vh[0].conj()] + [normalised[i] for i in range(stacked.shape[0])]

    def min_gain(beam):
        return float(np.min(np.abs(np.conj(normalised) @ beam) ** 2))

    beam = max(candidates, key=min_gain)
    for _ in range(steps):
        gains = np.abs(np.conj(normalised) @ beam) ** 2
        scale = float(np.mean(gains)) + 1e-18
        weights = np.exp(-temperature * gains / scale)
        weights = weights / weights.sum()
        gradient = (normalised.T * weights) @ (np.conj(normalised) @ beam)
        norm = float(np.linalg.norm(gradient))
        if norm <= 1e-18:
            break
        beam = beam + step_size * gradient / norm
        beam = beam / np.linalg.norm(beam)
    quantised = [array.quantise_weights(beam)] + [
        array.quantise_weights(c) for c in candidates
    ]
    return max(
        quantised, key=lambda q: float(np.min(np.abs(np.conj(stacked) @ q) ** 2))
    )


@pytest.fixture(scope="module")
def planner(scenario):
    codebook = SectorCodebook(scenario.array, num_beams=16, num_wide_beams=4)
    return GroupBeamPlanner(
        scenario.array, codebook, scenario.channel_model.budget,
        BeamformingScheme.OPTIMIZED_MULTICAST,
    )


def _snapshot(scenario, seed, users=USERS):
    positions = scenario.place_random_range(users, 2.0, 8.0, 120, seed=seed)
    return scenario.channel_model.snapshot(
        dict(enumerate(positions)), np.random.default_rng(seed)
    )


def _random_channels(rng, count, elements=32):
    scale = 10 ** rng.uniform(-5, -4, size=(count, 1))
    return list(
        (rng.normal(size=(count, elements)) + 1j * rng.normal(size=(count, elements)))
        * scale
    )


class TestBatchIndependence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        subsets=st.lists(
            st.sets(st.integers(0, USERS - 1), min_size=1, max_size=4),
            min_size=1, max_size=7,
        ),
        window_start=st.integers(0, 1),
        order=st.randoms(use_true_random=False),
        batch_rows=st.sampled_from([4, 6, 12, 2048]),
    )
    def test_plan_in_a_batch_equals_plan_alone(
        self, scenario, planner, monkeypatch,
        seed, subsets, window_start, order, batch_rows,
    ):
        state = _snapshot(scenario, seed)
        by_azimuth = frozen_sort_by_azimuth(
            planner.codebook, state, list(range(USERS))
        )
        groups = [sorted(s) for s in subsets]
        groups.append(by_azimuth[window_start:window_start + 6])
        order.shuffle(groups)
        for group in groups:
            order.shuffle(group)
        alone = [planner.plan_groups(state, [group])[0] for group in groups]
        monkeypatch.setattr(multicast, "_MAX_BATCH_ROWS", batch_rows)
        batched = planner.plan_groups(state, groups)
        for single, plan in zip(alone, batched):
            assert_same_plan(plan, single)

    def test_large_groups_alone_and_padded(self, scenario):
        """Eight or more members, where a contiguous sum would go pairwise."""
        rng = np.random.default_rng(5)
        groups = [_random_channels(rng, size) for size in (9, 12, 16, 2, 8)]
        batched = max_min_multicast_beams(scenario.array, groups)
        for channels, beam in zip(groups, batched):
            alone = max_min_multicast_beam(scenario.array, channels)
            assert alone.tobytes() == beam.tobytes()

    def test_batches_bound_the_padding(self):
        """100 users, no cap: every azimuth window from pairs to all 100."""
        sizes = [1] * 100 + [k for k in range(2, 101) for _ in range(101 - k)]
        batches = list(multicast._batches(sizes))
        assert sorted(i for batch in batches for i in batch) == list(
            range(100, len(sizes))
        )
        for batch in batches:
            real = sum(sizes[i] for i in batch)
            padded = len(batch) * max(sizes[i] for i in batch)
            assert padded <= 2 * real
            assert padded <= multicast._MAX_BATCH_ROWS or len(batch) == 1


class TestNeverBelowTheHeuristics:
    def test_min_gain_dominates_svd_and_matched_filters(self, scenario):
        array = scenario.array
        groups = []
        for seed in range(30):
            channels = _snapshot(scenario, seed, users=4).channels
            for size in (2, 3, 4):
                for subset in itertools.combinations(range(4), size):
                    groups.append([channels[u] for u in subset])
        rng = np.random.default_rng(3)
        groups.extend(_random_channels(rng, size) for size in (2, 3, 5, 6) * 5)
        beams = max_min_multicast_beams(array, groups)
        for channels, beam in zip(groups, beams):
            achieved = max_min_gain(beam, channels)
            rivals = [svd_multicast_beam(array, channels)] + [
                array.conjugate_beam(h) for h in channels
            ]
            # The kernel ranks candidates by its own fixed-axis sums and
            # max_min_gain by vdot: equal up to the rounding of 32 terms.
            for rival in rivals:
                assert achieved >= max_min_gain(rival, channels) * (1 - 1e-12)


class TestAgainstThePerGroupLoop:
    def test_rss_and_mcs_agree_in_aggregate(self, scenario, planner):
        array, budget = scenario.array, scenario.channel_model.budget
        differences, same_mcs = [], 0
        for seed in range(46):
            channels = _snapshot(scenario, 1000 + seed, users=4).channels
            groups = [
                [channels[u] for u in subset]
                for size in (2, 3, 4)
                for subset in itertools.combinations(range(4), size)
            ]
            for group, beam in zip(groups, max_min_multicast_beams(array, groups)):
                oracle = frozen_per_group_ascent(array, group)
                rss = budget.rss_dbm(max_min_gain(beam, group))
                oracle_rss = budget.rss_dbm(max_min_gain(oracle, group))
                differences.append(rss - oracle_rss)
                same_mcs += highest_supported_mcs(
                    rss - planner.mcs_backoff_db
                ) == highest_supported_mcs(oracle_rss - planner.mcs_backoff_db)
        assert len(differences) >= 500
        assert abs(np.mean(differences)) <= 0.05
        assert same_mcs >= 0.95 * len(differences)


class TestOneKernelCallPerEnumeration:
    @pytest.mark.parametrize("users", [2, 3, 4])
    def test_enumerate_invokes_the_kernel_once(
        self, scenario, planner, monkeypatch, users
    ):
        calls = {"beams": 0, "ascend": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            selection, "max_min_multicast_beams",
            counting("beams", selection.max_min_multicast_beams),
        )
        monkeypatch.setattr(
            multicast, "_ascend", counting("ascend", multicast._ascend)
        )
        enumerator = GroupEnumerator(planner, min_rate_mbps=0.0)
        assert users <= enumerator.exhaustive_max_users
        state = _snapshot(scenario, 11, users=users)
        groups = enumerator.enumerate(state, list(range(users)))
        assert len(groups) == 2**users - 1
        # One call plans the singletons (matched filters, no ascent), one
        # every multi-user candidate.
        assert calls == {"beams": 2, "ascend": 1}

    def test_singleton_only_batch_skips_the_ascent(self, scenario, monkeypatch):
        def no_ascent(*args, **kwargs):
            raise AssertionError("singletons need no ascent")

        monkeypatch.setattr(multicast, "_ascend", no_ascent)
        channels = _snapshot(scenario, 2, users=3).channels
        beams = max_min_multicast_beams(scenario.array, [[channels[u]] for u in range(3)])
        for user, beam in enumerate(beams):
            assert beam.tobytes() == scenario.array.conjugate_beam(channels[user]).tobytes()


"""The mapper and the round-robin split, off their per-group loops, still
produce the same bits as the loops they came from.

``assign_coding_groups`` walks only the groups funded for a layer and keys
its per-unit tally on their members; ``_round_robin`` counts slots in
closed form, fills layers only for groups that got slots and sums each
user's bytes over their own groups.  No floating-point operation or its
order changed, so every output must be equal with ``==``.  The former
loops are kept here, frozen, as the references.
"""

import itertools
from typing import Dict, List

import numpy as np
import pytest

from repro.beamforming.selection import BeamPlan
from repro.errors import SchedulingError
from repro.phy.mcs import entry_for_index
from repro.quality.curves import FrameFeatureContext
from repro.scheduling.coding_groups import UnitAssignment, assign_coding_groups
from repro.scheduling.groups import CandidateGroup
from repro.scheduling.round_robin import (
    SLOT_S,
    _common_layer_sizes,
    _round_robin,
    round_robin_allocation,
)
from repro.types import NUM_LAYERS
from repro.video.jigsaw import SUBLAYER_COUNTS

UNIT = 1200.0


def frozen_assign_coding_groups(bytes_allocated, groups, unit_nbytes):
    """The Problem-4 greedy as it stood before: every group, every unit."""
    budgets = np.array(bytes_allocated, dtype=float)
    if budgets.shape != (len(groups), NUM_LAYERS):
        raise SchedulingError("bad shape")
    if unit_nbytes <= 0:
        raise SchedulingError("bad unit")
    all_users = sorted({u for g in groups for u in g.user_ids})
    assignments: List[UnitAssignment] = []
    for layer in range(NUM_LAYERS):
        for sublayer in range(SUBLAYER_COUNTS[layer]):
            received: Dict[int, float] = {u: 0.0 for u in all_users}
            for gi, group in enumerate(groups):
                budget = budgets[gi, layer]
                if budget <= 1e-9:
                    continue
                deficit = max(
                    (unit_nbytes - received[u] for u in group.user_ids), default=0.0
                )
                if deficit <= 1e-9:
                    continue
                granted = min(budget, deficit)
                budgets[gi, layer] -= granted
                for u in group.user_ids:
                    received[u] = min(unit_nbytes, received[u] + granted)
                assignments.append(
                    UnitAssignment(
                        group_index=gi, layer=layer, sublayer=sublayer, nbytes=granted
                    )
                )
    return assignments


def frozen_round_robin(groups, contexts, frame_budget_s):
    """``_round_robin`` as it stood before, returning its three arrays."""
    num_groups = len(groups)
    num_slots = max(1, int(frame_budget_s / SLOT_S))
    slots_per_group = np.zeros(num_groups)
    for slot in range(num_slots):
        slots_per_group[slot % num_groups] += 1
    group_time = slots_per_group * SLOT_S

    layer_sizes = _common_layer_sizes(contexts)
    time = np.zeros((num_groups, NUM_LAYERS))
    for gi, group in enumerate(groups):
        budget_bytes = group_time[gi] * group.rate_bytes_per_s
        for layer in range(NUM_LAYERS):
            layer_bytes = min(budget_bytes, layer_sizes[layer])
            time[gi, layer] = (
                layer_bytes / group.rate_bytes_per_s if group.rate_bytes_per_s else 0.0
            )
            budget_bytes -= layer_bytes
            if budget_bytes <= 0:
                break

    bytes_alloc = time * np.array([g.rate_bytes_per_s for g in groups])[:, None]
    users = sorted(contexts)
    membership = np.zeros((len(users), num_groups), dtype=bool)
    for gi, group in enumerate(groups):
        for user in group.user_ids:
            if user in contexts:
                membership[users.index(user), gi] = True
    per_user = {
        u: (membership[k][:, None] * bytes_alloc).sum(axis=0)
        for k, u in enumerate(users)
    }
    return time, bytes_alloc, per_user


def _group(index, users, rate_mbps):
    plan = BeamPlan(
        user_ids=tuple(users),
        beam=np.ones(4) / 2.0,
        per_user_rss_dbm={u: -55.0 for u in users},
        min_rss_dbm=-55.0,
        mcs=entry_for_index(4),
        rate_mbps=rate_mbps,
    )
    return CandidateGroup(index=index, plan=plan, rate_scale=56.25)


def _random_groups(rng, num_users, num_groups, zero_rate_share=0.0):
    """Singletons first, then random groups of 2-3 distinct users."""
    groups = []
    for gi in range(num_groups):
        if gi < num_users:
            users = (gi,)
        else:
            size = int(rng.integers(2, 4))
            picked = rng.choice(num_users, size=min(size, num_users), replace=False)
            users = tuple(sorted(picked.tolist()))
        rate = float(rng.uniform(100.0, 4600.0))
        if rng.random() < zero_rate_share:
            rate = 0.0
        groups.append(_group(gi, users, rate))
    return groups


def _all_subsets(num_users, max_size=3):
    users = range(num_users)
    subsets = [
        s
        for size in range(1, max_size + 1)
        for s in itertools.combinations(users, size)
    ]
    return [_group(gi, s, 385.0 + 97.0 * gi) for gi, s in enumerate(subsets)]


def _random_budgets(rng, num_groups):
    """Budgets spanning whole units, fractions, exact zeros and sub-1e-9."""
    budgets = rng.uniform(0.0, 3.5 * UNIT, size=(num_groups, NUM_LAYERS))
    kind = rng.random((num_groups, NUM_LAYERS))
    budgets[kind < 0.5] = 0.0
    budgets[(kind >= 0.5) & (kind < 0.6)] = 5e-10
    budgets[(kind >= 0.6) & (kind < 0.65)] = UNIT
    return budgets


def _contexts(users, layer_sizes):
    return {
        u: FrameFeatureContext(
            cumulative_ssim=[0.5, 0.7, 0.85, 0.95],
            blank_ssim=0.3,
            layer_sizes=list(layer_sizes),
        )
        for u in users
    }


class TestMapperMatchesFrozenLoop:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        num_users = int(rng.choice([1, 3, 8, 60, 400, 1000]))
        num_groups = num_users + int(rng.integers(0, num_users + 2))
        groups = _random_groups(rng, num_users, num_groups)
        budgets = _random_budgets(rng, num_groups)
        if seed % 4 == 0:
            # Round-robin's shape: only a few groups funded at all.
            budgets[rng.random(num_groups) < 0.9] = 0.0
        assert assign_coding_groups(budgets, groups, UNIT) == (
            frozen_assign_coding_groups(budgets, groups, UNIT)
        )

    def test_every_subset_heavily_overlapping(self):
        rng = np.random.default_rng(99)
        groups = _all_subsets(6)
        budgets = _random_budgets(rng, len(groups))
        assert assign_coding_groups(budgets, groups, UNIT) == (
            frozen_assign_coding_groups(budgets, groups, UNIT)
        )

    def test_zero_and_sub_threshold_budgets_yield_nothing(self):
        groups = _all_subsets(3)
        budgets = np.zeros((len(groups), NUM_LAYERS))
        budgets[::2] = 5e-10
        assert assign_coding_groups(budgets, groups, UNIT) == []
        assert frozen_assign_coding_groups(budgets, groups, UNIT) == []

    def test_empty_group_list(self):
        budgets = np.zeros((0, NUM_LAYERS))
        assert assign_coding_groups(budgets, [], UNIT) == []
        assert frozen_assign_coding_groups(budgets, [], UNIT) == []

    def test_input_budgets_are_not_modified(self):
        rng = np.random.default_rng(5)
        groups = _random_groups(rng, 20, 40)
        budgets = _random_budgets(rng, 40)
        before = budgets.copy()
        assign_coding_groups(budgets, groups, UNIT)
        assert np.array_equal(budgets, before)


def _assert_same_round_robin(groups, contexts, frame_budget_s):
    result = _round_robin(groups, contexts, frame_budget_s)
    time, bytes_alloc, per_user = frozen_round_robin(groups, contexts, frame_budget_s)
    assert np.array_equal(result.time_s, time)
    assert np.array_equal(result.bytes_allocated, bytes_alloc)
    assert list(result.per_user_bytes) == list(per_user)
    for user, row in per_user.items():
        assert np.array_equal(result.per_user_bytes[user], row), user
        assert result.per_user_bytes[user].dtype == row.dtype
    assert result.groups == list(groups)
    assert result.predicted_quality == {}


class TestRoundRobinMatchesFrozenLoop:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        num_users = int(rng.choice([1, 2, 5, 40, 300, 1000]))
        num_groups = num_users + int(rng.integers(0, num_users + 2))
        groups = _random_groups(rng, num_users, num_groups, zero_rate_share=0.05)
        # Some users have no context, and one context has no group.
        with_context = [u for u in range(num_users) if rng.random() < 0.85]
        contexts = _contexts(with_context + [num_users + 7], rng.uniform(2e3, 9e4, 4))
        budget_s = float(rng.choice([1 / 30, 1 / 60, 0.5e-3, 0.2]))
        _assert_same_round_robin(groups, contexts, budget_s)

    @pytest.mark.parametrize("budget_s", [1 / 30, 0.2, 1.0])
    def test_every_subset_each_user_in_many_slotted_groups(self, budget_s):
        # 41 groups; at 0.2 s and 1 s every group gets slots and every user's
        # bytes sum over 16 groups.
        groups = _all_subsets(6)
        contexts = _contexts(range(6), [9e3, 2.1e4, 4.4e4, 7.7e4])
        _assert_same_round_robin(groups, contexts, budget_s)

    def test_crowd_shape(self):
        rng = np.random.default_rng(7)
        num_users = 1000
        groups = _random_groups(rng, num_users, 2 * num_users - 2)
        contexts = _contexts(range(num_users), [1.1e4, 2.9e4, 5.2e4, 8.8e4])
        _assert_same_round_robin(groups, contexts, 1 / 30)

    def test_no_groups_is_an_error(self):
        contexts = _contexts([0], [1e3, 2e3, 3e3, 4e3])
        with pytest.raises(SchedulingError):
            round_robin_allocation([], contexts)

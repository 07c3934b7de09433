"""Tests for the Problem-4 greedy coding-group assignment."""

import numpy as np
import pytest

from repro.beamforming.selection import BeamPlan
from repro.errors import SchedulingError
from repro.phy.mcs import entry_for_index
from repro.scheduling.coding_groups import (
    assign_coding_groups,
)
from repro.scheduling.groups import CandidateGroup

UNIT = 1000.0


def _group(index, users, rate_mbps=800.0):
    plan = BeamPlan(
        user_ids=tuple(users),
        beam=np.ones(4) / 2.0,
        per_user_rss_dbm={u: -55.0 for u in users},
        min_rss_dbm=-55.0,
        mcs=entry_for_index(4),
        rate_mbps=rate_mbps,
    )
    return CandidateGroup(index=index, plan=plan)


class TestGreedyAssignment:
    def test_single_group_fills_units_in_order(self):
        groups = [_group(0, (0,))]
        budgets = np.zeros((1, 4))
        budgets[0, 1] = 2.5 * UNIT  # 2.5 units of layer 1
        assignments = assign_coding_groups(budgets, groups, UNIT)
        layer1 = [a for a in assignments if a.layer == 1]
        assert [a.sublayer for a in layer1] == [0, 1, 2]
        assert [a.nbytes for a in layer1] == [UNIT, UNIT, 0.5 * UNIT]

    def test_overlapping_groups_share_units(self):
        """A user in two groups aggregates symbols: the second group only
        covers the residual deficit."""
        groups = [_group(0, (0, 1)), _group(1, (1, 2))]
        budgets = np.zeros((2, 4))
        budgets[0, 0] = 0.6 * UNIT
        budgets[1, 0] = UNIT
        assignments = assign_coding_groups(budgets, groups, UNIT)
        unit0 = [a for a in assignments if a.layer == 0 and a.sublayer == 0]
        # Group 0 sends 0.6 units; group 1 tops user 1/2 up to a full unit.
        assert unit0[0].group_index == 0
        assert unit0[0].nbytes == pytest.approx(0.6 * UNIT)
        assert unit0[1].group_index == 1
        assert unit0[1].nbytes == pytest.approx(UNIT)  # user 2 needs a full unit

    def test_transmission_order_is_layer_major(self):
        groups = [_group(0, (0,))]
        budgets = np.full((1, 4), 1.2 * UNIT)
        assignments = assign_coding_groups(budgets, groups, UNIT)
        layers = [a.layer for a in assignments]
        assert layers == sorted(layers)

    def test_budget_never_exceeded(self):
        groups = [_group(0, (0, 1)), _group(1, (1,))]
        budgets = np.array([[2.3 * UNIT, 0, UNIT, 0], [UNIT, UNIT, 0, 0]])
        assignments = assign_coding_groups(budgets.copy(), groups, UNIT)
        spent = np.zeros_like(budgets)
        for a in assignments:
            spent[a.group_index, a.layer] += a.nbytes
        assert np.all(spent <= budgets + 1e-6)

    def test_shape_mismatch_rejected(self):
        groups = [_group(0, (0,))]
        with pytest.raises(SchedulingError):
            assign_coding_groups(np.zeros((2, 4)), groups, UNIT)

    def test_bad_unit_size_rejected(self):
        groups = [_group(0, (0,))]
        with pytest.raises(SchedulingError):
            assign_coding_groups(np.zeros((1, 4)), groups, 0.0)

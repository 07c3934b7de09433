"""Transmission-strategy optimization (paper Sec 2.4, 2.6).

Turns channel state into a per-frame transmission plan:

1. enumerate candidate multicast groups and their beamformed rates
   (:mod:`repro.scheduling.groups`),
2. optimize time allocation across groups and layers against the DNN quality
   model — Problem 1 (:mod:`repro.scheduling.allocation`),
3. map byte budgets onto fountain coding units with the greedy of Problem 4
   (:mod:`repro.scheduling.coding_groups`).

The round-robin baseline of Sec 4.2.2 lives in
:mod:`repro.scheduling.round_robin`.
"""

from .groups import CandidateGroup, GroupEnumerator
from .allocation import AllocationResult, TimeAllocationOptimizer
from .coding_groups import UnitAssignment, assign_coding_groups
from .round_robin import round_robin_allocation

__all__ = [
    "CandidateGroup",
    "GroupEnumerator",
    "AllocationResult",
    "TimeAllocationOptimizer",
    "UnitAssignment",
    "assign_coding_groups",
    "round_robin_allocation",
]

"""Problem 4: mapping layer allocations onto coding units (Sec 2.6).

The time-allocation optimizer emits byte budgets ``S(G, j)`` per multicast
group and layer; fountain coding works per *coding unit* (sublayer), and a
unit only yields information once a receiver accumulates the whole unit.
Problem 4 asks for the per-unit split ``sss(G, i, j)`` maximising the total
decoded traffic.

We use the paper's greedy: walk coding units in increasing order; within a
unit, walk multicast groups in increasing group id, assigning just enough of
each group's remaining budget that every receiver of the group completes the
unit (receivers aggregate symbols across all their groups, so a unit's
deficit for a group is the *maximum* deficit over its members).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..errors import SchedulingError
from ..types import NUM_LAYERS
from ..video.jigsaw import SUBLAYER_COUNTS
from .groups import CandidateGroup


@dataclass(frozen=True)
class UnitAssignment:
    """Bytes of one coding unit assigned to one multicast group.

    Attributes:
        group_index: Index into the candidate-group list.
        layer: Video layer of the unit.
        sublayer: Sublayer index within the layer.
        nbytes: Coded bytes to send for this unit in this group.
    """

    group_index: int
    layer: int
    sublayer: int
    nbytes: float


def assign_coding_groups(
    bytes_allocated: np.ndarray,
    groups: Sequence[CandidateGroup],
    unit_nbytes: float,
) -> List[UnitAssignment]:
    """Greedy solution of Problem 4.

    Args:
        bytes_allocated: ``(num_groups, 4)`` byte budgets ``S(G, j)`` from
            the allocation optimizer.
        groups: The candidate groups (for membership).
        unit_nbytes: Source bytes of one coding unit (``size(i, j)``; equal
            for all units in the Jigsaw layering).

    Returns:
        Assignments in transmission order: layer-major, then sublayer, then
        group id — lower layers ship first, which is also what the
        leaky-bucket priority wants (Sec 2.7).
    """
    budgets = np.array(bytes_allocated, dtype=float)
    if budgets.shape != (len(groups), NUM_LAYERS):
        raise SchedulingError(
            f"bytes_allocated must be ({len(groups)}, {NUM_LAYERS}), "
            f"got {budgets.shape}"
        )
    if unit_nbytes <= 0:
        raise SchedulingError(f"unit_nbytes must be positive, got {unit_nbytes}")

    members = [g.user_ids for g in groups]
    assignments: List[UnitAssignment] = []
    for layer in range(NUM_LAYERS):
        # Budgets only shrink, so a group without budget for this layer at
        # the start never gets a grant in it: walk only the funded groups,
        # still in increasing group id (a NaN budget counts as funded, as
        # the per-group test below lets it through).
        funded = np.flatnonzero(~(budgets[:, layer] <= 1e-9)).tolist()
        layer_users = {u for gi in funded for u in members[gi]}
        for sublayer in range(SUBLAYER_COUNTS[layer]):
            # received[u] = bytes of the current unit user u can decode so far.
            received: Dict[int, float] = dict.fromkeys(layer_users, 0.0)
            for gi in funded:
                budget = budgets[gi, layer]
                if budget <= 1e-9:
                    continue
                deficit = max(
                    (unit_nbytes - received[u] for u in members[gi]), default=0.0
                )
                if deficit <= 1e-9:
                    continue
                granted = min(budget, deficit)
                budgets[gi, layer] -= granted
                for u in members[gi]:
                    received[u] = min(unit_nbytes, received[u] + granted)
                assignments.append(
                    UnitAssignment(
                        group_index=gi,
                        layer=layer,
                        sublayer=sublayer,
                        nbytes=granted,
                    )
                )
    # Budget left over once every unit of a layer is complete for a group's
    # members stays unspent: the allocation exceeded the layer's useful
    # content for that group, and nothing is carried to another layer.
    return assignments

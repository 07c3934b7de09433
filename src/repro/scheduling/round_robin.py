"""Round-robin scheduling baseline (Sec 4.2.2).

"[round-robin] enumerates all possible user groups and uses round-robin to
schedule across different user groups (the sender transmits to each group for
1 ms and then selects the next group ...)".

Time is therefore split equally across candidate groups regardless of their
rate or their members' marginal video quality; within its slice each group
simply fills layers bottom-up for its own members.  Overlapping groups
re-send the same low layers — the redundancy the optimized scheduler avoids.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..errors import SchedulingError
from ..obs import OBS
from ..quality.curves import FrameFeatureContext
from ..types import FRAME_BUDGET_30FPS, NUM_LAYERS
from .allocation import AllocationResult
from .groups import CandidateGroup

#: Round-robin slot length from the paper.
SLOT_S = 1e-3


def round_robin_allocation(
    groups: Sequence[CandidateGroup],
    contexts: Dict[int, FrameFeatureContext],
    frame_budget_s: float = FRAME_BUDGET_30FPS,
) -> AllocationResult:
    """Equal-time round-robin allocation in 1 ms slots.

    Produces the same :class:`AllocationResult` interface as the optimizer so
    the rest of the pipeline is agnostic to the scheduling policy.
    """
    if not groups:
        raise SchedulingError("no candidate groups")
    with OBS.span(
        "schedule.allocate",
        groups=len(groups),
        users=len(contexts),
        scheduler="round_robin",
    ):
        return _round_robin(groups, contexts, frame_budget_s)


def _round_robin(
    groups: Sequence[CandidateGroup],
    contexts: Dict[int, FrameFeatureContext],
    frame_budget_s: float,
) -> AllocationResult:
    num_groups = len(groups)
    num_slots = max(1, int(frame_budget_s / SLOT_S))
    # Slot s goes to group s mod G: the first (slots mod G) groups get one
    # slot more than the rest, and with fewer slots than groups the rest
    # get none.
    rounds, extra = divmod(num_slots, num_groups)
    slots_per_group = np.full(num_groups, float(rounds))
    slots_per_group[:extra] += 1
    group_time = slots_per_group * SLOT_S
    slotted = np.flatnonzero(slots_per_group).tolist()

    layer_sizes = _common_layer_sizes(contexts)
    rates = [g.rate_bytes_per_s for g in groups]
    time = np.zeros((num_groups, NUM_LAYERS))
    for gi in slotted:
        rate = rates[gi]
        budget_bytes = group_time[gi] * rate
        for layer in range(NUM_LAYERS):
            layer_bytes = min(budget_bytes, layer_sizes[layer])
            time[gi, layer] = layer_bytes / rate if rate else 0.0
            budget_bytes -= layer_bytes
            if budget_bytes <= 0:
                break

    bytes_alloc = time * np.array(rates)[:, None]
    # A user's bytes are the sum of their groups' rows, added in group
    # order; groups without slots add exact zeros and are skipped.
    per_user = {u: np.zeros(NUM_LAYERS) for u in sorted(contexts)}
    for gi in slotted:
        for user in groups[gi].user_ids:
            if user in per_user:
                per_user[user] += bytes_alloc[gi]
    return AllocationResult(
        groups=list(groups),
        time_s=time,
        bytes_allocated=bytes_alloc,
        per_user_bytes=per_user,
        predicted_quality={},
    )


def _common_layer_sizes(contexts: Dict[int, FrameFeatureContext]) -> List[float]:
    if not contexts:
        raise SchedulingError("no user contexts")
    first = next(iter(contexts.values()))
    return [float(s) for s in first.layer_sizes]

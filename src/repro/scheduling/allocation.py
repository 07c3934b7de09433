"""Problem 1: time allocation across multicast groups and layers (Sec 2.4).

    max_{T_{G,j}}  sum_i Q(D_i1..D_i4) - lambda * sum_{i,j} D_ij
    s.t.           D_ij = sum_{G : i in G} T_{G,j} * R_G
                   sum_{G,j} T_{G,j} <= 1 / FR,   T >= 0

``Q`` is the trained DNN quality model; its hand-coded input gradient gives
the exact marginal quality per byte at each layer, so we solve the problem
with projected gradient ascent on the capped simplex
``{T >= 0, sum T <= budget}``.  The ``lambda`` term breaks ties toward less
traffic, exactly as in the paper; additionally the quality model's fraction
features saturate at 1, so allocating beyond a layer's size earns zero
quality — redundancy is penalised automatically ("optimizing our objective
will automatically minimize redundancy").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..errors import SchedulingError
from ..obs import OBS
from ..quality.curves import FrameFeatureBatch, FrameFeatureContext
from ..quality.dnn import DNNQualityModel
from ..types import FRAME_BUDGET_30FPS, NUM_LAYERS
from .groups import CandidateGroup


@dataclass
class AllocationResult:
    """Solution of Problem 1 for one frame.

    Attributes:
        groups: The candidate groups the solution indexes into.
        time_s: ``(num_groups, 4)`` seconds allocated per group and layer.
        bytes_allocated: ``time_s * R_G`` per group and layer.
        per_user_bytes: Expected bytes each user receives per layer.
        predicted_quality: DNN-estimated SSIM per user under this allocation.
    """

    groups: List[CandidateGroup]
    time_s: np.ndarray
    bytes_allocated: np.ndarray
    per_user_bytes: Dict[int, np.ndarray]
    predicted_quality: Dict[int, float]

    @property
    def total_time_s(self) -> float:
        """Total airtime consumed."""
        return float(self.time_s.sum())

    def nonzero_entries(self) -> List[tuple]:
        """(group_index, layer, seconds) for all non-trivial allocations."""
        entries: List[tuple] = []
        for g in range(self.time_s.shape[0]):
            for j in range(NUM_LAYERS):
                if self.time_s[g, j] > 1e-9:
                    entries.append((g, j, float(self.time_s[g, j])))
        return entries


class TimeAllocationOptimizer:
    """Projected-gradient solver for Problem 1.

    Args:
        quality_model: Trained DNN Q(.).
        traffic_penalty_per_byte: The paper's small lambda; must be small
            enough that quality dominates (default: 1 SSIM point per GB).
        iterations: Gradient steps.
        seed_fraction_layer0: Initial allocation bias toward the base layer
            (a good, feasible warm start).
    """

    def __init__(
        self,
        quality_model: DNNQualityModel,
        traffic_penalty_per_byte: float = 1e-9,
        iterations: int = 120,
    ) -> None:
        if traffic_penalty_per_byte < 0:
            raise SchedulingError("lambda must be >= 0")
        self.quality_model = quality_model
        self.traffic_penalty_per_byte = float(traffic_penalty_per_byte)
        self.iterations = int(iterations)

    def optimize(
        self,
        groups: Sequence[CandidateGroup],
        contexts: Dict[int, FrameFeatureContext],
        frame_budget_s: float = FRAME_BUDGET_30FPS,
    ) -> AllocationResult:
        """Solve the allocation for one frame.

        Args:
            groups: Candidate groups (with rates) from the enumerator.
            contexts: Per-user frame feature context (layer sizes and the
                static SSIM features the DNN needs).
            frame_budget_s: The 1/FR deadline.
        """
        if not groups:
            raise SchedulingError("no candidate groups")
        users = sorted(contexts)
        if not users:
            raise SchedulingError("no user contexts")
        with OBS.span(
            "schedule.allocate",
            groups=len(groups),
            users=len(users),
            scheduler="optimized",
        ):
            return self._optimize(groups, contexts, users, frame_budget_s)

    def _optimize(
        self,
        groups: Sequence[CandidateGroup],
        contexts: Dict[int, FrameFeatureContext],
        users: List[int],
        frame_budget_s: float,
    ) -> AllocationResult:
        num_groups = len(groups)
        rates = np.array([g.rate_bytes_per_s for g in groups])  # bytes/s
        row_of = {user: row for row, user in enumerate(users)}
        membership = np.zeros((len(users), num_groups), dtype=bool)
        for gi, group in enumerate(groups):
            for user in group.user_ids:
                if user in row_of:
                    membership[row_of[user], gi] = True
        batch = FrameFeatureBatch([contexts[u] for u in users])
        layer_sizes = batch.layer_sizes  # (n_users, 4)

        # One group never usefully sends more of a layer than the layer holds
        # (members aggregate across groups, so the surplus is pure waste):
        # cap T_{G,j} <= layer_size_j / R_G.
        caps = layer_sizes.max(axis=0)[None, :] / np.maximum(rates[:, None], 1e-9)

        # Warm start: spend the budget on the largest groups, base layer first.
        time = np.zeros((num_groups, NUM_LAYERS))
        coverage = membership.sum(axis=0) * rates
        best_group = int(np.argmax(coverage))
        time[best_group, :] = frame_budget_s * np.array([0.4, 0.3, 0.2, 0.1])
        time = self._project(time, caps, frame_budget_s)

        # Everything the ascent reads but never changes, so that the loop
        # is the gradient's arithmetic and nothing else.
        rate_column = rates[:, None]
        to_users = membership.astype(float)  # (n_users, G)
        to_groups = membership.T.astype(float)  # (G, n_users)

        step = frame_budget_s / 8.0
        for iteration in range(self.iterations):
            # d objective / d T_{G,j} at the current allocation.
            user_bytes = to_users @ (time * rate_column)  # (n_users, 4)
            features = batch.features_for_bytes(user_bytes)
            _, input_grad = self.quality_model.predict_with_input_grad(features)
            # Chain rule through fraction = clip(bytes / size, 0, 1): a
            # clipped fraction is below 1 exactly when the raw one is.
            active = features[:, :NUM_LAYERS] < 1.0
            dq_dbytes = input_grad[:, :NUM_LAYERS] * active / layer_sizes
            dq_dbytes = dq_dbytes - self.traffic_penalty_per_byte
            # dD_ij/dT_Gj = R_G for i in G.
            grad = (to_groups @ dq_dbytes) * rate_column  # (G, 4)
            norm = float(np.abs(grad).max())
            if norm <= 1e-15:
                break
            time = time + step * grad / norm
            time = self._project(time, caps, frame_budget_s)
            if iteration and iteration % 40 == 0:
                step *= 0.5

        bytes_alloc = time * rate_column
        per_user = {
            u: (membership[k][:, None] * bytes_alloc).sum(axis=0)
            for k, u in enumerate(users)
        }
        predicted: Dict[int, float] = {}
        for u in users:
            feats = contexts[u].features_for_bytes(per_user[u])
            predicted[u] = float(self.quality_model.predict(feats)[0])
        return AllocationResult(
            groups=list(groups),
            time_s=time,
            bytes_allocated=bytes_alloc,
            per_user_bytes=per_user,
            predicted_quality=predicted,
        )

    @staticmethod
    def _project(time: np.ndarray, caps: np.ndarray, budget: float) -> np.ndarray:
        """Project onto ``{0 <= T <= caps, sum T <= budget}``.

        Alternating projections between the box and the capped simplex; two
        rounds suffice for ascent purposes.
        """
        projected = time.clip(0.0, caps)
        for _ in range(2):
            projected = _project_capped_simplex(projected, budget).clip(0.0, caps)
        return projected


def _project_capped_simplex(time: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto ``{T >= 0, sum T <= budget}``."""
    clipped = np.maximum(time, 0.0)
    total = clipped.sum()
    if total <= budget:
        return clipped
    # Project onto the simplex {T >= 0, sum T = budget}.
    flat = clipped.ravel()
    sorted_desc = np.sort(flat)[::-1]
    cumulative = np.cumsum(sorted_desc) - budget
    indices = np.arange(1, flat.size + 1)
    rho_candidates = np.nonzero(sorted_desc - cumulative / indices > 0)[0]
    rho = int(rho_candidates[-1])
    theta = cumulative[rho] / (rho + 1.0)
    return np.maximum(flat - theta, 0.0).reshape(time.shape)

"""Alternative Problem-1 solver using scipy's SLSQP.

The paper notes "the optimization stage only takes a few milliseconds with
multi-core computation"; the default :class:`TimeAllocationOptimizer` uses a
projected-gradient method tuned for this problem.  This module provides an
independent SLSQP-based solver over the same objective for cross-validation
(tests assert both solvers land on comparable objective values) and for
users who prefer a library optimizer.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np
from scipy.optimize import minimize

from repro.errors import SchedulingError
from repro.quality.curves import FrameFeatureContext
from repro.quality.dnn import DNNQualityModel
from repro.types import FRAME_BUDGET_30FPS, NUM_LAYERS
from repro.scheduling.allocation import AllocationResult
from repro.scheduling.groups import CandidateGroup


class ScipyAllocationOptimizer:
    """SLSQP solver for the Sec 2.4 time-allocation problem.

    Args:
        quality_model: Trained DNN Q(.).
        traffic_penalty_per_byte: The paper's lambda tie-breaker.
        max_iterations: SLSQP iteration cap.
    """

    def __init__(
        self,
        quality_model: DNNQualityModel,
        traffic_penalty_per_byte: float = 1e-9,
        max_iterations: int = 120,
    ) -> None:
        if traffic_penalty_per_byte < 0:
            raise SchedulingError("lambda must be >= 0")
        self.quality_model = quality_model
        self.traffic_penalty_per_byte = float(traffic_penalty_per_byte)
        self.max_iterations = int(max_iterations)

    def optimize(
        self,
        groups: Sequence[CandidateGroup],
        contexts: Dict[int, FrameFeatureContext],
        frame_budget_s: float = FRAME_BUDGET_30FPS,
    ) -> AllocationResult:
        """Solve Problem 1 with SLSQP (analytic objective gradient)."""
        if not groups:
            raise SchedulingError("no candidate groups")
        users = sorted(contexts)
        if not users:
            raise SchedulingError("no user contexts")
        num_groups = len(groups)
        rates = np.array([g.rate_bytes_per_s for g in groups])
        membership = np.zeros((len(users), num_groups), dtype=bool)
        for gi, group in enumerate(groups):
            for user in group.user_ids:
                if user in contexts:
                    membership[users.index(user), gi] = True
        layer_sizes = np.vstack(
            [np.asarray(contexts[u].layer_sizes, dtype=float) for u in users]
        )

        def unpack(x: np.ndarray) -> np.ndarray:
            return x.reshape(num_groups, NUM_LAYERS)

        def objective_and_grad(x: np.ndarray):
            time = unpack(x)
            bytes_alloc = time * rates[:, None]
            user_bytes = membership.astype(float) @ bytes_alloc
            features = np.vstack(
                [
                    contexts[u].features_for_bytes(user_bytes[k])
                    for k, u in enumerate(users)
                ]
            )
            predictions, input_grad = self.quality_model.predict_with_input_grad(
                features
            )
            value = float(
                predictions.sum()
                - self.traffic_penalty_per_byte * user_bytes.sum()
            )
            fractions = user_bytes / layer_sizes
            active = fractions < 1.0
            dq_dbytes = (
                input_grad[:, :NUM_LAYERS] * active / layer_sizes
                - self.traffic_penalty_per_byte
            )
            grad_time = (membership.T.astype(float) @ dq_dbytes) * rates[:, None]
            return -value, -grad_time.ravel()

        start = np.zeros(num_groups * NUM_LAYERS)
        # Feasible warm start: spend the budget on the widest-coverage group.
        best_group = int(np.argmax(membership.sum(axis=0) * rates))
        start_matrix = unpack(start.copy())
        start_matrix[best_group] = frame_budget_s * np.array([0.4, 0.3, 0.2, 0.1])
        start = start_matrix.ravel()

        result = minimize(
            objective_and_grad,
            start,
            jac=True,
            method="SLSQP",
            bounds=[(0.0, frame_budget_s)] * start.size,
            constraints=[
                {
                    "type": "ineq",
                    "fun": lambda x: frame_budget_s - x.sum(),
                    "jac": lambda x: -np.ones_like(x),
                }
            ],
            options={"maxiter": self.max_iterations, "ftol": 1e-9},
        )
        time = np.clip(unpack(result.x), 0.0, None)
        overshoot = time.sum()
        if overshoot > frame_budget_s:
            time *= frame_budget_s / overshoot

        bytes_alloc = time * rates[:, None]
        per_user = {
            u: (membership[k][:, None] * bytes_alloc).sum(axis=0)
            for k, u in enumerate(users)
        }
        predicted = {
            u: float(
                self.quality_model.predict(
                    contexts[u].features_for_bytes(per_user[u])
                )[0]
            )
            for u in users
        }
        return AllocationResult(
            groups=list(groups),
            time_s=time,
            bytes_allocated=bytes_alloc,
            per_user_bytes=per_user,
            predicted_quality=predicted,
        )

"""The Problem-1 ascent, stripped to its arithmetic, still allocates the
same bytes as the loop it came from.

``TimeAllocationOptimizer._optimize`` builds its constants once and its
features for all users at a time; the loop it replaced rebuilt them every
step, one user at a time through ``features_for_bytes``.  No floating-point
operation or its order changed, so ``time_s`` must match to the last bit.
The former loop is kept here, frozen, as the reference.
"""

import numpy as np
import pytest

from repro.beamforming import GroupBeamPlanner, SectorCodebook
from repro.quality.curves import FrameFeatureContext
from repro.scheduling.allocation import (
    TimeAllocationOptimizer,
    _project_capped_simplex,
)
from repro.scheduling.groups import GroupEnumerator
from repro.types import NUM_LAYERS, BeamformingScheme

BUDGET_S = 1 / 30
CASES = 22


def frozen_time_s(optimizer, groups, contexts, frame_budget_s):
    """``time_s`` by the per-step, per-user loop as it stood before."""
    model = optimizer.quality_model
    users = sorted(contexts)
    rates = np.array([g.rate_bytes_per_s for g in groups])
    membership = np.zeros((len(users), len(groups)), dtype=bool)
    for gi, group in enumerate(groups):
        for user in group.user_ids:
            if user in contexts:
                membership[users.index(user), gi] = True
    layer_sizes = np.vstack(
        [np.asarray(contexts[u].layer_sizes, dtype=float) for u in users]
    )
    caps = layer_sizes.max(axis=0)[None, :] / np.maximum(rates[:, None], 1e-9)

    def project(time, caps, budget):
        projected = np.clip(time, 0.0, caps)
        for _ in range(2):
            projected = _project_capped_simplex(projected, budget)
            projected = np.clip(projected, 0.0, caps)
        return projected

    time = np.zeros((len(groups), NUM_LAYERS))
    best_group = int(np.argmax(membership.sum(axis=0) * rates))
    time[best_group, :] = frame_budget_s * np.array([0.4, 0.3, 0.2, 0.1])
    time = project(time, caps, frame_budget_s)
    step = frame_budget_s / 8.0
    for iteration in range(optimizer.iterations):
        bytes_alloc = time * rates[:, None]
        user_bytes = membership.astype(float) @ bytes_alloc
        features = np.vstack(
            [contexts[u].features_for_bytes(user_bytes[k]) for k, u in enumerate(users)]
        )
        _, input_grad = model.predict_with_input_grad(features)
        fractions = user_bytes / layer_sizes
        active = fractions < 1.0
        dq_dbytes = input_grad[:, :NUM_LAYERS] * active / layer_sizes
        dq_dbytes = dq_dbytes - optimizer.traffic_penalty_per_byte
        grad = (membership.T.astype(float) @ dq_dbytes) * rates[:, None]
        norm = float(np.max(np.abs(grad)))
        if norm <= 1e-15:
            break
        time = time + step * grad / norm
        time = project(time, caps, frame_budget_s)
        if iteration and iteration % 40 == 0:
            step *= 0.5
    return time


@pytest.fixture(scope="module")
def problems(request):
    """(groups, contexts) pairs from real 4-user enumerations."""
    scenario = request.getfixturevalue("scenario")
    by_richness = [
        FrameFeatureContext.from_probe(request.getfixturevalue(name))
        for name in ("hr_probe", "lr_probe")
    ]
    codebook = SectorCodebook(scenario.array, num_beams=16, num_wide_beams=4)
    planner = GroupBeamPlanner(
        scenario.array, codebook, scenario.channel_model.budget,
        BeamformingScheme.OPTIMIZED_MULTICAST,
    )
    enumerator = GroupEnumerator(planner, rate_scale=56.25)
    cases = []
    for seed in range(CASES):
        positions = scenario.place_arc(4, 3.0 + seed % 4, 60, seed=seed)
        state = scenario.channel_model.snapshot(
            dict(enumerate(positions)), np.random.default_rng(seed)
        )
        groups = enumerator.enumerate(state, range(4))
        contexts = {user: by_richness[(user + seed) % 2] for user in range(4)}
        if seed % 3 == 0:
            # A receiver that left between the beacon and this frame: it is
            # still a member of its groups but has no context.
            del contexts[seed % 4]
        cases.append((groups, contexts))
    return cases


def test_time_s_is_byte_identical_to_the_frozen_loop(problems, tiny_dnn):
    optimizer = TimeAllocationOptimizer(tiny_dnn)
    assert len(problems) >= 20
    assert any(
        user not in contexts
        for groups, contexts in problems
        for group in groups
        for user in group.user_ids
    )
    for groups, contexts in problems:
        result = optimizer.optimize(groups, contexts, BUDGET_S)
        expected = frozen_time_s(optimizer, groups, contexts, BUDGET_S)
        assert result.time_s.tobytes() == expected.tobytes()
        assert result.time_s.any()

"""Cross-validation of the SLSQP solver against the projected-gradient one."""

import numpy as np
import pytest

from repro.beamforming import GroupBeamPlanner, SectorCodebook
from repro.errors import SchedulingError
from repro.quality.curves import FrameFeatureContext
from repro.scheduling.allocation import TimeAllocationOptimizer
from repro.scheduling.groups import GroupEnumerator
from tests.scheduling.scipy_allocation import ScipyAllocationOptimizer
from repro.types import BeamformingScheme, Position


@pytest.fixture(scope="module")
def problem(request):
    scenario = request.getfixturevalue("scenario")
    tiny_dnn = request.getfixturevalue("tiny_dnn")
    hr_probe = request.getfixturevalue("hr_probe")
    rng = np.random.default_rng(71)
    users = {0: Position(3.0, 7.0), 1: Position(4.0, 5.5)}
    state = scenario.channel_model.snapshot(users, rng)
    codebook = SectorCodebook(scenario.array, num_beams=16, num_wide_beams=4)
    planner = GroupBeamPlanner(
        scenario.array, codebook, scenario.channel_model.budget,
        BeamformingScheme.OPTIMIZED_MULTICAST,
    )
    groups = GroupEnumerator(planner, rate_scale=56.25).enumerate(state, [0, 1])
    context = FrameFeatureContext.from_probe(hr_probe)
    return groups, {0: context, 1: context}, tiny_dnn


def _objective(result, dnn, contexts, lam=1e-9):
    total = 0.0
    for user, amount in result.per_user_bytes.items():
        feats = contexts[user].features_for_bytes(amount)
        total += float(dnn.predict(feats)[0]) - lam * float(amount.sum())
    return total


class TestScipySolver:
    def test_feasible(self, problem):
        groups, contexts, dnn = problem
        result = ScipyAllocationOptimizer(dnn).optimize(groups, contexts, 1 / 30)
        assert result.total_time_s <= 1 / 30 + 1e-9
        assert np.all(result.time_s >= -1e-12)

    def test_comparable_to_projected_gradient(self, problem):
        """Two independent solvers must land on similar objective values —
        a strong check that neither is silently broken."""
        groups, contexts, dnn = problem
        pg = TimeAllocationOptimizer(dnn, iterations=150).optimize(
            groups, contexts, 1 / 30
        )
        slsqp = ScipyAllocationOptimizer(dnn).optimize(groups, contexts, 1 / 30)
        obj_pg = _objective(pg, dnn, contexts)
        obj_slsqp = _objective(slsqp, dnn, contexts)
        assert obj_slsqp >= obj_pg - 0.05 * max(abs(obj_pg), 1e-9)

    def test_predicted_quality_populated(self, problem):
        groups, contexts, dnn = problem
        result = ScipyAllocationOptimizer(dnn).optimize(groups, contexts, 1 / 30)
        assert set(result.predicted_quality) == {0, 1}

    def test_rejects_empty_groups(self, problem):
        _, contexts, dnn = problem
        with pytest.raises(SchedulingError):
            ScipyAllocationOptimizer(dnn).optimize([], contexts)

    def test_rejects_negative_lambda(self, problem):
        _, _, dnn = problem
        with pytest.raises(SchedulingError):
            ScipyAllocationOptimizer(dnn, traffic_penalty_per_byte=-1)

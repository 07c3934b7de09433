"""Tests for shared value types."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.types import (
    FRAME_BUDGET_30FPS,
    NUM_LAYERS,
    Position,
    frame_count,
    validate_seed,
)


class TestPosition:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)

    def test_angle(self):
        assert Position(1, 1).angle_from(Position(0, 0)) == pytest.approx(np.pi / 4)

    def test_as_array(self):
        np.testing.assert_array_equal(Position(2, 3).as_array(), [2.0, 3.0])

    def test_hashable_and_equal(self):
        assert Position(1, 2) == Position(1, 2)
        assert len({Position(1, 2), Position(1, 2)}) == 1


class TestSeeds:
    def test_int_seed_deterministic(self):
        a = validate_seed(7).random(3)
        b = validate_seed(7).random(3)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(1)
        assert validate_seed(rng) is rng

    def test_none_allowed(self):
        assert validate_seed(None) is not None

    def test_bad_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_seed("nope")


class TestFrameCount:
    @pytest.mark.parametrize(
        "duration_s,frames", [(4.1, 123), (8.2, 246), (16.4, 492), (16.9, 507)]
    )
    def test_rounds_where_the_product_falls_short(self, duration_s, frames):
        # The float product is a hair under the frame count it means.
        assert int(duration_s * 30) == frames - 1
        assert frame_count(duration_s, 30) == frames

    def test_exact_products_unchanged(self):
        assert frame_count(0.5, 30) == 15
        assert frame_count(3.0, 30) == 90


class TestConstants:
    def test_frame_budget(self):
        assert FRAME_BUDGET_30FPS == pytest.approx(1 / 30)

    def test_four_layers(self):
        assert NUM_LAYERS == 4


class TestOutcomeStats:
    def _outcome(self):
        from repro.types import FrameStats, OutcomeStats

        outcome = OutcomeStats()
        for frame in range(3):
            for user in (0, 1):
                outcome.stats.append(
                    FrameStats(
                        frame_index=frame,
                        user_id=user,
                        ssim=0.5 + 0.1 * frame + 0.01 * user,
                        psnr_db=30.0 + frame,
                    )
                )
        return outcome

    def test_series_in_frame_order(self):
        outcome = self._outcome()
        assert outcome.ssim_series(1) == [0.51, 0.61, 0.71]
        assert outcome.ssim_series(99) == []

    def test_per_user_means(self):
        outcome = self._outcome()
        per_user = outcome.per_user_ssim()
        assert set(per_user) == {0, 1}
        assert per_user[0] == pytest.approx(0.6)

    def test_index_rebuilds_after_append(self):
        from repro.types import FrameStats

        outcome = self._outcome()
        assert len(outcome.ssim_series(0)) == 3
        # The cached per-user index must notice new stats.
        outcome.stats.append(
            FrameStats(frame_index=3, user_id=0, ssim=0.9, psnr_db=35.0)
        )
        assert outcome.ssim_series(0) == [0.5, 0.6, 0.7, 0.9]

    def test_index_reused_between_queries(self):
        outcome = self._outcome()
        outcome.ssim_series(0)
        index = outcome._series_index
        outcome.ssim_series(1)
        assert outcome._series_index is index

    def test_empty_outcome_nan_means(self):
        from repro.types import OutcomeStats

        outcome = OutcomeStats()
        assert np.isnan(outcome.mean_ssim)
        assert np.isnan(outcome.mean_psnr_db)

"""Tests for the experiment runners (small, fast configurations)."""

import numpy as np
import pytest

from repro.emulation import (
    build_context,
    run_ablation,
    run_beamforming_comparison,
    run_mobile_comparison,
    run_scheduler_comparison,
)
from repro.emulation.context import QUICK_CONTEXT, model_file
from repro.errors import EmulationError
from repro.quality import DNNQualityModel
from repro.types import BeamformingScheme


@pytest.fixture(scope="module")
def ctx():
    return build_context(**QUICK_CONTEXT)


class TestBuildContext:
    def test_context_components(self, ctx):
        assert ctx.dnn.is_fitted
        assert len(ctx.probes) >= 2
        assert len(ctx.videos) == 6

    def test_dnn_load_equals_committed(self):
        """The quick context's model is the committed file, at any seed."""
        committed = DNNQualityModel.load(model_file(144, 256, 60))
        x = np.random.default_rng(0).random((8, 9))
        for seed in (0, 1):
            ctx = build_context(**QUICK_CONTEXT, seed=seed)
            assert ctx.dnn.predict(x).tobytes() == committed.predict(x).tobytes()

    def test_other_shapes_train_in_memory_at_any_seed(self, tmp_path, monkeypatch):
        """Off the committed shapes the model is trained, written nowhere,
        and the same whatever the scenario seed."""
        monkeypatch.setenv("HOME", str(tmp_path))
        quality_dir = model_file(144, 256, 60).parent
        before = sorted(quality_dir.iterdir())
        x = np.random.default_rng(0).random((8, 9))
        predictions = [
            build_context(height=144, width=256, dnn_epochs=5, probe_frames=2,
                          seed=seed).dnn.predict(x).tobytes()
            for seed in (0, 3)
        ]
        assert predictions[0] == predictions[1]
        assert not model_file(144, 256, 5).exists()
        assert sorted(quality_dir.iterdir()) == before
        assert not any(tmp_path.iterdir())

    def test_config_override(self, ctx):
        config = ctx.config(rate_control=False)
        assert not config.rate_control
        assert ctx.base_config.rate_control


class TestRunners:
    def test_beamforming_comparison_shape(self, ctx):
        results = run_beamforming_comparison(
            ctx, 2, ("arc", 3, 60),
            schemes=[BeamformingScheme.OPTIMIZED_MULTICAST,
                     BeamformingScheme.PREDEFINED_UNICAST],
            runs=1, frames=2,
        )
        assert set(results) == {"optimized_multicast", "predefined_unicast"}
        for entry in results.values():
            assert len(entry["ssim"]) == 1
            assert len(entry["psnr"]) == 1
            assert 0 <= entry["ssim"][0] <= 1

    def test_scheduler_comparison_shape(self, ctx):
        results = run_scheduler_comparison(ctx, 2, ("arc", 3, 60), runs=1, frames=2)
        assert set(results) == {"optimized", "round_robin"}

    def test_ablation_axes(self, ctx):
        results = run_ablation(ctx, "source_coding", 2, ("arc", 3, 60),
                               runs=1, frames=2)
        assert set(results) == {"with_source_coding", "without_source_coding"}

    def test_bad_ablation_axis_rejected(self, ctx):
        with pytest.raises(EmulationError):
            run_ablation(ctx, "magic", 2, ("arc", 3, 60), runs=1, frames=1)

    def test_bad_placement_rejected(self, ctx):
        with pytest.raises(EmulationError):
            run_beamforming_comparison(ctx, 2, ("sphere", 1), runs=1, frames=1)

    def test_mobile_comparison_series(self, ctx):
        series = run_mobile_comparison(
            ctx, 1, [0], "high", duration_s=0.5,
            approaches=("realtime_update", "fast_mpc"),
        )
        assert set(series) == {"realtime_update", "fast_mpc"}
        assert len(series["realtime_update"]) == 15
        assert all(0 <= v <= 1 for v in series["fast_mpc"])


class TestParallelDeterminism:
    """Fan-out must never change experiment results."""

    def test_jobs_do_not_change_results(self, ctx, pool_spy):
        serial = run_scheduler_comparison(
            ctx, 2, ("arc", 3, 60), runs=2, frames=2, jobs=1
        )
        assert pool_spy.started == []
        fanned = run_scheduler_comparison(
            ctx, 2, ("arc", 3, 60), runs=2, frames=2, jobs=4
        )
        # Two runs, so two real workers: the pooled path ran.
        assert pool_spy.started == [2]
        assert serial == fanned

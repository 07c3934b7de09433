"""Fault-injection campaigns through the campaign engine.

ISSUE 8 satellite: ``fault_grid`` variants carry a nested ``FaultConfig``
dataclass in their config overrides, which must canonicalize into the
campaign hash (so checkpoints bind to the exact fault grid) and must
produce bit-identical merged results whether the campaign runs sharded
and checkpointed or as the runs' worker tasks called one by one.
"""

import pytest

from repro.emulation.shard import CampaignSpec, run_variant_sweep
from repro.emulation.sweep import (
    _run_task,
    fault_grid,
    install_context,
    merge_runs,
)


def _grid():
    return fault_grid(
        "blockage_rate_hz", [0.0, 2.0], base={"faults.seed": "3"}
    )


class TestFaultGridSharding:
    def test_fault_variants_hash_canonically(self):
        spec = CampaignSpec(
            variants=tuple(_grid()),
            num_users=2,
            placement=("arc", 3, 60),
            runs=4,
            frames=1,
            shards=2,
        )
        # Stable across reconstruction (dataclass overrides canonicalize).
        again = CampaignSpec(
            variants=tuple(_grid()),
            num_users=2,
            placement=("arc", 3, 60),
            runs=4,
            frames=1,
            shards=2,
        )
        assert spec.spec_hash() == again.spec_hash()
        # ... and sensitive to the grid itself.
        other = CampaignSpec(
            variants=tuple(fault_grid("blockage_rate_hz", [0.0, 4.0])),
            num_users=2,
            placement=("arc", 3, 60),
            runs=4,
            frames=1,
            shards=2,
        )
        assert spec.spec_hash() != other.spec_hash()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded_fault_grid_bit_identical_to_unsharded(
        self, sweep_ctx, tmp_path, shards
    ):
        variants = _grid()
        install_context(sweep_ctx)
        reference = merge_runs(
            [v.name for v in variants],
            [
                _run_task((run, 2, ("arc", 3, 60), tuple(variants), 1,
                           1000, 17))
                for run in range(3)
            ],
        )
        sharded = run_variant_sweep(
            sweep_ctx, variants, 2, ("arc", 3, 60), runs=3, frames=1,
            shards=shards, checkpoint=tmp_path / "chaos.jsonl", jobs=1,
        )
        assert sharded == reference

    def test_faulty_arm_diverges_from_clean_arm(self, sweep_ctx, tmp_path):
        """The grid actually injects: a hard-blocked arm scores lower."""
        variants = fault_grid(
            "blockage_rate_hz",
            [0.0, 50.0],
            base={
                "faults.seed": "3",
                "faults.blockage_depth_db": "40",
            },
        )
        merged = run_variant_sweep(
            sweep_ctx, variants, 2, ("arc", 3, 60), runs=2, frames=2,
            shards=2, checkpoint=tmp_path / "chaos.jsonl", jobs=1,
        )
        clean = sum(merged["blockage_rate_hz=0.0"]["ssim"])
        blocked = sum(merged["blockage_rate_hz=50.0"]["ssim"])
        assert blocked < clean

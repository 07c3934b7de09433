"""Tests for the generic variant-sweep engine."""

import pytest

from repro.emulation.shard import run_session_sweep, run_variant_sweep
from repro.emulation.sweep import (
    Variant,
    ap_fault_grid,
    merge_runs,
    parse_config_overrides,
    sweep_num_aps,
    variant_from_spec,
)
from repro.errors import EmulationError
from repro.types import BeamformingScheme, SchedulerKind


class TestVariant:
    def test_requires_name(self):
        with pytest.raises(EmulationError):
            Variant("")

    def test_overrides_and_factory_exclusive(self):
        with pytest.raises(EmulationError):
            Variant("x", config_overrides={"fps": 30},
                    session_factory=lambda ctx, seed: None)


class TestOverrideParsing:
    def test_enum_bool_and_numeric_coercion(self):
        overrides = parse_config_overrides({
            "scheduler": "round_robin",
            "scheme": "predefined_unicast",
            "source_coding": "off",
            "fps": "24",
            "mcs_backoff_db": "1.5",
        })
        assert overrides["scheduler"] is SchedulerKind.ROUND_ROBIN
        assert overrides["scheme"] is BeamformingScheme.PREDEFINED_UNICAST
        assert overrides["source_coding"] is False
        assert overrides["fps"] == 24
        assert overrides["mcs_backoff_db"] == 1.5

    def test_optional_numbers_follow_the_annotation(self):
        """``max_group_size`` defaults to None, so its default has no type."""
        assert parse_config_overrides({"max_group_size": "2"}) == {
            "max_group_size": 2
        }
        for spelling in ("none", "None", " NONE "):
            assert parse_config_overrides({"max_group_size": spelling}) == {
                "max_group_size": None
            }
        with pytest.raises(ValueError):
            parse_config_overrides({"max_group_size": "two"})

    def test_unknown_field_rejected(self):
        with pytest.raises(EmulationError, match="unknown SystemConfig field"):
            parse_config_overrides({"warp_drive": "on"})

    @pytest.mark.parametrize("name", ["num_elements", "phase_bits", "csi_error_std"])
    def test_fields_the_streamer_never_read_are_rejected(self, name):
        """The streamer's array comes from the channel model and the CSI
        error from the scenario, so these would stream the base config."""
        with pytest.raises(EmulationError, match="unknown SystemConfig field"):
            parse_config_overrides({name: "64"})

    def test_bad_bool_rejected(self):
        with pytest.raises(EmulationError, match="expects a boolean"):
            parse_config_overrides({"rate_control": "sideways"})

    def test_variant_from_spec(self):
        variant = variant_from_spec("rr:scheduler=round_robin,fps=24")
        assert variant.name == "rr"
        assert variant.config_overrides == {
            "scheduler": SchedulerKind.ROUND_ROBIN, "fps": 24
        }

    def test_variant_from_bare_name(self):
        variant = variant_from_spec("base")
        assert variant.name == "base"
        assert variant.config_overrides is None

    def test_variant_from_bad_spec(self):
        with pytest.raises(EmulationError, match="bad override"):
            variant_from_spec("x:fps")


class TestMergeRuns:
    def test_merges_in_run_order(self):
        merged = merge_runs(
            ["a", "b"],
            [{"a": (0.9, 30.0), "b": (0.8, 25.0)},
             {"a": (0.7, 28.0), "b": (0.6, 22.0)}],
        )
        assert merged == {
            "a": {"ssim": [0.9, 0.7], "psnr": [30.0, 28.0]},
            "b": {"ssim": [0.8, 0.6], "psnr": [25.0, 22.0]},
        }

    def test_partial_run_rejected_naming_offender(self):
        with pytest.raises(EmulationError, match=r"run 1.*missing \['b'\]"):
            merge_runs(
                ["a", "b"],
                [{"a": (0.9, 30.0), "b": (0.8, 25.0)},
                 {"a": (0.7, 28.0)}],
            )

    def test_unknown_key_rejected(self):
        with pytest.raises(EmulationError, match=r"unexpected \['zz'\]"):
            merge_runs(["a"], [{"a": (0.9, 30.0), "zz": (0.1, 1.0)}])


class TestSweepValidation:
    def test_duplicate_variant_names_rejected(self, sweep_ctx):
        variants = [Variant("same"), Variant("same", {"fps": 24})]
        with pytest.raises(EmulationError, match="duplicate"):
            run_variant_sweep(
                sweep_ctx, variants, 2, ("arc", 3, 60), runs=1, frames=1
            )

    def test_session_factory_variant_rejected_in_placement_sweep(self, sweep_ctx):
        variants = [Variant("x", session_factory=lambda ctx, seed: None)]
        with pytest.raises(EmulationError, match="run_session_sweep"):
            run_variant_sweep(
                sweep_ctx, variants, 2, ("arc", 3, 60), runs=1, frames=1
            )


class TestSweepEngine:
    def test_matches_legacy_scheduler_runner(self, sweep_ctx):
        """The generic engine with the scheduler seed schedule reproduces
        run_scheduler_comparison exactly."""
        from repro.emulation.runner import run_scheduler_comparison

        legacy = run_scheduler_comparison(
            sweep_ctx, 2, ("arc", 3, 60), runs=1, frames=2
        )
        generic = run_variant_sweep(
            sweep_ctx,
            [Variant(kind.value, {"scheduler": kind}) for kind in SchedulerKind],
            2, ("arc", 3, 60), runs=1, frames=2,
            seed_base=2000, seed_stride=13,
        )
        assert generic == legacy

    def test_session_sweep_shapes(self, sweep_ctx):
        """Mixed factory/override variants stream the same shared trace."""
        from repro.emulation.runner import mobile_variant

        trace = sweep_ctx.scenario.mobile_receiver_trace(
            2, moving_users=[0], duration_s=0.3, rss_regime="high", seed=11
        )
        series = run_session_sweep(
            sweep_ctx,
            [mobile_variant("realtime_update"), mobile_variant("fast_mpc")],
            trace, 2, num_frames=9, seed=11,
        )
        assert set(series) == {"realtime_update", "fast_mpc"}
        assert all(len(v) == 9 for v in series.values())

    def test_unknown_mobile_approach_rejected(self):
        from repro.emulation.runner import mobile_variant

        with pytest.raises(EmulationError, match="unknown mobile approach"):
            mobile_variant("teleport")


class TestTopologyOverrides:
    def test_topology_composes_with_fault_overrides(self):
        overrides = parse_config_overrides({
            "topology.num_aps": "2",
            "faults.blockage_rate_hz": "6",
            "fps": "24",
        })
        assert overrides["topology"].num_aps == 2
        assert overrides["faults"].blockage_rate_hz == 6.0
        assert overrides["fps"] == 24

    def test_unknown_topology_field_rejected(self):
        with pytest.raises(EmulationError, match="topology"):
            parse_config_overrides({"topology.warp": "9"})

    def test_bare_topology_key_rejected(self):
        with pytest.raises(EmulationError, match="topology"):
            parse_config_overrides({"topology": "2"})


class TestApFaultGrid:
    def test_arm_names_and_overrides(self):
        variants = ap_fault_grid("blockage_depth_db", [0, 25])
        assert [v.name for v in variants] == [
            "1ap:blockage_depth_db=0", "1ap:blockage_depth_db=25",
            "2ap:blockage_depth_db=0", "2ap:blockage_depth_db=25",
        ]
        one_ap, two_ap = variants[1], variants[3]
        # 1-AP arms carry no topology block at all: they must build the
        # exact pre-topology SystemConfig.
        assert "topology" not in one_ap.config_overrides
        assert two_ap.config_overrides["topology"].num_aps == 2
        assert one_ap.config_overrides["faults"].blockage_depth_db == 25.0
        assert two_ap.config_overrides["faults"].blockage_depth_db == 25.0

    def test_base_overrides_shared_by_every_arm(self):
        variants = ap_fault_grid(
            "blockage_depth_db", [25],
            base={"faults.seed": "11", "fps": "24"},
        )
        for variant in variants:
            assert variant.config_overrides["faults"].seed == 11
            assert variant.config_overrides["fps"] == 24

    def test_empty_values_rejected(self):
        with pytest.raises(EmulationError):
            ap_fault_grid("blockage_depth_db", [])
        with pytest.raises(EmulationError):
            ap_fault_grid("blockage_depth_db", [1], ap_counts=())

    def test_sweep_num_aps_is_widest_arm(self):
        variants = ap_fault_grid("blockage_depth_db", [0, 25], ap_counts=(1, 2))
        assert sweep_num_aps(variants) == 2
        assert sweep_num_aps([Variant("plain")]) == 1
        assert sweep_num_aps([]) == 1

"""FaultConfig validation, SystemConfig embedding and CLI-style parsing."""

import pytest

from repro.core import SystemConfig
from repro.emulation import fault_grid, parse_config_overrides
from repro.errors import ConfigurationError, EmulationError
from repro.faults import FaultConfig
from repro.faults import config as fault_config

RES = dict(height=144, width=256)


class TestFaultConfig:
    def test_defaults_are_disabled(self):
        config = FaultConfig()
        assert not config.enabled

    @pytest.mark.parametrize("axis", [
        "blockage_rate_hz", "snr_dip_rate_hz", "erasure_rate_hz",
        "feedback_loss_rate_hz", "beacon_loss_rate_hz", "churn_rate_hz",
    ])
    def test_any_rate_enables(self, axis):
        assert FaultConfig(**{axis: 0.5}).enabled

    @pytest.mark.parametrize("bad", [
        dict(blockage_rate_hz=-1.0),
        dict(churn_rate_hz=-0.1),
        dict(blockage_duration_s=0.0),
        dict(blockage_depth_db=-3.0),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            FaultConfig(**bad)

    def test_window_shapes_are_valid_constants(self):
        """The shapes no experiment varies hold what the fields checked."""
        for name in (
            "SNR_DIP_DURATION_S", "ERASURE_DURATION_S",
            "FEEDBACK_LOSS_DURATION_S", "BEACON_LOSS_DURATION_S",
            "CHURN_DOWNTIME_S",
        ):
            assert getattr(fault_config, name) > 0, name
        assert fault_config.SNR_DIP_DEPTH_DB >= 0
        assert 0.0 <= fault_config.ERASURE_PROB <= 1.0
        assert fault_config.MAX_BEACON_RETRIES >= 0
        assert 0.0 < fault_config.STALE_DECAY <= 1.0

    def test_frozen(self):
        with pytest.raises(Exception):
            FaultConfig().seed = 3


class TestSystemConfigEmbedding:
    def test_default_block_is_fault_free(self):
        config = SystemConfig(**RES)
        assert isinstance(config.faults, FaultConfig)
        assert not config.faults.enabled

    def test_mapping_coerced(self):
        config = SystemConfig(
            **RES, faults={"blockage_rate_hz": 2.0, "seed": 9}
        )
        assert isinstance(config.faults, FaultConfig)
        assert config.faults.blockage_rate_hz == 2.0
        assert config.faults.seed == 9

    def test_bad_mapping_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(**RES, faults={"blockage_depth_db": -2.0})


class TestParseOverrides:
    def test_dotted_fault_keys_typed(self):
        overrides = parse_config_overrides(
            {
                "faults.blockage_rate_hz": "2",
                "faults.seed": "5",
                "faults.blockage_duration_s": "0.3",
                "fps": "60",
            }
        )
        faults = overrides["faults"]
        assert isinstance(faults, FaultConfig)
        assert faults.blockage_rate_hz == 2.0
        assert faults.seed == 5
        assert faults.blockage_duration_s == 0.3
        assert overrides["fps"] == 60

    def test_unknown_fault_field_rejected(self):
        with pytest.raises(EmulationError, match="FaultConfig"):
            parse_config_overrides({"faults.nope": "1"})

    def test_bare_faults_key_rejected(self):
        with pytest.raises(EmulationError, match="individually"):
            parse_config_overrides({"faults": "1"})

    def test_no_fault_keys_no_faults_entry(self):
        assert "faults" not in parse_config_overrides({"fps": "60"})


class TestFaultGrid:
    def test_one_variant_per_value(self):
        variants = fault_grid("erasure_rate_hz", [0.0, 1.5])
        assert [v.name for v in variants] == [
            "erasure_rate_hz=0.0", "erasure_rate_hz=1.5",
        ]
        assert variants[1].config_overrides["faults"].erasure_rate_hz == 1.5

    def test_base_overrides_shared(self):
        variants = fault_grid(
            "blockage_rate_hz", [2.0], base={"faults.seed": "7", "fps": "60"}
        )
        overrides = variants[0].config_overrides
        assert overrides["faults"].seed == 7
        assert overrides["faults"].blockage_rate_hz == 2.0
        assert overrides["fps"] == 60

    def test_empty_grid_rejected(self):
        with pytest.raises(EmulationError):
            fault_grid("erasure_rate_hz", [])

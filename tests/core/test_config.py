"""Tests for SystemConfig."""

import pytest

from repro.core import SystemConfig
from repro.errors import ConfigurationError


class TestSystemConfig:
    def test_defaults_are_paper_values(self):
        config = SystemConfig()
        assert config.fps == 30
        assert config.beacon_interval_s == pytest.approx(0.1)
        assert config.frame_budget_s == pytest.approx(1 / 30)
        assert config.frames_per_beacon == 3

    def test_rate_scale_matches_pixel_ratio(self):
        config = SystemConfig(height=288, width=512)
        assert config.rate_scale == pytest.approx((3840 * 2160) / (288 * 512))

    def test_rate_scale_unity_at_4k(self):
        config = SystemConfig(height=2160, width=3840)
        assert config.rate_scale == pytest.approx(1.0)

    def test_plan_budget_leaves_reserve(self):
        config = SystemConfig(retransmit_reserve=0.2)
        assert config.plan_budget_s == pytest.approx(0.8 / 30)

    def test_bad_resolution_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(height=100, width=512)

    def test_bad_fps_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(fps=0)

    def test_bad_reserve_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(retransmit_reserve=1.0)

    def test_bad_beacon_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(beacon_interval_s=0.0)

"""Tests for beam-pattern analysis."""

import numpy as np
import pytest

from repro.beamforming.multicast import max_min_multicast_beam
from repro.beamforming.patterns import (
    analyze_pattern,
    ascii_pattern,
    pattern_cut,
)
from repro.errors import BeamformingError
from repro.phy.antenna import PhasedArray


@pytest.fixture(scope="module")
def array():
    return PhasedArray(32, 2)


class TestPatternCut:
    def test_matched_beam_peaks_at_target(self, array):
        target = 0.3
        beam = array.conjugate_beam(array.steering_vector(target))
        azimuths, gains = pattern_cut(array, beam, num_points=721)
        peak_azimuth = azimuths[np.argmax(gains)]
        assert peak_azimuth == pytest.approx(target, abs=0.03)

    def test_peak_gain_near_element_count(self, array):
        beam = array.conjugate_beam(array.steering_vector(0.0))
        _, gains = pattern_cut(array, beam)
        # 2-bit quantisation costs a little; still within 3 dB of N.
        assert gains.max() > array.num_elements / 2

    def test_wrong_beam_shape_rejected(self, array):
        with pytest.raises(BeamformingError):
            pattern_cut(array, np.ones(7, dtype=complex))


class TestAnalyzePattern:
    def test_pencil_beam_stats(self, array):
        beam = array.conjugate_beam(array.steering_vector(0.0))
        stats = analyze_pattern(array, beam)
        assert stats.peak_azimuth_rad == pytest.approx(0.0, abs=0.02)
        # 32-element ULA: ~0.055 rad (3.2 deg) half-power width.
        assert 0.02 < stats.beamwidth_rad < 0.15
        assert stats.sidelobe_level_db < -5

    def test_multicast_beam_has_multiple_lobes(self, array):
        """The multicast beam for two well-separated users must light up
        both directions (Sec 4.2.1: multi-lobe pattern)."""
        channels = [
            1e-4 * array.steering_vector(-0.45),
            1e-4 * array.steering_vector(0.45),
        ]
        beam = max_min_multicast_beam(array, channels)
        stats = analyze_pattern(array, beam)
        assert stats.num_lobes >= 2

    def test_unicast_beam_single_strong_lobe(self, array):
        beam = array.conjugate_beam(array.steering_vector(0.2))
        stats = analyze_pattern(array, beam)
        assert stats.num_lobes <= 3  # main lobe + quantisation artefacts


class TestAsciiPattern:
    def test_renders_two_rows(self, array):
        beam = array.conjugate_beam(array.steering_vector(0.0))
        rows = ascii_pattern(array, beam, width=40)
        assert len(rows) == 2
        assert len(rows[0]) == 40
        assert "@" in rows[0]  # the peak renders at full intensity

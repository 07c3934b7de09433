"""Tests for the predefined sector codebook."""

import numpy as np
import pytest

from repro.beamforming.codebook import SectorCodebook
from repro.errors import BeamformingError
from repro.phy.antenna import PhasedArray


@pytest.fixture(scope="module")
def codebook():
    return SectorCodebook(PhasedArray(32, 2), num_beams=16, num_wide_beams=4)


class TestConstruction:
    def test_total_beam_count(self, codebook):
        # 16 narrow + 4 wide + max(2, 2) wider + 1 near-omni.
        assert len(codebook) == 16 + 4 + 2 + 1

    def test_beams_unit_norm(self, codebook):
        norms = np.linalg.norm(codebook.beams, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_hardware_limit_enforced(self):
        with pytest.raises(BeamformingError):
            SectorCodebook(PhasedArray(32, 2), num_beams=128, num_wide_beams=8)

    def test_no_wide_beams_option(self):
        codebook = SectorCodebook(PhasedArray(16, 2), num_beams=8, num_wide_beams=0)
        assert len(codebook) == 8


class TestGains:
    def test_narrow_beam_peaks_at_its_angle(self, codebook):
        array = codebook.array
        for index in (0, 5, 10):
            angle = float(codebook.angles_rad[index])
            channel = array.steering_vector(angle) * 1e-4
            gains = codebook.gains(channel)
            # The designated beam should be within a hair of the best.
            assert gains[index] >= 0.8 * gains.max()

    def test_wide_beams_have_lower_peak_but_wider_coverage(self, codebook):
        array = codebook.array
        narrow = codebook.beam(8)  # mid narrow sector
        wide = codebook.beam(16 + 2)  # a wide sector
        angles = np.linspace(-0.4, 0.4, 41)
        narrow_gains = [
            array.beam_gain(narrow, array.steering_vector(a)) for a in angles
        ]
        wide_gains = [
            array.beam_gain(wide, array.steering_vector(a)) for a in angles
        ]
        assert max(narrow_gains) > max(wide_gains)
        # Coverage: angles where gain is within 6 dB of that beam's peak.
        narrow_cov = np.mean(np.asarray(narrow_gains) > max(narrow_gains) / 4)
        wide_cov = np.mean(np.asarray(wide_gains) > max(wide_gains) / 4)
        assert wide_cov > narrow_cov

    def test_gains_multi_shape(self, codebook, rng):
        channels = [
            (rng.normal(size=32) + 1j * rng.normal(size=32)) for _ in range(3)
        ]
        gains = codebook.gains_multi(channels)
        assert gains.shape == (len(codebook), 3)

    def test_wrong_channel_shape_rejected(self, codebook):
        with pytest.raises(BeamformingError):
            codebook.gains(np.ones(31, dtype=complex))

    def test_bad_beam_index_rejected(self, codebook):
        with pytest.raises(BeamformingError):
            codebook.beam(len(codebook))

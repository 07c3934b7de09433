"""Beam-pattern analysis: gain cuts, beamwidth, sidelobes, coverage.

Analysis utilities for inspecting what the beamforming stack actually
radiates — the multi-lobe patterns of optimized multicast beams (Sec 4.2.1:
"(i) generates multi-lobe beam pattern that covers multiple users at the
same time") versus single-lobe sectors.  Used by tests, the ablation
benchmarks, and the beam-pattern example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import BeamformingError
from ..phy.antenna import PhasedArray


def pattern_cut(
    array: PhasedArray,
    beam: np.ndarray,
    azimuths_rad: Sequence[float] = None,
    num_points: int = 361,
) -> Tuple[np.ndarray, np.ndarray]:
    """Azimuth gain cut ``|F^H e(az)|^2`` of a beam.

    Returns:
        ``(azimuths_rad, gains_linear)`` where gains are relative to an
        isotropic unit-amplitude plane wave (max ~ num_elements for a
        matched full-array beam).
    """
    beam = np.asarray(beam, dtype=complex)
    if beam.shape != (array.num_elements,):
        raise BeamformingError(
            f"beam must have shape ({array.num_elements},), got {beam.shape}"
        )
    if azimuths_rad is None:
        azimuths_rad = np.linspace(-np.pi / 2, np.pi / 2, num_points)
    azimuths = np.asarray(azimuths_rad, dtype=float)
    gains = np.array(
        [
            float(np.abs(np.vdot(beam, array.steering_vector(az))) ** 2)
            for az in azimuths
        ]
    )
    return azimuths, gains


@dataclass(frozen=True)
class PatternStats:
    """Summary of one beam pattern.

    Attributes:
        peak_gain_db: Peak gain over the cut, in dB.
        peak_azimuth_rad: Azimuth of the peak.
        beamwidth_rad: -3 dB width of the main lobe.
        sidelobe_level_db: Highest lobe outside the main lobe, relative to
            the peak (negative; closer to 0 = worse).
        num_lobes: Local maxima within 10 dB of the peak — multicast beams
            to spread users show several.
    """

    peak_gain_db: float
    peak_azimuth_rad: float
    beamwidth_rad: float
    sidelobe_level_db: float
    num_lobes: int


def analyze_pattern(
    array: PhasedArray, beam: np.ndarray, num_points: int = 721
) -> PatternStats:
    """Compute :class:`PatternStats` for one beam."""
    azimuths, gains = pattern_cut(array, beam, num_points=num_points)
    peak_idx = int(np.argmax(gains))
    peak = float(gains[peak_idx])
    if peak <= 0:
        raise BeamformingError("beam has no gain anywhere")

    half_power = peak / 2.0
    left = peak_idx
    while left > 0 and gains[left] >= half_power:
        left -= 1
    right = peak_idx
    while right < len(gains) - 1 and gains[right] >= half_power:
        right += 1
    beamwidth = float(azimuths[right] - azimuths[left])

    # Local maxima (lobes).
    interior = np.arange(1, len(gains) - 1)
    is_peak = (gains[interior] >= gains[interior - 1]) & (
        gains[interior] >= gains[interior + 1]
    )
    lobe_indices = interior[is_peak]
    strong_lobes = lobe_indices[gains[lobe_indices] >= peak / 10.0]

    sidelobes = [
        float(gains[i]) for i in lobe_indices
        if not (left <= i <= right) and gains[i] > 0
    ]
    sidelobe_db = (
        10 * np.log10(max(sidelobes) / peak) if sidelobes else -np.inf
    )
    return PatternStats(
        peak_gain_db=float(10 * np.log10(peak)),
        peak_azimuth_rad=float(azimuths[peak_idx]),
        beamwidth_rad=beamwidth,
        sidelobe_level_db=float(sidelobe_db),
        num_lobes=int(len(strong_lobes)),
    )


def ascii_pattern(
    array: PhasedArray,
    beam: np.ndarray,
    width: int = 72,
    floor_db: float = -25.0,
) -> List[str]:
    """Render a beam pattern as ASCII art rows (for CLI/examples)."""
    azimuths, gains = pattern_cut(array, beam, num_points=width)
    peak = gains.max()
    blocks = " .:-=+*#%@"
    row = []
    for gain in gains:
        level_db = 10 * np.log10(max(gain, 1e-12) / peak)
        scaled = (level_db - floor_db) / (0.0 - floor_db)
        index = int(np.clip(scaled, 0, 1) * (len(blocks) - 1))
        row.append(blocks[index])
    degrees_left = np.rad2deg(azimuths[0])
    degrees_right = np.rad2deg(azimuths[-1])
    return [
        "".join(row),
        f"{degrees_left:+.0f}°" + " " * (width - 10) + f"{degrees_right:+.0f}°",
    ]

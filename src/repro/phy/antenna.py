"""Phased-array model: steering vectors and M-bit phase-shifter quantisation.

Models the AP's uniform linear array (ULA) with half-wavelength spacing and
discrete phase shifters, the hardware constraint that makes exhaustive
precoder search infeasible in the paper (search space ``M^Nt``, Sec 2.5).
Receivers are modelled as single quasi-omnidirectional antennas, matching the
paper's SLS description.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BeamformingError


@dataclass(frozen=True)
class PhasedArray:
    """A half-wavelength-spaced ULA with discrete phase shifters.

    Attributes:
        num_elements: Number of antenna elements (paper-scale WiGig arrays
            have 32-64 elements).
        phase_bits: Phase-shifter resolution in bits (802.11ad hardware is
            typically 2-bit).
    """

    num_elements: int = 32
    phase_bits: int = 2

    def __post_init__(self) -> None:
        if self.num_elements < 1:
            raise BeamformingError(f"num_elements must be >= 1, got {self.num_elements}")
        if self.phase_bits < 1:
            raise BeamformingError(f"phase_bits must be >= 1, got {self.phase_bits}")

    def steering_vector(self, azimuth_rad) -> np.ndarray:
        """Array response for a plane wave departing at ``azimuth_rad``.

        Zero azimuth is array broadside.  The vector has unit-modulus entries
        and norm ``sqrt(num_elements)``.  An array of azimuths ``(...)``
        gives one vector per azimuth, ``(..., num_elements)``, each equal
        bit for bit to the vector of that azimuth alone.
        """
        n = np.arange(self.num_elements)
        phase = 1j * np.pi * n * np.sin(np.asarray(azimuth_rad, dtype=float))[..., None]
        return np.exp(phase, out=phase)

    def quantise_weights(self, weights: np.ndarray) -> np.ndarray:
        """Project arbitrary complex weights onto realizable hardware weights.

        Phased arrays impose constant modulus per element plus ``phase_bits``
        phase resolution; the result is normalised to unit total power
        (``||F|| = 1``), the convention used throughout the link budget.
        ``weights`` is one vector or a stack ``(..., num_elements)``; each
        vector is projected on its own, bit for bit as if alone.
        """
        weights = np.asarray(weights, dtype=complex)
        if weights.shape[-1:] != (self.num_elements,):
            raise BeamformingError(
                f"weights must have shape (..., {self.num_elements}), got {weights.shape}"
            )
        levels = 2**self.phase_bits
        step = 2.0 * np.pi / levels
        phases = np.round(np.angle(weights) / step) * step
        quantised = np.exp(1j * phases)
        # ||F|| summed as np.linalg.norm sums one complex vector: the dot of
        # the real parts plus the dot of the imaginary parts.  A stacked
        # (1, N) @ (N, 1) product is that same dot, row by row; an axis
        # reduction would add in another order.
        re = quantised.real[..., None, :]
        im = quantised.imag[..., None, :]
        squared = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
        return quantised / np.sqrt(squared[..., 0])

    def conjugate_beam(self, channel: np.ndarray) -> np.ndarray:
        """Quantised matched-filter beam ``h* / |h|`` for one receiver.

        This is the paper's optimized *unicast* codebook (Sec 2.5).
        """
        channel = np.asarray(channel, dtype=complex)
        if channel.shape != (self.num_elements,):
            raise BeamformingError(
                f"channel must have shape ({self.num_elements},), got {channel.shape}"
            )
        if not np.any(np.abs(channel) > 0):
            raise BeamformingError("cannot beamform on an all-zero channel")
        # Under the F^H h convention used throughout (gain = |vdot(F, h)|^2),
        # the matched filter is F = h / ||h||: vdot(h, h) = ||h||^2.
        return self.quantise_weights(channel)

    def beam_gain(self, beam: np.ndarray, channel: np.ndarray) -> float:
        """Beamforming power gain ``|F^H h|^2`` (linear)."""
        return float(np.abs(np.vdot(beam, channel)) ** 2)

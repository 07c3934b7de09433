"""Predefined sector codebooks (802.11ad SLS beams, Sec 2.5).

Commodity WiGig radios ship a fixed codebook of at most K = 128 beams whose
radiation patterns jointly cover the azimuth plane; beam training picks one
by sweeping.  We build the standard quantised-steering-vector codebook: beam
``k`` points at a fixed azimuth, with the array's M-bit phase shifters
applied — so, exactly like the hardware, the best codebook beam for a user is
generally *not* the optimal beam.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..errors import BeamformingError
from ..phy.antenna import PhasedArray


@dataclass
class SectorCodebook:
    """A fixed set of quantised steering beams covering the azimuth plane.

    Real 802.11ad codebooks mix narrow sectors (full array, high gain) with a
    few wide sectors (a subset of elements active, broader pattern, lower
    gain) used for discovery; the wide ones are what lets a *pre-defined*
    multicast beam cover several spread users at all.

    Attributes:
        array: The phased array the beams are realised on.
        num_beams: Number of narrow sectors (total size incl. wide beams is
            capped at the 128-beam hardware limit).
        coverage_rad: Half-angle of azimuth coverage; beams are placed
            uniformly in ``[-coverage, +coverage]``.
        num_wide_beams: Wide sectors built on the central quarter of the
            array (0 disables them).
    """

    array: PhasedArray
    num_beams: int = 32
    coverage_rad: float = float(np.deg2rad(75.0))
    num_wide_beams: int = 8
    _beams: np.ndarray = field(init=False, repr=False)
    _angles: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_beams < 1 or self.num_wide_beams < 0:
            raise BeamformingError(
                f"bad codebook sizes: {self.num_beams} narrow, "
                f"{self.num_wide_beams} wide"
            )
        if self.num_beams + self.num_wide_beams > 128:
            raise BeamformingError(
                f"codebook exceeds the 128-beam hardware limit: "
                f"{self.num_beams} + {self.num_wide_beams}"
            )
        narrow_angles = np.linspace(
            -self.coverage_rad, self.coverage_rad, self.num_beams
        )
        beams = []
        for angle in narrow_angles:
            steering = self.array.steering_vector(float(angle))
            # The hardware beam points where the steering phases cancel:
            # F = steering / sqrt(N) makes vdot(F, steering) = sqrt(N)*N.
            beams.append(self.array.quantise_weights(steering))
        # Wide sectors come in tiers: quarter-array beams, eighth-array
        # beams, and one near-omni sector — mirroring the multi-resolution
        # (discovery) sectors of real 802.11ad codebooks.
        wide_angle_list = []
        if self.num_wide_beams:
            tier1 = np.linspace(
                -self.coverage_rad, self.coverage_rad, self.num_wide_beams
            )
            for angle in tier1:
                beams.append(self._wide_beam(float(angle), self.array.num_elements // 4))
                wide_angle_list.append(float(angle))
            tier2 = np.linspace(
                -self.coverage_rad / 2, self.coverage_rad / 2,
                max(2, self.num_wide_beams // 2),
            )
            for angle in tier2:
                beams.append(self._wide_beam(float(angle), self.array.num_elements // 8))
                wide_angle_list.append(float(angle))
            beams.append(self._wide_beam(0.0, max(1, self.array.num_elements // 16)))
            wide_angle_list.append(0.0)
        self._angles = np.concatenate([narrow_angles, np.asarray(wide_angle_list)])
        self._beams = np.vstack(beams)
        self.num_beams = len(beams)

    def _wide_beam(self, angle: float, active: int) -> np.ndarray:
        """A broad sector realised on a centred subset of elements."""
        n = self.array.num_elements
        active = max(1, min(active, n))
        start = (n - active) // 2
        steering = self.array.steering_vector(angle)
        weights = np.zeros(n, dtype=complex)
        levels = 2**self.array.phase_bits
        step = 2.0 * np.pi / levels
        phases = np.round(np.angle(steering[start : start + active]) / step) * step
        weights[start : start + active] = np.exp(1j * phases)
        return weights / np.linalg.norm(weights)

    def __len__(self) -> int:
        return self.num_beams

    @property
    def beams(self) -> np.ndarray:
        """All beams as a ``(K, Nt)`` complex matrix (rows have unit norm)."""
        return self._beams

    def beam(self, index: int) -> np.ndarray:
        """Beam ``index`` as a length-``Nt`` vector."""
        if not 0 <= index < self.num_beams:
            raise BeamformingError(f"beam index {index} out of range [0, {self.num_beams})")
        return self._beams[index]

    @property
    def angles_rad(self) -> np.ndarray:
        """Pointing azimuth of every beam, as a ``(K,)`` array."""
        return self._angles

    def gains(self, channel: np.ndarray) -> np.ndarray:
        """``|F_k^H h|^2`` for every beam k against one channel vector."""
        channel = np.asarray(channel, dtype=complex)
        if channel.shape != (self.array.num_elements,):
            raise BeamformingError(
                f"channel must have shape ({self.array.num_elements},), "
                f"got {channel.shape}"
            )
        return np.abs(self._beams.conj() @ channel) ** 2

    def gains_multi(self, channels: List[np.ndarray]) -> np.ndarray:
        """Per-beam, per-user gains as a ``(K, n_users)`` matrix."""
        stacked = np.vstack([np.asarray(h, dtype=complex) for h in channels])
        return np.abs(self._beams.conj() @ stacked.T) ** 2

    def gains_stacked(self, channels: np.ndarray) -> np.ndarray:
        """:meth:`gains_multi` of many equal-size groups at once.

        ``channels`` is ``(groups, n, Nt)`` and the result ``(groups, K,
        n)``.  Each group keeps its own ``(K x Nt) @ (Nt x n)`` product,
        stacked along the leading axis, so every slice equals
        ``gains_multi`` of that group bit for bit (and, with ``n = 1``,
        :meth:`gains` of that channel).  One product for all users at
        once would not: BLAS would sum it in another order.
        """
        channels = np.asarray(channels, dtype=complex)
        if channels.ndim != 3 or channels.shape[2] != self.array.num_elements:
            raise BeamformingError(
                f"channels must have shape (groups, n, {self.array.num_elements}), "
                f"got {channels.shape}"
            )
        return np.abs(self._beams.conj() @ channels.transpose(0, 2, 1)) ** 2

    def best_min_gain_beams(self, channels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per group, the beam maximising its weakest member's gain.

        ``channels`` is ``(groups, n, Nt)``.  Returns the beam indices
        ``(groups,)``, each ``argmax(gains_multi(group).min(axis=1))``
        bit for bit, and every member's gain under its group's beam
        ``(groups, n)``, read from the same :meth:`gains_stacked` product.
        """
        gains = self.gains_stacked(channels)
        # Member by member: the same minimum as ``min(axis=2)``, without a
        # reduction over a short innermost axis, which costs ~60x more.
        weakest = gains[:, :, 0]
        for member in range(1, gains.shape[2]):
            weakest = np.minimum(weakest, gains[:, :, member])
        best = weakest.argmax(axis=1)
        return best, gains[np.arange(len(best)), best]

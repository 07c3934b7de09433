"""60 GHz propagation primitives: path loss, reflection and blockage losses."""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import ChannelError

#: Carrier frequency of 802.11ad channel 2 (Hz).
CARRIER_HZ = 60.48e9

#: Speed of light (m/s).
SPEED_OF_LIGHT = 299_792_458.0

#: Carrier wavelength (m), roughly 5 mm.
WAVELENGTH_M = SPEED_OF_LIGHT / CARRIER_HZ

#: Loss added per specular wall reflection at 60 GHz (dB).  Measured values
#: for indoor drywall/concrete at V-band are ~8-15 dB per bounce.
REFLECTION_LOSS_DB = 10.0

#: Attenuation of a human body crossing the beam path at 60 GHz (dB).
#: Literature reports 20-30 dB; we use a mid value.
HUMAN_BLOCKAGE_DB = 22.0

#: Oxygen absorption at 60 GHz, dB per metre (~15 dB/km).
OXYGEN_ABSORPTION_DB_PER_M = 0.015


def free_space_path_loss_db(distance_m, frequency_hz: float = CARRIER_HZ):
    """Friis free-space path loss in dB, plus oxygen absorption.

    ``distance_m`` is one distance (a float comes back) or an array of
    them.  Distances below 1 cm are rejected (inside the antenna near
    field, where the model is meaningless).
    """
    distance = np.asarray(distance_m, dtype=float)
    if np.any(distance < 0.01):
        raise ChannelError(f"distance {distance_m} m too small for far-field model")
    fspl = 20.0 * np.log10(4.0 * np.pi * distance * frequency_hz / SPEED_OF_LIGHT)
    return _like(distance, fspl + OXYGEN_ABSORPTION_DB_PER_M * distance)


def path_amplitude(total_loss_db):
    """Linear field amplitude for a total power loss in dB (or an array).

    Every element is Python's scalar ``pow``: numpy's array ``power``
    rounds about one input in twenty differently, and recorded traces are
    pinned bit for bit.
    """
    exponent = -np.asarray(total_loss_db, dtype=float) / 20.0
    amplitude = np.fromiter(
        map(pow, itertools.repeat(10.0), exponent.ravel().tolist()),
        dtype=float,
        count=exponent.size,
    )
    return _like(exponent, amplitude.reshape(exponent.shape))


def path_phase_rad(distance_m):
    """Carrier phase accumulated over ``distance_m`` (mod 2 pi; or an array).

    At 5 mm wavelength, millimetre-scale motion rotates this phase
    substantially — the source of the small-scale fading that makes mmWave
    throughput "fluctuate widely" (Sec 1).
    """
    distance = np.asarray(distance_m, dtype=float)
    return _like(distance, (-2.0 * np.pi * distance / WAVELENGTH_M) % (2.0 * np.pi))


def _like(argument: np.ndarray, result):
    """``result`` as a float where ``argument`` was one value."""
    return float(result) if argument.ndim == 0 else result


def segment_point_distance(
    seg_a: np.ndarray, seg_b: np.ndarray, point: np.ndarray
) -> float:
    """Shortest distance from ``point`` to the segment ``seg_a -> seg_b``.

    Used by the moving-environment model to decide whether a human blocker
    intersects a propagation path.
    """
    seg_a = np.asarray(seg_a, dtype=float)
    seg_b = np.asarray(seg_b, dtype=float)
    point = np.asarray(point, dtype=float)
    direction = seg_b - seg_a
    length2 = float(direction @ direction)
    if length2 <= 1e-12:
        return float(np.linalg.norm(point - seg_a))
    t = float(np.clip((point - seg_a) @ direction / length2, 0.0, 1.0))
    projection = seg_a + t * direction
    return float(np.linalg.norm(point - projection))

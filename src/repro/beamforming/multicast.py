"""CSI-based multicast beamforming (Sec 2.5, Eq. 3).

The exact problem — maximise the minimum RSS over a group of receivers — is
NP-hard.  The paper solves the max-*sum* relaxation with an SVD (the beam is
the leading right singular vector of the stacked channel matrix) as a
heuristic.  We implement that heuristic (:func:`svd_multicast_beam`) and use
it to seed a short smoothed max-min refinement
(:func:`max_min_multicast_beams`): projected gradient ascent on a soft-min of
the per-user gains over *power-normalised* channels.  The refinement is
needed in practice because plain max-sum degenerates onto the strongest
user whenever user channels are near-orthogonal (widely spaced users), which
the 2-bit phase quantisation then amplifies; with it, the optimized multicast
beam consistently dominates the predefined-codebook beam, matching the
paper's measurements (Fig 5-7, 11-13).

The ascent runs for every candidate group of a channel snapshot at once:
on 32-element beams a step costs its dozen numpy calls, not its arithmetic,
so stepping all groups together costs about as much as stepping one.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import BeamformingError
from ..phy.antenna import PhasedArray

#: Most padded member rows stepped together: keeps each step's temporaries
#: (``rows x 2 x 2 x elements`` doubles) a few MB however many groups a
#: snapshot has.  A cut never changes a beam, so this is not a setting.
_MAX_BATCH_ROWS = 2048


def _normalised(stacks: np.ndarray, num_elements: int) -> np.ndarray:
    """``(groups, size, Nt)`` channel stacks, each row power-normalised."""
    if stacks.ndim != 3 or not stacks.shape[1]:
        raise BeamformingError("need at least one channel vector")
    if stacks.shape[2] != num_elements:
        raise BeamformingError(
            f"channels must have {num_elements} elements, got {stacks.shape[2]}"
        )
    norms = np.linalg.norm(stacks, axis=2, keepdims=True)
    if np.any(norms <= 0):
        raise BeamformingError("cannot beamform on an all-zero channel")
    return stacks / norms


def _weighted_max_sum_beam(stacked: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Beam maximising ``sum_i w_i |h_i^H F|^2`` (unquantised, unit norm).

    With ``A = diag(sqrt(w)) conj(H)`` (rows ``h_i^H``), the objective is
    ``||A F||^2``; its maximiser over unit-norm F is the leading right
    singular vector of A, i.e. ``vh[0].conj()`` in numpy's SVD convention.
    """
    weighted = np.sqrt(weights)[:, None] * np.conj(stacked)
    _, _, vh = np.linalg.svd(weighted, full_matrices=False)
    return vh[0].conj()


def svd_multicast_beam(
    array: PhasedArray, channels: Sequence[np.ndarray]
) -> np.ndarray:
    """The paper's plain SVD max-sum heuristic, quantised for the hardware."""
    normalised = _normalised(
        np.asarray(channels, dtype=complex)[None], array.num_elements
    )[0]
    beam = _weighted_max_sum_beam(normalised, np.ones(normalised.shape[0]))
    return array.quantise_weights(beam)


def max_min_multicast_beam(
    array: PhasedArray,
    channels: Sequence[np.ndarray],
    steps: int = 150,
    temperature: float = 8.0,
    step_size: float = 0.5,
) -> np.ndarray:
    """Optimized multicast beam for one group: a batch of one through
    :func:`max_min_multicast_beams`, where the arguments are described."""
    return max_min_multicast_beams(
        array, [channels], steps, temperature, step_size
    )[0]


def max_min_multicast_beams(
    array: PhasedArray,
    channel_groups: Sequence[Sequence[np.ndarray]],
    steps: int = 150,
    temperature: float = 8.0,
    step_size: float = 0.5,
) -> List[np.ndarray]:
    """Optimized multicast beams: SVD seed + smoothed max-min ascent.

    For every group, maximises ``softmin_i |h_i^H F|^2`` over unit-norm F on
    power-normalised channels (normalisation makes near/far users count
    equally, which is what max-min wants), then projects onto the array's
    constant-modulus M-bit weights.  A single-member group gets its
    quantised matched filter.

    All multi-member groups share the ascent's iterations (see
    :func:`_ascend`).  A group's beam does not depend on which other groups
    are planned with it, on their order, or on where the batches are cut:
    every operation is element-wise or a sum along one fixed axis.

    The ascent does not reach a fixed point in ``steps`` iterations, so its
    result is sensitive to rounding; what holds for every returned beam is
    that it is the best of the quantised ascent result, the quantised SVD
    heuristic and each member's quantised matched filter by the true
    (unnormalised) minimum gain.

    Args:
        array: AP phased array.
        channel_groups: Each entry is one group's channels (one vector per
            member) or a ``(groups, size, Nt)`` stack of equal-size groups,
            as a planner holds them; stacks are normalised and checked
            whole.
        steps: Gradient-ascent iterations.
        temperature: Soft-min sharpness (higher = closer to true min).
        step_size: Normalised ascent step.

    Returns:
        Quantised unit-norm beam weights, one per group, in input order.
    """
    stacks: List[Tuple[np.ndarray, np.ndarray]] = []
    for entry in channel_groups:
        raw = np.asarray(entry, dtype=complex)
        if raw.ndim == 2:
            raw = raw[None]
        stacks.extend(zip(raw, _normalised(raw, array.num_elements)))
    beams = {
        index: array.conjugate_beam(stacked[0])
        for index, (stacked, _) in enumerate(stacks)
        if len(stacked) == 1
    }
    for batch in _batches([len(stacked) for stacked, _ in stacks]):
        refined = _ascend(
            array, [stacks[index] for index in batch], steps, temperature, step_size
        )
        beams.update(zip(batch, refined))
    return [beams[index] for index in range(len(stacks))]


def _batches(sizes: Sequence[int]) -> Iterator[List[int]]:
    """Indices of the multi-member groups, cut into blocks for :func:`_ascend`.

    Smallest groups first, and a batch spans sizes s..2s, so padding at most
    doubles its rows: a snapshot with one 100-member group does not pad
    every pair to 100 rows.  A batch also stops at ``_MAX_BATCH_ROWS`` padded
    rows (a larger group goes alone).
    """
    batch: List[int] = []
    multi = [index for index, size in enumerate(sizes) if size > 1]
    for index in sorted(multi, key=lambda index: sizes[index]):
        if batch and (
            sizes[index] > 2 * sizes[batch[0]]
            or (len(batch) + 1) * sizes[index] > _MAX_BATCH_ROWS
        ):
            yield batch
            batch = []
        batch.append(index)
    if batch:
        yield batch


def _real_rows(padded: np.ndarray) -> np.ndarray:
    """``(2, M, G, 2N)`` real rows of ``(M, G, N)`` complex channels.

    With a beam as the real vector ``[Re F, Im F]``, ``h^H F`` is the pair
    of real dot products with ``[Re h, Im h]`` and ``[-Im h, Re h]``.  Real
    products and sums round the same way on every code path numpy may take;
    complex products do not (fused or not, by layout).
    """
    re, im = padded.real, padded.imag
    return np.stack(
        [np.concatenate([re, im], axis=-1), np.concatenate([-im, re], axis=-1)]
    )


def _min_gains(rows: np.ndarray, member: np.ndarray, beams: np.ndarray) -> np.ndarray:
    """``min_i |h_i^H F|^2`` per group for ``(G, 2N)`` real beams."""
    projection = (rows * beams).sum(axis=-1)
    gains = projection[0] * projection[0] + projection[1] * projection[1]
    return np.where(member, gains, np.inf).min(axis=0)


def _as_real(beams: np.ndarray) -> np.ndarray:
    return np.concatenate([beams.real, beams.imag], axis=-1)


def _best_by_min_gain(
    rows: np.ndarray, member: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Per group, the first of its ``(K, G, N)`` candidates with the largest
    minimum gain, as ``(G, N)``."""
    gains = np.stack([_min_gains(rows, member, _as_real(c)) for c in candidates])
    return candidates[np.argmax(gains, axis=0), np.arange(candidates.shape[1])]


def _ascend(
    array: PhasedArray,
    stacks: List[Tuple[np.ndarray, np.ndarray]],
    steps: int,
    temperature: float,
    step_size: float,
) -> List[np.ndarray]:
    """The ascent for a batch of multi-member groups, padded to one block.

    Members sit on the leading axis of ``(M, G, N)`` blocks, zero rows
    padding the smaller groups (``member`` marks the real ones).  Sums over
    elements run along the last, contiguous axis, whose length is fixed;
    sums over members run down the leading axis, one addition per row in
    member order.  Each is therefore the same sequence of additions whatever
    M and G are, and a zero row adds nothing — which is what makes a beam
    independent of its batch.  (A 2-D sum over axis 0 degenerates to a
    pairwise 1-D sum when G is 1, hence the running sum for ``scale``.)
    """
    sizes = np.array([len(stacked) for stacked, _ in stacks])
    num_groups, most = len(stacks), int(sizes.max())
    elements = array.num_elements
    member = np.arange(most)[:, None] < sizes
    raw = np.zeros((most, num_groups, elements), dtype=complex)
    unit = np.zeros_like(raw)
    # Candidate 0 is the SVD heuristic, candidate 1 + i member i's matched
    # filter; the zero candidates of smaller groups never win a tie with it.
    candidates = np.zeros((most + 1, num_groups, elements), dtype=complex)
    for g, (stacked, normalised) in enumerate(stacks):
        raw[: sizes[g], g] = stacked
        unit[: sizes[g], g] = normalised
        candidates[0, g] = _weighted_max_sum_beam(normalised, np.ones(sizes[g]))
        candidates[1 : 1 + sizes[g], g] = normalised
    rows = _real_rows(unit)
    beams = _as_real(_best_by_min_gain(rows, member, candidates))

    for _ in range(max(0, int(steps))):
        projection = (rows * beams).sum(axis=-1)  # (2, M, G): Re, Im of h^H F
        gains = projection[0] * projection[0] + projection[1] * projection[1]
        scale = np.add.accumulate(gains, axis=0)[-1] / sizes + 1e-18
        # Padded members get weight 1 on a zero row.  The weights are not
        # normalised to sum to 1: the step is, so their scale cancels.
        weights = np.exp(gains * (-temperature / scale))
        # d(sum_i w_i |h_i^H F|^2)/dF* = sum_i w_i h_i (h_i^H F)
        terms = rows * (projection * weights)[..., None]
        gradient = terms.reshape(2 * most, num_groups, -1).sum(axis=0)
        norm = np.sqrt((gradient * gradient).sum(axis=-1))
        if norm.min() <= 1e-18:
            # A stalled group stays where it is while the others move on.
            norm = np.where(norm > 1e-18, norm, np.inf)
        beams = beams + gradient * (step_size / norm)[:, None]
        beams = beams / np.sqrt((beams * beams).sum(axis=-1))[:, None]

    # The 2-bit constant-modulus projection can reorder candidates, so pick
    # the best *post-quantisation* beam by the true (unnormalised) max-min
    # objective — this also guarantees the refined result never falls below
    # the plain SVD heuristic.
    refined = beams[:, :elements] + 1j * beams[:, elements:]
    quantised = np.zeros((most + 2, num_groups, elements), dtype=complex)
    for g in range(num_groups):
        quantised[0, g] = array.quantise_weights(refined[g])
        for k in range(1 + sizes[g]):
            quantised[1 + k, g] = array.quantise_weights(candidates[k, g])
    return list(_best_by_min_gain(_real_rows(raw), member, quantised))


def max_min_gain(beam: np.ndarray, channels: Sequence[np.ndarray]) -> float:
    """Minimum beamformed gain ``min_i |F^H h_i|^2`` across the group."""
    return float(np.min(per_user_gains(beam, channels)))


def per_user_gains(beam: np.ndarray, channels: Sequence[np.ndarray]) -> np.ndarray:
    """Beamformed gain ``|F^H h_i|^2`` for every group member."""
    beam = np.asarray(beam, dtype=complex)
    return np.array(
        [float(np.abs(np.vdot(beam, np.asarray(h, dtype=complex))) ** 2) for h in channels]
    )

"""Receiver-side bandwidth estimation (Sec 2.7).

Each receiver measures the link bandwidth from the arrival spacing of 100
back-to-back data packets and feeds it back; the sender uses the estimate
reported during the previous frame to set the leaky-bucket rate for the next
one.  The paper samples the probe packets from the highest layer so probe
losses (probes bypass rate control and are congestion-prone) never cost base
layer content; in the emulator the probes are the last 100 packets of the
frame, which the layer-ordered scheduler naturally fills with top-layer
symbols.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import TransportError

#: Number of packets in one measurement window (the paper's choice).
MEASUREMENT_WINDOW_PACKETS = 100


class CohortBandwidthEstimator:
    """Whole-cohort bandwidth estimation as parallel arrays.

    One float64 estimate row per receiver plus a has-measurement mask,
    addressed through a user-index map.  Each step is an arrival-spacing
    measurement with multiplicative noise folded into an exponentially
    smoothed estimate, applied elementwise.  The batched observe draws its
    measurement noise through a single ``rng.normal(..., size=n)`` — which
    numpy fills in the same stream order as ``n`` sequential scalar draws,
    so one batched update equals ``n`` one-row updates at equal seeds.

    Per-user access (joins/resets, outage decay, strategies poking a single
    estimate) goes through :meth:`view`, a scalar adapter writing through
    to the arrays.

    Args:
        users: Receiver ids; fixes the array row order.
        smoothing: EWMA factor applied across frames (1.0 = use only the
            newest measurement).
        noise_std_fraction: Relative measurement noise; real arrival
            timestamps jitter with interrupt coalescing etc.
    """

    def __init__(
        self,
        users: Sequence[int],
        smoothing: float = 0.6,
        noise_std_fraction: float = 0.05,
    ) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise TransportError(f"smoothing must be in (0, 1], got {smoothing}")
        self.smoothing = float(smoothing)
        self.noise_std_fraction = float(noise_std_fraction)
        self.users: List[int] = list(users)
        self._index: Dict[int, int] = {u: i for i, u in enumerate(self.users)}
        n = len(self.users)
        self._est = np.zeros(n, dtype=np.float64)
        self._has = np.zeros(n, dtype=bool)

    def __len__(self) -> int:
        return len(self.users)

    def rows(self, users: Sequence[int]) -> np.ndarray:
        """Array rows for ``users`` (KeyError on an unknown receiver)."""
        return np.fromiter(
            (self._index[u] for u in users), dtype=np.intp, count=len(users)
        )

    def estimates(self) -> np.ndarray:
        """Current estimates (bytes/s), NaN where no measurement exists."""
        return np.where(self._has, self._est, np.nan)

    def has_estimate(self) -> np.ndarray:
        """Boolean per-row has-a-measurement mask (read-only view)."""
        return self._has

    def observe_fraction_rows(
        self,
        rows: np.ndarray,
        fractions: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Fold delivery-fraction measurements for ``rows`` in, batched.

        The emulated receiver reports the fraction of packets that arrived;
        the sender multiplies it by each group's nominal rate to get the
        sustainable goodput — equivalent to the paper's arrival-spacing
        estimate (losses stretch arrival gaps by exactly this factor) but
        independent of how much of the frame budget the group occupied.
        One noise draw per row, in row order.  Returns the updated
        estimates for ``rows``.
        """
        fractions = np.asarray(fractions, dtype=np.float64)
        if fractions.size and (
            float(fractions.min()) < 0.0 or float(fractions.max()) > 1.0
        ):
            raise TransportError("fractions must be in [0, 1]")
        # Arrival-spacing measurement over a 1 s window: floor at 0,
        # noise multiply, floor at 1e-9, EWMA.
        measured = np.maximum(0.0, fractions / 1.0)
        measured = measured * (
            1.0 + rng.normal(0.0, self.noise_std_fraction, size=rows.size)
        )
        measured = np.maximum(measured, 1e-9)
        seen = self._has[rows]
        updated = np.where(
            seen,
            self.smoothing * measured + (1.0 - self.smoothing) * self._est[rows],
            measured,
        )
        self._est[rows] = updated
        self._has[rows] = True
        return updated

    def reset_rows(self, rows: np.ndarray) -> None:
        """Forget all measurements for ``rows`` (re-association)."""
        self._has[rows] = False
        self._est[rows] = 0.0

    def view(self, user: int) -> "CohortBandwidthView":
        """The scalar adapter over ``user``'s row."""
        return CohortBandwidthView(self, self._index[user])


class CohortBandwidthView:
    """Scalar adapter over one :class:`CohortBandwidthEstimator` row.

    Reads the row's estimate and applies the per-receiver updates
    (outage decay, re-association reset) in place; measurements go
    through :meth:`CohortBandwidthEstimator.observe_fraction_rows`.
    """

    def __init__(self, parent: CohortBandwidthEstimator, row: int) -> None:
        self._parent = parent
        self._row = row

    @property
    def estimate_bytes_per_s(self) -> Optional[float]:
        """Current smoothed estimate, or None before the first measurement."""
        parent, row = self._parent, self._row
        if not parent._has[row]:
            return None
        return float(parent._est[row])

    def decay(self, factor: float) -> Optional[float]:
        """Exponentially shrink a stale estimate (graceful degradation).

        When a receiver's feedback report is lost, the sender keeps pacing
        at the last-known-good rate but trusts it a little less every
        frame: each call multiplies the estimate by ``factor``, so a long
        feedback outage converges toward a conservative floor instead of
        pinning a possibly-dead link at its last healthy rate.

        Returns:
            The decayed estimate, or ``None`` if no measurement exists yet
            (nothing to decay).
        """
        if not 0.0 < factor <= 1.0:
            raise TransportError(f"decay factor must be in (0, 1], got {factor}")
        parent, row = self._parent, self._row
        if not parent._has[row]:
            return None
        parent._est[row] = max(float(parent._est[row]) * factor, 1e-9)
        return float(parent._est[row])

    def reset(self) -> None:
        """Forget this receiver's measurements (e.g. after re-association)."""
        parent, row = self._parent, self._row
        parent._has[row] = False
        parent._est[row] = 0.0

"""Metric primitives: counters, gauges and numpy-backed histograms.

These are deliberately minimal — a counter is one float, a gauge is one
float, a histogram is a growing ``float64`` buffer — so incrementing them
inside the per-frame hot path costs nanoseconds and nothing allocates
unless a metric is actually touched.  Aggregation (quantiles, means) is
deferred to read time, where numpy does the work in one vectorised call.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..errors import ConfigurationError


class Counter:
    """A monotonically increasing scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount


class Gauge:
    """A scalar that can move both ways (queue depth, last value seen)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Append-only sample store with quantile queries.

    Samples land in a preallocated ``float64`` buffer that doubles when
    full (amortised O(1) per observation, no per-sample allocation).
    Quantiles, mean and max are computed lazily over the filled region.
    """

    __slots__ = ("name", "_buf", "_n")

    def __init__(self, name: str, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"histogram capacity must be positive, got {capacity}"
            )
        self.name = name
        self._buf = np.empty(capacity, dtype=np.float64)
        self._n = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        if self._n == self._buf.shape[0]:
            grown = np.empty(self._buf.shape[0] * 2, dtype=np.float64)
            grown[: self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = value
        self._n += 1

    def extend(self, values: np.ndarray) -> None:
        """Record many samples at once, in order."""
        values = np.asarray(values, dtype=np.float64)
        needed = self._n + values.shape[0]
        if needed > self._buf.shape[0]:
            grown = np.empty(max(needed, self._buf.shape[0] * 2), dtype=np.float64)
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        self._buf[self._n : needed] = values
        self._n = needed

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._n

    @property
    def samples(self) -> np.ndarray:
        """Read-only view of the observed samples."""
        view = self._buf[: self._n]
        view.flags.writeable = False
        return view

    @property
    def sum(self) -> float:
        return float(self._buf[: self._n].sum()) if self._n else 0.0

    @property
    def mean(self) -> float:
        return float(self._buf[: self._n].mean()) if self._n else float("nan")

    @property
    def max(self) -> float:
        return float(self._buf[: self._n].max()) if self._n else float("nan")

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) of the observed samples."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if not self._n:
            return float("nan")
        return float(np.quantile(self._buf[: self._n], q))

    def quantiles(self, qs: Sequence[float]) -> Dict[float, float]:
        """Several quantiles in one vectorised pass."""
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if not self._n:
            return {q: float("nan") for q in qs}
        values = np.quantile(self._buf[: self._n], list(qs))
        return {q: float(v) for q, v in zip(qs, values)}

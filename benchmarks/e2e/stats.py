"""Summary statistics the benchmark reports, and the rule that guards them.

A percentile is only reported when at least :data:`MIN_BEYOND` samples lie
beyond it; with fewer, the tail estimate is decided by a handful of frames
and two runs of the same commit disagree.  ``--smoke`` runs (a dozen
frames) switch the rule off and mark their output not comparable.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a percentile before it may be reported.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(count: int, q: float) -> float:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0


def highest_supported_percentile(count: int, min_beyond: int = MIN_BEYOND) -> float:
    """The highest whole percentile with ``min_beyond`` samples beyond it.

    Returns 0 when even the minimum cannot be supported.
    """
    if count <= 0 or min_beyond > count:
        return 0.0
    return float(math.floor(100.0 * (1.0 - min_beyond / count)))


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Linear-interpolated ``q``-th percentile, refused on thin samples."""
    if not values:
        raise TooFewSamples(f"p{q:g} of an empty sample")
    if q > 50.0 and samples_beyond(len(values), q) < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {len(values)} samples leaves "
            f"{samples_beyond(len(values), q):.1f} beyond it (need {min_beyond}); "
            f"the highest supported percentile is "
            f"p{highest_supported_percentile(len(values), min_beyond):g}"
        )
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for an empty sample (a layer that did no work)."""
    return sum(values) / len(values) if values else 0.0


def spread(values: Sequence[float], relative: bool = True) -> float:
    """Run-to-run spread: the distance between the first and third quartile
    (``statistics.quantiles(values, n=4)``, the driver's rule), as a share
    of the median when ``relative``.  With fewer than four runs, the full
    range; 0 for a single run.
    """
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        width = max(values) - min(values)
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    if not relative or width == 0:
        return width
    middle = abs(statistics.median(values))
    return width / middle if middle else math.inf

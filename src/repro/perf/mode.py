"""Global seed-path / optimized-path switch for performance comparisons.

The batched fountain codec, the incremental decoder and the transmitter's
cohort receiver state all produce *bit-identical* results to the original
(seed) implementations — only their cost differs.  This module
holds the single process-wide switch that routes the hot paths through one
implementation or the other, so the perf benchmark harness can time the
serial seed path against the optimized path inside one process and assert
that metrics match exactly.

The default is ``"optimized"``; nothing in production code ever selects the
seed path — it exists for benchmarking and equivalence tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..errors import ConfigurationError

SEED_MODE = "seed"
OPTIMIZED_MODE = "optimized"
_VALID_MODES = (SEED_MODE, OPTIMIZED_MODE)

_mode = OPTIMIZED_MODE


def get_perf_mode() -> str:
    """The active mode, ``"optimized"`` (default) or ``"seed"``."""
    return _mode


def set_perf_mode(mode: str) -> None:
    """Select the implementation family for the hot paths."""
    global _mode
    if mode not in _VALID_MODES:
        raise ConfigurationError(
            f"perf mode must be one of {_VALID_MODES}, got {mode!r}"
        )
    _mode = mode


def seed_path_active() -> bool:
    """True when the original per-symbol / re-solve implementations run."""
    return _mode == SEED_MODE


@contextmanager
def perf_mode(mode: str) -> Iterator[None]:
    """Temporarily switch the hot paths to ``mode``."""
    previous = get_perf_mode()
    set_perf_mode(mode)
    try:
        yield
    finally:
        set_perf_mode(previous)

"""Timing and reporting primitives for the standalone benchmarks.

Small, dependency-free helpers so the ``benchmarks/bench_*.py`` scripts
share one vocabulary: a timed call, throughput and speedup ratios, and a
stable JSON report writer.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Tuple, TypeVar

_R = TypeVar("_R")


def time_call(fn: Callable[[], _R]) -> Tuple[_R, float]:
    """Run ``fn`` once and return ``(result, wall_seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def throughput(units: float, seconds: float) -> float:
    """Units per second, guarding the zero-duration corner."""
    if seconds <= 0.0:
        return float("inf")
    return units / seconds


def speedup(baseline_s: float, optimized_s: float) -> float:
    """Wall-clock ratio ``baseline / optimized`` (>1 means faster)."""
    if optimized_s <= 0.0:
        return float("inf")
    return baseline_s / optimized_s


def write_bench_report(path: Path, payload: Dict[str, Any]) -> Path:
    """Write a benchmark report as stable, diff-friendly JSON."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path

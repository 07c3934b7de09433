"""Shared fixtures for the per-figure benchmarks.

Every benchmark regenerates one table or figure of the paper and prints the
same rows/series the paper reports, so the output can be compared side by
side with the publication (see EXPERIMENTS.md for the recorded comparison).

Scale knobs (defaults keep the whole suite tractable; the paper uses 10
testbed / 100 emulation runs):

* ``REPRO_BENCH_RUNS``   — random runs per configuration (default 3)
* ``REPRO_BENCH_FRAMES`` — frames streamed per run (default 9)
* ``REPRO_BENCH_MOBILE_S`` — mobile trace length in seconds (default 4)
"""

from __future__ import annotations

import os

import pytest

from repro.emulation import build_context

BENCH_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "3"))
BENCH_FRAMES = int(os.environ.get("REPRO_BENCH_FRAMES", "9"))
MOBILE_DURATION_S = float(os.environ.get("REPRO_BENCH_MOBILE_S", "4"))


@pytest.fixture(scope="session")
def ctx():
    """The shared experiment context (its DNN is the committed model)."""
    return build_context()


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

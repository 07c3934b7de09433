"""Tests for the perf package: job resolution, parallel_map, timing."""

import json
import os
import time

import pytest

from repro.errors import ConfigurationError, ParallelWorkerError
from repro.perf import (
    JOBS_ENV_VAR,
    effective_jobs,
    parallel_map,
    speedup,
    throughput,
    time_call,
    write_bench_report,
)

# parallel_map workers must be importable top-level functions.


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three")
    return x


_INIT_STATE = {"value": None}


def _set_state(value):
    _INIT_STATE["value"] = value


def _read_state(_):
    return _INIT_STATE["value"]


class TestEffectiveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert effective_jobs(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert effective_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert effective_jobs(2) == 2

    def test_nonpositive_means_all_cores(self):
        assert effective_jobs(0) == (os.cpu_count() or 1)
        assert effective_jobs(-1) == (os.cpu_count() or 1)

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ConfigurationError):
            effective_jobs(None)


class TestParallelMap:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_preserves_order(self, jobs):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=jobs) == [x * x for x in items]

    def test_serial_and_parallel_agree(self):
        items = list(range(12))
        assert parallel_map(_square, items, jobs=1) == parallel_map(
            _square, items, jobs=3
        )

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_serial_exceptions_propagate_unchanged(self):
        with pytest.raises(ValueError, match="three"):
            parallel_map(_fail_on_three, [1, 2, 3, 4], jobs=1)

    def test_worker_exception_surfaces_message_and_traceback(self):
        with pytest.raises(ParallelWorkerError) as excinfo:
            # break_even_s=0.0 forces the pool; trivial items would
            # otherwise fall back to the serial path and raise bare.
            parallel_map(_fail_on_three, [1, 2, 3, 4], jobs=2, break_even_s=0.0)
        message = str(excinfo.value)
        # The original exception type and message survive the pool boundary…
        assert "ValueError" in message
        assert "three" in message
        # …along with the worker-side traceback, pointing at the raise site.
        assert "worker traceback" in message
        assert "_fail_on_three" in message

    def test_serial_runs_initializer_in_process(self):
        _INIT_STATE["value"] = None
        result = parallel_map(
            _read_state, [0, 0], jobs=1, initializer=_set_state, initargs=(7,)
        )
        assert result == [7, 7]
        assert _INIT_STATE["value"] == 7

    def test_workers_see_initializer_state(self):
        _INIT_STATE["value"] = None
        result = parallel_map(
            _read_state, [0, 0, 0], jobs=2, initializer=_set_state, initargs=(9,)
        )
        assert result == [9, 9, 9]


class TestBreakEvenFallback:
    """Sub-break-even jobs never pay for a process pool (ROADMAP item 4)."""

    def test_trivial_items_skip_the_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool should not be created below break-even")

        monkeypatch.setattr(
            "repro.perf.parallel.ProcessPoolExecutor", no_pool
        )
        items = list(range(50))
        assert parallel_map(_square, items, jobs=4) == [x * x for x in items]

    def test_fallback_still_runs_initializer(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool should not be created below break-even")

        monkeypatch.setattr(
            "repro.perf.parallel.ProcessPoolExecutor", no_pool
        )
        _INIT_STATE["value"] = None
        result = parallel_map(
            _read_state, [0, 0, 0], jobs=2, initializer=_set_state, initargs=(4,)
        )
        assert result == [4, 4, 4]

    def test_probe_exception_propagates_unchanged(self):
        # The probed first item runs in-process, so its exception arrives
        # bare even at jobs > 1.
        with pytest.raises(ValueError, match="three"):
            parallel_map(_fail_on_three, [3, 1, 2], jobs=2)

    def test_zero_break_even_forces_pool(self):
        items = list(range(6))
        result = parallel_map(_square, items, jobs=2, break_even_s=0.0)
        assert result == [x * x for x in items]


_WARMED = {"done": False}


def _warmup_heavy(x):
    """First call simulates lazy-import/allocation warmup; rest are cheap."""
    if not _WARMED["done"]:
        _WARMED["done"] = True
        time.sleep(0.05)
    return x + 1


class _FakePool:
    """Stand-in ProcessPoolExecutor recording that a pool was requested."""

    created = 0

    def __init__(self, max_workers=None, mp_context=None, initializer=None,
                 initargs=()):
        type(self).created += 1
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestProbeWarmupDiscount:
    """The probe must not mistake first-call warmup for steady-state cost.

    Regression for the bug where ``item_s`` included lazy imports / numpy
    buffer allocation from the very first call, overestimating the serial
    cost of the remaining items and spinning up a pool for maps that
    finish faster serially.
    """

    def test_warmup_heavy_first_item_stays_serial(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("warmup-inflated probe spun up a pool")

        monkeypatch.setattr("repro.perf.parallel.ProcessPoolExecutor", no_pool)
        # 11 remaining items at ~50 ms raw probe ≈ 0.55 s extrapolated —
        # past break-even on the undiscounted estimate, below it once the
        # warmup discount halves the probe.
        _WARMED["done"] = False
        items = list(range(12))
        assert parallel_map(_warmup_heavy, items, jobs=4) == [
            x + 1 for x in items
        ]

    def test_factor_one_restores_raw_probe(self, monkeypatch):
        monkeypatch.setattr(
            "repro.perf.parallel.ProcessPoolExecutor", _FakePool
        )
        _FakePool.created = 0
        _WARMED["done"] = False
        items = list(range(12))
        result = parallel_map(
            _warmup_heavy, items, jobs=4, probe_warmup_factor=1.0
        )
        assert result == [x + 1 for x in items]
        assert _FakePool.created == 1

    def test_invalid_factor_rejected(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                parallel_map(
                    _square, [1, 2], jobs=2, probe_warmup_factor=bad
                )


class TestTiming:
    def test_time_call_returns_result(self):
        result, seconds = time_call(lambda: 5)
        assert result == 5
        assert seconds >= 0.0

    def test_throughput_and_speedup(self):
        assert throughput(10, 2.0) == pytest.approx(5.0)
        assert speedup(4.0, 2.0) == pytest.approx(2.0)

    def test_report_roundtrip(self, tmp_path):
        path = tmp_path / "bench.json"
        payload = {"stages": {"x": 1}, "nested": {"b": [1, 2]}}
        write_bench_report(path, payload)
        assert json.loads(path.read_text()) == payload

    def test_time_call_measures_the_call(self):
        _, seconds = time_call(lambda: time.sleep(0.02))
        assert seconds >= 0.02

    def test_zero_duration_reads_as_infinitely_fast(self):
        assert throughput(10, 0.0) == float("inf")
        assert speedup(4.0, 0.0) == float("inf")

    def test_report_is_stable_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert write_bench_report(str(a), {"z": 1, "a": {"y": 2, "b": 3}}) == a
        write_bench_report(b, {"a": {"b": 3, "y": 2}, "z": 1})
        text = a.read_text()
        assert text == b.read_text()
        assert text.endswith("}\n")
        assert text.index('"a"') < text.index('"z"')

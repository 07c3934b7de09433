"""Tests for the perf package's bench timing and report helpers."""

import json
import time

import pytest

from repro.perf import (
    speedup,
    throughput,
    time_call,
    write_bench_report,
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

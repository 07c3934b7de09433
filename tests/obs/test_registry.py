"""Tests for the global observability registry, modes and spans."""

import time

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    COUNTERS,
    OBS,
    OFF,
    TRACE,
    ObsRegistry,
    observed,
    parse_mode,
)
from repro.obs.registry import _NULL_SPAN


class TestParseMode:
    @pytest.mark.parametrize(
        "value,expected",
        [(None, OFF), ("", OFF), ("off", OFF), ("counters", COUNTERS),
         ("TRACE", TRACE), (0, OFF), (2, TRACE)],
    )
    def test_valid_spellings(self, value, expected):
        assert parse_mode(value) == expected

    @pytest.mark.parametrize("value", ["verbose", 7, "1.5"])
    def test_invalid_spellings_rejected(self, value):
        with pytest.raises(ConfigurationError):
            parse_mode(value)


class TestDisabledMode:
    def test_span_returns_shared_null_singleton(self):
        registry = ObsRegistry(mode=OFF)
        span_a = registry.span("encode.jigsaw", frame=1)
        span_b = registry.span("transport.transmit")
        assert span_a is span_b is _NULL_SPAN
        # The null span is a working, field-swallowing context manager.
        with span_a as entered:
            entered.set(bytes=123)

    def test_metric_entry_points_are_noops(self):
        registry = ObsRegistry(mode=OFF)
        registry.count("packets")
        registry.set_gauge("depth", 3)
        registry.observe("latency", 0.1)
        registry.record_span("stage", 0.0, 1.0)
        registry.event("stage", 0.0, 1.0)
        assert registry.counters() == {}
        assert registry.gauges() == {}
        assert registry.histograms() == {}
        assert len(registry.trace) == 0

    def test_disabled_overhead_is_near_noop(self):
        """Off-mode instrumentation must stay within noise of a bare loop.

        Compares a loop of disabled count()+span() calls against the same
        loop doing equivalent plain-python work.  The bound is deliberately
        loose (10x) — this is an architecture guard (single branch + shared
        singleton, no allocation), not a microbenchmark.
        """
        registry = ObsRegistry(mode=OFF)
        iterations = 20_000

        def observed_loop():
            total = 0
            for i in range(iterations):
                registry.count("x")
                with registry.span("stage"):
                    total += i
            return total

        def bare_loop():
            total = 0
            for i in range(iterations):
                total += i
            return total

        observed_loop(), bare_loop()  # warm up
        t0 = time.perf_counter()
        observed_loop()
        observed_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        bare_loop()
        bare_s = time.perf_counter() - t0
        assert observed_s < bare_s * 10 + 0.05


class TestEnabledModes:
    def test_counters_mode_accumulates_without_trace(self):
        registry = ObsRegistry(mode=COUNTERS)
        with registry.span("stage.x", frame=0, bytes=10):
            pass
        registry.count("packets", 3)
        assert registry.counters()["stage.x.calls"] == 1
        assert registry.counters()["packets"] == 3
        assert registry.histograms()["stage.x"].count == 1
        assert len(registry.trace) == 0

    def test_trace_mode_records_events_with_fields(self):
        registry = ObsRegistry(mode=TRACE)
        with registry.span("stage.x", frame=4, bytes=10) as span:
            span.set(packets=7)
        (event,) = registry.trace.events
        assert event["stage"] == "stage.x"
        assert event["frame"] == 4
        assert event["bytes"] == 10
        assert event["packets"] == 7
        assert event["dur_s"] >= 0.0

    def test_span_records_even_when_body_raises(self):
        registry = ObsRegistry(mode=COUNTERS)
        with pytest.raises(RuntimeError):
            with registry.span("stage.x"):
                raise RuntimeError("boom")
        assert registry.histograms()["stage.x"].count == 1

    def test_reset_clears_everything(self):
        registry = ObsRegistry(mode=TRACE)
        with registry.span("stage.x"):
            pass
        registry.reset()
        assert registry.counters() == {}
        assert registry.histograms() == {}
        assert len(registry.trace) == 0

    def test_snapshot_shape(self):
        registry = ObsRegistry(mode=COUNTERS)
        registry.observe("lat", 0.5)
        registry.set_gauge("depth", 2)
        snap = registry.snapshot()
        assert snap["mode"] == "counters"
        assert snap["gauges"]["depth"] == 2
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["trace_events"] == 0


class TestGlobalHelpers:
    def test_observed_restores_previous_state(self):
        previous_mode = OBS.mode
        previous_path = OBS.trace.path
        with observed(mode="counters") as registry:
            assert registry is OBS
            assert OBS.mode == COUNTERS
        assert OBS.mode == previous_mode
        assert OBS.trace.path == previous_path

    def test_observed_resets_metrics_on_entry(self):
        with observed(mode="counters"):
            OBS.count("stale")
        with observed(mode="counters"):
            assert "stale" not in OBS.counters()

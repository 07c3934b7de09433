"""Pipeline observability: counters, span timers, traces and reports.

``repro.obs`` is the runtime telemetry layer of the reproduction.  Every
pipeline stage — jigsaw encode, fountain encode/decode, time-allocation
scheduling, transport, and the emulation runners — reports into the
process-wide :data:`OBS` registry, which costs one branch per call while
disabled and produces per-stage latency histograms, counters and a JSONL
per-frame trace when enabled.

Control it with the ``REPRO_OBS`` environment variable (``off`` |
``counters`` | ``trace``; default off), or programmatically::

    from repro import obs

    with obs.observed("trace") as registry:
        streamer.stream_trace(trace, num_frames=30)
    report = obs.build_report(registry)
    registry.trace.write_jsonl("frames.jsonl")

See ``DESIGN.md`` ("Observability") for the trace schema and the CLI entry
point (``repro-wigig observe``).
"""

from .metrics import Counter, Gauge, Histogram
from .registry import (
    COUNTERS,
    DEFAULT_TRACE_PATH,
    OBS,
    OBS_ENV_VAR,
    OBS_TRACE_ENV_VAR,
    OFF,
    TRACE,
    ObsRegistry,
    ScopedObs,
    Span,
    configure,
    observed,
    parse_mode,
)
from .report import PIPELINE_STAGES, build_report, format_report, write_report
from .trace import (
    REQUIRED_EVENT_KEYS,
    TraceRecorder,
    read_jsonl,
    stages_covered,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "COUNTERS",
    "DEFAULT_TRACE_PATH",
    "OBS",
    "OBS_ENV_VAR",
    "OBS_TRACE_ENV_VAR",
    "OFF",
    "TRACE",
    "ObsRegistry",
    "ScopedObs",
    "Span",
    "configure",
    "observed",
    "parse_mode",
    "PIPELINE_STAGES",
    "build_report",
    "format_report",
    "write_report",
    "REQUIRED_EVENT_KEYS",
    "TraceRecorder",
    "read_jsonl",
    "stages_covered",
]

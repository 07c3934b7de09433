"""The global observability registry and its ``REPRO_OBS`` mode switch.

One process-wide :data:`OBS` registry routes every instrumentation call.
Its ``mode`` attribute is the only thing hot paths look at:

* ``off`` (0) — every entry point returns immediately after a single
  attribute check; spans hand back a shared no-op singleton.  This is the
  default and is what keeps instrumented code within noise of the
  uninstrumented pipeline.
* ``counters`` (1) — counters, gauges and span histograms accumulate, but
  no per-event records are kept.
* ``trace`` (2) — everything above plus a JSONL trace event per span /
  completion, buffered in :class:`repro.obs.trace.TraceRecorder`.

Select the mode with the ``REPRO_OBS`` environment variable (read once at
import) or :func:`configure` at runtime; ``REPRO_OBS_TRACE`` names the
JSONL destination (default ``repro_obs_trace.jsonl``), flushed at process
exit when trace mode was enabled from the environment.

The registry is per-process.  A served session's process reports into
the server's registry: it sends what it recorded with
:meth:`ObsRegistry.take_deltas` / :meth:`ObsRegistry.take_spans` and the
server folds it in with the matching ``merge_*`` call.  Emulation
campaigns on the persistent worker pool (``repro.perf.workers``) run
tasks in child processes whose telemetry is not merged back; run
observed scenarios with ``jobs=1`` (the default) to capture a complete
trace.
"""

from __future__ import annotations

import atexit
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from .metrics import Counter, Gauge, Histogram
from .trace import TraceRecorder

#: Mode constants (ordered: each level includes the previous one's work).
OFF = 0
COUNTERS = 1
TRACE = 2

MODE_NAMES = {OFF: "off", COUNTERS: "counters", TRACE: "trace"}
_MODE_VALUES = {name: value for value, name in MODE_NAMES.items()}

#: Environment variables controlling the default registry.
OBS_ENV_VAR = "REPRO_OBS"
OBS_TRACE_ENV_VAR = "REPRO_OBS_TRACE"

#: Default JSONL destination when trace mode is enabled without a path.
DEFAULT_TRACE_PATH = "repro_obs_trace.jsonl"


def parse_mode(value: Union[str, int, None]) -> int:
    """Normalise a mode spelling (``"trace"``, ``2``, ``None``...)."""
    if value is None or value == "":
        return OFF
    if isinstance(value, int):
        if value in MODE_NAMES:
            return value
        raise ConfigurationError(f"invalid obs mode {value!r}")
    name = str(value).strip().lower()
    if name in _MODE_VALUES:
        return _MODE_VALUES[name]
    raise ConfigurationError(
        f"{OBS_ENV_VAR} must be one of {sorted(_MODE_VALUES)}, got {value!r}"
    )


class _NullSpan:
    """Shared do-nothing span handed out while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **fields: Any) -> None:
        """Accept (and drop) late-bound fields."""


_NULL_SPAN = _NullSpan()


class Span:
    """A timed section; records a histogram sample and (in trace mode) an
    event when the ``with`` block exits.

    Extra fields can be attached after entry via :meth:`set` — useful when
    the interesting numbers (packets sent, bytes delivered) only exist at
    the end of the section.
    """

    __slots__ = ("_registry", "stage", "frame", "fields", "_t0")

    def __init__(
        self,
        registry: "ObsRegistry",
        stage: str,
        frame: Optional[int],
        fields: Dict[str, Any],
    ) -> None:
        self._registry = registry
        self.stage = stage
        self.frame = frame
        self.fields = fields
        self._t0 = 0.0

    def set(self, **fields: Any) -> None:
        """Attach late-bound fields to the eventual trace event."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._registry.record_span(
            self.stage, self._t0, perf_counter(), self.frame, self.fields
        )
        return False


class ObsRegistry:
    """Holds every counter, gauge, histogram and the trace recorder.

    All lookup methods create metrics lazily, so the set of metrics that
    exists is exactly the set the instrumented run touched.
    """

    def __init__(
        self,
        mode: Union[str, int, None] = OFF,
        trace_path: Optional[str] = None,
    ) -> None:
        self.mode = parse_mode(mode)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.trace = TraceRecorder(trace_path)

    # --------------------------------------------------------------- config

    @property
    def mode_name(self) -> str:
        return MODE_NAMES[self.mode]

    def configure(
        self,
        mode: Union[str, int, None] = None,
        trace_path: Optional[str] = None,
    ) -> "ObsRegistry":
        """Mutate the registry in place (references stay valid)."""
        if mode is not None:
            self.mode = parse_mode(mode)
        if trace_path is not None:
            self.trace.path = None if trace_path == "" else Path(trace_path)
        return self

    def reset(self) -> None:
        """Drop all metrics and buffered trace events."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.trace.clear()

    # -------------------------------------------------------------- metrics

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter (no-op when off)."""
        if not self.mode:
            return
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge (no-op when off)."""
        if not self.mode:
            return
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Add a histogram sample (no-op when off)."""
        if not self.mode:
            return
        self.histogram(name).observe(value)

    # ---------------------------------------------------------------- spans

    def span(
        self, stage: str, frame: Optional[int] = None, **fields: Any
    ) -> Union[Span, _NullSpan]:
        """A context manager timing one pipeline section.

        Returns the shared no-op span when observability is off, so the
        per-call cost of disabled instrumentation is one branch.
        """
        if not self.mode:
            return _NULL_SPAN
        return Span(self, stage, frame, fields)

    def record_span(
        self,
        stage: str,
        t_start: float,
        t_end: float,
        frame: Optional[int] = None,
        fields: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Fold a finished timed section into histograms (and the trace)."""
        if not self.mode:
            return
        self.histogram(stage).observe(t_end - t_start)
        self.counter(f"{stage}.calls").inc()
        if self.mode >= TRACE:
            self.trace.record(stage, t_start, t_end, frame, **(fields or {}))

    def event(
        self,
        stage: str,
        t_start: float,
        t_end: float,
        frame: Optional[int] = None,
        **fields: Any,
    ) -> None:
        """Emit a bare trace event (no histogram) in trace mode only."""
        if self.mode >= TRACE:
            self.trace.record(stage, t_start, t_end, frame, **fields)

    # ------------------------------------------------------- across processes

    def take_deltas(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Counters and gauges recorded since the last call, then forgotten.

        A forked process calls this to report into its parent's registry
        (see :meth:`merge_deltas`): each counter value is an increment,
        each gauge the last value set.
        """
        counters = {n: c.value for n, c in self._counters.items()}
        gauges = {n: g.value for n, g in self._gauges.items()}
        self._counters.clear()
        self._gauges.clear()
        return counters, gauges

    def take_spans(self) -> Tuple[Dict[str, np.ndarray], List[Dict[str, Any]]]:
        """Histogram samples and trace events since the last call, then
        forgotten; the trace epoch is kept, so a forked process's events
        stay on its parent's time base."""
        histograms = {n: h.samples.copy() for n, h in self._histograms.items()}
        events = list(self.trace.events)
        self._histograms.clear()
        self.trace.events.clear()
        return histograms, events

    def merge_deltas(
        self, counters: Mapping[str, float], gauges: Mapping[str, float]
    ) -> None:
        """Fold another process's :meth:`take_deltas` into this registry."""
        for name, value in counters.items():
            self.counter(name).inc(value)
        for name, value in gauges.items():
            self.gauge(name).set(value)

    def merge_spans(
        self, histograms: Mapping[str, np.ndarray], events: List[Dict[str, Any]]
    ) -> None:
        """Fold another process's :meth:`take_spans` into this registry."""
        for name, samples in histograms.items():
            self.histogram(name).extend(samples)
        self.trace.events.extend(events)

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict view of every metric (input to the report builder)."""
        return {
            "mode": self.mode_name,
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "count": h.count,
                    "sum": h.sum,
                    "mean": h.mean,
                    "max": h.max,
                    "p50": h.quantile(0.50),
                    "p95": h.quantile(0.95),
                    "p99": h.quantile(0.99),
                }
                for n, h in sorted(self._histograms.items())
            },
            "trace_events": len(self.trace),
        }

    def scoped(self, prefix: str) -> "ScopedObs":
        """A view of this registry that prefixes every metric name.

        The service layer gives each served session a scope
        (``service.session.<id>``) so many concurrent sessions can share
        the process-wide registry without colliding; ``/metrics`` then
        groups per-session counters by their prefix.
        """
        return ScopedObs(self, prefix)

    def histograms(self) -> Dict[str, Histogram]:
        """Name -> histogram mapping (live objects)."""
        return dict(self._histograms)

    def counters(self) -> Dict[str, float]:
        """Name -> counter value mapping."""
        return {n: c.value for n, c in self._counters.items()}

    def gauges(self) -> Dict[str, float]:
        """Name -> gauge value mapping."""
        return {n: g.value for n, g in self._gauges.items()}


class ScopedObs:
    """A name-prefixing facade over an :class:`ObsRegistry`.

    Every call forwards to the parent registry with ``<prefix>.`` prepended
    to the metric name, so instrumented code can be written against one
    interface whether it reports globally or into a namespace.  Scopes
    nest: ``registry.scoped("a").scoped("b")`` prefixes ``a.b.``.
    """

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: ObsRegistry, prefix: str) -> None:
        if not prefix or prefix.endswith("."):
            raise ConfigurationError(
                f"scope prefix must be a non-empty dotted name, got {prefix!r}"
            )
        self._registry = registry
        self.prefix = prefix

    @property
    def mode(self) -> int:
        return self._registry.mode

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def count(self, name: str, amount: float = 1.0) -> None:
        self._registry.count(self._name(name), amount)

    def set_gauge(self, name: str, value: float) -> None:
        self._registry.set_gauge(self._name(name), value)

    def observe(self, name: str, value: float) -> None:
        self._registry.observe(self._name(name), value)

    def span(
        self, stage: str, frame: Optional[int] = None, **fields: Any
    ) -> Union[Span, _NullSpan]:
        return self._registry.span(self._name(stage), frame=frame, **fields)

    def event(
        self,
        stage: str,
        t_start: float,
        t_end: float,
        frame: Optional[int] = None,
        **fields: Any,
    ) -> None:
        self._registry.event(
            self._name(stage), t_start, t_end, frame, **fields
        )

    def scoped(self, prefix: str) -> "ScopedObs":
        return ScopedObs(self._registry, self._name(prefix))

    def counters(self) -> Dict[str, float]:
        """This scope's counters, names relative to the prefix."""
        dotted = f"{self.prefix}."
        return {
            name[len(dotted):]: value
            for name, value in self._registry.counters().items()
            if name.startswith(dotted)
        }


def _registry_from_env() -> ObsRegistry:
    mode = parse_mode(os.environ.get(OBS_ENV_VAR))
    trace_path = os.environ.get(OBS_TRACE_ENV_VAR) or DEFAULT_TRACE_PATH
    registry = ObsRegistry(mode=mode, trace_path=trace_path)
    if mode >= TRACE:
        # Trace mode requested via the environment: make sure the JSONL
        # reaches disk even when the entry point never flushes explicitly.
        atexit.register(registry.trace.flush)
    return registry


#: The process-wide registry every instrumented module imports.
OBS = _registry_from_env()


def configure(
    mode: Union[str, int, None] = None,
    trace_path: Optional[str] = None,
) -> ObsRegistry:
    """Reconfigure the global registry (in place) and return it."""
    return OBS.configure(mode=mode, trace_path=trace_path)


@contextmanager
def observed(
    mode: Union[str, int] = "trace",
    trace_path: Optional[str] = None,
    reset: bool = True,
) -> Iterator[ObsRegistry]:
    """Temporarily switch the global registry to ``mode``.

    With ``reset=True`` (default) metrics and events are cleared on entry,
    so the block observes exactly the work it wraps.  The previous mode is
    restored on exit; buffered events survive for inspection.
    """
    previous_mode = OBS.mode
    previous_path = OBS.trace.path
    if reset:
        OBS.reset()
    OBS.configure(mode=mode, trace_path=trace_path)
    try:
        yield OBS
    finally:
        OBS.mode = previous_mode
        OBS.trace.path = previous_path

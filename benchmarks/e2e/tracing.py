"""Spans recorded from outside the program, around its public calls.

The traced run builds a session exactly as the untraced run does, then
swaps the pipeline's components for :class:`TimedProxy` stand-ins.  A proxy
forwards every attribute to the real object and records one span per call
of the methods it was told to time, so the program under test carries no
instrumentation of its own.  Spans stay in memory as
``[name, start, end, parent, frame, attrs]`` and are written out once, when
the benchmark ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional

NAME, START, END, PARENT, FRAME, ATTRS = range(6)

#: ``describe(result, args)`` -> counts to attach to the finished span.
Describe = Callable[[Any, tuple], Optional[Dict[str, Any]]]


class Tracer:
    """An in-memory span list with a stack that supplies each span's parent."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.spans: List[list] = []
        self.frame: Optional[int] = None
        self._clock = clock
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self._clock(), None, parent, self.frame, None])
        self._stack.append(index)
        return index

    def end(self, index: int, attrs: Optional[Dict[str, Any]] = None) -> None:
        span = self.spans[index]
        span[END] = self._clock()
        span[ATTRS] = attrs
        popped = self._stack.pop()
        assert popped == index, "spans must close in the order they nest"

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index,
                    "name": span[NAME],
                    "start_s": span[START],
                    "end_s": span[END],
                    "parent": span[PARENT],
                    "frame": span[FRAME],
                    "attrs": span[ATTRS] or {},
                }) + "\n")


def durations(spans: List[list]) -> List[float]:
    """Each span's wall time in seconds."""
    return [span[END] - span[START] for span in spans]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    own = durations(spans)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


class TimedProxy:
    """Pass-through stand-in that times the named methods of ``target``.

    Everything not timed — attributes, other methods, attribute writes —
    goes straight to the real object, and a timed method is the real bound
    method, so ``self`` inside it is still the real object.
    """

    def __init__(
        self,
        target: Any,
        tracer: Tracer,
        timed: Mapping[str, str],
        describe: Optional[Describe] = None,
    ) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_timed", {
            method: _timed_call(getattr(target, method), tracer, span, describe)
            for method, span in timed.items()
        })

    def __getattr__(self, name: str) -> Any:
        # Only reached for names the proxy itself lacks, i.e. all but
        # ``_target`` and ``_timed``.
        if name in self._timed:
            return self._timed[name]
        return getattr(self._target, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)


def _timed_call(
    method: Callable, tracer: Tracer, span_name: str, describe: Optional[Describe]
) -> Callable:
    def call(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin(span_name)
        attrs = None
        try:
            result = method(*args, **kwargs)
            if describe is not None:
                attrs = describe(result, args)
            return result
        finally:
            tracer.end(index, attrs)

    return call

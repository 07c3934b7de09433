"""Performance layer: the campaign worker pool and bench timing.

``repro.perf`` holds what runs campaigns and benchmarks, not the
per-frame hot paths (those live with their own layer):

* :mod:`repro.perf.workers` — the ``REPRO_JOBS`` worker count, the one
  way into a worker process (``start_worker``: a fork and one duplex
  pipe) and the persistent worker pool every emulation campaign runs on
  (workers forked once per campaign inherit the heavyweight state
  instead of receiving it, and take tasks and return results over their
  one pipe; deterministic at any job count).
* :mod:`repro.perf.timing` — timing/throughput helpers plus the JSON
  report writer the standalone benchmarks share.
"""

from .workers import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_TASK_TIMEOUT_S,
    JOBS_ENV_VAR,
    PersistentPool,
    effective_jobs,
)
from .timing import (
    speedup,
    throughput,
    time_call,
    write_bench_report,
)

__all__ = [
    "JOBS_ENV_VAR",
    "effective_jobs",
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_TASK_TIMEOUT_S",
    "PersistentPool",
    "speedup",
    "throughput",
    "time_call",
    "write_bench_report",
]

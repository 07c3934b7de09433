"""Performance layer: the campaign worker pool and bench timing.

``repro.perf`` holds what runs campaigns and benchmarks, not the
per-frame hot paths (those live with their own layer):

* :mod:`repro.perf.workers` — the ``REPRO_JOBS`` worker count and the
  persistent worker pool + shared-memory payload shipping that every
  emulation campaign runs on (workers started once per campaign,
  heavyweight state shipped via ``multiprocessing.shared_memory`` instead
  of per-task pickling; deterministic at any job count).
* :mod:`repro.perf.timing` — timing/throughput helpers plus the JSON
  report writer the standalone benchmarks share.
"""

from .workers import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_TASK_TIMEOUT_S,
    JOBS_ENV_VAR,
    PersistentPool,
    SharedPayload,
    SharedPayloadHandle,
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
    "SharedPayload",
    "SharedPayloadHandle",
    "speedup",
    "throughput",
    "time_call",
    "write_bench_report",
]

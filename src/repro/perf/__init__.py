"""Performance layer: parallel execution and bench timing.

``repro.perf`` concentrates everything that makes the reproduction fast
without changing results:

* :mod:`repro.perf.parallel` — the ``REPRO_JOBS`` process-pool engine the
  emulation runners fan out on (deterministic at any job count).
* :mod:`repro.perf.timing` — timing/throughput helpers plus the JSON
  report writer the standalone benchmarks share.
* :mod:`repro.perf.workers` — the persistent worker pool + shared-memory
  payload shipping that sharded sweep campaigns run on (workers started
  once per campaign, heavyweight state shipped via
  ``multiprocessing.shared_memory`` instead of per-task pickling).
"""

from .parallel import (
    JOBS_ENV_VAR,
    POOL_BREAK_EVEN_S,
    PROBE_WARMUP_FACTOR,
    effective_jobs,
    parallel_map,
)
from .workers import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_TASK_TIMEOUT_S,
    PersistentPool,
    SharedPayload,
    SharedPayloadHandle,
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
    "POOL_BREAK_EVEN_S",
    "PROBE_WARMUP_FACTOR",
    "parallel_map",
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

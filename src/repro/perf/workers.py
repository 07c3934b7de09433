"""Persistent worker pool: workers forked once, fed through their pipes.

Every emulation campaign fans its independent, individually-seeded runs
across this one pool.  The campaign submits its work against the same
heavyweight shared state (trained DNN weights, encoded probe frames), so
the pool hands that state over once and keeps its workers hot:

* :func:`effective_jobs` resolves the worker count from the explicit
  ``jobs`` argument, else the ``REPRO_JOBS`` environment variable, else 1
  (serial).  ``jobs <= 0`` means "all cores".
* :func:`start_worker` is the one way into a child process, for pool
  workers and served sessions alike: a fork, so the child inherits the
  parent's heap (the experiment context among it) instead of receiving a
  copy, and one duplex pipe, the one channel between the two.
* :class:`PersistentPool` starts workers once and keeps them hot for the
  whole campaign.  The worker function is bound to the shared state
  (``functools.partial``) and inherited with the fork; nothing is
  re-shipped per task.  The parent sends one task to one worker at a time
  over that worker's pipe, and the worker answers on the same pipe, so
  accounting is exact: a worker that dies (``Process.is_alive()`` checked
  every heartbeat interval, or its pipe breaking) or exceeds the per-task
  deadline is killed, its task requeued to a fresh worker, and the
  campaign continues.  Tasks are numbered across the pool's lifetime and
  results keyed by submission index within their batch, so retries,
  out-of-order completion and a late answer from an earlier batch that
  raised cannot change the output.  Each
  pipe is written synchronously: a worker that dies mid-message breaks
  only its own pipe, never a lock the other workers would wait on.

A task exception is re-raised in the parent as
:class:`repro.errors.ParallelWorkerError` carrying the worker-side
traceback; a task that keeps failing (crash or timeout) after
``max_task_retries`` requeues raises instead of looping forever.
"""

from __future__ import annotations

import gc
import os
import traceback
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import wait
from time import monotonic
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ParallelWorkerError
from ..obs import OBS

__all__ = [
    "JOBS_ENV_VAR",
    "effective_jobs",
    "fork_context",
    "start_worker",
    "PersistentPool",
    "DEFAULT_TASK_TIMEOUT_S",
    "DEFAULT_HEARTBEAT_S",
]

#: Environment variable overriding the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Per-task wall-clock deadline before a worker is presumed hung.  Sweeps
#: run shards of a few seconds each; ten minutes means only a genuinely
#: wedged worker (deadlock, runaway loop) trips it.
DEFAULT_TASK_TIMEOUT_S = 600.0

#: How often the parent checks worker liveness while waiting for results.
DEFAULT_HEARTBEAT_S = 0.5

#: Give-up threshold: a task requeued this many times (worker death or
#: timeout each time) raises instead of being retried again.
DEFAULT_MAX_TASK_RETRIES = 2

#: How long an idle worker waits for a task before checking that the
#: process that started it is still its parent.
ORPHAN_CHECK_S = 1.0


def effective_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count from the argument or ``REPRO_JOBS``.

    ``None`` defers to the environment (default 1 — serial); values <= 0
    mean "use every core".
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
            ) from exc
    if jobs <= 0:
        return os.cpu_count() or 1
    return int(jobs)


# ------------------------------------------------------- starting a worker


def fork_context():
    """The multiprocessing context workers start from: fork where it exists.

    A forked worker inherits the parent's heap (context, DNN, probes) for
    free; platforms without fork fall back to their default start method.
    """
    return get_context("fork" if "fork" in get_all_start_methods() else None)


def start_worker(target: Callable[..., None], args: Sequence) -> Tuple[Any, Any]:
    """Fork ``target(*args, conn)`` into a child with a pipe of its own.

    Returns ``(process, conn)``: the parent's end of a duplex pipe, the one
    channel between parent and child.  Under fork ``args`` are inherited,
    never pickled (a platform without fork pickles them once, at start).
    The parent closes the child's end at once, so the child's exit reads
    as EOF on ``conn`` and nothing ever waits on a dead worker.  The
    reverse does not hold: children forked later inherit copies of this
    ``conn``, so closing it is no EOF for the child; tell a child to stop
    with a message.

    The collector is frozen across the fork (the ``gc.freeze`` recipe for
    fork without exec): everything the child inherits sits in the
    permanent generation, so the child's collections never walk the
    inherited heap or dirty its pages.  The parent unfreezes right after,
    so its own garbage stays collectable.
    """
    mp_ctx = fork_context()
    conn, child_end = mp_ctx.Pipe()
    process = mp_ctx.Process(target=target, args=(*args, child_end), daemon=True)
    gc.freeze()
    try:
        process.start()
    finally:
        gc.unfreeze()
    child_end.close()
    return process, conn


# --------------------------------------------------------------- the pool


def _worker_main(worker_fn: Callable[[Any], Any], parent_pid: int, conn) -> None:
    """Worker loop: report ready, then serve tasks until the stop message.

    A worker whose parent died without sending the stop message (SIGKILL)
    notices within :data:`ORPHAN_CHECK_S` of going idle — it has been
    re-parented — and exits instead of waiting on its pipe forever (its
    siblings hold copies of the parent's end, so no EOF would come).
    """
    conn.send(("ready",))
    while True:
        if not conn.poll(ORPHAN_CHECK_S):
            if os.getppid() != parent_pid:
                return
            continue
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        task_id, payload = task
        try:
            result = worker_fn(payload)
        except BaseException:
            conn.send(("error", task_id, traceback.format_exc()))
            continue
        conn.send(("done", task_id, result))


@dataclass
class _Worker:
    """Parent-side record of one worker process."""

    process: Any
    conn: Any                            # parent's end of the worker's pipe
    task_id: Optional[int] = None       # currently assigned task
    started_at: float = 0.0
    ready: bool = False                  # reported ready


class PersistentPool:
    """A pool of long-lived workers with liveness and deadline supervision.

    Args:
        worker_fn: Function of one payload argument.  Bind shared state
            into it (``functools.partial(task, ctx)``): every worker
            inherits it with the fork.  On a platform without fork it
            must pickle, and is pickled once per worker start.
        jobs: Worker count (must be >= 1).
        task_timeout_s: Per-task wall-clock deadline; exceeding it kills
            the worker and requeues the task.  ``None`` disables deadlines.
        heartbeat_s: Liveness poll interval.
        max_task_retries: Requeues tolerated per task before giving up.

    Use as a context manager; :meth:`run_tasks` may be called repeatedly —
    workers stay hot between calls.
    """

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        jobs: int,
        task_timeout_s: Optional[float] = DEFAULT_TASK_TIMEOUT_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        max_task_retries: int = DEFAULT_MAX_TASK_RETRIES,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"PersistentPool needs jobs >= 1, got {jobs}")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ConfigurationError(
                f"task_timeout_s must be positive or None, got {task_timeout_s}"
            )
        self._worker_fn = worker_fn
        self._jobs = int(jobs)
        self._task_timeout_s = task_timeout_s
        self._heartbeat_s = float(heartbeat_s)
        self._max_task_retries = int(max_task_retries)
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._next_task_id = 0
        self._closed = False
        for _ in range(self._jobs):
            self._spawn_worker()

    # ------------------------------------------------------------ lifecycle

    def _spawn_worker(self) -> None:
        process, conn = start_worker(
            _worker_main, (self._worker_fn, os.getpid())
        )
        self._workers[self._next_worker_id] = _Worker(process=process, conn=conn)
        self._next_worker_id += 1

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in self._workers.values():
            _stop(worker, grace_s=2.0)
        self._workers.clear()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    @property
    def worker_respawns(self) -> int:
        """How many workers were started beyond the initial pool."""
        return self._next_worker_id - self._jobs

    # ----------------------------------------------------------- scheduling

    def _replace_worker(self, worker_id: int) -> Optional[int]:
        """Kill + respawn one worker; return its orphaned task id."""
        worker = self._workers.pop(worker_id)
        _stop(worker, grace_s=0.0)
        OBS.count("sweep.pool.worker_respawned")
        self._spawn_worker()
        return worker.task_id

    def run_tasks(
        self,
        payloads: Sequence[Any],
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Run every payload through the pool; results in submission order.

        Dead/hung workers are detected while waiting and their task is
        requeued onto a fresh worker; a task that raises in the worker (or
        exhausts its retries) raises :class:`ParallelWorkerError` here.

        ``on_result(task_id, result)`` fires in the parent as each task
        completes (completion order, not submission order) — the hook the
        sweep scheduler checkpoints from, so an interrupt between calls
        loses at most the in-flight tasks.
        """
        if self._closed:
            raise ConfigurationError("PersistentPool is closed")
        payloads = list(payloads)
        if not payloads:
            return []
        # Task ids run on across batches; a message about an id outside
        # this batch answers a task of a batch that raised, and is dropped.
        first = self._next_task_id
        self._next_task_id += len(payloads)
        pending: List[int] = list(range(first, first + len(payloads)))
        results: Dict[int, Any] = {}
        retries: Dict[int, int] = {}

        def requeue(task_id: Optional[int], why: str) -> None:
            if task_id is None or not first <= task_id < self._next_task_id:
                return
            retries[task_id] = retries.get(task_id, 0) + 1
            OBS.count("sweep.pool.task_requeued")
            if retries[task_id] > self._max_task_retries:
                raise ParallelWorkerError(
                    f"task {task_id - first} abandoned after "
                    f"{self._max_task_retries} retries (last failure: {why})"
                )
            pending.insert(0, task_id)

        def feed_idle() -> None:
            for worker_id, worker in list(self._workers.items()):
                if not pending:
                    return
                if worker.ready and worker.task_id is None:
                    task_id = pending.pop(0)
                    worker.task_id = task_id
                    worker.started_at = monotonic()
                    try:
                        worker.conn.send((task_id, payloads[task_id - first]))
                    except OSError:
                        # It died after reporting ready.
                        requeue(
                            self._replace_worker(worker_id),
                            f"worker pipe broke (task {task_id})",
                        )

        def handle(worker: _Worker, message: tuple) -> None:
            kind = message[0]
            if kind == "ready":
                worker.ready = True
                return
            _, task_id, body = message
            if worker.task_id == task_id:
                worker.task_id = None
            index = task_id - first
            if not 0 <= index < len(payloads):
                return
            if kind == "error":
                raise ParallelWorkerError(
                    f"worker task {index} failed:\n"
                    f"--- worker traceback ---\n{body}"
                )
            if index not in results:
                results[index] = body
                if on_result is not None:
                    on_result(index, body)

        feed_idle()
        while len(results) < len(payloads):
            owners = {w.conn: i for i, w in self._workers.items()}
            readable = wait(list(owners), timeout=self._heartbeat_s)
            if not readable:
                self._check_liveness(requeue)
                feed_idle()
                continue
            for conn in readable:
                worker_id = owners[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # Every message the worker sent was read before EOF.
                    orphan = self._replace_worker(worker_id)
                    requeue(orphan, f"worker pid exited (task {orphan})")
                    continue
                handle(self._workers[worker_id], message)
            feed_idle()
        return [results[i] for i in range(len(payloads))]

    def _check_liveness(
        self, requeue: Callable[[Optional[int], str], None]
    ) -> None:
        """Heartbeat tick: requeue tasks held by dead or overdue workers."""
        now = monotonic()
        for worker_id in list(self._workers):
            worker = self._workers[worker_id]
            if not worker.process.is_alive():
                orphan = self._replace_worker(worker_id)
                requeue(orphan, f"worker pid exited (task {orphan})")
            elif (
                worker.task_id is not None
                and self._task_timeout_s is not None
                and now - worker.started_at > self._task_timeout_s
            ):
                orphan = self._replace_worker(worker_id)
                requeue(
                    orphan,
                    f"task {orphan} exceeded {self._task_timeout_s:g}s deadline",
                )


def _stop(worker: _Worker, grace_s: float) -> None:
    """Reap ``worker`` — within ``grace_s`` if it is stopping on its own,
    else by SIGTERM, then SIGKILL — and close its pipe."""
    process = worker.process
    process.join(timeout=grace_s)
    if process.is_alive():
        process.terminate()
        process.join(timeout=1.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=1.0)
    worker.conn.close()

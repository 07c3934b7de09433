"""Persistent worker pool with shared-memory payload shipping.

Every emulation campaign fans its independent, individually-seeded runs
across this one pool.  The campaign submits its work against the same
heavyweight shared state (trained DNN weights, encoded probe frames), so
the pool ships that state once and keeps its workers hot:

* :func:`effective_jobs` resolves the worker count from the explicit
  ``jobs`` argument, else the ``REPRO_JOBS`` environment variable, else 1
  (serial).  ``jobs <= 0`` means "all cores".
* :class:`SharedPayload` pickles an arbitrary object **once** with its
  numpy planes hoisted out-of-band (pickle protocol 5) into a single
  ``multiprocessing.shared_memory`` block.  Workers reconstruct the object
  zero-copy from the shared planes — the per-worker cost is the small
  metadata pickle, not megabytes of frame/weight data, and nothing is
  re-shipped per task.
* :class:`PersistentPool` starts workers once and keeps them hot for the
  whole campaign.  The parent assigns one task to one worker at a time, so
  accounting is exact: a worker that dies (``Process.is_alive()`` checked
  every heartbeat interval) or exceeds the per-task deadline is killed,
  its task requeued to a fresh worker, and the campaign continues.  Task
  results are keyed by submission index, so retries and out-of-order
  completion cannot change the output.  Each worker answers on a pipe of
  its own, written synchronously: a worker that dies mid-message breaks
  only that pipe, never a lock the other workers would wait on.

A task exception is re-raised in the parent as
:class:`repro.errors.ParallelWorkerError` carrying the worker-side
traceback; a task that keeps failing (crash or timeout) after
``max_task_retries`` requeues raises instead of looping forever.
"""

from __future__ import annotations

import gc
import os
import pickle
import queue
import traceback
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import wait
from multiprocessing.shared_memory import SharedMemory
from time import monotonic
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ParallelWorkerError
from ..obs import OBS

__all__ = [
    "JOBS_ENV_VAR",
    "effective_jobs",
    "fork_context",
    "start_worker",
    "SharedPayload",
    "SharedPayloadHandle",
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


# ------------------------------------------------------- shared-memory pack


def _attach_shm(name: str) -> SharedMemory:
    """Attach to an existing block without resource-tracker ownership.

    Only the creating process may unlink the block; attaching workers must
    not register it with their resource tracker, or the tracker "cleans
    up" (unlinks) the segment when the first worker exits and the
    remaining workers lose their planes.  Python 3.13 has ``track=False``
    for exactly this; older versions need the documented unregister
    workaround.
    """
    try:
        return SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        shm = SharedMemory(name=name)
        if "fork" not in get_all_start_methods():
            # Spawned children run their *own* resource tracker, which
            # would unlink the segment when this worker exits and yank the
            # planes out from under every other worker.  Forked children
            # share the parent's tracker, where the duplicate registration
            # is harmless (set semantics) and unregistering here would
            # instead double-remove the parent's own registration.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        return shm


#: Attached segments kept alive for the worker process lifetime: the
#: reconstructed numpy arrays alias this memory, so dropping the
#: SharedMemory object (and its mmap) would invalidate them.
_ATTACHED: List[SharedMemory] = []


@dataclass(frozen=True)
class SharedPayloadHandle:
    """Picklable locator for a :class:`SharedPayload` (tiny: metadata only).

    Ship this through worker ``initargs``; call :meth:`load` worker-side.
    """

    meta: bytes
    shm_name: Optional[str]
    offsets: Tuple[int, ...]
    sizes: Tuple[int, ...]

    def load(self) -> Any:
        """Reconstruct the object, aliasing planes in shared memory."""
        if self.shm_name is None:
            return pickle.loads(self.meta)
        shm = _attach_shm(self.shm_name)
        _ATTACHED.append(shm)
        buffers = [
            shm.buf[offset:offset + size]
            for offset, size in zip(self.offsets, self.sizes)
        ]
        return pickle.loads(self.meta, buffers=buffers)


class SharedPayload:
    """An object pickled once, numpy planes hoisted into shared memory.

    The owner (parent process) keeps this alive for the campaign and calls
    :meth:`close` when done — that unlinks the segment.  Workers only ever
    see the :attr:`handle`.
    """

    def __init__(self, obj: Any) -> None:
        raw_buffers: List[pickle.PickleBuffer] = []
        meta = pickle.dumps(obj, protocol=5, buffer_callback=raw_buffers.append)
        views = [buf.raw() for buf in raw_buffers]
        sizes = tuple(view.nbytes for view in views)
        total = sum(sizes)
        if total == 0:
            self._shm: Optional[SharedMemory] = None
            self.handle = SharedPayloadHandle(meta, None, (), ())
            return
        self._shm = SharedMemory(create=True, size=total)
        offsets = []
        cursor = 0
        for view, size in zip(views, sizes):
            offsets.append(cursor)
            self._shm.buf[cursor:cursor + size] = view.cast("B")
            cursor += size
        for buf in raw_buffers:
            buf.release()
        self.handle = SharedPayloadHandle(
            meta, self._shm.name, tuple(offsets), sizes
        )

    @property
    def nbytes_shared(self) -> int:
        """Bytes living in the shared segment (0 when all in-band)."""
        return sum(self.handle.sizes)

    def close(self) -> None:
        """Release and unlink the shared segment (idempotent)."""
        if self._shm is not None:
            try:
                self._shm.close()
                self._shm.unlink()
            except FileNotFoundError:
                pass
            self._shm = None

    def __enter__(self) -> "SharedPayload":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


# ------------------------------------------------------- starting a worker


def fork_context():
    """The multiprocessing context workers start from: fork where it exists.

    A forked worker inherits the parent's heap (context, DNN, probes) for
    free; platforms without fork fall back to their default start method.
    """
    return get_context("fork" if "fork" in get_all_start_methods() else None)


def start_worker(
    mp_ctx, target: Callable[..., None], args: Sequence, duplex: bool = False
) -> Tuple[Any, Any]:
    """Start ``target(*args, conn)`` in a child with a pipe of its own.

    Returns ``(process, conn)``: the parent's end of the pipe.  With
    ``duplex=False`` the child writes and the parent reads.  The parent
    closes the child's end at once, so the child's exit reads as EOF on
    ``conn`` and nothing ever waits on a dead worker.

    The collector is frozen across the fork (the ``gc.freeze`` recipe for
    fork without exec): everything the child inherits sits in the
    permanent generation, so the child's collections never walk the
    inherited heap or dirty its pages.  The parent unfreezes right after,
    so its own garbage stays collectable.
    """
    conn, child_end = mp_ctx.Pipe(duplex=duplex)
    process = mp_ctx.Process(target=target, args=(*args, child_end), daemon=True)
    gc.freeze()
    try:
        process.start()
    finally:
        gc.unfreeze()
    child_end.close()
    return process, conn


# --------------------------------------------------------------- the pool


def _worker_main(
    worker_id: int,
    worker_fn: Callable[[Any], Any],
    initializer: Optional[Callable[..., None]],
    initargs: Sequence,
    task_q,
    parent_pid: int,
    results,
) -> None:
    """Worker loop: initialize once, then serve tasks until the sentinel.

    A worker whose parent died without sending the sentinel (SIGKILL)
    notices within :data:`ORPHAN_CHECK_S` of going idle — it has been
    re-parented — and exits instead of blocking on its queue forever.
    """
    try:
        if initializer is not None:
            initializer(*initargs)
    except BaseException:
        results.send(("init_error", worker_id, traceback.format_exc()))
        return
    results.send(("ready", worker_id))
    while True:
        try:
            task = task_q.get(timeout=ORPHAN_CHECK_S)
        except queue.Empty:
            if os.getppid() != parent_pid:
                return
            continue
        if task is None:
            return
        task_id, payload = task
        try:
            result = worker_fn(payload)
        except BaseException:
            results.send(("error", worker_id, task_id, traceback.format_exc()))
            continue
        results.send(("done", worker_id, task_id, result))


@dataclass
class _Worker:
    """Parent-side record of one worker process."""

    process: Any
    task_q: Any
    results: Any                         # read end of the worker's own pipe
    task_id: Optional[int] = None       # currently assigned task
    started_at: float = 0.0
    ready: bool = False                  # initializer finished


class PersistentPool:
    """A pool of long-lived workers with liveness and deadline supervision.

    Args:
        worker_fn: Top-level (picklable on spawn platforms) function of one
            payload argument.
        jobs: Worker count (must be >= 1).
        initializer: Per-worker setup hook, run once at worker start — the
            natural place to ``SharedPayloadHandle.load()`` shared state.
        initargs: Arguments for ``initializer``; keep them small (a
            :class:`SharedPayloadHandle`, not the object itself).
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
        initializer: Optional[Callable[..., None]] = None,
        initargs: Sequence = (),
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
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._jobs = int(jobs)
        self._task_timeout_s = task_timeout_s
        self._heartbeat_s = float(heartbeat_s)
        self._max_task_retries = int(max_task_retries)
        self._ctx = fork_context()
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._closed = False
        for _ in range(self._jobs):
            self._spawn_worker()

    # ------------------------------------------------------------ lifecycle

    def _spawn_worker(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_q = self._ctx.Queue()
        process, results = start_worker(
            self._ctx,
            _worker_main,
            (
                worker_id,
                self._worker_fn,
                self._initializer,
                self._initargs,
                task_q,
                os.getpid(),
            ),
        )
        self._workers[worker_id] = _Worker(
            process=process, task_q=task_q, results=results
        )
        return worker_id

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            try:
                worker.task_q.put(None)
            except Exception:
                pass
        for worker in self._workers.values():
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=1.0)
            worker.task_q.close()
            worker.results.close()
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

    def _assign(self, worker: _Worker, task_id: int, payload: Any) -> None:
        worker.task_id = task_id
        worker.started_at = monotonic()
        worker.task_q.put((task_id, payload))

    def _replace_worker(self, worker_id: int, reason: str) -> Optional[int]:
        """Kill + respawn one worker; return its orphaned task id."""
        worker = self._workers.pop(worker_id)
        orphan = worker.task_id
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=1.0)
        worker.task_q.close()
        worker.results.close()
        OBS.count("sweep.pool.worker_respawned")
        self._spawn_worker()
        return orphan

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
        pending: List[int] = list(range(len(payloads)))
        results: Dict[int, Any] = {}
        retries: Dict[int, int] = {}

        def feed_idle() -> None:
            for worker in self._workers.values():
                if not pending:
                    return
                if worker.ready and worker.task_id is None:
                    task_id = pending.pop(0)
                    self._assign(worker, task_id, payloads[task_id])

        def requeue(task_id: int, why: str) -> None:
            retries[task_id] = retries.get(task_id, 0) + 1
            OBS.count("sweep.pool.task_requeued")
            if retries[task_id] > self._max_task_retries:
                raise ParallelWorkerError(
                    f"task {task_id} abandoned after "
                    f"{self._max_task_retries} retries (last failure: {why})"
                )
            pending.insert(0, task_id)

        def handle(worker_id: int, message: tuple) -> None:
            worker = self._workers[worker_id]
            kind = message[0]
            if kind == "ready":
                worker.ready = True
            elif kind == "init_error":
                raise ParallelWorkerError(
                    "worker initializer failed:\n" + message[2]
                )
            elif kind == "done":
                _, _, task_id, result = message
                if worker.task_id == task_id:
                    worker.task_id = None
                if task_id not in results:
                    results[task_id] = result
                    if on_result is not None:
                        on_result(task_id, result)
            elif kind == "error":
                _, _, task_id, formatted = message
                if worker.task_id == task_id:
                    worker.task_id = None
                raise ParallelWorkerError(
                    f"worker task {task_id} failed:\n"
                    f"--- worker traceback ---\n{formatted}"
                )

        feed_idle()
        while len(results) < len(payloads):
            owners = {w.results: i for i, w in self._workers.items()}
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
                    orphan = self._replace_worker(worker_id, "worker died")
                    if orphan is not None:
                        requeue(orphan, f"worker pid exited (task {orphan})")
                    continue
                handle(worker_id, message)
            feed_idle()
        return [results[i] for i in range(len(payloads))]

    def _check_liveness(self, requeue: Callable[[int, str], None]) -> None:
        """Heartbeat tick: requeue tasks held by dead or overdue workers."""
        now = monotonic()
        for worker_id in list(self._workers):
            worker = self._workers[worker_id]
            if not worker.process.is_alive():
                orphan = self._replace_worker(worker_id, "worker died")
                if orphan is not None:
                    requeue(orphan, f"worker pid exited (task {orphan})")
            elif (
                worker.task_id is not None
                and self._task_timeout_s is not None
                and now - worker.started_at > self._task_timeout_s
            ):
                orphan = self._replace_worker(worker_id, "task timeout")
                if orphan is not None:
                    requeue(
                        orphan,
                        f"task {orphan} exceeded {self._task_timeout_s:g}s deadline",
                    )

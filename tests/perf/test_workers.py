"""Tests for the worker count and the persistent, pipe-fed pool."""

import functools
import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, ParallelWorkerError
from repro.perf.workers import (
    JOBS_ENV_VAR,
    PersistentPool,
    effective_jobs,
    start_worker,
)


def _lookup(plane, i):
    return float(plane[i]), os.getpid()


def _double(x):
    return x * 2


def _crash_marker(path_and_value):
    """Die hard (skipping cleanup) the first time the marker file exists."""
    path, value = path_and_value
    if path is not None and os.path.exists(path):
        os.remove(path)
        os._exit(13)
    return value * 10


def _sleep_marker(path_and_value):
    """Hang (sleep) the first time the marker file exists."""
    path, value = path_and_value
    if path is not None and os.path.exists(path):
        os.remove(path)
        time.sleep(60.0)
    return value * 10


def _always_exit(_):
    os._exit(1)


def _raise_value_error(x):
    raise ValueError(f"bad item {x}")


def _slow_or_boom(x):
    if x == "boom":
        raise ValueError("boom")
    if x.startswith("slow"):
        time.sleep(0.5)
    return x


def _send_and_exit(value, conn):
    conn.send(value)


def _report_freeze_count(conn):
    conn.send(gc.get_freeze_count())


class TestEffectiveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert effective_jobs(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert effective_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert effective_jobs(2) == 2

    def test_nonpositive_means_all_cores(self):
        assert effective_jobs(0) == (os.cpu_count() or 1)
        assert effective_jobs(-1) == (os.cpu_count() or 1)

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ConfigurationError):
            effective_jobs(None)


class TestStartWorker:
    def test_child_exit_reads_as_eof(self):
        process, conn = start_worker(_send_and_exit, ("hello",))
        try:
            assert conn.poll(10.0)
            assert conn.recv() == "hello"
            # The parent holds no copy of the child's end: its exit is EOF.
            assert conn.poll(10.0)
            with pytest.raises(EOFError):
                conn.recv()
        finally:
            process.join(timeout=5.0)
            conn.close()
        assert process.exitcode == 0

    def test_collector_frozen_in_child_only(self):
        before = gc.get_freeze_count()
        process, conn = start_worker(_report_freeze_count, ())
        try:
            assert gc.get_freeze_count() == before
            assert conn.poll(10.0)
            # The child inherited the parent's heap in the permanent generation.
            assert conn.recv() > before
        finally:
            process.join(timeout=5.0)
            conn.close()


class TestPersistentPool:
    def test_results_in_submission_order(self):
        with PersistentPool(_double, jobs=3, heartbeat_s=0.1) as pool:
            assert pool.run_tasks(list(range(20))) == [x * 2 for x in range(20)]

    def test_pool_reusable_across_batches(self):
        with PersistentPool(_double, jobs=2, heartbeat_s=0.1) as pool:
            assert pool.run_tasks([1, 2]) == [2, 4]
            assert pool.run_tasks([]) == []
            assert pool.run_tasks([5]) == [10]
        assert pool.worker_respawns == 0

    def test_batch_after_a_raising_batch_gets_only_its_own_results(self):
        """A result still in flight when a batch raises is dropped, not
        delivered to the next batch under its batch-local index."""
        with PersistentPool(_slow_or_boom, jobs=2, heartbeat_s=0.1) as pool:
            with pytest.raises(ParallelWorkerError, match="boom"):
                pool.run_tasks(["slow-old", "boom"])
            assert pool.run_tasks(["slow-new0", "new1"]) == ["slow-new0", "new1"]
            assert pool.run_tasks(["x"]) == ["x"]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            PersistentPool(_double, jobs=0)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            PersistentPool(_double, jobs=1, task_timeout_s=0.0)

    def test_closed_pool_rejects_tasks(self):
        pool = PersistentPool(_double, jobs=1, heartbeat_s=0.1)
        pool.close()
        with pytest.raises(ConfigurationError):
            pool.run_tasks([1])

    def test_worker_exception_raises_parallel_worker_error(self):
        with PersistentPool(_raise_value_error, jobs=2, heartbeat_s=0.1) as pool:
            with pytest.raises(ParallelWorkerError) as excinfo:
                pool.run_tasks([1, 2])
        message = str(excinfo.value)
        assert "ValueError" in message
        assert "worker traceback" in message
        # The traceback points at the raise site.
        assert "_raise_value_error" in message

    def test_dead_worker_task_requeued(self, tmp_path):
        marker = tmp_path / "die_once"
        marker.touch()
        with PersistentPool(
            _crash_marker, jobs=2, heartbeat_s=0.05, task_timeout_s=30.0
        ) as pool:
            got = pool.run_tasks([
                (str(marker), 1), (None, 2), (None, 3),
            ])
            assert got == [10, 20, 30]
            assert pool.worker_respawns >= 1

    def test_hung_worker_killed_and_task_requeued(self, tmp_path):
        marker = tmp_path / "hang_once"
        marker.touch()
        with PersistentPool(
            _sleep_marker, jobs=2, heartbeat_s=0.05, task_timeout_s=0.5
        ) as pool:
            t0 = time.monotonic()
            got = pool.run_tasks([(str(marker), 4), (None, 5)])
            elapsed = time.monotonic() - t0
        assert got == [40, 50]
        assert elapsed < 30.0  # killed at the deadline, not the full sleep
        assert pool.worker_respawns >= 1

    def test_permanent_crasher_abandoned_after_retries(self):
        with PersistentPool(
            _always_exit, jobs=1, heartbeat_s=0.05, max_task_retries=1
        ) as pool:
            with pytest.raises(ParallelWorkerError, match="abandoned"):
                pool.run_tasks([0])

    def test_workers_that_die_at_once_never_wedge_the_pool(self):
        """A worker killed right after it reported ready must not leave a
        lock its replacement waits on; dozens of pools in a child process
        finish well inside the limit."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", _CRASH_CYCLES],
            env=env, capture_output=True, text=True, timeout=60.0,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["40"]

    def test_bound_worker_reads_inherited_plane_in_every_worker(self):
        plane = np.linspace(0.0, 1.0, 64)
        indices = [0, 5, 63] * 4
        with PersistentPool(
            functools.partial(_lookup, plane), jobs=2, heartbeat_s=0.1
        ) as pool:
            # Both ready before the first feed: each takes a task at once.
            assert all(w.conn.poll(10.0) for w in pool._workers.values())
            workers = {w.process.pid for w in pool._workers.values()}
            got = pool.run_tasks(indices)
        assert [value for value, _ in got] == [plane[i] for i in indices]
        assert {pid for _, pid in got} == workers

    def test_worker_killed_after_ready_has_its_task_requeued(self):
        with PersistentPool(_double, jobs=1, heartbeat_s=5.0) as pool:
            (worker,) = pool._workers.values()
            # Its "ready" is waiting on the pipe, unread; the task is sent
            # right after the parent reads it, into a dead worker's pipe.
            assert worker.conn.poll(10.0)
            worker.process.kill()
            worker.process.join(timeout=5.0)
            assert pool.run_tasks([21]) == [42]
            assert pool.worker_respawns == 1

    def test_close_stops_idle_workers_at_once(self):
        pool = PersistentPool(_double, jobs=2, heartbeat_s=0.1)
        assert pool.run_tasks([1, 2]) == [2, 4]
        t0 = time.monotonic()
        pool.close()
        assert time.monotonic() - t0 < 1.0
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self):
        pool = PersistentPool(_double, jobs=1, heartbeat_s=0.1)
        assert pool.run_tasks([4]) == [8]
        pool.close()
        pool.close()
        assert multiprocessing.active_children() == []

    def test_on_result_fires_per_completion(self):
        seen = []
        with PersistentPool(_double, jobs=2, heartbeat_s=0.1) as pool:
            out = pool.run_tasks(
                [3, 4, 5], on_result=lambda i, r: seen.append((i, r))
            )
        assert out == [6, 8, 10]
        assert sorted(seen) == [(0, 6), (1, 8), (2, 10)]


#: Forty one-worker pools whose worker exits as soon as it takes a task;
#: prints how many gave up on the task as they should.
_CRASH_CYCLES = """
import os
from repro.errors import ParallelWorkerError
from repro.perf.workers import PersistentPool
abandoned = 0
for _ in range(40):
    with PersistentPool(os._exit, jobs=1, heartbeat_s=0.05, max_task_retries=1) as pool:
        try:
            pool.run_tasks([1])
        except ParallelWorkerError:
            abandoned += 1
print(abandoned)
"""


#: A campaign parent: starts a two-worker pool, prints the worker pids once
#: both are serving, then idles until it is killed.
_ORPHAN_PARENT = """
import time
from repro.perf.workers import PersistentPool
pool = PersistentPool(abs, jobs=2, heartbeat_s=0.05)
pool.run_tasks([-1, -2, -3, -4])
print(*(w.process.pid for w in pool._workers.values()), flush=True)
time.sleep(60)
"""


def _gone_or_zombie(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return True
    return state == "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
def test_workers_exit_when_their_parent_is_sigkilled():
    """A SIGKILLed campaign parent sends no sentinel; its idle workers
    notice the re-parenting and exit instead of blocking forever."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_PARENT],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    pids = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not all(map(_gone_or_zombie, pids)):
            time.sleep(0.05)
        assert [pid for pid in pids if not _gone_or_zombie(pid)] == []
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        for pid in pids:  # a worker that outlived the check
            if not _gone_or_zombie(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

"""The ``serve2x4`` workload: a real ``repro-wigig serve`` under open-loop load.

The server runs as a subprocess with its default flags.  This process is
the whole load generator: one event loop, one TCP receiver connection per
session (two connections, as many as the host has cores), each sending
``feedback`` on a fixed schedule whether or not earlier messages were
answered.  A message's round trip is timed from the instant it was due,
so a stall charges every message it delayed, and how late the generator
itself ran is reported beside it.

Frame wall times come from the per-session JSONL trace the service writes
when a session spec names a ``trace_path`` (its ``service.frame`` events time
``stream_frame``, the same call the session workloads time); everything
else is timed on the client side.  All times are wall clock.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Awaitable, Callable, Dict, List, Tuple

import layers
import stats
from session_bench import TAIL, Result
from workloads import ARC, ServeWorkload

HOST = "127.0.0.1"
STARTUP_TIMEOUT_S = 120.0
EXIT_TIMEOUT_S = 60.0

#: Sessions stay live until /stop; no faults, so no schedule is built.
UNBOUNDED_FRAMES = 1_000_000

PING_HZ = 20.0

#: The served sessions' placements do not follow ``--seed``.  With only two
#: placements in a run, placement alone moved frame time by 13 % between
#: seeds, more than the loop-sharing effects this workload exists to show;
#: ``--seed`` drives the load generator (feedback fractions).  Placement
#: sensitivity is what the session workloads measure.
PINNED_SESSION_SEED = 0


@dataclass
class Sample:
    """One open-loop message."""

    due: float
    late_s: float
    rtt_s: float
    ok: bool


async def open_loop(
    send: Callable[[int], Awaitable[Any]],
    count: int,
    interval_s: float,
    clock: Callable[[], float] = perf_counter,
) -> List[Sample]:
    """Send ``count`` messages on a fixed schedule, never waiting for replies.

    ``send(k)`` performs message ``k`` and raises on failure or timeout.
    Round trips run from the due time, not from when the message left.
    """
    from repro.errors import ServiceError

    samples: List[Sample] = []

    async def one(index: int, due: float, late_s: float) -> None:
        try:
            await send(index)
            ok = True
        except (asyncio.TimeoutError, ConnectionError, ServiceError):
            ok = False
        samples.append(Sample(due, late_s, clock() - due, ok))

    start = clock()
    tasks = []
    for index in range(count):
        due = start + index * interval_s
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(index, due, clock() - due)))
    await asyncio.gather(*tasks)
    return sorted(samples, key=lambda sample: sample.due)


class Server:
    """The serve CLI in a subprocess, with its ephemeral ports parsed."""

    def __init__(self, proc: asyncio.subprocess.Process, spawned_at: float) -> None:
        self.proc = proc
        self.spawned_at = spawned_at
        self.lines: List[str] = []
        self.receiver_port = 0
        self.control_port = 0
        self.spawn_to_listen_s = 0.0
        self._pump: asyncio.Task = asyncio.ensure_future(self._read_lines())
        self._listening = asyncio.Event()

    @classmethod
    async def spawn(cls, src_dir: Path, out_dir: Path) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir)
        env["REPRO_CACHE_DIR"] = str(out_dir / "cache")
        spawned_at = perf_counter()
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.cli", "serve",
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.STDOUT,
            env=env, cwd=str(out_dir),
        )
        server = cls(proc, spawned_at)
        try:
            await asyncio.wait_for(server._listening.wait(), STARTUP_TIMEOUT_S)
        except asyncio.TimeoutError:
            await server.kill()
            raise RuntimeError("serve never reported its ports:\n" + "\n".join(server.lines))
        if not server.control_port:
            await server.kill()
            raise RuntimeError("serve exited during startup:\n" + "\n".join(server.lines))
        return server

    async def _read_lines(self) -> None:
        assert self.proc.stdout is not None
        while True:
            raw = await self.proc.stdout.readline()
            if not raw:
                self._listening.set()
                return
            line = raw.decode("utf-8", "replace").rstrip("\n")
            self.lines.append(line)
            if line.startswith("receiver plane"):
                self.receiver_port = int(line.rsplit(":", 1)[1])
            elif line.startswith("control plane"):
                self.control_port = int(line.rsplit(":", 1)[1])
            if self.receiver_port and self.control_port and not self._listening.is_set():
                self.spawn_to_listen_s = perf_counter() - self.spawned_at
                self._listening.set()

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def terminate(self) -> int:
        """SIGTERM, then wait for the graceful drain; returns the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = await asyncio.wait_for(self.proc.wait(), EXIT_TIMEOUT_S)
        except asyncio.TimeoutError:
            await self.kill()
            raise RuntimeError("serve did not exit on SIGTERM")
        await self._pump
        return code

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()
        self._pump.cancel()


@dataclass
class Ready:
    """A server with its sessions running and every receiver joined."""

    server: Server
    session_ids: List[str]
    clients: List[Any]
    ready_at: float
    start_ms: List[float]
    join_ms: List[float]
    frame_traces: List[Path]


async def _set_up(workload: ServeWorkload, src_dir: Path, out_dir: Path) -> Ready:
    """Spawn -> both sessions running -> all receivers joined."""
    from repro.service import ReceiverClient, http_request

    server = await Server.spawn(src_dir, out_dir)
    try:
        session_ids, start_ms, frame_traces = [], [], []
        for index in range(workload.sessions):
            frames_path = out_dir / f"{workload.name}.s{index + 1}.frames.jsonl"
            t0 = perf_counter()
            status, body = await http_request(
                HOST, server.control_port, "POST", "/start",
                {"users": workload.users, "frames": UNBOUNDED_FRAMES,
                 "seed": PINNED_SESSION_SEED + index, "placement": ["arc", *ARC],
                 "trace_path": str(frames_path)},
                timeout=STARTUP_TIMEOUT_S,
            )
            start_ms.append((perf_counter() - t0) * 1e3)
            if status != 200:
                raise RuntimeError(f"/start answered {status}: {body}")
            session_ids.append(body["session"])
            frame_traces.append(frames_path)
        clients = [
            await ReceiverClient.connect(HOST, server.receiver_port)
            for _ in session_ids
        ]

        async def join_all(client: Any, session_id: str) -> List[float]:
            rtts = []
            for user in range(workload.users):
                _, rtt = await client.join(session_id, user, timeout=STARTUP_TIMEOUT_S)
                rtts.append(rtt * 1e3)
            return rtts

        joined = await asyncio.gather(*map(join_all, clients, session_ids))
        ready_at = perf_counter()
    except BaseException:
        await server.kill()
        raise
    return Ready(
        server, session_ids, clients, ready_at, start_ms,
        [rtt for rtts in joined for rtt in rtts], frame_traces,
    )


async def _tear_down(ready: Ready, errors: List[str]) -> Tuple[List[Dict[str, Any]], float]:
    """/stop every session, close receivers, SIGTERM; returns stop replies."""
    from repro.service import http_request

    server = ready.server
    try:
        finals = []
        for session_id in ready.session_ids:
            status, final = await http_request(
                HOST, server.control_port, "POST", "/stop",
                {"session": session_id}, timeout=EXIT_TIMEOUT_S,
            )
            if status != 200 or final.get("state") != "stopped" or "error" in final:
                errors.append(f"/stop {session_id} answered {status}: {final}")
            finals.append(final)
        for client in ready.clients:
            await client.close()
        peak_rss_mb = server.peak_rss_mb()
        code = await server.terminate()
    except BaseException:
        await server.kill()
        raise
    if code != 0:
        errors.append(f"serve exited {code} on SIGTERM")
    return finals, peak_rss_mb


async def _status(server: Server) -> Tuple[Dict[str, Dict[str, Any]], float, float]:
    """``/status`` sessions by id, the reply's arrival time, the call's ms."""
    from repro.service import http_request

    t0 = perf_counter()
    code, body = await http_request(HOST, server.control_port, "GET", "/status")
    t1 = perf_counter()
    if code != 200:
        raise RuntimeError(f"/status answered {code}: {body}")
    return {entry["id"]: entry for entry in body["sessions"]}, t1, (t1 - t0) * 1e3


def _frame_ms(path: Path, first: int, last: int) -> List[float]:
    """``stream_frame`` wall ms of frames ``first..last-1`` of one session."""
    frames = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            if event["stage"] == "service.frame" and first <= event["frame"] < last:
                frames.append((event["t_end_s"] - event["t_start_s"]) * 1e3)
    return frames


async def _measure(
    workload: ServeWorkload, seed: int, trace: bool, min_beyond: int,
    src_dir: Path, out_dir: Path, setup_s: List[float], errors: List[str],
) -> Result:
    ready = await _set_up(workload, src_dir, out_dir)
    server = ready.server
    setup_s = setup_s + [ready.ready_at - server.spawned_at]
    rng = random.Random(seed)
    interval_s = 1.0 / workload.feedback_hz
    count = round((workload.warmup_s + workload.measured_s) * workload.feedback_hz)

    def feedback_sender(client: Any, session_id: str) -> Callable[[int], Awaitable[Any]]:
        return lambda k: client.feedback(
            session_id, k % workload.users, rng.random(), timeout=workload.timeout_s
        )

    try:
        window_lo = perf_counter() + workload.warmup_s
        window_hi = window_lo + workload.measured_s
        generators = [
            asyncio.ensure_future(open_loop(feedback_sender(c, s), count, interval_s))
            for c, s in zip(ready.clients, ready.session_ids)
        ]
        await asyncio.sleep(workload.warmup_s)
        before, window_start, _ = await _status(server)
        await asyncio.sleep(max(0.0, window_hi - perf_counter()))
        after, window_end, _ = await _status(server)
        samples = [s for batch in await asyncio.gather(*generators) for s in batch]

        for session_id in ready.session_ids:
            members = after[session_id]["members"]
            if members != list(range(workload.users)):
                errors.append(f"{session_id}: joined 0..{workload.users - 1}, /status lists {members}")

        probe: Dict[str, float] = {}
        if trace:
            probe = await _probe_phase(ready, workload, min_beyond)
    except BaseException:
        await server.kill()
        raise
    finals, peak_rss_mb = await _tear_down(ready, errors)

    window_s = window_end - window_start
    measured = [s for s in samples if window_lo <= s.due < window_hi]
    rtt_ms = [s.rtt_s * 1e3 for s in measured]
    failed = sum(1 for s in measured if not s.ok)
    frames_streamed = [
        after[sid]["frames_streamed"] - before[sid]["frames_streamed"]
        for sid in ready.session_ids
    ]
    frame_ms = [
        ms
        for sid, path in zip(ready.session_ids, ready.frame_traces)
        for ms in _frame_ms(path, before[sid]["frames_streamed"], after[sid]["frames_streamed"])
    ]
    ssim = [final.get("mean_ssim", float("nan")) for final in finals]
    ssim_mean = stats.mean(ssim)
    if not all(0.0 <= value <= 1.0 for value in ssim):
        errors.append(f"/stop mean_ssim outside [0, 1]: {ssim}")
    if not ssim_mean >= workload.ssim_floor:
        errors.append(f"ssim_mean {ssim_mean:.4f} below floor {workload.ssim_floor}")

    ctl_p50 = stats.percentile(rtt_ms, 50.0)
    ctl_p95 = stats.percentile(rtt_ms, 95.0, min_beyond)
    extras = {
        "frames_measured": len(frame_ms),
        "msgs_measured": len(measured),
        "window_s": window_s,
        "ctl_rtt_ms_p50": ctl_p50,
        "ctl_rtt_ms_p95": ctl_p95,
        "failed_ratio": failed / len(measured),
    }
    if not trace:
        metrics = {
            "frame_ms_p50": stats.percentile(frame_ms, 50.0),
            f"frame_ms_p{TAIL:g}": stats.percentile(frame_ms, TAIL, min_beyond),
            "fps_sustained": sum(frames_streamed) / window_s,
            "ssim_mean": ssim_mean,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        }
        return Result(metrics, extras, len(measured), failed, errors)

    sent_total = len(samples)
    acked_total = sum(final.get("feedback_reports", 0) for final in finals)
    metrics = {
        "service.spawn_to_listen_s": server.spawn_to_listen_s,
        "service.start_ms_mean": stats.mean(ready.start_ms),
        "service.join_rtt_ms_p50": stats.percentile(ready.join_ms, 50.0),
        "service.ctl_rtt_ms_p50": ctl_p50,
        "service.ctl_rtt_ms_p95": ctl_p95,
        "service.session_fps_min": min(frames_streamed) / window_s,
        "service.session_fps_max": max(frames_streamed) / window_s,
        "service.gen_late_ms_p95": stats.percentile(
            [s.late_s * 1e3 for s in measured], 95.0, min_beyond
        ),
        "service.msgs_sent": float(len(measured)),
        "service.msgs_failed": float(failed),
        "service.feedback_acked_ratio": acked_total / sent_total,
        **probe,
    }
    return Result(metrics, extras, len(measured), failed, errors)


async def _probe_phase(ready: Ready, workload: ServeWorkload, min_beyond: int) -> Dict[str, float]:
    """Pings (pure loop blocking) and ``/status`` calls, feedback load off."""
    count = round(workload.probe_s * PING_HZ)
    pings = [
        asyncio.ensure_future(open_loop(
            lambda _k, client=client: client.ping(timeout=workload.timeout_s),
            count, 1.0 / PING_HZ,
        ))
        for client in ready.clients
    ]
    status_ms = []
    deadline = perf_counter() + workload.probe_s
    while perf_counter() < deadline:
        _, _, call_ms = await _status(ready.server)
        status_ms.append(call_ms)
    ping_ms = [s.rtt_s * 1e3 for batch in await asyncio.gather(*pings) for s in batch]
    return {
        "service.ping_rtt_ms_p50": stats.percentile(ping_ms, 50.0),
        "service.ping_rtt_ms_p95": stats.percentile(ping_ms, 95.0, min_beyond),
        "service.status_ms_p50": stats.percentile(status_ms, 50.0),
    }


async def _bench(
    workload: ServeWorkload, seed: int, trace: bool, min_beyond: int,
    src_dir: Path, out_dir: Path, errors: List[str],
) -> Result:
    """Extra set-up samples, then the measured server."""
    setup_s = []
    # Extra set-up samples only where setup_s is reported.
    for _ in range(0 if trace else workload.setup_repeats - 1):
        ready = await _set_up(workload, src_dir, out_dir)
        await _tear_down(ready, errors)
        setup_s.append(ready.ready_at - ready.server.spawned_at)
    return await _measure(
        workload, seed, trace, min_beyond, src_dir, out_dir, setup_s, errors
    )


def run(
    workload: ServeWorkload, seed: int, trace: bool, smoke: bool,
    out_dir: Path, src_dir: Path,
) -> Result:
    from repro.emulation import build_context

    min_beyond = 0 if smoke else stats.MIN_BEYOND
    # Trains the DNN into the benchmark's cache on the first run of a
    # checkout, so the server never spawns against a cold cache.
    t0 = perf_counter()
    ctx = build_context()
    context_build_s = perf_counter() - t0

    result = asyncio.run(_bench(workload, seed, trace, min_beyond, src_dir, out_dir, []))
    result.extras["context_build_s"] = context_build_s
    if trace:
        result.metrics.update(layers.direct_metrics(ctx, smoke))
        result.metrics["emulation.context_build_s"] = context_build_s
    return result

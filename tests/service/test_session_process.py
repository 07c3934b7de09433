"""Each served session streams in a process of its own.

These tests pin what that process boundary must not break: a session
whose process dies fails alone, no process outlives a killed server, a
session process holds no descriptor of the server's sockets, membership
changes land only between frames, and the process's telemetry reaches
the server's ``/metrics`` whole.
"""

import asyncio
import json
import os
import signal
import time
from pathlib import Path

from repro import obs
from repro.obs import read_jsonl
from repro.service import ReceiverClient, ServiceServer, http_request
from repro.service.session import SessionSpec

from .test_shutdown import _ServeProcess

HOST = "127.0.0.1"


def _run(ctx, scenario, **server_kw):
    async def main():
        server = ServiceServer(ctx, log=None, **server_kw)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.shutdown()
            assert not any(p.process.is_alive() for p in server._processes)

    return asyncio.run(main())


async def _start(server, **spec):
    status, body = await http_request(
        HOST, server.control_port, "POST", "/start", spec
    )
    assert status == 200, body
    return body["session"]


async def _detail(server, session_id):
    status, body = await http_request(
        HOST, server.control_port, "GET", f"/sessions/{session_id}"
    )
    assert status == 200, body
    return body


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def test_killed_session_process_fails_alone(service_ctx):
    async def scenario(server):
        victim = await _start(server, users=2, frames=100_000, seed=1)
        other = await _start(server, users=2, frames=100_000, seed=2)
        os.kill(server.sessions[victim].process.pid, signal.SIGKILL)
        killed_at = time.monotonic()
        while (await _detail(server, victim))["state"] != "failed":
            assert time.monotonic() - killed_at < 2.0
            await asyncio.sleep(0.02)
        detail = await _detail(server, victim)
        assert str(-signal.SIGKILL) in detail["error"]

        before = (await _detail(server, other))["frames_streamed"]
        await asyncio.sleep(0.3)
        survivor = await _detail(server, other)
        assert survivor["state"] == "running"
        assert survivor["frames_streamed"] > before
        status, body = await http_request(
            HOST, server.control_port, "GET", "/status"
        )
        assert status == 200
        states = {entry["id"]: entry["state"] for entry in body["sessions"]}
        assert states == {victim: "failed", other: "running"}

    _run(service_ctx, scenario, frame_interval_s=0.01)


def test_killed_server_leaves_no_process(tmp_path):
    serve = _ServeProcess(tmp_path)
    try:
        async def start_two():
            for seed in (1, 2):
                status, body = await http_request(
                    HOST, serve.control_port, "POST", "/start",
                    {"users": 2, "frames": 100_000, "seed": seed},
                )
                assert status == 200, body

        asyncio.run(start_two())
        task_dir = Path(f"/proc/{serve.proc.pid}/task")
        children = [
            int(pid)
            for task in task_dir.iterdir()
            for pid in (task / "children").read_text().split()
        ]
        assert len(children) == 2
        serve.proc.kill()
        serve.proc.wait(timeout=10.0)
        deadline = time.monotonic() + 2.0
        while any(_running(pid) for pid in children):
            assert time.monotonic() < deadline, "a session process outlived serve"
            time.sleep(0.05)
    finally:
        serve.kill()


def test_session_process_holds_no_receiver_socket(service_ctx):
    async def scenario(server):
        await _start(server, users=2, frames=100_000, seed=1)
        receiver = await ReceiverClient.connect(HOST, server.receiver_port)
        # Forked while the receiver's socket is open on the server.
        await _start(server, users=2, frames=100_000, seed=2)
        await receiver.send_raw(b"\xff\xff\xff\xff")
        await asyncio.wait_for(receiver.closed.wait(), 1.0)
        await receiver.close()

    _run(service_ctx, scenario, frame_interval_s=0.01)


def test_churn_lands_between_frames(service_ctx, tmp_path):
    """Replaying the served session's leaves and joins in process, at the
    frame boundaries its trace shows them at, gives the same outcome."""
    trace_path = tmp_path / "churn.jsonl"
    spec = SessionSpec(users=2, frames=40, seed=42, placement=("arc", 3.0, 60.0),
                       trace_path=str(trace_path))
    ops = ["leave", "join", "leave", "join"]

    async def scenario(server):
        session_id = await _start(server, **spec.to_dict())
        client = await ReceiverClient.connect(HOST, server.receiver_port)
        for verb in ops:
            await asyncio.sleep(0.1)
            reply, _ = await client.request(
                {"type": verb, "session": session_id, "user": 1}
            )
            assert reply["changed"] is True
        while (detail := await _detail(server, session_id))["state"] == "running":
            await asyncio.sleep(0.02)
        await client.close()  # after the end: its auto-leave changes nothing
        return detail

    detail = _run(service_ctx, scenario, frame_interval_s=0.03)
    assert detail["state"] == "finished"
    users = [event["users"] for event in read_jsonl(trace_path)
             if event["stage"] == "service.frame"]
    assert len(users) == spec.frames
    boundaries = [f for f in range(1, len(users)) if users[f] != users[f - 1]]
    assert len(boundaries) == len(ops) and users[0] == 2
    assert users[boundaries[0]] == 1  # the first op was a leave

    session = spec.build(service_ctx)
    total = session.begin(spec.frames)
    pending = dict(zip(boundaries, ops))
    for frame_index in range(total):
        verb = pending.get(frame_index)
        if verb == "leave":
            session.evict_user(1)
        elif verb == "join":
            session.rejoin_user(1)
        session.stream_frame(frame_index)
    assert detail["outcome"]["fingerprint"] == session.outcome.fingerprint()


def test_metrics_merge_the_session_process_counters(service_ctx):
    spec = SessionSpec(users=2, frames=3, seed=7, placement=("arc", 3.0, 60.0))

    async def scenario(server):
        session_id = await _start(server, **spec.to_dict())
        while (await _detail(server, session_id))["state"] == "running":
            await asyncio.sleep(0.02)
        _, metrics = await http_request(
            HOST, server.control_port, "GET", "/metrics"
        )
        return metrics

    with obs.observed("counters"):
        metrics = _run(service_ctx, scenario)
    served = {name: value for name, value in metrics["counters"].items()
              if not name.startswith("service.")}

    with obs.observed("counters") as registry:
        session = spec.build(service_ctx)
        total = session.begin(spec.frames)
        for frame_index in range(total):
            session.stream_frame(frame_index)
        inprocess = registry.counters()
    assert served and served == inprocess


def test_hostile_start_bodies_get_an_answer(service_ctx):
    async def scenario(server):
        for placement in (["arc", None, 60], ["arc", [], 60],
                          ["arc", 3, float("nan")], ["arc"],
                          ["arc", float("inf"), 60], ["arc", True, 60]):
            status, body = await http_request(
                HOST, server.control_port, "POST", "/start",
                {"users": 1, "frames": 1, "placement": placement},
            )
            assert status == 400, (placement, body)
            assert "placement" in body["error"]
        assert server.sessions == {}

        async def broken_route(*_args):
            raise RuntimeError("boom")

        server._route = broken_route
        status, body = await http_request(
            HOST, server.control_port, "GET", "/status"
        )
        assert status == 500 and "boom" in body["error"]

    _run(service_ctx, scenario)


def test_build_error_answers_400_and_the_process_exits(service_ctx, monkeypatch):
    from repro.errors import ConfigurationError

    def failing_build(self, ctx, config=None):
        raise ConfigurationError("no trace for you")

    # Patched before the fork, so the session process inherits it.
    monkeypatch.setattr(SessionSpec, "build", failing_build)

    async def scenario(server):
        status, body = await http_request(
            HOST, server.control_port, "POST", "/start",
            {"users": 1, "frames": 1},
        )
        assert status == 400 and body["error"] == "no trace for you"
        assert server.sessions == {}
        (handle,) = server._processes
        await asyncio.wait_for(handle.exited.wait(), 5.0)
        assert handle.process.exitcode == 0

    _run(service_ctx, scenario)


def test_frame_records_reach_the_trace_file(service_ctx, tmp_path):
    """The session process writes its own JSONL before the final record,
    so the file is complete by the time ``/stop`` answers."""
    trace_path = tmp_path / "s.jsonl"

    async def scenario(server):
        session_id = await _start(server, users=2, frames=100_000, seed=3,
                                  trace_path=str(trace_path))
        await asyncio.sleep(0.2)
        status, final = await http_request(
            HOST, server.control_port, "POST", "/stop", {"session": session_id}
        )
        assert status == 200 and final["state"] == "stopped"
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert lines[-1]["stage"] == "service.session.closed"
        assert lines[-1]["frames_streamed"] == final["frames_streamed"] == len(lines) - 1

    _run(service_ctx, scenario, frame_interval_s=0.01)

"""Graceful-shutdown regression: SIGTERM must leave complete traces.

ISSUE 8 satellite: a SIGTERM'd server has to flush and close every open
``repro.obs`` JSONL trace recorder and drain in-flight feedback before
exiting.  This test runs the real ``repro-wigig serve`` CLI in a
subprocess, starts a traced session, parks a receiver with in-flight
traffic on the wire, SIGTERMs the process and then validates every trace
file it left behind with the strict :func:`repro.obs.read_jsonl` loader.
"""

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import repro
from repro.obs import read_jsonl
from repro.service import ReceiverClient, http_request

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])
STARTUP_TIMEOUT_S = 120.0
EXIT_TIMEOUT_S = 60.0


class _ServeProcess:
    """The serve CLI in a subprocess, with parsed ephemeral ports."""

    def __init__(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT
        self.server_trace = tmp_path / "server_obs.jsonl"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--quick-context", "--frame-interval", "0.05",
                "--obs", "trace", "--trace", str(self.server_trace),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        self.lines = []
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.receiver_port = None
        self.control_port = None
        self._wait_for_ports()

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))

    def _wait_for_ports(self):
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in list(self.lines):
                if line.startswith("receiver plane"):
                    self.receiver_port = int(line.rsplit(":", 1)[1])
                elif line.startswith("control plane"):
                    self.control_port = int(line.rsplit(":", 1)[1])
            if self.receiver_port and self.control_port:
                return
            if self.proc.poll() is not None:
                raise AssertionError(
                    "serve exited during startup:\n" + "\n".join(self.lines)
                )
            time.sleep(0.05)
        raise AssertionError(
            "serve never reported its ports:\n" + "\n".join(self.lines)
        )

    def terminate_and_wait(self):
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=EXIT_TIMEOUT_S)
        finally:
            self._close_stdout()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        self._close_stdout()

    def _close_stdout(self):
        """Let the reader drain the pipe to EOF, then close it."""
        self._reader.join(timeout=5.0)
        if not self._reader.is_alive():
            self.proc.stdout.close()


def test_sigterm_flushes_traces_and_drains_feedback(tmp_path):
    serve = _ServeProcess(tmp_path)
    session_trace = tmp_path / "session_s1.jsonl"
    try:
        async def drive():
            host = "127.0.0.1"
            _, body = await http_request(
                host, serve.control_port, "POST", "/start",
                {"users": 2, "frames": 2000, "seed": 9,
                 "trace_path": str(session_trace)},
            )
            assert body["session"] == "s1"
            client = await ReceiverClient.connect(host, serve.receiver_port)
            await client.feedback("s1", 0, 0.5)
            # Let a few frames stream so the trace has real events.
            await asyncio.sleep(0.4)

            # SIGTERM with the receiver still connected and one more
            # feedback in flight: the drain window must ack it and the
            # server must push `bye` before the socket dies.
            serve.proc.send_signal(signal.SIGTERM)
            resp, _ = await client.feedback("s1", 1, 0.25)
            assert resp["type"] == "feedback_ack"
            await asyncio.wait_for(client.bye.wait(), EXIT_TIMEOUT_S)
            await client.close()

        asyncio.run(drive())
        assert serve.terminate_and_wait() == 0
    finally:
        serve.kill()

    # Per-session recorder: flushed, parseable, and complete — frame
    # events plus the closing marker written on shutdown.
    events = read_jsonl(session_trace)
    stages = [event["stage"] for event in events]
    assert stages.count("service.frame") >= 1
    assert stages[-1] == "service.session.closed"
    closing = events[-1]
    assert closing["state"] == "stopped"
    assert closing["frames_streamed"] == stages.count("service.frame")

    # Server-wide obs trace: flushed on the shutdown path, parseable, and
    # carrying pipeline spans from the streamed frames.
    server_events = read_jsonl(serve.server_trace)
    assert any(
        event["stage"].startswith("frame.") for event in server_events
    )

    # The drained feedback actually landed before exit.
    out = "\n".join(serve.lines)
    assert "shutdown: complete" in out

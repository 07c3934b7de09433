"""The asyncio session server: session processes, receiver plane, REST control.

One :class:`ServiceServer` owns two listeners on stdlib asyncio (no web
framework) and one process per live session
(:class:`~repro.service.session.ServedSession`).  Frames stream in those
processes; the event loop here only moves bytes, answers HTTP and keeps
the books:

* the **receiver plane** — a TCP listener speaking the length-prefixed
  JSON protocol of :mod:`repro.service.protocol`; each connection may
  join any number of (session, user) pairs, and a dropped connection
  auto-leaves everything it joined (a real receiver disappearing);
* the **control plane** — a minimal HTTP/1.1 listener serving JSON:

  ====================  ======================================================
  ``POST /start``       body = :class:`~repro.service.session.SessionSpec`
                        JSON; checks it, forks the session's process and
                        answers once the session is built
  ``POST /stop``        body ``{"session": id}``; stops it at the next
                        frame boundary and returns its final detail
  ``GET /status``       server state + every session's summary
  ``GET /sessions/<id>`` one session's detail (spec, membership, outcome
                        fingerprint once finished)
  ``GET /metrics``      the :mod:`repro.obs` registry snapshot, with
                        per-session counters grouped by scope
  ``POST /shutdown``    acknowledge, then gracefully shut the server down
  ====================  ======================================================

Graceful shutdown (also wired to SIGTERM/SIGINT by ``repro-wigig
serve``): stop admitting sessions, push ``bye`` to every receiver, give
connections a drain window to flush in-flight control messages (each
still acked), stop every session process at its frame boundary — each
writes its per-session JSONL trace and sends its final record and spans
— then kill whatever has not ended within :data:`STOP_S`, reap every
process and flush the global obs trace before closing the listeners.  A
SIGTERM'd server leaves neither a truncated trace nor a process behind.
"""

from __future__ import annotations

import asyncio
import json
import traceback
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import ProtocolError, ReproError, ServiceError
from ..obs import OBS, TRACE
from ..emulation.context import ExperimentContext
from .protocol import encode_message, read_message, validate_control_message
from .session import ServedSession, SessionSpec

__all__ = ["ServiceServer"]

_HTTP_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                 405: "Method Not Allowed", 500: "Internal Server Error",
                 503: "Service Unavailable"}

#: Cap on a control-plane request body (a session spec is tiny).
MAX_BODY_BYTES = 256 * 1024

#: Grace window, in seconds, on shutdown for receivers to flush in-flight
#: control messages.
DRAIN_S = 0.25

#: Bound, in seconds, on shutdown's wait for the session processes' final
#: records; whatever is still running after it is killed.
STOP_S = 10.0


async def _wait_all(events: List[asyncio.Event], timeout: float) -> None:
    """Wait until every event is set or ``timeout`` passes."""
    waits = [asyncio.ensure_future(event.wait()) for event in events]
    if not waits:
        return
    _, pending = await asyncio.wait(waits, timeout=timeout)
    for wait in pending:
        wait.cancel()


class _ReceiverConnection:
    """Book-keeping for one receiver-plane TCP connection."""

    __slots__ = ("writer", "task", "joined")

    def __init__(self, writer: asyncio.StreamWriter,
                 task: "asyncio.Task[None]") -> None:
        self.writer = writer
        self.task = task
        self.joined: Set[Tuple[str, int]] = set()


class ServiceServer:
    """Hosts concurrent served sessions behind receiver + control planes.

    Args:
        ctx: Shared experiment context every session builds from (one
            DNN, one probe set — the same sharing discipline as the
            sweep engine); each session process inherits it at the fork.
        host: Bind address for both listeners.
        receiver_port: Receiver-plane TCP port (0 = ephemeral).
        control_port: Control-plane HTTP port (0 = ephemeral).
        frame_interval_s: How long a session process waits for commands
            between frames (0 = stream as fast as its core allows).
        log: Optional line logger (the CLI passes ``print``).
    """

    def __init__(
        self,
        ctx: ExperimentContext,
        host: str = "127.0.0.1",
        receiver_port: int = 0,
        control_port: int = 0,
        frame_interval_s: float = 0.0,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.ctx = ctx
        self.host = host
        self._requested_ports = (receiver_port, control_port)
        self.receiver_port: Optional[int] = None
        self.control_port: Optional[int] = None
        self.frame_interval_s = frame_interval_s
        self._log = log
        self.scope = OBS.scoped("service")
        self.sessions: Dict[str, ServedSession] = {}
        #: Every process started, sessions whose build failed included.
        self._processes: List[ServedSession] = []
        self._next_session = 1
        self._connections: Set[_ReceiverConnection] = set()
        self._receiver_server: Optional[asyncio.base_events.Server] = None
        self._control_server: Optional[asyncio.base_events.Server] = None
        self.draining = False
        self._shutdown_done = asyncio.Event()
        self._shutdown_started = False

    def log(self, line: str) -> None:
        if self._log is not None:
            self._log(line)

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind both listeners (ephemeral ports resolve here)."""
        receiver_port, control_port = self._requested_ports
        self._receiver_server = await asyncio.start_server(
            self._handle_receiver, self.host, receiver_port
        )
        self._control_server = await asyncio.start_server(
            self._handle_control, self.host, control_port
        )
        self.receiver_port = self._receiver_server.sockets[0].getsockname()[1]
        self.control_port = self._control_server.sockets[0].getsockname()[1]
        self.log(f"receiver plane : {self.host}:{self.receiver_port}")
        self.log(f"control plane  : http://{self.host}:{self.control_port}")

    async def shutdown(self) -> None:
        """Graceful stop: drain receivers, stop and reap session processes,
        flush the obs trace."""
        if self._shutdown_started:
            await self._shutdown_done.wait()
            return
        self._shutdown_started = True
        self.draining = True
        self.scope.count("shutdown.requests")
        self.log("shutdown: draining")

        # Stop admitting new connections (existing ones keep their loop).
        for server in (self._receiver_server, self._control_server):
            if server is not None:
                server.close()

        # Push `bye`, then let every connection flush whatever control
        # messages are already in flight — each still gets its ack.
        for conn in list(self._connections):
            await self._send(conn.writer, {"type": "bye", "reason": "shutdown"})
        tasks = [conn.task for conn in self._connections]
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=DRAIN_S)
            for conn in list(self._connections):
                conn.writer.close()
            if pending:
                await asyncio.wait(tasks, timeout=DRAIN_S)

        # Session processes stop at their next frame boundary and send
        # their final records; whatever outlives STOP_S is killed.
        await self._stop_processes()
        for served in self.sessions.values():
            if served.trace_flushed:
                self.log(f"shutdown: session {served.id} trace -> "
                         f"{served.trace_flushed}")
        if OBS.mode >= TRACE:
            path = OBS.trace.flush()
            if path is not None:
                self.log(f"shutdown: obs trace -> {path}")

        for server in (self._receiver_server, self._control_server):
            if server is not None:
                await server.wait_closed()
        self.log("shutdown: complete")
        self._shutdown_done.set()

    # ------------------------------------------------------------- sessions

    async def start_session(self, spec: SessionSpec) -> ServedSession:
        """Admit one session: check its config here, fork its process, and
        return once the process has built it (its build error raises)."""
        if self.draining:
            raise ServiceError("server is draining; not admitting sessions")
        config = spec.config(self.ctx)
        session_id = f"s{self._next_session}"
        self._next_session += 1
        served = ServedSession(
            session_id, spec, self.ctx, config, self.frame_interval_s
        )
        self._processes.append(served)
        self.sessions[session_id] = served
        try:
            await served.built
        except ServiceError:
            del self.sessions[session_id]
            raise
        self.scope.count("sessions.started")
        self.scope.set_gauge("sessions.live", sum(
            1 for s in self.sessions.values() if s.state == "running"
        ))
        self.log(f"session {session_id}: started "
                 f"({spec.users} users, {spec.frames} frames, seed {spec.seed}, "
                 f"pid {served.process.pid})")
        return served

    async def stop_session(self, session_id: str) -> ServedSession:
        """Stop one session at its frame boundary and wait for its end."""
        served = self.session(session_id)
        served.request_stop()
        await served.done.wait()
        self.scope.count("sessions.stopped")
        return served

    async def _stop_processes(self) -> None:
        """Stop every session process; kill and reap what does not end."""
        for served in self._processes:
            served.request_stop()
        await _wait_all([served.done for served in self._processes], STOP_S)
        for served in self._processes:
            if not served.done.is_set() and served.process.is_alive():
                served.process.kill()
        await _wait_all([served.exited for served in self._processes], STOP_S)
        for served in self._processes:
            # Last resort, off the happy path: nothing outlives the server.
            if served.process.is_alive():
                served.process.kill()
            served.process.join(timeout=1.0)

    def session(self, session_id: str) -> ServedSession:
        served = self.sessions.get(session_id)
        if served is None:
            raise ServiceError(f"unknown session {session_id!r}")
        return served

    def status(self) -> Dict[str, Any]:
        return {
            "state": "draining" if self.draining else "running",
            "receiver_port": self.receiver_port,
            "control_port": self.control_port,
            "receivers_connected": len(self._connections),
            "sessions": [
                served.status() for _, served in sorted(self.sessions.items())
            ],
        }

    def metrics(self) -> Dict[str, Any]:
        """The obs registry snapshot with per-session scopes broken out."""
        per_session = {
            session_id: served.scope.counters()
            for session_id, served in sorted(self.sessions.items())
        }
        return {
            "obs_mode": OBS.mode_name,
            "counters": OBS.counters(),
            "gauges": OBS.gauges(),
            "sessions": per_session,
        }

    # ------------------------------------------------------- receiver plane

    async def _handle_receiver(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        conn = _ReceiverConnection(writer, task)
        self._connections.add(conn)
        self.scope.count("receiver.connections")
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    # Broken framing: no way to resync the byte stream —
                    # report and drop the connection.
                    self.scope.count("protocol.errors")
                    await self._send(
                        writer, {"type": "error", "error": str(exc),
                                 "fatal": True},
                    )
                    break
                if message is None:
                    break
                response = await self._dispatch_control(message, conn)
                await self._send(writer, response)
        except asyncio.CancelledError:
            # Server shutdown cancels pending reads; the connection is
            # going away regardless, so end the handler quietly.
            pass
        finally:
            self._connections.discard(conn)
            self._auto_leave(conn)
            writer.close()

    def _auto_leave(self, conn: _ReceiverConnection) -> None:
        """A dropped connection leaves every (session, user) it joined.

        The leaves go out without waiting: the session processes apply
        them at their next frame boundary.
        """
        for session_id, user in sorted(conn.joined):
            served = self.sessions.get(session_id)
            if served is not None and served.state == "running":
                try:
                    served.request("leave", user).add_done_callback(
                        self._count_auto_leave
                    )
                except ServiceError:
                    pass  # ended meanwhile: nothing to leave
        conn.joined.clear()

    def _count_auto_leave(self, future: asyncio.Future) -> None:
        if (not future.cancelled() and future.exception() is None
                and future.result()["changed"]):
            self.scope.count("receiver.auto_leaves")

    async def _dispatch_control(
        self, message: Dict[str, Any], conn: _ReceiverConnection
    ) -> Dict[str, Any]:
        """One well-framed control message -> one response object.

        ``join`` / ``leave`` are answered by the session's process at its
        next frame boundary; ``ping`` and ``feedback`` are answered here.
        Malformed-but-well-framed messages (unknown type, missing fields,
        unknown session/user) get an ``error`` response and the
        connection survives; only framing violations are fatal.
        """
        seq = message.get("seq")
        try:
            kind = validate_control_message(message)
            if kind == "ping":
                response: Dict[str, Any] = {"type": "pong"}
            elif kind in ("join", "leave"):
                served = self.session(message["session"])
                user = message["user"]
                reply = await served.request(kind, user)
                if kind == "join":
                    conn.joined.add((served.id, user))
                else:
                    conn.joined.discard((served.id, user))
                response = {
                    "type": "joined" if kind == "join" else "left",
                    "session": served.id, "user": user,
                    "changed": reply["changed"], "members": reply["members"],
                }
            else:  # feedback
                served = self.session(message["session"])
                served.apply_feedback(
                    message["user"], float(message.get("fraction", 1.0))
                )
                response = {
                    "type": "feedback_ack", "session": served.id,
                    "user": message["user"],
                }
            self.scope.count(f"control.{kind}")
        except (ProtocolError, ServiceError) as exc:
            self.scope.count("control.rejected")
            response = {"type": "error", "error": str(exc), "fatal": False}
        if seq is not None:
            response["seq"] = seq
        return response

    async def _send(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        try:
            writer.write(encode_message(message))
            await writer.drain()
        except (ConnectionError, RuntimeError):
            self.scope.count("receiver.send_failures")

    # -------------------------------------------------------- control plane

    async def _handle_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status = 400
        payload: Dict[str, Any] = {"error": "malformed HTTP request"}
        shutdown_after = False
        try:
            request_line = (await reader.readline()).decode("latin-1").strip()
            parts = request_line.split()
            if len(parts) >= 2:
                method, path = parts[0].upper(), parts[1]
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0") or 0)
                if length > MAX_BODY_BYTES:
                    raise ServiceError(
                        f"request body of {length} bytes exceeds "
                        f"{MAX_BODY_BYTES}"
                    )
                body = await reader.readexactly(length) if length else b""
                status, payload, shutdown_after = await self._route(
                    method, path, body
                )
            self.scope.count("control.http_requests")
        except (ServiceError, ValueError, asyncio.IncompleteReadError) as exc:
            status, payload = 400, {"error": str(exc)}
            self.scope.count("control.http_bad_requests")
        except Exception as exc:  # noqa: BLE001 - answer, never drop the client
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            self.scope.count("control.http_errors")
            self.log("control: request failed\n" + traceback.format_exc())
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _HTTP_REASONS.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + blob)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
        if shutdown_after:
            # Ack first, then shut down out-of-band so the requester
            # never blocks on the drain it asked for.
            asyncio.get_running_loop().create_task(self.shutdown())

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], bool]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/status" and method == "GET":
            return 200, self.status(), False
        if path == "/metrics" and method == "GET":
            return 200, self.metrics(), False
        if path.startswith("/sessions/") and method == "GET":
            session_id = path[len("/sessions/"):]
            try:
                served = self.session(session_id)
            except ServiceError as exc:
                return 404, {"error": str(exc)}, False
            return 200, await served.detail(), False
        if path == "/start" and method == "POST":
            if self.draining:
                return 503, {"error": "server is draining"}, False
            try:
                spec = SessionSpec.from_dict(self._json_body(body))
                served = await self.start_session(spec)
            except ReproError as exc:  # a bad spec, override or config
                return 400, {"error": str(exc)}, False
            return 200, {"session": served.id, "status": served.status()}, False
        if path == "/stop" and method == "POST":
            try:
                raw = self._json_body(body)
                session_id = raw.get("session")
                if not isinstance(session_id, str):
                    raise ServiceError("body must carry a 'session' id string")
                served = await self.stop_session(session_id)
            except ServiceError as exc:
                return 404, {"error": str(exc)}, False
            return 200, await served.detail(), False
        if path == "/shutdown" and method == "POST":
            return 200, {"ok": True, "state": "draining"}, True
        known = {"/status", "/metrics", "/start", "/stop", "/shutdown"}
        if path in known or path.startswith("/sessions/"):
            return 405, {"error": f"method {method} not allowed on {path}"}, False
        return 404, {"error": f"unknown path {path!r}"}, False

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, Any]:
        if not body:
            return {}
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(parsed, dict):
            raise ServiceError("request body must be a JSON object")
        return parsed

    # ----------------------------------------------------------- convenience

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` fires (or a /shutdown arrives), then drain."""
        await self.start()
        stop_wait = asyncio.ensure_future(stop.wait())
        shutdown_wait = asyncio.ensure_future(self._shutdown_done.wait())
        try:
            await asyncio.wait(
                [stop_wait, shutdown_wait],
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            stop_wait.cancel()
            shutdown_wait.cancel()
        await self.shutdown()

    def list_sessions(self) -> List[str]:
        return sorted(self.sessions)

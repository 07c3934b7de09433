"""The asyncio session server: broadcasters, receiver plane, REST control.

One :class:`ServiceServer` owns two listeners on stdlib asyncio (no web
framework):

* the **receiver plane** — a TCP listener speaking the length-prefixed
  JSON protocol of :mod:`repro.service.protocol`; each connection may
  join any number of (session, user) pairs, and a dropped connection
  auto-leaves everything it joined (a real receiver disappearing);
* the **control plane** — a minimal HTTP/1.1 listener serving JSON:

  ====================  ======================================================
  ``POST /start``       body = :class:`~repro.service.session.SessionSpec`
                        JSON; starts a broadcaster, returns the session id
  ``POST /stop``        body ``{"session": id}``; stops it at the next
                        frame boundary and returns its final status
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
still acked), stop every broadcaster at its frame boundary, then flush
all per-session JSONL trace recorders and the global obs trace before
closing the listeners — so a SIGTERM'd server never leaves a truncated
trace behind.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import ProtocolError, ReproError, ServiceError
from ..obs import OBS, TRACE
from ..emulation.context import ExperimentContext
from .protocol import encode_message, read_message, validate_control_message
from .session import Broadcaster, ServedSession, SessionSpec

__all__ = ["ServiceServer"]

_HTTP_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                 405: "Method Not Allowed", 503: "Service Unavailable"}

#: Cap on a control-plane request body (a session spec is tiny).
MAX_BODY_BYTES = 256 * 1024

#: Grace window, in seconds, on shutdown for receivers to flush in-flight
#: control messages.
DRAIN_S = 0.25


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
            sweep engine).
        host: Bind address for both listeners.
        receiver_port: Receiver-plane TCP port (0 = ephemeral).
        control_port: Control-plane HTTP port (0 = ephemeral).
        frame_interval_s: Wall-clock pacing between frames (0 = as fast
            as the event loop allows).
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
        """Graceful stop: drain receivers, stop broadcasters, flush traces."""
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

        # Broadcasters stop at their next frame boundary.
        for served in self.sessions.values():
            served.request_stop()
        session_tasks = [
            served.task for served in self.sessions.values()
            if served.task is not None
        ]
        if session_tasks:
            await asyncio.gather(*session_tasks, return_exceptions=True)

        # Flush every per-session recorder, then the global trace.
        for served in self.sessions.values():
            flushed = served.close()
            if flushed:
                self.log(f"shutdown: session {served.id} trace -> {flushed}")
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

    def start_session(self, spec: SessionSpec) -> ServedSession:
        """Admit one session and launch its broadcaster task."""
        if self.draining:
            raise ServiceError("server is draining; not admitting sessions")
        session_id = f"s{self._next_session}"
        self._next_session += 1
        served = ServedSession(session_id, spec, self.ctx)
        served.task = asyncio.get_running_loop().create_task(
            Broadcaster(served, self.frame_interval_s).run(),
            name=f"broadcaster-{session_id}",
        )
        self.sessions[session_id] = served
        self.scope.count("sessions.started")
        self.scope.set_gauge("sessions.live", sum(
            1 for s in self.sessions.values() if s.state == "running"
        ))
        self.log(f"session {session_id}: started "
                 f"({spec.users} users, {spec.frames} frames, seed {spec.seed})")
        return served

    async def stop_session(self, session_id: str) -> ServedSession:
        """Stop one session at its frame boundary and wait for it."""
        served = self.session(session_id)
        served.request_stop()
        if served.task is not None:
            await served.task
        self.scope.count("sessions.stopped")
        return served

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
                response = self._dispatch_control(message, conn)
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
        """A dropped connection leaves every (session, user) it joined."""
        for session_id, user in sorted(conn.joined):
            served = self.sessions.get(session_id)
            if served is not None and served.state == "running":
                if served.apply_leave(user):
                    self.scope.count("receiver.auto_leaves")
        conn.joined.clear()

    def _dispatch_control(
        self, message: Dict[str, Any], conn: _ReceiverConnection
    ) -> Dict[str, Any]:
        """One well-framed control message -> one response object.

        Malformed-but-well-framed messages (unknown type, missing fields,
        unknown session/user) get an ``error`` response and the
        connection survives; only framing violations are fatal.
        """
        seq = message.get("seq")
        try:
            kind = validate_control_message(message)
            if kind == "ping":
                response: Dict[str, Any] = {"type": "pong"}
            elif kind == "join":
                served = self.session(message["session"])
                changed = served.apply_join(message["user"])
                conn.joined.add((served.id, message["user"]))
                response = {
                    "type": "joined", "session": served.id,
                    "user": message["user"], "changed": changed,
                    "members": served.members,
                }
            elif kind == "leave":
                served = self.session(message["session"])
                changed = served.apply_leave(message["user"])
                conn.joined.discard((served.id, message["user"]))
                response = {
                    "type": "left", "session": served.id,
                    "user": message["user"], "changed": changed,
                    "members": served.members,
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
                return 200, self.session(session_id).status(detail=True), False
            except ServiceError as exc:
                return 404, {"error": str(exc)}, False
        if path == "/start" and method == "POST":
            if self.draining:
                return 503, {"error": "server is draining"}, False
            try:
                spec = SessionSpec.from_dict(self._json_body(body))
                served = self.start_session(spec)
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
            return 200, served.status(detail=True), False
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

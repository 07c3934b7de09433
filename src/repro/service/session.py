"""Served sessions: the spec, the session process and the server's handle.

A :class:`SessionSpec` is the serializable description of one streaming
session — exactly the information a point of the in-process sweep engine
gets: user count, placement, frame budget, config overrides (string
pairs, parsed by :func:`repro.emulation.parse_config_overrides`, dotted
``faults.*`` knobs welcome) and the run seed.  ``build()`` records the
run's trace and builds its session through the sweep engine's own
constructors, so a served session with an untouched membership is
bit-identical to ``run_variant_sweep``'s sample for the same seed.

Every admitted session streams in a process of its own, forked from the
server after the spec and its config have been checked there
(:func:`run_session` is that process's body).  The process builds the
session from the context it inherited, steps it one frame at a time,
applies join / leave / stop commands only between frames, times each
``stream_frame`` into the optional per-session JSONL trace, and sends the
server one small record per frame along with its telemetry deltas.  Two
sessions therefore stream on two cores, and the server's event loop is
left with sockets, HTTP and bookkeeping.

:class:`ServedSession` is the server's end of that pipe: lifecycle state,
a mirror of membership and progress kept from the frame records,
join / leave / detail requests answered at the process's next frame
boundary, external feedback bookkeeping (telemetry only; it never
reaches the process) and the per-session :class:`repro.obs.ScopedObs`
namespace the process's counters merge into.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import numbers
import os
import signal
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core import SystemConfig
from ..core.pipeline import StreamSession
from ..errors import ReproError, ServiceError
from ..obs import OBS, ScopedObs, TraceRecorder
from ..emulation.context import ExperimentContext, trace_for_placement
from ..emulation.sweep import multicast_session, parse_config_overrides
from ..perf.workers import start_worker

__all__ = ["ServedSession", "SessionSpec", "run_session"]

#: Lifecycle states a served session moves through (forward-only).
RUNNING = "running"
FINISHED = "finished"
STOPPED = "stopped"
FAILED = "failed"

#: Placement kinds a served session accepts, and how many numbers follow.
PLACEMENT_ARITY = {"arc": 2, "range": 3}

#: How long the server waits, after a session's pipe reaches EOF, for the
#: process to exit on its own before killing it.
REAP_S = 1.0


def _check_placement(placement: Any) -> None:
    """``('arc', d, mas)`` or ``('range', d0, d1, mas)``, finite numbers."""
    if (
        not isinstance(placement, (list, tuple))
        or not placement
        or not isinstance(placement[0], str)
        or placement[0] not in PLACEMENT_ARITY
    ):
        raise ServiceError(f"unknown placement spec {placement!r}")
    kind, values = placement[0], placement[1:]
    if len(values) != PLACEMENT_ARITY[kind]:
        raise ServiceError(
            f"{kind!r} placement takes {PLACEMENT_ARITY[kind]} numbers, "
            f"got {len(values)}"
        )
    for value in values:
        finite = isinstance(value, numbers.Real) and not isinstance(value, bool)
        try:
            finite = finite and math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ServiceError(
                f"placement values must be finite numbers, got {value!r}"
            )


@dataclass(frozen=True)
class SessionSpec:
    """Serializable description of one served streaming session.

    Attributes:
        users: Receivers in the placement (the session's full membership).
        frames: Frames to stream before the session finishes.
        seed: Run seed, as in the sweep engine's per-run schedule: the
            trace derives from it directly and the streamer from it plus
            :data:`repro.emulation.sweep.STREAMER_SEED_OFFSET`.
        placement: ``('arc', d, mas)`` or ``('range', d0, d1, mas)``.
        overrides: ``field=value`` string pairs applied to the base
            config (``faults.*`` knobs nest with a dotted prefix).
        trace_path: Optional per-session JSONL trace destination; frame
            events are buffered by the session's process and written when
            the session ends (finished, stopped or drained).
    """

    users: int
    frames: int
    seed: int = 0
    placement: Tuple = ("arc", 3.0, 60.0)
    overrides: Mapping[str, str] = field(default_factory=dict)
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ServiceError(f"session needs users >= 1, got {self.users}")
        if self.frames < 1:
            raise ServiceError(f"session needs frames >= 1, got {self.frames}")
        _check_placement(self.placement)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "SessionSpec":
        """Parse a JSON-shaped spec (the ``/start`` request body)."""
        if not isinstance(raw, Mapping):
            raise ServiceError(
                f"session spec must be an object, got {type(raw).__name__}"
            )
        known = {"users", "frames", "seed", "placement", "overrides",
                 "trace_path"}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ServiceError(
                f"unknown session spec fields {unknown} "
                f"(known: {sorted(known)})"
            )
        try:
            users = int(raw.get("users", 0))
            frames = int(raw.get("frames", 0))
            seed = int(raw.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"non-integer spec field: {exc}") from exc
        placement = raw.get("placement", ("arc", 3.0, 60.0))
        _check_placement(placement)
        overrides = raw.get("overrides", {})
        if not isinstance(overrides, Mapping) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in overrides.items()
        ):
            raise ServiceError(
                "overrides must map field names to value strings"
            )
        trace_path = raw.get("trace_path")
        if trace_path is not None and not isinstance(trace_path, str):
            raise ServiceError("trace_path must be a string path")
        return cls(
            users=users,
            frames=frames,
            seed=seed,
            placement=(placement[0], *(float(v) for v in placement[1:])),
            overrides=dict(overrides),
            trace_path=trace_path,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "users": self.users,
            "frames": self.frames,
            "seed": self.seed,
            "placement": list(self.placement),
            "overrides": dict(self.overrides),
            "trace_path": self.trace_path,
        }

    def config(self, ctx: ExperimentContext) -> SystemConfig:
        """The session's config: the overrides applied to ``ctx``'s base."""
        return ctx.config(**parse_config_overrides(dict(self.overrides)))

    def build(
        self, ctx: ExperimentContext, config: Optional[SystemConfig] = None
    ) -> StreamSession:
        """Construct the pipeline session the sweep engine would: the same
        trace builder and session constructor, in the same order.

        ``config`` is :meth:`config`'s result when the caller already
        checked it (the server does, before it forks the session).
        """
        if config is None:
            config = self.config(ctx)
        trace = trace_for_placement(
            ctx, self.users, self.placement, self.seed,
            num_aps=config.num_aps,
        )
        return multicast_session(ctx, config, trace, self.seed)


# ------------------------------------------------------ the session process


class _ParentGone(Exception):
    """The server's end of the pipe is closed: the session must end."""


def _isolate(conn) -> None:
    """First thing in a session process: drop what the fork handed down.

    Closes every inherited descriptor except stdio and the session's own
    pipe, so the process holds no HTTP connection (a client reading its
    reply to EOF would hang), no receiver socket (a server-side close
    would not reach the client) and no other session's pipe (that
    session would never see its server go).  The multiprocessing
    sentinel goes too, so the server watches a session process through
    its pipe and ``waitpid`` (``exitcode``), never ``process.sentinel``.
    Signals go back to what a worker wants: SIGINT (a terminal's Ctrl-C
    reaches the whole process group) is ignored, because the server's
    drain stops the session, and SIGTERM kills.  The registry copy starts
    empty, so everything the process reports is its own.
    """
    keep = conn.fileno()
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    OBS.take_deltas()
    OBS.take_spans()


def _report(exc: Exception) -> str:
    """The message the server shows for ``exc``; an unexpected error also
    prints its traceback to the (inherited) stderr."""
    if isinstance(exc, ReproError):
        return str(exc)
    traceback.print_exc()
    return f"{type(exc).__name__}: {exc}"


class _SessionProcess:
    """A session process's state and its side of the pipe.

    Messages to the server are tuples ``(kind, deltas, *body)``, where
    ``deltas`` is :meth:`repro.obs.ObsRegistry.take_deltas` (``None``
    while observability is off):

    * ``("built", deltas, all_users, members)`` — the session is ready;
    * ``("error", deltas, message)`` — building it failed;
    * ``("frame", deltas, members)`` — one frame streamed; ``members``
      is ``None`` unless membership changed since the last report;
    * ``("reply", deltas, request_id, ok, payload)`` — the answer to a
      join / leave / detail command (an error message when not ok);
    * ``("final", deltas, state, error, detail, histograms, events,
      trace_path)`` — the session ended; its spans ride along.

    Commands from the server are ``("stop",)`` and ``(verb, request_id,
    *args)`` for ``join`` / ``leave`` (a user) and ``detail``.
    """

    def __init__(self, session_id: str, spec: SessionSpec, conn) -> None:
        self.spec = spec
        self.conn = conn
        self.scope: ScopedObs = OBS.scoped(f"service.session.{session_id}")
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder(spec.trace_path) if spec.trace_path else None
        )
        self.session: Optional[StreamSession] = None
        self.state = RUNNING
        self.error: Optional[str] = None
        self.frames_streamed = 0
        self.stopping = False
        self._reported_members: Optional[List[int]] = None

    # ------------------------------------------------------------- pipe

    def send(self, kind: str, *body: Any) -> None:
        deltas = OBS.take_deltas() if OBS.mode else None
        try:
            self.conn.send((kind, deltas, *body))
        except (OSError, ValueError) as exc:
            raise _ParentGone() from exc

    def _members_if_changed(self) -> Optional[List[int]]:
        members = list(self.session.users)
        if members == self._reported_members:
            return None
        self._reported_members = members
        return members

    # -------------------------------------------------------------- run

    def run(
        self, ctx: ExperimentContext, config: SystemConfig,
        frame_interval_s: float,
    ) -> None:
        try:
            try:
                self.session = self.spec.build(ctx, config)
                total = self.session.begin(self.spec.frames)
            except Exception as exc:  # noqa: BLE001 - reported as a 400
                self.send("error", _report(exc))
                return
            self.send("built", list(self.session.all_users),
                      self._members_if_changed())
            try:
                with self.scope.span("broadcast", frames=total):
                    self._stream(total, frame_interval_s)
            except _ParentGone:
                self.state = STOPPED
                self.scope.count("cancelled")
            except Exception as exc:  # noqa: BLE001 - reported as failed
                self.state = FAILED
                self.error = _report(exc)
                self.scope.count("failures")
            self._finish()
        except _ParentGone:
            pass

    def _stream(self, total: int, frame_interval_s: float) -> None:
        session = self.session
        self._commands(0.0)
        for frame_index in range(total):
            if self.stopping:
                self.state = STOPPED
                self.scope.count("stopped")
                return
            t0 = perf_counter()
            streamed = session.stream_frame(frame_index)
            t1 = perf_counter()
            self.frames_streamed += 1
            self.scope.count("frames.streamed")
            if not streamed:
                self.scope.count("frames.idle")
            if self.recorder is not None:
                self.recorder.record(
                    "service.frame", t0, t1, frame=frame_index,
                    users=len(session.users), streamed=streamed,
                )
            self.send("frame", self._members_if_changed())
            if frame_index + 1 < total:
                self._commands(frame_interval_s)
        self.state = FINISHED
        self.scope.count("finished")

    def _commands(self, wait_s: float) -> None:
        """The frame boundary: apply every pending command, waiting up to
        ``wait_s`` for more (the ``--frame-interval`` pacing)."""
        deadline = perf_counter() + wait_s
        while not self.stopping:
            try:
                if not self.conn.poll(max(0.0, deadline - perf_counter())):
                    return
                command = self.conn.recv()
            except (EOFError, OSError) as exc:
                raise _ParentGone() from exc
            self._apply(command)

    def _apply(self, command: Tuple) -> None:
        verb = command[0]
        if verb == "stop":
            self.stopping = True
            return
        request_id = command[1]
        try:
            if verb == "detail":
                payload = self.detail()
            else:
                payload = self._membership(verb, command[2])
        except ReproError as exc:
            self.send("reply", request_id, False, str(exc))
            return
        self.send("reply", request_id, True, payload)

    def _membership(self, verb: str, user: int) -> Dict[str, Any]:
        """A join or leave through the pipeline's rejoin / evict seam."""
        if verb == "join":
            changed = self.session.rejoin_user(user)
            if changed:
                self.scope.count("membership.joins")
        else:
            changed = self.session.evict_user(user)
            if changed:
                self.scope.count("membership.leaves")
        self._reported_members = list(self.session.users)
        return {"changed": changed, "members": self._reported_members}

    def detail(self) -> Dict[str, Any]:
        """What only the process knows: quality so far, and the outcome's
        hex means and fingerprint once the session has ended cleanly."""
        out: Dict[str, Any] = {"frames_streamed": self.frames_streamed}
        outcome = self.session.outcome
        if self.frames_streamed:
            out["mean_ssim"] = outcome.mean_ssim
            out["mean_psnr_db"] = outcome.mean_psnr_db
        if self.state in (FINISHED, STOPPED):
            out["outcome"] = {
                "mean_ssim_hex": float(outcome.mean_ssim).hex(),
                "mean_psnr_db_hex": float(outcome.mean_psnr_db).hex(),
                "fingerprint": outcome.fingerprint(),
            }
        return out

    def _finish(self) -> None:
        """Write the per-session trace, then report the end and the spans."""
        self.scope.set_gauge("frames_streamed", self.frames_streamed)
        flushed = None
        if self.recorder is not None:
            now = perf_counter()
            self.recorder.record(
                "service.session.closed", now, now,
                state=self.state, frames_streamed=self.frames_streamed,
            )
            try:
                path = self.recorder.flush()
            except OSError as exc:
                self.error = f"session trace not written: {exc}"
            else:
                flushed = str(path) if path else None
        histograms, events = OBS.take_spans() if OBS.mode else ({}, [])
        self.send("final", self.state, self.error, self.detail(),
                  histograms, events, flushed)


def run_session(
    session_id: str,
    spec: SessionSpec,
    config: SystemConfig,
    ctx: ExperimentContext,
    frame_interval_s: float,
    conn,
) -> None:
    """Body of a session's process: build, stream, answer, report, exit.

    The process ends when the session does, or at the first frame
    boundary after its pipe reaches EOF (the server is gone).
    """
    _isolate(conn)
    _SessionProcess(session_id, spec, conn).run(ctx, config, frame_interval_s)


# ------------------------------------------------------- the server's side


class ServedSession:
    """The server's handle on one session process.

    Construction forks the process; :attr:`built` resolves once it has
    built the session (or fails with its build error).  Frame records
    keep :attr:`frames_streamed` and :attr:`members` current; requests
    resolve when the process answers at its next frame boundary.
    :attr:`done` is set once the final record arrived or the process
    died; :attr:`exited` once the process has been reaped.
    """

    def __init__(
        self,
        session_id: str,
        spec: SessionSpec,
        ctx: ExperimentContext,
        config: SystemConfig,
        frame_interval_s: float = 0.0,
    ) -> None:
        self.id = session_id
        self.spec = spec
        self.scope: ScopedObs = OBS.scoped(f"service.session.{session_id}")
        self.state = RUNNING
        self.error: Optional[str] = None
        self.frames_streamed = 0
        self.members: List[int] = []
        self.all_users: List[int] = []
        self.joins = 0
        self.leaves = 0
        self.feedback_count = 0
        self.last_feedback: Dict[int, float] = {}
        self.final: Optional[Dict[str, Any]] = None
        self.trace_flushed: Optional[str] = None
        self._loop = asyncio.get_running_loop()
        self.built: "asyncio.Future[None]" = self._loop.create_future()
        self.done = asyncio.Event()
        self.exited = asyncio.Event()
        self._pending: Dict[int, Tuple[str, asyncio.Future]] = {}
        self._request_ids = itertools.count()
        self._reaper: Optional["asyncio.Task[None]"] = None
        self.process, self.conn = start_worker(
            run_session,
            (session_id, spec, config, ctx, float(frame_interval_s)),
        )
        self._loop.add_reader(self.conn.fileno(), self._on_readable)

    # ------------------------------------------------------------ control

    def request(self, verb: str, *args: Any) -> "asyncio.Future[Dict[str, Any]]":
        """Send one command; the future resolves with the process's answer."""
        self._check_open(verb)
        request_id = next(self._request_ids)
        future = self._loop.create_future()
        self._pending[request_id] = (verb, future)
        try:
            self.conn.send((verb, request_id, *args))
        except (OSError, ValueError) as exc:
            del self._pending[request_id]
            raise ServiceError(
                f"cannot {verb}: session {self.id!r} process is gone"
            ) from exc
        return future

    def apply_feedback(self, user: int, fraction: float) -> None:
        """Record one external receiver report.

        Wire feedback is control-plane telemetry: the pipeline's in-loop
        feedback (Sec 2.7) stays the emulated per-frame reports, so a
        session's outcome remains bit-identical to the batch engine; the
        external reports surface through ``/sessions/<id>`` and the
        session's metric namespace, and never reach the session process.
        """
        self._check_open("feedback")
        if user not in self.all_users:
            raise ServiceError(
                f"user {user} is not part of session {self.id!r}"
            )
        self.feedback_count += 1
        self.last_feedback[user] = float(fraction)
        self.scope.count("feedback.reports")
        self.scope.set_gauge(f"feedback.user.{user}.fraction", float(fraction))

    def request_stop(self) -> None:
        """Ask the process to stop at its next frame boundary."""
        if self.state == RUNNING and not self.conn.closed:
            try:
                self.conn.send(("stop",))
            except OSError:
                pass  # already gone: the EOF path settles the session

    def _check_open(self, verb: str) -> None:
        if self.state != RUNNING:
            raise ServiceError(
                f"cannot {verb}: session {self.id!r} is {self.state}"
            )

    # -------------------------------------------------------------- pipe

    def _on_readable(self) -> None:
        try:
            while self.conn.poll():
                self._handle(self.conn.recv())
        except (EOFError, OSError):
            self._loop.remove_reader(self.conn.fileno())
            self.conn.close()
            self._reaper = self._loop.create_task(
                self._reap(), name=f"reap-{self.id}"
            )

    def _handle(self, message: Tuple) -> None:
        kind, deltas = message[0], message[1]
        if deltas is not None:
            OBS.merge_deltas(*deltas)
        if kind == "frame":
            self.frames_streamed += 1
            if message[2] is not None:
                self.members = message[2]
        elif kind == "reply":
            _, _, request_id, ok, payload = message
            verb, future = self._pending.pop(request_id)
            if ok and verb in ("join", "leave"):
                self.members = payload["members"]
                if payload["changed"]:
                    if verb == "join":
                        self.joins += 1
                    else:
                        self.leaves += 1
            if not future.done():
                if ok:
                    future.set_result(payload)
                else:
                    future.set_exception(ServiceError(payload))
        elif kind == "built":
            _, _, self.all_users, self.members = message
            self.built.set_result(None)
        elif kind == "error":
            self._settle(FAILED, message[2])
        else:  # final
            _, _, state, error, detail, histograms, events, flushed = message
            OBS.merge_spans(histograms, events)
            self.final = detail
            self.frames_streamed = detail["frames_streamed"]
            self.trace_flushed = flushed
            self._settle(state, error)

    def _settle(self, state: str, error: Optional[str]) -> None:
        """The session has ended: record how, fail whatever still waits."""
        self.state = state
        self.error = error
        if not self.built.done():
            self.built.set_exception(ServiceError(error or state))
        for verb, future in self._pending.values():
            if not future.done():
                future.set_exception(ServiceError(
                    f"cannot {verb}: session {self.id!r} is {state}"
                ))
        self._pending.clear()
        self.done.set()

    async def _reap(self) -> None:
        """After EOF: collect the exit code, killing the process if it does
        not exit within :data:`REAP_S`.  Never blocks the loop."""
        if not await self._exits_within(REAP_S):
            self.process.kill()
            await self._exits_within(REAP_S)
        if self.process.exitcode is not None:
            self.process.join()  # already waited for: returns at once
        if not self.done.is_set():
            self._settle(
                FAILED,
                f"session process exited with code {self.process.exitcode}",
            )
        self.exited.set()

    async def _exits_within(self, timeout_s: float) -> bool:
        deadline = self._loop.time() + timeout_s
        while self.process.exitcode is None and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        return self.process.exitcode is not None

    # ------------------------------------------------------------- status

    async def detail(self) -> Dict[str, Any]:
        """``/sessions/<id>``: the summary plus what only the process knows
        (asked for while it runs; its final report once it has ended)."""
        extra = self.final
        if self.state == RUNNING:
            try:
                extra = await self.request("detail")
            except ServiceError:
                extra = self.final
        out = self.status()
        out["spec"] = self.spec.to_dict()
        out["all_users"] = list(self.all_users)
        out["last_feedback"] = {
            str(u): f for u, f in sorted(self.last_feedback.items())
        }
        out.update(extra or {})
        return out

    def status(self) -> Dict[str, Any]:
        """JSON-shaped session summary for ``/status``."""
        out: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "frames_streamed": self.frames_streamed,
            "total_frames": self.spec.frames,
            "members": list(self.members),
            "joins": self.joins,
            "leaves": self.leaves,
            "feedback_reports": self.feedback_count,
        }
        if self.error is not None:
            out["error"] = self.error
        return out

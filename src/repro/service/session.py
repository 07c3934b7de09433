"""Served sessions: spec, live state, and the broadcaster task.

A :class:`SessionSpec` is the serializable description of one streaming
session — exactly the information a point of the in-process sweep engine
gets: user count, placement, frame budget, config overrides (string
pairs, parsed by :func:`repro.emulation.parse_config_overrides`, dotted
``faults.*`` knobs welcome) and the run seed.  ``build()`` records the
run's trace and builds its session through the sweep engine's own
constructors, so a served session with an untouched membership is
bit-identical to ``run_variant_sweep``'s sample for the same seed.

:class:`ServedSession` wraps the built
:class:`repro.core.pipeline.StreamSession` with everything the control
plane needs: lifecycle state, membership mutation through the pipeline's
``evict_user`` / ``rejoin_user`` seams, external feedback bookkeeping, a
per-session :class:`repro.obs.ScopedObs` namespace and an optional
per-session JSONL trace recorder.

:class:`Broadcaster` is the per-session asyncio task: it steps the
pipeline one frame at a time, yielding to the event loop at every frame
boundary so many sessions interleave and control messages are only ever
applied between frames (the single-threaded loop makes every ``await`` a
natural synchronization point — no locks).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.pipeline import StreamSession
from ..errors import ReproError, ServiceError
from ..obs import OBS, ScopedObs, TraceRecorder
from ..emulation.context import ExperimentContext, trace_for_placement
from ..emulation.sweep import multicast_session, parse_config_overrides

__all__ = ["Broadcaster", "ServedSession", "SessionSpec"]

#: Lifecycle states a served session moves through (forward-only).
RUNNING = "running"
FINISHED = "finished"
STOPPED = "stopped"
FAILED = "failed"


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
            events are buffered and flushed on session close (and on
            graceful server shutdown).
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
        if not self.placement or self.placement[0] not in ("arc", "range"):
            raise ServiceError(
                f"unknown placement spec {tuple(self.placement)!r}"
            )

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
        if not isinstance(placement, (list, tuple)) or not placement:
            raise ServiceError(f"bad placement spec {placement!r}")
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

    def build(self, ctx: ExperimentContext) -> StreamSession:
        """Construct the pipeline session the sweep engine would: the same
        trace builder and session constructor, in the same order."""
        overrides = parse_config_overrides(dict(self.overrides))
        config = ctx.config(**overrides)
        trace = trace_for_placement(
            ctx, self.users, self.placement, self.seed,
            num_aps=config.num_aps,
        )
        return multicast_session(ctx, config, trace, self.seed)


class ServedSession:
    """One live session inside the server: pipeline + control-plane state."""

    def __init__(self, session_id: str, spec: SessionSpec,
                 ctx: ExperimentContext) -> None:
        self.id = session_id
        self.spec = spec
        self.session: StreamSession = spec.build(ctx)
        self.scope: ScopedObs = OBS.scoped(f"service.session.{session_id}")
        self.state = RUNNING
        self.error: Optional[str] = None
        self.frames_streamed = 0
        self.joins = 0
        self.leaves = 0
        self.feedback_count = 0
        self.last_feedback: Dict[int, float] = {}
        self.stop_event = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder(spec.trace_path) if spec.trace_path else None
        )
        self._closed = False

    # ----------------------------------------------------------- control

    @property
    def members(self) -> List[int]:
        """Current live membership (trace order)."""
        return list(self.session.users)

    def apply_join(self, user: int) -> bool:
        """Control-plane join via the pipeline's rejoin seam."""
        self._check_open("join")
        try:
            changed = self.session.rejoin_user(user)
        except ReproError as exc:
            raise ServiceError(str(exc)) from exc
        if changed:
            self.joins += 1
            self.scope.count("membership.joins")
        return changed

    def apply_leave(self, user: int) -> bool:
        """Control-plane leave via the pipeline's evict seam."""
        self._check_open("leave")
        changed = self.session.evict_user(user)
        if changed:
            self.leaves += 1
            self.scope.count("membership.leaves")
        return changed

    def apply_feedback(self, user: int, fraction: float) -> None:
        """Record one external receiver report.

        Wire feedback is control-plane telemetry: the pipeline's in-loop
        feedback (Sec 2.7) stays the emulated per-frame reports, so a
        session's outcome remains bit-identical to the batch engine; the
        external reports surface through ``/sessions/<id>`` and the
        session's metric namespace.
        """
        self._check_open("feedback")
        if user not in self.session.all_users:
            raise ServiceError(
                f"user {user} is not part of session {self.id!r}"
            )
        self.feedback_count += 1
        self.last_feedback[user] = float(fraction)
        self.scope.count("feedback.reports")
        self.scope.set_gauge(f"feedback.user.{user}.fraction", float(fraction))

    def request_stop(self) -> None:
        """Ask the broadcaster to stop at the next frame boundary."""
        self.stop_event.set()

    def _check_open(self, verb: str) -> None:
        if self.state != RUNNING:
            raise ServiceError(
                f"cannot {verb}: session {self.id!r} is {self.state}"
            )

    # ------------------------------------------------------------ status

    def status(self, detail: bool = False) -> Dict[str, Any]:
        """JSON-shaped session state for ``/status`` and ``/sessions/<id>``."""
        out: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "frames_streamed": self.frames_streamed,
            "total_frames": self.spec.frames,
            "members": self.members,
            "joins": self.joins,
            "leaves": self.leaves,
            "feedback_reports": self.feedback_count,
        }
        if self.error is not None:
            out["error"] = self.error
        if detail:
            outcome = self.session.outcome
            out["spec"] = self.spec.to_dict()
            out["all_users"] = list(self.session.all_users)
            out["last_feedback"] = {
                str(u): f for u, f in sorted(self.last_feedback.items())
            }
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

    # ------------------------------------------------------------- close

    def close(self) -> Optional[str]:
        """Flush the per-session trace recorder; idempotent.

        Returns the flushed path (if a recorder was configured and had
        events), so shutdown logging can name what it wrote.
        """
        if self._closed:
            return None
        self._closed = True
        self.scope.set_gauge("frames_streamed", self.frames_streamed)
        if self.recorder is None:
            return None
        now = perf_counter()
        self.recorder.record(
            "service.session.closed", now, now,
            state=self.state, frames_streamed=self.frames_streamed,
        )
        path = self.recorder.flush()
        return str(path) if path else None


class Broadcaster:
    """The per-session frame-driving task.

    Steps the wrapped pipeline one frame per loop iteration and yields to
    the event loop between frames — the seam where join/leave control
    messages land and where a stop request (or server drain) takes
    effect.  ``frame_interval_s > 0`` paces frames in wall-clock time
    (live mode); ``0`` streams as fast as the loop allows (batch mode,
    the load-test default).
    """

    def __init__(self, served: ServedSession,
                 frame_interval_s: float = 0.0) -> None:
        self.served = served
        self.frame_interval_s = float(frame_interval_s)

    async def run(self) -> None:
        served = self.served
        session = served.session
        scope = served.scope
        try:
            total = session.begin(served.spec.frames)
            with scope.span("broadcast", frames=total):
                for frame_index in range(total):
                    if served.stop_event.is_set():
                        served.state = STOPPED
                        scope.count("stopped")
                        break
                    t0 = perf_counter()
                    streamed = session.stream_frame(frame_index)
                    t1 = perf_counter()
                    served.frames_streamed += 1
                    scope.count("frames.streamed")
                    if not streamed:
                        scope.count("frames.idle")
                    if served.recorder is not None:
                        served.recorder.record(
                            "service.frame", t0, t1, frame=frame_index,
                            users=len(session.users), streamed=streamed,
                        )
                    if self.frame_interval_s > 0.0:
                        await asyncio.sleep(self.frame_interval_s)
                    else:
                        # Bare yield: let control handlers and the other
                        # sessions' broadcasters run between frames.
                        await asyncio.sleep(0)
                else:
                    served.state = FINISHED
                    scope.count("finished")
        except asyncio.CancelledError:
            served.state = STOPPED
            scope.count("cancelled")
            raise
        except Exception as exc:  # noqa: BLE001 - session must not kill the server
            served.state = FAILED
            served.error = f"{type(exc).__name__}: {exc}"
            scope.count("failures")
        finally:
            served.close()

"""Binds one :class:`FaultSchedule` to one running streaming session.

The controller is the single object the pipeline talks to: the session
calls :meth:`begin_frame` once per frame (which advances the fault clock,
resolves receiver membership and emits the ``fault.*`` observability
counters/events), and the stages/transmitter issue point queries against
the frozen per-frame clock.  Keeping the clock on the controller means the
transmitter and association see frame-time-accurate windows without
threading ``now`` through every call signature.  Attenuation reaches the
link as data: :meth:`FaultController.rss_offsets_db` is the per-user RSS
offset array :meth:`repro.transport.LinkModel.delivery_probability_array`
takes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..obs import OBS
from .config import FaultConfig
from .schedule import FaultEvent, FaultKind, FaultSchedule

__all__ = ["FaultController"]


class FaultController:
    """Per-session fault state: a schedule, a frame clock, and OBS plumbing.

    Args:
        schedule: The concrete event timeline to apply.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.now: float = 0.0
        self.frame_index: int = -1
        self._has_attenuation = any(
            e.kind in (FaultKind.BLOCKAGE, FaultKind.SNR_DIP)
            for e in schedule.events
        )
        self._started: Set[int] = set()

    # ------------------------------------------------------------ per frame

    def begin_frame(
        self, frame_index: int, now: float, users: Sequence[int]
    ) -> List[int]:
        """Advance the fault clock to ``now`` and report active membership.

        Emits one ``fault.<kind>.active_frames`` count per active windowed
        event kind and frame, plus a ``fault.<kind>.events`` count (and a
        trace event carrying the window and target) the first frame each
        event is seen.
        """
        self.frame_index = frame_index
        self.now = now
        if OBS.mode:
            for event in self.schedule.events_active_at(now):
                kind = event.kind.value
                OBS.count(f"fault.{kind}.active_frames")
                event_id = id(event)
                if event_id not in self._started:
                    self._started.add(event_id)
                    OBS.count(f"fault.{kind}.events")
                    OBS.event(
                        f"fault.{kind}",
                        event.start_s,
                        event.end_s,
                        frame=frame_index,
                        user=event.user,
                        magnitude_db=event.magnitude_db,
                        probability=event.probability,
                    )
        return self.schedule.active_users(users, now)

    # -------------------------------------------------------------- queries

    def rss_offsets_db(
        self, users: Sequence[int], ap: Optional[int] = None
    ) -> Optional[np.ndarray]:
        """Signed RSS offsets of ``users``' links to AP ``ap`` at the
        current frame time, aligned with ``users``.

        ``ap=None`` means AP 0.

        The result is ``None`` — no offsets at all — when the schedule
        holds no blockage or SNR-dip event, so fault-free links skip the
        per-user lookups.
        """
        if not self._has_attenuation:
            return None
        return np.fromiter(
            (self.schedule.rss_offset_db(self.now, u, ap=ap) for u in users),
            dtype=np.float64,
            count=len(users),
        )

    def erasure_scale(self) -> float:
        """Factor to multiply delivery probabilities by (1.0 = no erasure)."""
        return 1.0 - self.schedule.erasure_prob(self.now)

    def feedback_lost(self, user: int) -> bool:
        """Whether ``user``'s feedback report is lost this frame."""
        return self.schedule.feedback_lost(self.now, user)

    def beacon_lost(self) -> bool:
        """Whether the beacon update due this frame is lost."""
        return self.schedule.beacon_lost(self.now)

    # ------------------------------------------------------------- factory

    @classmethod
    def from_config(
        cls,
        config: FaultConfig,
        duration_s: float,
        users: Sequence[int],
        extra_events: Tuple[FaultEvent, ...] = (),
        n_aps: int = 1,
    ) -> "FaultController":
        """Generate the seeded schedule for ``config`` and bind it."""
        schedule = FaultSchedule.generate(
            config, duration_s, users, extra_events=extra_events, n_aps=n_aps
        )
        return cls(schedule)

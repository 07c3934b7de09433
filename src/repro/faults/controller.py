"""Binds one :class:`FaultSchedule` to one running streaming session.

The controller is the single object the pipeline talks to: the session
calls :meth:`begin_frame` once per frame (which advances the fault clock,
resolves receiver membership and emits the ``fault.*`` observability
counters/events), and the stages/transmitter issue point queries against
the frozen per-frame clock.  Keeping the clock on the controller means the
transmitter and link wrapper see frame-time-accurate windows without
threading ``now`` through every call signature.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from ..obs import OBS
from .config import FaultConfig
from .injectors import FaultedLinkModel
from .schedule import FaultEvent, FaultKind, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..transport.link import LinkModel

__all__ = ["FaultController", "ApScopedFaults"]


class FaultController:
    """Per-session fault state: a schedule, a frame clock, and OBS plumbing.

    Args:
        schedule: The concrete event timeline to apply.
        config: Graceful-degradation knobs (retry bounds, stale decay);
            defaults to a plain :class:`FaultConfig`.
    """

    def __init__(
        self, schedule: FaultSchedule, config: Optional[FaultConfig] = None
    ) -> None:
        self.schedule = schedule
        self.config = config if config is not None else FaultConfig()
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

    def rss_offset_db(self, user: int, ap: Optional[int] = None) -> float:
        """Signed RSS offset for ``user`` at the current frame time.

        ``ap`` scopes the query to one AP's link; ``None`` means AP 0.
        """
        return self.schedule.rss_offset_db(self.now, user, ap=ap)

    def erasure_scale(self) -> float:
        """Factor to multiply delivery probabilities by (1.0 = no erasure)."""
        return 1.0 - self.schedule.erasure_prob(self.now)

    def feedback_lost(self, user: int) -> bool:
        """Whether ``user``'s feedback report is lost this frame."""
        return self.schedule.feedback_lost(self.now, user)

    def beacon_lost(self) -> bool:
        """Whether the beacon update due this frame is lost."""
        return self.schedule.beacon_lost(self.now)

    def wrap_link(self, link: "LinkModel"):
        """``link`` seen through the active attenuation faults.

        Returns the original model untouched when the schedule contains no
        blockage/SNR-dip events at all, keeping the common path allocation-
        free.
        """
        if not self._has_attenuation:
            return link
        return FaultedLinkModel(link, self)

    def for_ap(self, ap: int) -> "ApScopedFaults":
        """This controller's queries scoped to AP ``ap``'s links.

        The scoped view shares the controller's frame clock and schedule;
        only the AP tag on attenuation queries changes.  The multi-AP
        transmitter hands each per-AP pass its own view so an AP-tagged
        blockage burst attenuates exactly one AP's links.
        """
        return ApScopedFaults(self, ap)

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
        return cls(schedule, config)


class ApScopedFaults:
    """A :class:`FaultController` view pinned to one AP's links.

    Exposes the query surface the transmitter and feedback stages use
    (``rss_offset_db`` / ``erasure_scale`` / ``feedback_lost`` /
    ``beacon_lost`` / ``wrap_link``), delegating to the shared controller
    with the AP tag applied.  :class:`FaultedLinkModel` only ever calls
    ``rss_offset_db(user)``, so wrapping a link with this view scopes its
    attenuation per AP with no transmitter changes.
    """

    def __init__(self, controller: FaultController, ap: int) -> None:
        self.controller = controller
        self.ap = int(ap)

    def rss_offset_db(self, user: int) -> float:
        return self.controller.rss_offset_db(user, ap=self.ap)

    def erasure_scale(self) -> float:
        return self.controller.erasure_scale()

    def feedback_lost(self, user: int) -> bool:
        return self.controller.feedback_lost(user)

    def beacon_lost(self) -> bool:
        return self.controller.beacon_lost()

    def wrap_link(self, link: "LinkModel"):
        if not self.controller._has_attenuation:
            return link
        return FaultedLinkModel(link, self)

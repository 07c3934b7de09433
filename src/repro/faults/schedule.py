"""Seeded, declarative fault timelines.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent` windows —
*what* goes wrong, *when*, and *to whom* — decoupled from the pipeline seams that
apply them.  Schedules are either written out explicitly (tests, targeted
chaos runs) or drawn from a :class:`~repro.faults.config.FaultConfig` by
:meth:`FaultSchedule.generate`, which uses Poisson arrivals from a seeded
generator so the same ``(config, duration, users)`` triple always produces
the same timeline: chaos runs are reproducible by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..types import validate_seed
from .config import (
    BEACON_LOSS_DURATION_S,
    CHURN_DOWNTIME_S,
    ERASURE_DURATION_S,
    ERASURE_PROB,
    FEEDBACK_LOSS_DURATION_S,
    SNR_DIP_DEPTH_DB,
    SNR_DIP_DURATION_S,
    FaultConfig,
)

__all__ = ["FaultKind", "FaultEvent", "FaultSchedule"]


class FaultKind(enum.Enum):
    """Every impairment the injection layer knows how to apply."""

    BLOCKAGE = "blockage"
    SNR_DIP = "snr_dip"
    ERASURE = "erasure"
    FEEDBACK_LOSS = "feedback_loss"
    BEACON_LOSS = "beacon_loss"
    LEAVE = "leave"
    JOIN = "join"


#: Kinds that describe a time window rather than an instantaneous edge.
_WINDOWED = frozenset(
    {
        FaultKind.BLOCKAGE,
        FaultKind.SNR_DIP,
        FaultKind.ERASURE,
        FaultKind.FEEDBACK_LOSS,
        FaultKind.BEACON_LOSS,
    }
)

#: Kinds that must name a specific user.
_PER_USER = frozenset({FaultKind.LEAVE, FaultKind.JOIN})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled impairment.

    Attributes:
        kind: What goes wrong.
        start_s: When the window opens (or, for churn, when the edge fires).
        duration_s: Window length; zero for the instantaneous churn kinds.
        user: Target user, or ``None`` for an all-user event.
        magnitude_db: RSS attenuation (blockage / SNR-dip kinds).
        probability: Erasure probability (erasure kind).
        ap: Target access point, or ``None`` for an every-AP event.  A
            human body blocks the LoS *to one AP*; the reflection-rich path
            to a differently-placed AP survives — per-AP blockage is what
            makes failover a scenario.  Single-AP schedules leave this
            ``None``, so existing timelines behave exactly as before.
    """

    kind: FaultKind
    start_s: float
    duration_s: float = 0.0
    user: Optional[int] = None
    magnitude_db: float = 0.0
    probability: float = 0.0
    ap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigurationError(
                f"{self.kind.value} event start must be non-negative, "
                f"got {self.start_s}"
            )
        if self.duration_s < 0:
            raise ConfigurationError(
                f"{self.kind.value} event duration must be non-negative, "
                f"got {self.duration_s}"
            )
        if self.kind in _WINDOWED and self.duration_s <= 0:
            raise ConfigurationError(
                f"{self.kind.value} event needs a positive duration"
            )
        if self.kind in _PER_USER and self.user is None:
            raise ConfigurationError(
                f"{self.kind.value} event must name a user"
            )
        if self.magnitude_db < 0:
            raise ConfigurationError(
                f"magnitude_db must be non-negative, got {self.magnitude_db}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.ap is not None and self.ap < 0:
            raise ConfigurationError(f"ap must be None or >= 0, got {self.ap}")

    @property
    def end_s(self) -> float:
        """When the window closes."""
        return self.start_s + self.duration_s

    def active_at(self, now: float) -> bool:
        """Whether the window covers ``now`` (half-open ``[start, end)``)."""
        return self.start_s <= now < self.end_s

    def applies_to(self, user: int) -> bool:
        """Whether this event targets ``user`` (all-user events always do)."""
        return self.user is None or self.user == user

    def applies_to_ap(self, ap: Optional[int]) -> bool:
        """Whether this event reaches the link to AP ``ap``.

        An untagged event (``self.ap is None``) reaches every AP; an
        untagged *query* (``ap is None``) means AP 0.
        """
        return self.ap is None or self.ap == (ap if ap is not None else 0)


@dataclass
class FaultSchedule:
    """An ordered fault timeline with the per-frame queries the pipeline needs."""

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(
            self.events, key=lambda e: (e.start_s, e.kind.value, e.user or -1)
        )
        self._churn_by_user: Dict[int, List[FaultEvent]] = {}
        for event in self.events:
            if event.kind in _PER_USER:
                assert event.user is not None
                self._churn_by_user.setdefault(event.user, []).append(event)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------- queries

    def active(
        self, kind: FaultKind, now: float, user: Optional[int] = None
    ) -> List[FaultEvent]:
        """Events of ``kind`` whose window covers ``now`` (and ``user``)."""
        return [
            e
            for e in self.events
            if e.kind is kind
            and e.active_at(now)
            and (user is None or e.applies_to(user))
        ]

    def events_active_at(self, now: float) -> List[FaultEvent]:
        """Every windowed event covering ``now`` (for observability)."""
        return [e for e in self.events if e.kind in _WINDOWED and e.active_at(now)]

    def rss_offset_db(
        self, now: float, user: int, ap: Optional[int] = None
    ) -> float:
        """Signed RSS offset (dB, <= 0) applied to ``user`` at ``now``.

        Concurrent blockage bursts and SNR dips stack — two bodies in the
        LoS attenuate more than one.  ``ap`` scopes the query to one AP's
        link; ``None`` means AP 0.
        """
        return -sum(
            e.magnitude_db
            for e in self.events
            if e.kind in (FaultKind.BLOCKAGE, FaultKind.SNR_DIP)
            and e.active_at(now)
            and e.applies_to(user)
            and e.applies_to_ap(ap)
        )

    def erasure_prob(self, now: float) -> float:
        """Combined erasure probability at ``now``.

        Overlapping bursts erase independently:
        ``1 - prod(1 - p_i)`` over the active bursts.
        """
        survive = 1.0
        for event in self.events:
            if event.kind is FaultKind.ERASURE and event.active_at(now):
                survive *= 1.0 - event.probability
        return 1.0 - survive

    def feedback_lost(self, now: float, user: int) -> bool:
        """Whether ``user``'s feedback report is lost at ``now``."""
        return any(
            e.active_at(now) and e.applies_to(user)
            for e in self.events
            if e.kind is FaultKind.FEEDBACK_LOSS
        )

    def beacon_lost(self, now: float) -> bool:
        """Whether a beacon (CSI + re-optimization) update is lost at ``now``."""
        return any(
            e.active_at(now)
            for e in self.events
            if e.kind is FaultKind.BEACON_LOSS
        )

    def active_users(self, users: Sequence[int], now: float) -> List[int]:
        """The subset of ``users`` present in the session at ``now``.

        Every user starts present; ``LEAVE``/``JOIN`` edges with
        ``start_s <= now`` toggle presence in start order (schedule a
        ``LEAVE`` at 0 plus a later ``JOIN`` to model a late joiner).
        """
        out = []
        for user in users:
            present = True
            for event in self._churn_by_user.get(user, ()):
                if event.start_s > now:
                    break
                present = event.kind is FaultKind.JOIN
            if present:
                out.append(user)
        return out

    # ---------------------------------------------------------- generation

    @classmethod
    def generate(
        cls,
        config: FaultConfig,
        duration_s: float,
        users: Sequence[int],
        extra_events: Iterable[FaultEvent] = (),
        n_aps: int = 1,
    ) -> "FaultSchedule":
        """Draw a concrete timeline from ``config``'s rates.

        Arrivals per axis are Poisson with the configured rate, start times
        uniform over ``[0, duration_s)``.  Draw order is fixed (axis by
        axis, users in sorted order), so a given ``(config, duration_s,
        users)`` triple is fully reproducible.

        With ``n_aps > 1``, blockage bursts are drawn independently per
        ``(user, AP)`` link — AP 0's bursts for every user are drawn first,
        in exactly the single-AP order, so the AP-0 timeline reuses the
        draws the single-AP schedule would — and each burst is tagged with
        the AP it crosses.  All other axes stay untagged
        (an SNR dip or erasure burst hits the room, not one link).
        ``n_aps == 1`` leaves every event untagged, matching earlier
        versions bit for bit.
        """
        if duration_s <= 0:
            raise ConfigurationError(
                f"schedule duration must be positive, got {duration_s}"
            )
        if n_aps < 1:
            raise ConfigurationError(f"n_aps must be >= 1, got {n_aps}")
        rng = validate_seed(config.seed)
        ordered_users = sorted(users)
        events: List[FaultEvent] = list(extra_events)

        def starts(rate_hz: float) -> np.ndarray:
            count = int(rng.poisson(rate_hz * duration_s)) if rate_hz > 0 else 0
            return np.sort(rng.uniform(0.0, duration_s, size=count))

        # AP 0 first across every user — exactly the single-AP draw order —
        # then each extra AP's bursts, so the AP-0 timeline of a multi-AP
        # schedule replays the single-AP schedule's draws verbatim.
        for ap in range(n_aps):
            for user in ordered_users:
                for start in starts(config.blockage_rate_hz):
                    events.append(
                        FaultEvent(
                            FaultKind.BLOCKAGE, float(start),
                            config.blockage_duration_s, user=user,
                            magnitude_db=config.blockage_depth_db,
                            ap=ap if n_aps > 1 else None,
                        )
                    )
        for start in starts(config.snr_dip_rate_hz):
            events.append(
                FaultEvent(
                    FaultKind.SNR_DIP, float(start),
                    SNR_DIP_DURATION_S,
                    magnitude_db=SNR_DIP_DEPTH_DB,
                )
            )
        for start in starts(config.erasure_rate_hz):
            events.append(
                FaultEvent(
                    FaultKind.ERASURE, float(start),
                    ERASURE_DURATION_S,
                    probability=ERASURE_PROB,
                )
            )
        for user in ordered_users:
            for start in starts(config.feedback_loss_rate_hz):
                events.append(
                    FaultEvent(
                        FaultKind.FEEDBACK_LOSS, float(start),
                        FEEDBACK_LOSS_DURATION_S, user=user,
                    )
                )
        for start in starts(config.beacon_loss_rate_hz):
            events.append(
                FaultEvent(
                    FaultKind.BEACON_LOSS, float(start),
                    BEACON_LOSS_DURATION_S,
                )
            )
        for user in ordered_users:
            for start in starts(config.churn_rate_hz):
                events.append(
                    FaultEvent(FaultKind.LEAVE, float(start), user=user)
                )
                events.append(
                    FaultEvent(
                        FaultKind.JOIN,
                        float(start) + CHURN_DOWNTIME_S,
                        user=user,
                    )
                )
        return cls(events=events)

    def summary(self) -> Dict[str, int]:
        """Event counts per kind (for reports and the chaos CLI)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind.value] = counts.get(event.kind.value, 0) + 1
        return counts

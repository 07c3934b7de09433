"""Per-user AP association for multi-AP topologies.

Generalises the transport layer's implicit "the AP" to an
``(n_aps, n_users)`` axis: an RSS matrix over every AP/user link, a
strongest-RSS association rule with hysteresis (ping-pong damping, the
standard cellular/WLAN handover primitive).

Association is computed from the *matched-filter* RSS bound
``budget.rss_dbm(||h||^2)`` — the RSS a conjugate beam would deliver —
rather than any concrete group beam: association answers "which AP can
serve this user best", independent of this beacon's grouping.  Fault
offsets (per-AP blockage) feed the same matrix, so a blocked LoS drains
the serving AP's column and failover emerges from the ordinary handover
rule instead of a special case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..errors import TransportError
from ..obs import OBS
from ..phy.channel import ChannelState, LinkBudget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.controller import FaultController

__all__ = ["ApAssociationPolicy", "association_rss_matrix", "HYSTERESIS_DB"]

#: A user leaves its serving AP only when a challenger's RSS beats the
#: serving AP's by more than this margin.
HYSTERESIS_DB = 3.0


def association_rss_matrix(
    state: ChannelState,
    users: Sequence[int],
    budget: LinkBudget,
    faults: Optional["FaultController"] = None,
) -> np.ndarray:
    """Matched-filter RSS bound per ``(ap, user)`` link, in dBm.

    One vectorized pass: stack every AP's channels for the selected users,
    take ``||h||^2`` row-wise, and apply the link-budget scalars.  Zero
    channels map to ``-inf`` (unreachable), matching
    :meth:`LinkBudget.rss_dbm`.  With a fault controller, each entry is
    shifted by that link's blockage/SNR-dip offset at the current frame
    time.
    """
    if not users:
        raise TransportError("association needs at least one user")
    n_aps = state.n_aps
    gains = np.empty((n_aps, len(users)))
    for ap in range(n_aps):
        ap_state = state.for_ap(ap)
        stacked = ap_state.stacked(users)
        gains[ap] = np.sum(np.abs(stacked) ** 2, axis=1)
    rss = np.full_like(gains, -np.inf)
    positive = gains > 0.0
    rss[positive] = (
        budget.tx_power_dbm
        + budget.rx_gain_db
        - budget.implementation_loss_db
        + 10.0 * np.log10(gains[positive])
    )
    if faults is not None:
        for ap in range(n_aps):
            offsets = faults.rss_offsets_db(users, ap)
            if offsets is not None:
                rss[ap] += offsets
    return rss


class ApAssociationPolicy:
    """Strongest-RSS association with ``HYSTERESIS_DB`` of hysteresis.

    Args:
        n_aps: Access points in the topology.
        budget: Link budget used for the RSS bound.
    """

    def __init__(self, n_aps: int, budget: LinkBudget) -> None:
        if n_aps < 1:
            raise TransportError(f"n_aps must be >= 1, got {n_aps}")
        self.n_aps = int(n_aps)
        self.budget = budget
        self.serving: Dict[int, int] = {}
        self._secondary: Dict[int, Optional[int]] = {}

    def update(
        self,
        state: ChannelState,
        users: Sequence[int],
        faults: Optional["FaultController"] = None,
    ) -> Dict[int, int]:
        """Re-evaluate association for ``users`` against a fresh snapshot.

        Users are processed in the given order, so the handover sequence
        is a pure function of the call sequence.  Users not seen before
        associate to their strongest AP outright; known users keep their
        serving AP unless a challenger clears the hysteresis margin.
        Departed users are evicted so a later rejoin re-associates fresh.
        """
        users = list(users)
        rss = association_rss_matrix(state, users, self.budget, faults=faults)
        for column, user in enumerate(users):
            column_rss = rss[:, column]
            best = int(np.argmax(column_rss))
            current = self.serving.get(user)
            if current is None:
                self.serving[user] = best
            elif (
                best != current
                and column_rss[best] > column_rss[current] + HYSTERESIS_DB
            ):
                self.serving[user] = best
                if OBS.mode:
                    OBS.count("transport.association.handover")
                    OBS.count(f"transport.association.handover.user.{user}")
            if self.n_aps > 1:
                order = np.argsort(column_rss)[::-1]
                runner_up = int(order[1]) if order[0] == self.serving[user] else int(order[0])
                self._secondary[user] = (
                    runner_up if np.isfinite(column_rss[runner_up]) else None
                )
            else:
                self._secondary[user] = None
        present = set(users)
        for user in [u for u in self.serving if u not in present]:
            del self.serving[user]
            self._secondary.pop(user, None)
        return dict(self.serving)

    def secondary(self, user: int) -> Optional[int]:
        """The best non-serving AP for ``user`` (repair source), if any."""
        return self._secondary.get(user)

    def users_of(self, ap: int) -> List[int]:
        """Users currently served by AP ``ap``, sorted."""
        return sorted(u for u, a in self.serving.items() if a == ap)

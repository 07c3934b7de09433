"""Emulated WiGig data link: SNR-margin packet loss and pseudo multicast.

Packet error rate is a steep function of the margin between the receiver's
true RSS (under the active beam) and the sensitivity of the MCS the packet is
modulated at — the defining fragility of mmWave links: a few dB of channel
degradation below sensitivity kills the link.

Pseudo multicast (Sec 3.2): one STA is associated normally and keeps 802.11
MAC retransmissions (its effective loss is ``PER^(1+retries)``); the other
STAs run in monitor mode, capture frames not addressed to them, and see the
raw PER.

Fault injection enters as data: blockage bursts and SNR dips are per-user
RSS offsets (:meth:`repro.faults.FaultController.rss_offsets_db`) passed to
:meth:`LinkModel.delivery_probability_array`, which shifts the received
strength before the PER mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import TransportError
from ..obs import OBS
from ..phy.channel import ChannelModel, ChannelState
from ..phy.mcs import McsEntry

#: PER at exactly the MCS sensitivity.
_PER_AT_SENSITIVITY = 1e-2

#: PER floor for strong links (residual interference/collisions).
_PER_FLOOR = 1e-4

#: PER ceiling (even a dead link occasionally delivers a packet).
_PER_CEILING = 0.97


def packet_error_rate(margin_db: float) -> float:
    """Packet error rate as a function of SNR margin above MCS sensitivity.

    One decade per dB above sensitivity (fast waterfall), half a decade per
    dB below it (progressive collapse as the channel degrades under the
    selected MCS).
    """
    if margin_db >= 0:
        per = _PER_AT_SENSITIVITY * 10.0 ** (-margin_db)
    else:
        per = _PER_AT_SENSITIVITY * 10.0 ** (-margin_db / 2.0)
    return float(np.clip(per, _PER_FLOOR, _PER_CEILING))


@dataclass
class LinkModel:
    """Per-packet delivery decisions through the true channel.

    Args:
        channel_model: Supplies the link budget for RSS computation.
        associated_user: The STA associated with the AP (MAC retransmissions
            apply); all others are monitor-mode receivers.
        mac_retries: 802.11 retransmission attempts for the associated STA.
    """

    channel_model: ChannelModel
    associated_user: Optional[int] = None
    mac_retries: int = 2

    def delivery_probability_array(
        self,
        user_ids: Sequence[int],
        beam: np.ndarray,
        true_state: ChannelState,
        mcs: McsEntry,
        rss_offsets_db: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Delivery probabilities for a whole cohort under one beam/MCS.

        The link's one delivery-probability entry point: a single receiver
        is a one-element cohort.  The margin/offset arithmetic and the final
        ``1 - PER`` step run as whole-vector operations.  Two steps stay
        scalar per element, because the golden suites pin their last bit:

        * the beam-gain dot product — BLAS batches a stacked ``(n, Nt) @
          beam`` through a different kernel than the per-user ``vdot``,
          which can differ in the last ulp;
        * the ``10 ** -margin`` PER mapping — numpy's SIMD ``power`` ufunc
          differs from the scalar libm ``pow`` by 1-2 ulp over the
          unclipped PER band.

        Both run once per (group, beam) per frame and are memoized by the
        transmitter, so they are off the per-symbol hot path.  With
        observability on, the ``link.*`` counter, histogram and per-user
        gauges are recorded from the result; the arithmetic is the same
        in every mode.

        Args:
            user_ids: Cohort members, in draw-column order.
            beam: Active transmit beam.
            true_state: Ground-truth channels.
            mcs: Modulation the packets are sent at.
            rss_offsets_db: Optional per-user RSS offsets (fault
                attenuation), aligned with ``user_ids``.

        Returns:
            ``float64`` array of per-user delivery probabilities, aligned
            with ``user_ids``.
        """
        users = list(user_ids)
        missing = [u for u in users if u not in true_state.channels]
        if missing:
            raise TransportError(f"no channel for user {missing[0]}")
        rss = np.fromiter(
            (
                self.channel_model.rss_dbm(beam, true_state.channels[u])
                for u in users
            ),
            dtype=np.float64,
            count=len(users),
        )
        if rss_offsets_db is not None:
            rss += rss_offsets_db
        margins = rss - mcs.sensitivity_dbm
        per = np.fromiter(
            (packet_error_rate(m) for m in margins),
            dtype=np.float64,
            count=len(users),
        )
        if self.associated_user is not None and self.associated_user in users:
            i = users.index(self.associated_user)
            per[i] = per[i] ** (1 + max(0, self.mac_retries))
        probs = 1.0 - per
        if OBS.mode and users:
            OBS.count("link.prob_evals", len(users))
            for user, user_rss, margin, prob in zip(
                users, rss.tolist(), margins.tolist(), probs.tolist()
            ):
                OBS.observe("link.delivery_prob", prob)
                OBS.set_gauge(f"link.user.{user}.rss_dbm", user_rss)
                OBS.set_gauge(f"link.user.{user}.margin_db", margin)
        return probs

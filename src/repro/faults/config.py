"""The ``faults`` configuration block: declarative fault-injection knobs.

:class:`FaultConfig` is embedded in :class:`repro.core.SystemConfig` and
describes *rates* of impairments (and a blockage burst's shape), not
concrete occurrences — the concrete, seeded event timeline is drawn from it
by :meth:`repro.faults.schedule.FaultSchedule.generate`.  All rates default to
zero, so the default config injects nothing and the streaming pipeline is
bit-identical to a fault-free run.

The axes mirror the paper's hostile-60 GHz impairments:

* **blockage bursts** — deep per-user attenuation (walking blockers
  crossing the LoS, Sec 2.5),
* **SNR dips** — shallower, longer, all-user degradation (beam
  misalignment under mobility),
* **erasure bursts** — correlated packet loss independent of the channel
  (interference, firmware hiccups),
* **feedback loss** — per-user bandwidth reports that never arrive
  (Sec 4: lossy feedback on commodity QCA6320 radios),
* **beacon loss** — CSI/re-optimization beacons dropped at the AP, and
* **churn** — receivers leaving and rejoining mid-session.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


# Every fault window's shape but the blockage burst's is a constant: the
# failover curve varies blockage over its realisations, as Drago et al.
# (arXiv 1711.06154) do, and no experiment varies the other shapes.

#: Length of one all-user SNR dip and the attenuation it applies.
SNR_DIP_DURATION_S = 0.4
SNR_DIP_DEPTH_DB = 6.0
#: Length of one erasure burst and the chance a packet inside it is erased.
ERASURE_DURATION_S = 0.05
ERASURE_PROB = 0.5
#: Length of one per-user feedback outage and of one beacon outage.
FEEDBACK_LOSS_DURATION_S = 0.2
BEACON_LOSS_DURATION_S = 0.15
#: How long a departed receiver stays away before rejoining.
CHURN_DOWNTIME_S = 0.3

#: Graceful degradation: consecutive frames the planner retries a lost
#: beacon update before giving up until the next beacon boundary.
MAX_BEACON_RETRIES = 3
#: Graceful degradation: multiplicative decay of a receiver's
#: last-known-good bandwidth estimate per frame its feedback is lost.
STALE_DECAY = 0.9

#: The arrival-rate fields, one per fault axis.
RATE_FIELDS = (
    "blockage_rate_hz", "snr_dip_rate_hz", "erasure_rate_hz",
    "feedback_loss_rate_hz", "beacon_loss_rate_hz", "churn_rate_hz",
)


@dataclass(frozen=True)
class FaultConfig:
    """Arrival rates of schedulable faults, and the blockage burst's shape.

    Attributes:
        seed: Seed for drawing the concrete event timeline; the same seed
            (with the same duration and user set) always yields the same
            :class:`~repro.faults.schedule.FaultSchedule`.
        blockage_rate_hz: Per-user blockage-burst arrivals per second.
        blockage_duration_s: Length of one blockage burst.
        blockage_depth_db: Attenuation applied to the blocked user's RSS.
        snr_dip_rate_hz: All-user SNR-dip arrivals per second.
        erasure_rate_hz: Erasure-burst arrivals per second.
        feedback_loss_rate_hz: Per-user feedback-outage arrivals per second.
        beacon_loss_rate_hz: Beacon-outage arrivals per second.
        churn_rate_hz: Per-user leave arrivals per second.
    """

    seed: int = 0
    blockage_rate_hz: float = 0.0
    blockage_duration_s: float = 0.12
    blockage_depth_db: float = 18.0
    snr_dip_rate_hz: float = 0.0
    erasure_rate_hz: float = 0.0
    feedback_loss_rate_hz: float = 0.0
    beacon_loss_rate_hz: float = 0.0
    churn_rate_hz: float = 0.0

    def __post_init__(self) -> None:
        for name in RATE_FIELDS:
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be non-negative, got {getattr(self, name)}"
                )
        if self.blockage_duration_s <= 0:
            raise ConfigurationError(
                f"blockage_duration_s must be positive, got {self.blockage_duration_s}"
            )
        if self.blockage_depth_db < 0:
            raise ConfigurationError(
                f"blockage_depth_db must be non-negative, got {self.blockage_depth_db}"
            )

    @property
    def enabled(self) -> bool:
        """True when any fault axis has a non-zero arrival rate."""
        return any(getattr(self, name) > 0 for name in RATE_FIELDS)

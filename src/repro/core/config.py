"""System-wide configuration for the multicast streaming pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..errors import ConfigurationError
from ..faults.config import FaultConfig
from ..phy.topology import TopologyConfig, coerce_topology
from ..types import AdaptationPolicy, BeamformingScheme, SchedulerKind

#: True 4K pixel count; reduced-resolution emulation scales link rates by
#: the pixel ratio so the data-to-rate regime matches the paper's testbed.
_UHD_PIXELS = 3840 * 2160


@dataclass
class SystemConfig:
    """Every knob of the end-to-end system, with the paper's defaults.

    Attributes:
        height, width: Emulated frame resolution.  The codec and pipeline
            are resolution-agnostic; the default keeps decodes cheap while
            :attr:`rate_scale` preserves 4K scheduling pressure.
        fps: Live frame rate (paper: 30).
        scheme: Beamforming scheme (the Sec 4.2.1 comparison axis).
        scheduler: Optimized (Problem 1) or round-robin.
        adaptation: Real-time update vs no-update (Sec 4.3.4 axis).
        rate_control: Leaky-bucket pacing on/off (Fig 9 axis).
        source_coding: Fountain coding on/off (Fig 10/14 axis).
        fountain_codec: Which rateless codec encodes coding units:
            ``"dense"`` (default, the golden-pinned random-linear code) or
            ``"precode"`` (RaptorQ-style LDPC+HDPC precode with
            inactivation decoding; same systematic wire framing, sparse
            repair symbols).  The default stays bit-identical to earlier
            versions.
        min_group_rate_mbps: Group pruning threshold (Sec 2.4).
        max_group_size: Cap on multicast group membership during candidate
            enumeration.  ``None`` (default) enumerates unbounded
            azimuth-contiguous windows, exactly as before; setting a cap
            bounds the candidate count to O(N x cap) so thousand-receiver
            cohort sweeps plan in linear time.
        traffic_penalty_per_byte: The paper's lambda.
        no_update_beam_tracking: When True (default) the No-Update baseline
            keeps a predefined codebook sector aligned per beacon — 802.11ad
            NICs perform this beam tracking autonomously in firmware — while
            MCS, groups, optimized beam weights and the time allocation stay
            frozen at t=0.  Set False to freeze beams entirely (ablation).
        beacon_interval_s: ACO beacon (CSI + re-optimization) period.
        faults: Fault-injection block (:class:`repro.faults.FaultConfig`).
            All rates default to zero, so the default config streams
            fault-free and bit-identically to earlier versions; a mapping
            is accepted and coerced (JSON/CLI-driven construction).
        topology: Optional multi-AP block
            (:class:`repro.phy.TopologyConfig`).  ``None`` (default) is a
            one-AP session, identical to ``num_aps == 1``; ``num_aps > 1``
            adds AP association, handover and cross-AP coded repair to the
            same pipeline.  A mapping is accepted and coerced.
    """

    height: int = 288
    width: int = 512
    fps: int = 30
    scheme: BeamformingScheme = BeamformingScheme.OPTIMIZED_MULTICAST
    scheduler: SchedulerKind = SchedulerKind.OPTIMIZED
    adaptation: AdaptationPolicy = AdaptationPolicy.REALTIME_UPDATE
    rate_control: bool = True
    source_coding: bool = True
    fountain_codec: str = "dense"
    min_group_rate_mbps: float = 200.0
    max_group_size: Optional[int] = None
    traffic_penalty_per_byte: float = 1e-9
    beacon_interval_s: float = 0.1
    mcs_backoff_db: float = 2.0
    retransmit_reserve: float = 0.15
    no_update_beam_tracking: bool = True
    faults: FaultConfig = field(default_factory=FaultConfig)
    topology: Optional[TopologyConfig] = None

    def __post_init__(self) -> None:
        if isinstance(self.faults, Mapping):
            self.faults = FaultConfig(**self.faults)
        self.topology = coerce_topology(self.topology)
        if self.height % 16 or self.width % 16:
            raise ConfigurationError(
                f"resolution must be multiples of 16, got {self.height}x{self.width}"
            )
        if self.fps <= 0:
            raise ConfigurationError(f"fps must be positive, got {self.fps}")
        if self.beacon_interval_s <= 0:
            raise ConfigurationError(
                f"beacon interval must be positive, got {self.beacon_interval_s}"
            )
        if self.max_group_size is not None and self.max_group_size < 2:
            raise ConfigurationError(
                f"max_group_size must be at least 2, got {self.max_group_size}"
            )
        if self.fountain_codec not in ("dense", "precode"):
            raise ConfigurationError(
                "fountain_codec must be 'dense' or 'precode', got "
                f"{self.fountain_codec!r}"
            )
        if not 0.0 <= self.retransmit_reserve < 1.0:
            raise ConfigurationError(
                f"retransmit_reserve must be in [0, 1), got {self.retransmit_reserve}"
            )

    @property
    def frame_budget_s(self) -> float:
        """Per-frame transmission deadline, 1/FR."""
        return 1.0 / self.fps

    @property
    def plan_budget_s(self) -> float:
        """Airtime Problem 1 may schedule; the rest is kept in reserve for
        feedback-driven retransmissions ("feedbacks and all retransmissions
        should finish within 33 ms", Sec 2.6)."""
        return self.frame_budget_s * (1.0 - self.retransmit_reserve)

    @property
    def rate_scale(self) -> float:
        """Link-rate divisor for reduced-resolution emulation: link rates
        shrink by the pixel ratio, so any resolution carries 4K load."""
        return _UHD_PIXELS / float(self.height * self.width)

    @property
    def frames_per_beacon(self) -> int:
        """Video frames between consecutive re-optimizations."""
        return max(1, int(round(self.beacon_interval_s * self.fps)))

    @property
    def num_aps(self) -> int:
        """Access points the configured topology asks for (1 when absent)."""
        return self.topology.num_aps if self.topology is not None else 1

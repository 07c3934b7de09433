"""Packet transport over emulated WiGig links (Sec 2.6-2.7, 3.2).

Simulates the UDP data path of the testbed at packet granularity inside the
frame deadline: leaky-bucket pacing per multicast group, SNR-margin packet
loss with pseudo-multicast asymmetry (the associated STA enjoys MAC
retransmissions; monitor-mode STAs do not), sublayer-level reception
feedback with fountain-coded makeup packets, receiver-side bandwidth
estimation, and — for the Fig 9 ablation — an unpaced kernel queue that
tail-drops on overflow.
"""

from .link import LinkModel, packet_error_rate
from .kernel_queue import KernelQueue
from .bandwidth import CohortBandwidthEstimator, CohortBandwidthView
from .cohort import CohortUserReception, FrameCohort, UserTallies
from .association import (
    ApAssociationPolicy,
    association_rss_matrix,
)
from .transmitter import FrameTransmitter, TransmissionResult

__all__ = [
    "ApAssociationPolicy",
    "association_rss_matrix",
    "LinkModel",
    "packet_error_rate",
    "KernelQueue",
    "CohortBandwidthEstimator",
    "CohortBandwidthView",
    "CohortUserReception",
    "FrameCohort",
    "UserTallies",
    "FrameTransmitter",
    "TransmissionResult",
]

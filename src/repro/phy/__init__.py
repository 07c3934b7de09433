"""60 GHz PHY substrate: arrays, propagation, ray tracing, MCS, mobility.

This package replaces the paper's hardware and proprietary tooling:

* the QCA6320 phased array and its firmware beam control
  (:mod:`repro.phy.antenna`),
* Wireless Insite ray tracing over a lidar-scanned room
  (:mod:`repro.phy.raytracer` — image-method specular reflections over a
  parametric room), and
* the patched-firmware SLS RSS dumps used for ACO CSI estimation
  (:mod:`repro.phy.csi` — noisy CSI estimates and recordable traces).

The MCS/sensitivity/UDP-throughput table is the paper's own Table 2.
"""

from .antenna import PhasedArray
from .channel import ChannelModel, ChannelState, LinkBudget
from .mcs import MCS_TABLE, McsEntry, highest_supported_mcs
from .mobility import EnvironmentMotionModel, RandomWalkModel
from .raytracer import Path, Room, RayTracer
from .csi import CsiEstimator, CsiSnapshot, CsiTrace
from .topology import MAX_APS, AccessPoint, Topology, TopologyConfig

__all__ = [
    "PhasedArray",
    "ChannelModel",
    "ChannelState",
    "LinkBudget",
    "MCS_TABLE",
    "McsEntry",
    "highest_supported_mcs",
    "Room",
    "Path",
    "RayTracer",
    "RandomWalkModel",
    "EnvironmentMotionModel",
    "CsiEstimator",
    "CsiSnapshot",
    "CsiTrace",
    "AccessPoint",
    "Topology",
    "TopologyConfig",
    "MAX_APS",
]

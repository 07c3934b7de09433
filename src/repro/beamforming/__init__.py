"""Beamforming: predefined codebooks, SLS, CSI-optimized unicast/multicast.

Implements the four schemes compared throughout the paper's evaluation
(Sec 4.2.1):

* optimized multicast beamforming — SVD max-sum heuristic for the NP-hard
  max-min problem of Eq. 3,
* pre-defined multicast beam — best single codebook sector for the group,
* optimized unicast beamforming — quantised conjugate beam per user,
* pre-defined unicast beam — best codebook sector per user (plain SLS).
"""

from .codebook import SectorCodebook
from .multicast import (
    max_min_gain,
    max_min_multicast_beam,
    max_min_multicast_beams,
    per_user_gains,
    svd_multicast_beam,
)
from .selection import BeamPlan, GroupBeamPlanner

__all__ = [
    "SectorCodebook",
    "svd_multicast_beam",
    "max_min_multicast_beam",
    "max_min_multicast_beams",
    "max_min_gain",
    "per_user_gains",
    "GroupBeamPlanner",
    "BeamPlan",
]

"""DASH/ABR baselines: Robust MPC and Fast MPC (Sec 4.3.4).

The paper compares against the two best-performing ABR algorithms for live
streaming: Robust MPC and Fast MPC.  Both run DASH-style *unicast* sessions
(each receiver gets a TDMA share of the link), pick chunk bitrates from a
ladder by optimizing a QoE objective over a small horizon, and use standard
codecs — so an undecodable chunk tail freezes the rest of its GoP, the
fragility the layered system avoids.
"""

from .abr import FreezeModel, RateQualityModel, BitrateLadder
from .mpc import FastMpc, RobustMpc, simulate_abr_session, AbrOutcome

__all__ = [
    "RateQualityModel",
    "FreezeModel",
    "BitrateLadder",
    "RobustMpc",
    "FastMpc",
    "simulate_abr_session",
    "AbrOutcome",
]

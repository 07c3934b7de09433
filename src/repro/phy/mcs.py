"""QCA6320 MCS table: sensitivity and measured UDP throughput (paper Table 2).

The paper maps RSS to MCS using the 802.11ad sensitivity table and feeds the
*measured* iperf3 UDP throughput (which includes PHY/MAC overhead) to the
resource optimizer, not the nominal PHY rate.  Entries marked "x" in Table 2
are MCS indices the QCA6320 cannot use for data traffic (0, 5, 9, 9.1 and
everything above 12) — they carry a sensitivity but no rate here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ChannelError


@dataclass(frozen=True)
class McsEntry:
    """One modulation-and-coding scheme.

    Attributes:
        index: MCS index (9.1 is represented as the float 9.1).
        sensitivity_dbm: Minimum RSS at which this MCS is decodable.
        udp_throughput_mbps: Measured UDP goodput, or None when the chipset
            does not support the MCS for data traffic.
    """

    index: float
    sensitivity_dbm: float
    udp_throughput_mbps: Optional[float]

    @property
    def supported(self) -> bool:
        """Whether the QCA6320 can send data traffic at this MCS."""
        return self.udp_throughput_mbps is not None


#: Table 2 of the paper, verbatim.
MCS_TABLE: Tuple[McsEntry, ...] = (
    McsEntry(0, -78.0, None),
    McsEntry(1, -68.0, 300.0),
    McsEntry(2, -66.0, 550.0),
    McsEntry(3, -65.0, 720.0),
    McsEntry(4, -64.0, 850.0),
    McsEntry(5, -62.0, None),
    McsEntry(6, -63.0, 1050.0),
    McsEntry(7, -62.0, 1250.0),
    McsEntry(8, -61.0, 1580.0),
    McsEntry(9, -59.0, None),
    McsEntry(9.1, -57.0, None),
    McsEntry(10, -55.0, 1850.0),
    McsEntry(11, -54.0, 2100.0),
    McsEntry(12, -53.0, 2400.0),
)

#: Sensitivity threshold separating the paper's "high RSS" and "low RSS"
#: mobile regimes (MCS 8, Sec 4.3.4).
HIGH_RSS_THRESHOLD_DBM = -61.0

_SUPPORTED: Tuple[McsEntry, ...] = tuple(e for e in MCS_TABLE if e.supported)

#: The MCS of each level :func:`supported_mcs_levels` returns: None (no data
#: MCS) at level 0, then the data-capable rows of Table 2 in order.
MCS_BY_LEVEL: Tuple[Optional[McsEntry], ...] = (None,) + _SUPPORTED

#: UDP goodput at each level, 0 where the link carries no data.
RATE_BY_LEVEL_MBPS = np.array(
    [0.0] + [float(e.udp_throughput_mbps) for e in _SUPPORTED]
)

_SUPPORTED_SENSITIVITY_DBM = np.array([e.sensitivity_dbm for e in _SUPPORTED])


def highest_supported_mcs(rss_dbm: float) -> Optional[McsEntry]:
    """Highest data-capable MCS whose sensitivity the RSS satisfies.

    Returns None when the RSS is below the weakest data MCS (the link cannot
    carry data traffic at all — e.g. MCS 0 control-only territory).
    """
    best: Optional[McsEntry] = None
    for entry in _SUPPORTED:
        if rss_dbm >= entry.sensitivity_dbm:
            if best is None or entry.udp_throughput_mbps > best.udp_throughput_mbps:
                best = entry
    return best


def supported_mcs_levels(rss_dbm: np.ndarray) -> np.ndarray:
    """:func:`highest_supported_mcs` of every RSS in an array, as levels.

    Level ``l`` stands for ``MCS_BY_LEVEL[l]``.  The data-capable rows'
    sensitivities and goodputs rise together, so the highest-goodput
    decodable row is the number of sensitivities the RSS meets, and the
    level counts exactly the ``>=`` comparisons the scalar form makes
    (``-inf`` and NaN meet none).
    """
    rss = np.asarray(rss_dbm, dtype=float)
    return np.count_nonzero(
        rss[..., None] >= _SUPPORTED_SENSITIVITY_DBM, axis=-1
    )


def entry_for_index(index: float) -> McsEntry:
    """Look up an MCS entry by index."""
    for entry in MCS_TABLE:
        if entry.index == index:
            return entry
    raise ChannelError(f"unknown MCS index {index}")

"""Multi-AP room topologies (ROADMAP item 5, multi-connectivity family).

The paper evaluates a single WiGig AP; the related mmWave literature
(Drago et al., arXiv:1711.06154; Kim et al., arXiv:1302.1663) shows the
big reliability wins come from *multi-connectivity* — several APs covering
the same room so a blocked LoS to one AP fails over to another, and coded
repair symbols from a secondary AP combine at the (rateless) fountain
decoder.

This module makes the AP axis first-class:

* :class:`AccessPoint` — one AP's placement (position + boresight).
* :class:`Topology` — an ordered set of APs bound to a room, with the
  :meth:`Topology.for_room` wall-midpoint factory the emulation uses.
* :class:`TopologyConfig` — the scalar, sweep-overridable configuration
  block embedded in :class:`repro.core.SystemConfig` (``topology.*``
  dotted overrides).  ``None`` / ``num_aps == 1`` degrades to the
  single-AP system bit-identically.

AP 0 is always "the paper's AP": the existing scenario placement against
one wall, centred, boresight along +x.  Every multi-AP structure keeps
AP 0 first so single-AP consumers reading the plain per-user channel dict
see exactly the data they always saw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from ..errors import ConfigurationError
from ..types import Position
from .raytracer import Room

__all__ = ["AccessPoint", "Topology", "TopologyConfig", "MAX_APS"]

#: Wall-midpoint placement supports up to one AP per wall.
MAX_APS = 4

#: AP standoff from its wall in the wall-midpoint layout.
AP_WALL_MARGIN_M = 0.3


@dataclass(frozen=True)
class AccessPoint:
    """One access point: identity, placement and array orientation.

    Attributes:
        ap_id: Stable index of this AP within its topology (0-based; AP 0
            is the primary / legacy AP).
        position: AP location inside the room.
        boresight_rad: Azimuth of the array broadside in world coordinates
            (0 points along +x).
    """

    ap_id: int
    position: Position
    boresight_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.ap_id < 0:
            raise ConfigurationError(f"ap_id must be >= 0, got {self.ap_id}")


@dataclass(frozen=True)
class Topology:
    """An ordered set of access points covering one room."""

    room: Room
    aps: tuple

    def __post_init__(self) -> None:
        if not self.aps:
            raise ConfigurationError("topology needs at least one AP")
        for index, ap in enumerate(self.aps):
            if ap.ap_id != index:
                raise ConfigurationError(
                    f"AP at index {index} carries ap_id {ap.ap_id}; "
                    "ids must be contiguous from 0"
                )
            if not self.room.contains(ap.position):
                raise ConfigurationError(
                    f"AP {index} position {ap.position} outside room {self.room}"
                )

    @property
    def num_aps(self) -> int:
        return len(self.aps)

    def __len__(self) -> int:
        return len(self.aps)

    def __iter__(self):
        return iter(self.aps)

    def __getitem__(self, index: int) -> AccessPoint:
        return self.aps[index]

    @classmethod
    def for_room(
        cls,
        room: Room,
        num_aps: int,
        first_ap: Optional[Position] = None,
    ) -> "Topology":
        """Deterministic wall-midpoint topology.

        AP 0 sits at ``first_ap`` (default: the legacy scenario placement
        against the x=0 wall, centred) facing +x; additional APs take the
        midpoints of the remaining walls in the fixed order
        opposite (x=length, facing -x), bottom (y=0, facing +y),
        top (y=width, facing -y) — so a 2-AP topology is the
        face-to-face layout of the multi-connectivity papers.
        """
        if not 1 <= num_aps <= MAX_APS:
            raise ConfigurationError(
                f"num_aps must be in [1, {MAX_APS}], got {num_aps}"
            )
        if first_ap is None:
            first_ap = Position(AP_WALL_MARGIN_M, room.width / 2.0)
        candidates = [
            AccessPoint(0, first_ap, 0.0),
            AccessPoint(
                1, Position(room.length - AP_WALL_MARGIN_M, room.width / 2.0),
                float(np.pi),
            ),
            AccessPoint(
                2, Position(room.length / 2.0, AP_WALL_MARGIN_M),
                float(np.pi / 2.0),
            ),
            AccessPoint(
                3, Position(room.length / 2.0, room.width - AP_WALL_MARGIN_M),
                float(-np.pi / 2.0),
            ),
        ]
        return cls(room=room, aps=tuple(candidates[:num_aps]))


@dataclass(frozen=True)
class TopologyConfig:
    """The ``topology`` configuration block: how many APs cover the room.

    A plain scalar, so dotted sweep overrides (``topology.num_aps=2``)
    compose exactly like the ``faults.*`` axis.  ``num_aps == 1`` (or an
    absent block) is a one-AP session and streams bit-identically to the
    pre-topology system.

    Attributes:
        num_aps: Access points covering the room (wall-midpoint layout via
            :meth:`Topology.for_room`).
    """

    num_aps: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.num_aps <= MAX_APS:
            raise ConfigurationError(
                f"topology.num_aps must be in [1, {MAX_APS}], got {self.num_aps}"
            )


def coerce_topology(
    value: Union[None, TopologyConfig, Mapping],
) -> Optional[TopologyConfig]:
    """Coerce a mapping (JSON/CLI construction) into a TopologyConfig."""
    if value is None or isinstance(value, TopologyConfig):
        return value
    if isinstance(value, Mapping):
        return TopologyConfig(**value)
    raise ConfigurationError(
        f"topology must be a TopologyConfig or mapping, got {type(value)!r}"
    )


def topology_num_aps(config_topology: Optional[TopologyConfig]) -> int:
    """AP count of an optional topology block (1 when absent)."""
    return config_topology.num_aps if config_topology is not None else 1

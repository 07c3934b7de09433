"""Image-method indoor ray tracer (substitute for Wireless Insite, Sec 4.3).

The paper scans a meeting room with lidar and feeds the 3-D model to a
commercial ray tracer.  We model a parametric rectangular room and trace
specular paths with the image method: the line-of-sight path plus first- and
second-order wall reflections.  This preserves what the evaluation depends
on — distance-dependent signal strength, angular selectivity across user
placements, and multipath diversity — without the proprietary tool.

Geometry is 2-D (azimuth plane), matching the sector-level-sweep abstraction
of 802.11ad beam training.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import ChannelError
from ..obs import OBS
from ..types import Position
from .propagation import REFLECTION_LOSS_DB, free_space_path_loss_db


@dataclass(frozen=True)
class Path:
    """One propagation path from AP to a receiver.

    Attributes:
        length_m: Total travelled distance.
        aod_rad: Angle of departure at the AP, measured from the AP's
            broadside direction.
        num_bounces: 0 for line of sight, 1 or 2 for reflections.
        loss_db: Total power loss (free space + reflections), excluding any
            time-varying blockage.
        is_los: Whether this is the direct path (blockage applies here).
    """

    length_m: float
    aod_rad: float
    num_bounces: int
    loss_db: float

    @property
    def is_los(self) -> bool:
        return self.num_bounces == 0


@dataclass(frozen=True)
class Room:
    """An axis-aligned rectangular room ``[0, length] x [0, width]`` metres."""

    length: float = 20.0
    width: float = 12.0

    def __post_init__(self) -> None:
        if self.length <= 0 or self.width <= 0:
            raise ChannelError(f"room dimensions must be positive, got {self}")

    def contains(self, position: Position) -> bool:
        """Whether a position lies inside the room."""
        return 0.0 <= position.x <= self.length and 0.0 <= position.y <= self.width

    def clamp(self, x: float, y: float, margin: float = 0.1) -> Position:
        """Clamp raw coordinates into the room with a wall margin."""
        return Position(
            float(np.clip(x, margin, self.length - margin)),
            float(np.clip(y, margin, self.width - margin)),
        )

    def _mirror(self, points: np.ndarray, wall: int) -> np.ndarray:
        """Mirror points ``(..., 2)`` across wall 0..3 (x=0, x=length, y=0,
        y=width)."""
        mirrored = points.copy()
        if wall == 0:
            mirrored[..., 0] = -points[..., 0]
        elif wall == 1:
            mirrored[..., 0] = 2.0 * self.length - points[..., 0]
        elif wall == 2:
            mirrored[..., 1] = -points[..., 1]
        elif wall == 3:
            mirrored[..., 1] = 2.0 * self.width - points[..., 1]
        else:
            raise ChannelError(f"wall index {wall} out of range")
        return mirrored


@dataclass(frozen=True)
class TracedPaths:
    """Every path from the AP to a block of ``U`` receivers.

    Each attribute is a ``(U, L)`` array, one row per receiver and one
    column per path, rows sorted by increasing loss (strongest first);
    paths of equal loss keep image order (line of sight, the four walls,
    then the ordered wall pairs), the order a stable sort leaves them in.

    Attributes:
        loss_db: Total power loss (free space + reflections), excluding any
            time-varying blockage.
        length_m: Total travelled distance.
        aod_rad: Angle of departure at the AP, measured from its broadside.
        num_bounces: 0 for line of sight, 1 or 2 for reflections.
    """

    loss_db: np.ndarray
    length_m: np.ndarray
    aod_rad: np.ndarray
    num_bounces: np.ndarray

    @property
    def is_los(self) -> np.ndarray:
        """Which paths are direct (blockage applies there)."""
        return self.num_bounces == 0


class RayTracer:
    """Traces LoS + up to second-order specular paths within a room.

    Args:
        room: Room geometry.
        ap_position: AP location (must be inside the room).
        ap_boresight_rad: Azimuth of the AP array broadside in world
            coordinates (0 points along +x).
        max_bounces: 0, 1 or 2 reflection orders.
    """

    def __init__(
        self,
        room: Room,
        ap_position: Position,
        ap_boresight_rad: float = 0.0,
        max_bounces: int = 2,
    ) -> None:
        if not room.contains(ap_position):
            raise ChannelError(f"AP position {ap_position} outside room {room}")
        if max_bounces not in (0, 1, 2):
            raise ChannelError(f"max_bounces must be 0, 1 or 2, got {max_bounces}")
        self.room = room
        self.ap_position = ap_position
        self.ap_boresight_rad = float(ap_boresight_rad)
        self.max_bounces = int(max_bounces)

    def trace(self, receiver: Position) -> List[Path]:
        """All propagation paths from the AP to ``receiver``, strongest
        first: one row of :meth:`trace_block`."""
        traced = self.trace_block([receiver])
        return [
            Path(length_m=length, aod_rad=aod, num_bounces=bounces, loss_db=loss)
            for loss, length, aod, bounces in zip(
                traced.loss_db[0].tolist(),
                traced.length_m[0].tolist(),
                traced.aod_rad[0].tolist(),
                traced.num_bounces[0].tolist(),
            )
        ]

    def trace_block(self, receivers: Sequence[Position]) -> TracedPaths:
        """Every path from the AP to every receiver, as ``(U, L)`` arrays.

        Each element is computed with the operations a receiver traced on
        its own would see, so a row does not depend on the block around
        it: the length is one dot product per path (a stacked
        ``(1, 2) @ (2, 1)`` matmul, the dot ``np.linalg.norm`` takes of a
        2-vector; ``sqrt(dx*dx + dy*dy)`` rounds otherwise), and the sort
        is stable.
        """
        for receiver in receivers:
            if not self.room.contains(receiver):
                raise ChannelError(f"receiver {receiver} outside room {self.room}")
        rx = np.array([(p.x, p.y) for p in receivers], dtype=float).reshape(-1, 2)
        images = [rx]
        bounces = [0]
        if self.max_bounces >= 1:
            images += [self.room._mirror(rx, wall) for wall in range(4)]
            bounces += [1] * 4
        if self.max_bounces >= 2:
            images += [
                self.room._mirror(self.room._mirror(rx, wall_a), wall_b)
                for wall_a, wall_b in itertools.permutations(range(4), 2)
            ]
            bounces += [2] * 12
        delta = np.stack(images, axis=1) - self.ap_position.as_array()
        squared = delta[..., None, :] @ delta[..., :, None]
        length = np.maximum(np.sqrt(squared[..., 0, 0]), 0.05)
        world_angle = np.arctan2(delta[..., 1], delta[..., 0])
        aod = (world_angle - self.ap_boresight_rad + np.pi) % (2.0 * np.pi) - np.pi
        num_bounces = np.broadcast_to(np.array(bounces), length.shape)
        loss = free_space_path_loss_db(length) + num_bounces * REFLECTION_LOSS_DB
        order = np.argsort(loss, axis=1, kind="stable")
        return TracedPaths(
            *(
                np.take_along_axis(values, order, axis=1)
                for values in (loss, length, aod, num_bounces)
            )
        )


def _validated_placement(room: Room, x: float, y: float) -> Position:
    """Clamp a raw placement into the room, flagging out-of-room draws.

    Geometry (distance + angle around the AP) can put a raw placement
    outside the room; these used to be clamped silently.  The clamp output
    is unchanged, but out-of-room draws now count under
    ``phy.placement.out_of_room`` and the result is verified against
    :meth:`Room.contains` so a bad clamp can never emit an outside user.
    """
    if not room.contains(Position(float(x), float(y))) and OBS.mode:
        OBS.count("phy.placement.out_of_room")
    placed = room.clamp(x, y)
    if not room.contains(placed):
        raise ChannelError(f"clamped placement {placed} outside room {room}")
    return placed


def place_users_arc(
    ap_position: Position,
    room: Room,
    num_users: int,
    distance_m: float,
    max_angular_spacing_rad: float,
    rng: np.random.Generator,
    boresight_rad: float = 0.0,
) -> List[Position]:
    """Place users on an arc around the AP (the paper's testbed layout).

    Users sit at ``distance_m`` from the AP with angular positions drawn
    uniformly inside a window of ``max_angular_spacing_rad`` centred on the
    AP boresight; the leftmost/rightmost users span at most that window
    (Sec 4.2's "maximum angular spacing").
    """
    if num_users < 1:
        raise ChannelError(f"num_users must be >= 1, got {num_users}")
    if distance_m <= 0:
        raise ChannelError(f"distance must be positive, got {distance_m}")
    half = max_angular_spacing_rad / 2.0
    if num_users == 1:
        angles = np.array([rng.uniform(-half, half)])
    else:
        angles = rng.uniform(-half, half, size=num_users)
        # Force the extremes so the realised MAS equals the requested one.
        angles[0], angles[-1] = -half, half
    users = []
    for angle in angles:
        world = boresight_rad + float(angle)
        x = ap_position.x + distance_m * np.cos(world)
        y = ap_position.y + distance_m * np.sin(world)
        users.append(_validated_placement(room, x, y))
    return users


def place_users_random_range(
    ap_position: Position,
    room: Room,
    num_users: int,
    min_distance_m: float,
    max_distance_m: float,
    max_angular_spacing_rad: float,
    rng: np.random.Generator,
    boresight_rad: float = 0.0,
) -> List[Position]:
    """Place users at random distances in a range (Fig 11/14/15 layout)."""
    if min_distance_m <= 0 or max_distance_m < min_distance_m:
        raise ChannelError(
            f"bad distance range [{min_distance_m}, {max_distance_m}]"
        )
    half = max_angular_spacing_rad / 2.0
    users = []
    for i in range(num_users):
        if num_users > 1 and i == 0:
            angle = -half
        elif num_users > 1 and i == num_users - 1:
            angle = half
        else:
            angle = float(rng.uniform(-half, half))
        distance = float(rng.uniform(min_distance_m, max_distance_m))
        world = boresight_rad + angle
        x = ap_position.x + distance * np.cos(world)
        y = ap_position.y + distance * np.sin(world)
        users.append(_validated_placement(room, x, y))
    return users

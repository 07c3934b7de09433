"""Tests for the image-method ray tracer and user placement."""

import numpy as np
import pytest

from repro.errors import ChannelError
from repro.obs import OBS, observed
from repro.phy.raytracer import (
    RayTracer,
    Room,
    _validated_placement,
    place_users_arc,
    place_users_random_range,
)
from repro.types import Position


@pytest.fixture()
def tracer():
    return RayTracer(Room(20, 12), Position(1.0, 6.0))


class TestRoom:
    def test_contains(self):
        room = Room(10, 8)
        assert room.contains(Position(5, 4))
        assert not room.contains(Position(11, 4))

    def test_clamp(self):
        room = Room(10, 8)
        clamped = room.clamp(-3, 100, margin=0.5)
        assert clamped == Position(0.5, 7.5)

    def test_bad_dimensions(self):
        with pytest.raises(ChannelError):
            Room(-1, 5)


class TestRayTracer:
    def test_path_count_with_two_bounces(self, tracer):
        paths = tracer.trace(Position(10, 6))
        # 1 LoS + 4 first-order + 12 second-order images.
        assert len(paths) == 17

    def test_los_is_strongest(self, tracer):
        paths = tracer.trace(Position(10, 6))
        assert paths[0].is_los
        assert paths[0].loss_db == min(p.loss_db for p in paths)

    def test_los_geometry(self, tracer):
        paths = tracer.trace(Position(10, 6))
        los = paths[0]
        assert los.length_m == pytest.approx(9.0)
        assert los.aod_rad == pytest.approx(0.0, abs=1e-9)

    def test_reflection_longer_and_lossier(self, tracer):
        paths = tracer.trace(Position(10, 6))
        los = paths[0]
        for path in paths[1:]:
            assert path.length_m > los.length_m
            assert path.loss_db > los.loss_db

    def test_first_order_image_length(self):
        """Reflection off the y=0 wall has the mirror-image length."""
        tracer = RayTracer(Room(20, 12), Position(1.0, 6.0), max_bounces=1)
        receiver = Position(5.0, 6.0)
        paths = tracer.trace(receiver)
        mirror_len = np.hypot(5.0 - 1.0, -6.0 - 6.0)
        lengths = [p.length_m for p in paths if p.num_bounces == 1]
        assert any(abs(length - mirror_len) < 1e-6 for length in lengths)

    def test_aod_measured_from_boresight(self):
        tracer = RayTracer(Room(20, 12), Position(1.0, 6.0),
                           ap_boresight_rad=np.pi / 2)
        paths = tracer.trace(Position(1.0, 10.0))
        assert paths[0].aod_rad == pytest.approx(0.0, abs=1e-9)

    def test_receiver_outside_rejected(self, tracer):
        with pytest.raises(ChannelError):
            tracer.trace(Position(25, 6))

    def test_max_bounces_validation(self):
        with pytest.raises(ChannelError):
            RayTracer(Room(), Position(1, 6), max_bounces=3)


class TestPlacement:
    def test_arc_distance_respected(self, rng):
        room = Room(20, 12)
        ap = Position(0.5, 6.0)
        users = place_users_arc(ap, room, 4, 5.0, np.deg2rad(60), rng)
        for user in users:
            assert user.distance_to(ap) == pytest.approx(5.0, abs=0.2)

    def test_arc_mas_respected(self, rng):
        room = Room(20, 12)
        ap = Position(0.5, 6.0)
        users = place_users_arc(ap, room, 3, 5.0, np.deg2rad(40), rng)
        angles = sorted(u.angle_from(ap) for u in users)
        assert angles[-1] - angles[0] == pytest.approx(np.deg2rad(40), abs=0.02)

    def test_range_placement_within_bounds(self, rng):
        room = Room(20, 12)
        ap = Position(0.5, 6.0)
        users = place_users_random_range(ap, room, 6, 8, 16, np.deg2rad(120), rng)
        assert len(users) == 6
        for user in users:
            assert room.contains(user)

    def test_single_user_allowed(self, rng):
        users = place_users_arc(Position(0.5, 6), Room(20, 12), 1, 3,
                                np.deg2rad(30), rng)
        assert len(users) == 1

    def test_bad_args_rejected(self, rng):
        with pytest.raises(ChannelError):
            place_users_arc(Position(0.5, 6), Room(), 0, 3, 0.5, rng)
        with pytest.raises(ChannelError):
            place_users_random_range(Position(0.5, 6), Room(), 2, 5, 3, 0.5, rng)


class TestValidatedPlacement:
    """Placement validation: clamp-identical outputs, counted violations."""

    def test_in_room_draw_is_plain_clamp(self):
        room = Room(20, 12)
        assert _validated_placement(room, 5.0, 6.0) == room.clamp(5.0, 6.0)

    def test_out_of_room_draw_matches_clamp_bitwise(self):
        """Validation must not move a single bit of the legacy clamp —
        placements feed seeded traces pinned by the golden suite."""
        room = Room(20, 12)
        for x, y in [(-3.0, 100.0), (25.0, -1.0), (20.0001, 6.0)]:
            validated = _validated_placement(room, x, y)
            clamped = room.clamp(x, y)
            assert float(validated.x).hex() == float(clamped.x).hex()
            assert float(validated.y).hex() == float(clamped.y).hex()
            assert room.contains(validated)

    def test_out_of_room_draw_counted(self):
        room = Room(20, 12)
        with observed("counters"):
            _validated_placement(room, 5.0, 6.0)  # inside: no count
            _validated_placement(room, -3.0, 6.0)
            _validated_placement(room, 5.0, 99.0)
            counters = OBS.counters()
        assert counters.get("phy.placement.out_of_room") == 2

    def test_counter_silent_when_obs_off(self):
        with observed("counters"):
            OBS.reset()
        assert OBS.mode == 0
        _validated_placement(Room(20, 12), -3.0, 6.0)
        assert "phy.placement.out_of_room" not in OBS.counters()

    def test_placement_helpers_stay_inside_tight_room(self, rng):
        """A far arc in a small room forces out-of-room draws; every
        emitted position must still satisfy ``Room.contains``."""
        room = Room(4, 3)
        ap = Position(0.3, 1.5)
        with observed("counters"):
            arc = place_users_arc(ap, room, 5, 6.0, np.deg2rad(120), rng)
            ranged = place_users_random_range(
                ap, room, 5, 4.0, 8.0, np.deg2rad(120), rng
            )
            counters = OBS.counters()
        for user in arc + ranged:
            assert room.contains(user)
        assert counters["phy.placement.out_of_room"] >= 1


class TestTraceBlock:
    def test_rows_equal_one_receiver_traces(self, tracer):
        receivers = [Position(2.0 + 1.5 * k, 1.0 + k) for k in range(8)]
        block = tracer.trace_block(receivers)
        for row, receiver in enumerate(receivers):
            alone = tracer.trace(receiver)
            assert block.loss_db[row].tolist() == [p.loss_db for p in alone]
            assert block.aod_rad[row].tolist() == [p.aod_rad for p in alone]

    def test_equal_loss_images_keep_image_order(self, tracer):
        """On the AP's axis the y=0 (wall 2) and y=width (wall 3) images are
        mirror twins of equal loss; the stable sort keeps wall 2 first."""
        paths = tracer.trace(Position(10.0, 6.0))
        first_order = [p for p in paths if p.num_bounces == 1]
        twins = [
            (a, b) for a, b in zip(first_order, first_order[1:])
            if a.loss_db == b.loss_db
        ]
        assert twins
        for below, above in twins:
            # Wall 2's image lies below the AP (negative AoD), wall 3's above.
            assert below.aod_rad < 0 < above.aod_rad
            assert below.length_m == above.length_m

    def test_length_floor_applies_in_a_block(self, tracer):
        block = tracer.trace_block([Position(1.0, 6.0), Position(5.0, 6.0)])
        los = block.is_los
        assert block.length_m[0][los[0]].tolist() == [0.05]
        assert block.length_m[1][los[1]].tolist() == [4.0]

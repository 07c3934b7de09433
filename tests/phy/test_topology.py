"""Tests for multi-AP room topologies and the topology config block."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.raytracer import Room
from repro.phy.topology import (
    MAX_APS,
    AccessPoint,
    Topology,
    TopologyConfig,
    coerce_topology,
    topology_num_aps,
)
from repro.types import Position


class TestAccessPoint:
    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            AccessPoint(-1, Position(1.0, 1.0))


class TestTopology:
    def test_for_room_single_ap_is_legacy_placement(self):
        room = Room(20, 12)
        topo = Topology.for_room(room, 1)
        assert topo.num_aps == 1
        assert topo[0].position == Position(0.3, 6.0)
        assert topo[0].boresight_rad == 0.0

    def test_for_room_two_aps_face_each_other(self):
        room = Room(20, 12)
        topo = Topology.for_room(room, 2)
        assert topo[1].position == Position(19.7, 6.0)
        assert topo[1].boresight_rad == pytest.approx(np.pi)

    def test_for_room_four_aps_one_per_wall(self):
        room = Room(20, 12)
        topo = Topology.for_room(room, 4)
        assert [ap.ap_id for ap in topo] == [0, 1, 2, 3]
        assert topo[2].position == Position(10.0, 0.3)
        assert topo[3].position == Position(10.0, 11.7)
        for ap in topo:
            assert room.contains(ap.position)

    def test_first_ap_override_kept(self):
        room = Room(20, 12)
        custom = Position(2.0, 3.0)
        topo = Topology.for_room(room, 2, first_ap=custom)
        assert topo[0].position == custom

    def test_ap_count_bounds(self):
        room = Room(20, 12)
        with pytest.raises(ConfigurationError):
            Topology.for_room(room, 0)
        with pytest.raises(ConfigurationError):
            Topology.for_room(room, MAX_APS + 1)

    def test_non_contiguous_ids_rejected(self):
        room = Room(20, 12)
        with pytest.raises(ConfigurationError):
            Topology(room=room, aps=(AccessPoint(1, Position(1, 1)),))

    def test_ap_outside_room_rejected(self):
        room = Room(10, 8)
        with pytest.raises(ConfigurationError):
            Topology(room=room, aps=(AccessPoint(0, Position(11, 1)),))


class TestTopologyConfig:
    def test_defaults_are_single_ap(self):
        assert TopologyConfig().num_aps == 1

    @pytest.mark.parametrize("bad", [
        dict(num_aps=0),
        dict(num_aps=MAX_APS + 1),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            TopologyConfig(**bad)


class TestCoercion:
    def test_none_passthrough(self):
        assert coerce_topology(None) is None

    def test_config_passthrough(self):
        config = TopologyConfig(num_aps=2)
        assert coerce_topology(config) is config

    def test_mapping_coerced(self):
        assert coerce_topology({"num_aps": 2}) == TopologyConfig(num_aps=2)

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigurationError):
            coerce_topology(3)

    def test_num_aps_helper(self):
        assert topology_num_aps(None) == 1
        assert topology_num_aps(TopologyConfig(num_aps=3)) == 3

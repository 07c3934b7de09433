"""Tests for the MCS table (paper Table 2)."""

import numpy as np
import pytest

from repro.errors import ChannelError
from repro.phy.mcs import (
    HIGH_RSS_THRESHOLD_DBM,
    MCS_BY_LEVEL,
    MCS_TABLE,
    RATE_BY_LEVEL_MBPS,
    entry_for_index,
    highest_supported_mcs,
    supported_mcs_levels,
)


class TestTableContents:
    def test_fourteen_entries(self):
        assert len(MCS_TABLE) == 14

    def test_unsupported_indices_match_paper(self):
        unsupported = {e.index for e in MCS_TABLE if not e.supported}
        assert unsupported == {0, 5, 9, 9.1}

    def test_mcs12_values(self):
        entry = entry_for_index(12)
        assert entry.sensitivity_dbm == -53.0
        assert entry.udp_throughput_mbps == 2400.0

    def test_mcs1_values(self):
        entry = entry_for_index(1)
        assert entry.sensitivity_dbm == -68.0
        assert entry.udp_throughput_mbps == 300.0

    def test_supported_throughputs_increase_with_index(self):
        rates = [e.udp_throughput_mbps for e in MCS_TABLE if e.supported]
        assert rates == sorted(rates)

    def test_high_rss_threshold_is_mcs8_sensitivity(self):
        assert HIGH_RSS_THRESHOLD_DBM == entry_for_index(8).sensitivity_dbm

    def test_unknown_index_rejected(self):
        with pytest.raises(ChannelError):
            entry_for_index(13)


class TestRssMapping:
    def test_strong_signal_gets_mcs12(self):
        assert highest_supported_mcs(-40.0).index == 12

    def test_weak_signal_gets_mcs1(self):
        assert highest_supported_mcs(-67.0).index == 1

    def test_dead_link_gets_none(self):
        assert highest_supported_mcs(-75.0) is None

    def test_boundary_is_inclusive(self):
        assert highest_supported_mcs(-53.0).index == 12
        assert highest_supported_mcs(-53.01).index == 11

    def test_rate_monotone_in_rss(self):
        entries = [highest_supported_mcs(rss) for rss in range(-70, -50)]
        rates = [e.udp_throughput_mbps if e else 0.0 for e in entries]
        assert rates == sorted(rates)


def _edges():
    """Every Table 2 sensitivity and the floats either side of it."""
    points = []
    for entry in MCS_TABLE:
        s = entry.sensitivity_dbm
        points += [np.nextafter(s, -np.inf), s, np.nextafter(s, np.inf)]
    return points


class TestVectorisedLookup:
    """``supported_mcs_levels`` is ``highest_supported_mcs`` of every
    element, including exactly at each threshold."""

    @pytest.mark.parametrize(
        "rss", _edges() + [-np.inf, -1e300, -200.0, 1e300, np.inf, 0.0, -40.0]
    )
    def test_matches_the_scalar_lookup(self, rss):
        (level,) = supported_mcs_levels(np.array([rss])).tolist()
        entry = highest_supported_mcs(rss)
        assert MCS_BY_LEVEL[level] == entry
        rate = entry.udp_throughput_mbps if entry is not None else 0.0
        assert RATE_BY_LEVEL_MBPS[level] == rate

    def test_whole_array_at_once(self):
        rss = np.array(_edges() + [-np.inf, np.inf, np.nan]).reshape(3, -1)
        levels = supported_mcs_levels(rss)
        assert levels.shape == rss.shape
        for value, level in zip(rss.ravel().tolist(), levels.ravel().tolist()):
            assert MCS_BY_LEVEL[level] == highest_supported_mcs(value)

    @pytest.mark.parametrize("index", [0, 5, 9, 9.1])
    def test_rows_without_throughput_are_never_chosen(self, index):
        s = entry_for_index(index).sensitivity_dbm
        rss = np.array([np.nextafter(s, -np.inf), s, np.nextafter(s, np.inf)])
        for level in supported_mcs_levels(rss).tolist():
            chosen = MCS_BY_LEVEL[level]
            assert chosen is None or chosen.supported
            assert chosen is None or chosen.index != index

    def test_levels_cover_the_data_rows_in_order(self):
        assert MCS_BY_LEVEL[0] is None
        assert list(MCS_BY_LEVEL[1:]) == [e for e in MCS_TABLE if e.supported]
        assert np.all(np.diff(RATE_BY_LEVEL_MBPS) > 0)

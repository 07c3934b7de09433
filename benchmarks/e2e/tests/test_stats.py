"""The percentile rule: never a percentile with fewer than ten samples beyond it."""

import pytest

import stats


def test_percentile_refused_when_fewer_than_ten_samples_lie_beyond():
    values = list(range(99))
    with pytest.raises(stats.TooFewSamples, match="p90"):
        stats.percentile(values, 90.0)          # 9.9 beyond
    assert stats.percentile(list(range(100)), 90.0) == pytest.approx(89.1)


def test_median_needs_no_tail():
    assert stats.percentile([3.0, 1.0, 2.0], 50.0) == 2.0


def test_smoke_switches_the_rule_off():
    assert stats.percentile([1.0, 2.0, 3.0], 80.0, min_beyond=0) == pytest.approx(2.6)


@pytest.mark.parametrize("count, expected", [(54, 81.0), (100, 90.0), (200, 95.0), (9, 0.0)])
def test_highest_supported_percentile(count, expected):
    assert stats.highest_supported_percentile(count) == expected
    if expected:
        stats.percentile(list(range(count)), expected)
        with pytest.raises(stats.TooFewSamples):
            stats.percentile(list(range(count)), expected + 1.0)


def test_every_sized_workload_supports_its_tail():
    import session_bench
    import workloads

    for workload in workloads.WORKLOADS:
        if isinstance(workload, workloads.SessionWorkload):
            sized = workload.sized(workloads.SIZING_SECONDS, smoke=False)
            frames = sized.sessions * sized.measured_frames
            assert stats.samples_beyond(frames, session_bench.TAIL) >= stats.MIN_BEYOND
            assert sized.measured_frames % workloads.FRAMES_PER_BEACON == 0


def test_spread_is_the_drivers_quartile_rule():
    import statistics

    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert stats.spread(values, relative=False) == pytest.approx(q3 - q1)
    assert stats.spread([5.0]) == 0.0
    assert stats.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    assert stats.spread([0.0, 0.0, 0.0, 0.0]) == 0.0

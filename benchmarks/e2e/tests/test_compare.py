"""``compare.py`` verdicts: better | within | worse | unresolved."""

import compare


def verdict(base, new, better="lower", bound=0.10):
    return compare.verdict(base, new, better, bound)


def test_within_when_the_medians_agree():
    assert verdict([100, 101, 99, 100], [100, 102, 98, 101]) == "within"


def test_worse_only_beyond_the_bound_and_in_the_bad_direction():
    assert verdict([100, 101, 99, 100], [109, 110, 108, 109]) == "within"
    assert verdict([100, 101, 99, 100], [112, 113, 111, 112]) == "worse"
    assert verdict([20, 20.2, 19.8, 20], [17, 17.1, 16.9, 17], better="higher") == "worse"


def test_better_must_clear_the_bases_own_spread():
    assert verdict([100, 101, 99, 100], [90, 91, 89, 90]) == "better"
    assert verdict([100, 104, 96, 100], [99, 103, 95, 99]) == "within"


def test_unresolved_when_spread_exceeds_the_bound():
    noisy = [100, 130, 80, 115, 90, 125]
    assert verdict(noisy, [100, 101, 99, 100]) == "unresolved"
    assert verdict([100, 101, 99, 100], noisy) == "unresolved"
    # ... unless every new run beats every base run.
    assert verdict(noisy, [60, 61, 59, 60]) == "better"


def test_an_absolute_bound_is_not_scaled_by_the_median():
    # 0.57 -> 0.61 is +7 % of the median and +0.04 absolute.
    base, new = [0.57, 0.575, 0.565, 0.57], [0.61, 0.615, 0.605, 0.61]
    assert compare.verdict(base, new, "lower", 0.05, "abs") == "within"
    assert compare.verdict(base, new, "lower", 0.03, "abs") == "worse"


def test_a_per_seed_gate_flags_one_bad_seed_that_the_median_hides():
    base = [0.0] * 10
    assert compare.verdict_per_seed(base, base, "lower", 0.0) == "within"
    assert compare.verdict_per_seed(base, [0.0] * 9 + [0.01], "lower", 0.0) == "worse"
    ssim = [0.94, 0.95, 0.93]
    assert compare.verdict_per_seed(ssim, [0.938, 0.95, 0.93], "higher", 0.003) == "within"
    assert compare.verdict_per_seed(ssim, [0.94, 0.95, 0.926], "higher", 0.003) == "worse"


GATES = [
    {"name": "frame_ms_p80", "unit": "ms", "better": "lower", "bound": 0.1, "kind": "rel"},
    {"name": "ctl_rtt_ms_p95", "unit": "ms", "better": "lower", "bound": 0.15, "kind": "rel",
     "on": ["serve"]},
    {"name": "failed_ratio", "unit": "ratio", "better": "lower", "bound": 0.0, "kind": "abs",
     "per_seed": True},
]


def _report(seeds, **workloads):
    return {"seeds": seeds, "workloads": {
        name: {metric: {"values": values} for metric, values in metrics.items()}
        for name, metrics in workloads.items()
    }}


def test_rows_cover_every_gate_on_the_workloads_it_names():
    report = _report(
        [0, 1, 2],
        session={"frame_ms_p80": [10.0, 10.5, 9.5], "failed_ratio": [0.0, 0.0, 0.0],
                 "undeclared": [1.0, 1.0, 1.0]},
        serve={"frame_ms_p80": [10.0, 10.5, 9.5], "failed_ratio": [0.0, 0.0, 0.0],
               "ctl_rtt_ms_p95": [600.0, 610.0, 590.0]},
    )
    rows = compare.compare(report, report, GATES)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("session", "frame_ms_p80", "within"), ("session", "failed_ratio", "within"),
        ("serve", "frame_ms_p80", "within"), ("serve", "ctl_rtt_ms_p95", "within"),
        ("serve", "failed_ratio", "within"),
    ]
    assert rows[0]["ratio"] == 1.0


def test_a_dropped_metric_or_workload_reads_missing_not_silence():
    base = _report([0, 1, 2], session={"frame_ms_p80": [10.0, 10.5, 9.5],
                                       "failed_ratio": [0.0, 0.0, 0.0]})
    dropped_metric = _report([0, 1, 2], session={"failed_ratio": [0.0, 0.0, 0.0]})
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(base, dropped_metric, GATES)}
    assert verdicts == {"frame_ms_p80": "missing", "failed_ratio": "within"}
    rows = compare.compare(base, _report([0, 1, 2]), GATES)
    assert [r["verdict"] for r in rows] == ["missing", "missing"]


def test_a_per_seed_gate_needs_the_same_seeds_on_both_sides():
    base = _report([0, 1, 2], session={"failed_ratio": [0.0, 0.0, 0.0]})
    other = _report([3, 4, 5], session={"failed_ratio": [0.0, 0.0, 0.0]})
    (row,) = compare.compare(base, other, GATES[2:])
    assert row["verdict"] == "unresolved"


def test_extra_gates_replace_the_benchmark_json_row_of_the_same_name():
    gates = {g["name"]: g for g in compare.load_gates()}
    assert gates["ssim_mean"]["kind"] == "abs" and gates["ssim_mean"]["per_seed"]
    assert gates["frame_ms_p50"]["kind"] == "rel"
    assert {"ctl_rtt_ms_p50", "ctl_rtt_ms_p95", "failed_ratio", "deadline_miss_ratio",
            "airtime_miss_ratio"} <= set(gates)

#!/usr/bin/env python
"""Capacity ladder: frame time against receiver count.

For N in {4, 16, 64, 256, 1000} receivers, one static session streams a
warm-up beacon, then steps ``stream_frame`` through the measured frames;
each frame's wall time is compared with the 1/30 s live-4K frame budget.
The report gives frame-ms p50/p80 per N and ``largest_n_within_budget``:
the largest N whose p50 fits the budget.  It also splits each rung's
frames into replan frames (the session replanned at a beacon: group
enumeration, beams and allocation) and steady frames, with a p50 each, so
the planner's share of the frame shows at every N.

Every rung uses the predefined-multicast scheme with the round-robin
scheduler and ``max_group_size=2`` (the ``crowd1000_rr`` overrides), so
candidate groups grow as O(N) and any per-frame path that loops over
N x groups in Python shows as a bend in the ladder.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale_users.py           # full
    PYTHONPATH=src python benchmarks/bench_scale_users.py --quick   # CI smoke

``--quick`` builds a smaller context (144x256 video, short DNN training)
and measures fewer frames.  The ladder is written as JSON —
``bench_scale_users.json`` by default.  Exits 0 once the ladder completes;
it gates nothing, timings being host-dependent.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import MulticastStreamer
from repro.emulation import ExperimentContext, build_context
from repro.emulation.context import QUICK_CONTEXT
from repro.perf import time_call, write_bench_report
from repro.types import BeamformingScheme, SchedulerKind

#: Config overrides shared by every rung (see module docstring).
SCALE_OVERRIDES = dict(
    max_group_size=2,
    scheme=BeamformingScheme.PREDEFINED_MULTICAST,
    scheduler=SchedulerKind.ROUND_ROBIN,
)

PLACEMENT_M_DEG = (5.0, 60)
USER_COUNTS = (4, 16, 64, 256, 1000)
#: Measured beacons per rung after the warm-up beacon (full, quick).
MEASURED_BEACONS = (9, 3)


def ladder_rung(
    ctx: ExperimentContext, num_users: int, measured_beacons: int, seed: int = 0
) -> dict:
    """Frame times of one session at ``num_users`` receivers."""
    config = ctx.config(**SCALE_OVERRIDES)
    per_beacon = config.frames_per_beacon
    total = per_beacon * (1 + measured_beacons)
    positions = ctx.scenario.place_arc(num_users, *PLACEMENT_M_DEG, seed=seed)
    # One snapshot per beacon, so every replan reads a fresh one.
    trace, setup_s = time_call(
        lambda: ctx.scenario.static_trace(
            positions,
            duration_s=(1 + measured_beacons) * config.beacon_interval_s,
            seed=seed + 1,
        )
    )
    streamer = MulticastStreamer(
        config, ctx.dnn, ctx.probes, ctx.scenario.channel_model, seed=seed
    )
    session = streamer.session(trace)
    session.begin(total)
    frame_ms, replanned = [], []
    for frame in range(total):
        planned_at = session.state.last_plan_time
        start = time.perf_counter()
        session.stream_frame(frame)
        if frame >= per_beacon:
            frame_ms.append((time.perf_counter() - start) * 1e3)
            replanned.append(session.state.last_plan_time != planned_at)
    frame_ms, replanned = np.array(frame_ms), np.array(replanned)
    return {
        "users": num_users,
        "frames_measured": len(frame_ms),
        "frame_ms_p50": float(np.percentile(frame_ms, 50.0)),
        "frame_ms_p80": float(np.percentile(frame_ms, 80.0)),
        "replan_frames": int(replanned.sum()),
        "replan_frame_ms_p50": float(np.percentile(frame_ms[replanned], 50.0)),
        "steady_frame_ms_p50": float(np.percentile(frame_ms[~replanned], 50.0)),
        "trace_setup_s": setup_s,
        "mean_ssim": session.outcome.mean_ssim,
    }


def capacity_ladder(
    ctx: ExperimentContext,
    user_counts=USER_COUNTS,
    measured_beacons: int = MEASURED_BEACONS[0],
) -> dict:
    """The ladder: one rung per receiver count, smallest first."""
    budget_ms = ctx.config(**SCALE_OVERRIDES).frame_budget_s * 1e3
    rungs = []
    for num_users in user_counts:
        rung = ladder_rung(ctx, num_users, measured_beacons)
        rung["within_budget"] = rung["frame_ms_p50"] <= budget_ms
        rungs.append(rung)
        print(f"  {num_users:5d} receivers: frame p50 {rung['frame_ms_p50']:7.1f} ms, "
              f"p80 {rung['frame_ms_p80']:7.1f} ms "
              f"({'fits' if rung['within_budget'] else 'over'} {budget_ms:.1f} ms); "
              f"p50 replan {rung['replan_frame_ms_p50']:7.1f} ms, "
              f"steady {rung['steady_frame_ms_p50']:7.1f} ms; "
              f"trace {rung['trace_setup_s']:.2f} s", flush=True)
    fitting = [r["users"] for r in rungs if r["within_budget"]]
    return {
        "resolution": f"{ctx.height}x{ctx.width}",
        "placement": f"arc {PLACEMENT_M_DEG[0]} m, MAS {PLACEMENT_M_DEG[1]} deg",
        "scheme": SCALE_OVERRIDES["scheme"].value,
        "scheduler": SCALE_OVERRIDES["scheduler"].value,
        "max_group_size": SCALE_OVERRIDES["max_group_size"],
        "frame_budget_ms": budget_ms,
        "measured_beacons": measured_beacons,
        "rungs": rungs,
        "largest_n_within_budget": max(fitting) if fitting else 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller context and fewer measured frames, for CI smoke runs",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "bench_scale_users.json",
        help="JSON report path (default: bench_scale_users.json)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        ctx = build_context(**QUICK_CONTEXT)
    else:
        ctx = build_context()
    measured_beacons = MEASURED_BEACONS[1 if args.quick else 0]

    print(f"capacity ladder ({ctx.height}x{ctx.width}, {measured_beacons} "
          f"measured beacons after one warm-up beacon)")
    ladder = capacity_ladder(ctx, USER_COUNTS, measured_beacons)

    report = {
        "schema": 2,
        "generated_unix": time.time(),
        "quick": bool(args.quick),
        "stages": {"capacity_ladder": ladder},
    }
    path = write_bench_report(args.output, report)

    print()
    print(f"largest N within budget : {ladder['largest_n_within_budget']}")
    print(f"report                  : {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

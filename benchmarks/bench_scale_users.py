#!/usr/bin/env python
"""User-count scaling benchmark for the vectorized cohort transport core.

Sweeps full emulation runs from a handful of receivers up to 1,000+ and
reports the users-vs-runs/s curve.

The sweep uses the predefined-multicast scheme with the round-robin
scheduler and ``max_group_size=2`` so beam planning stays linear in the
user count and the measurement isolates the transport/scoring core the
cohort arrays vectorize — the planner would otherwise dominate the wall
clock at large N.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale_users.py           # full
    PYTHONPATH=src python benchmarks/bench_scale_users.py --quick   # CI smoke

The curve is written as JSON — ``bench_scale_users.json`` by default — for
the nightly-CI artifact upload.  Exits 0 once the sweep completes.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import MulticastStreamer
from repro.emulation import ExperimentContext, build_context, trace_for_placement
from repro.perf import throughput, time_call, write_bench_report
from repro.types import BeamformingScheme, SchedulerKind

#: Config overrides shared by every scale point (see module docstring).
SCALE_OVERRIDES = dict(
    max_group_size=2,
    scheme=BeamformingScheme.PREDEFINED_MULTICAST,
    scheduler=SchedulerKind.ROUND_ROBIN,
)

PLACEMENT = ("arc", 5.0, 60)
USER_COUNTS_FULL = (4, 16, 64, 100, 250, 1000)
USER_COUNTS_QUICK = (4, 16, 100, 1000)


def scale_run(
    ctx: ExperimentContext,
    num_users: int,
    frames: int,
    run_seed: int = 0,
):
    """One timed emulation run at ``num_users`` receivers.

    Returns ``(run_wall_s, setup_wall_s)``.  Trace construction
    (channel snapshots for every receiver) is reported separately: it is
    world setup, not part of the streaming loop the cohort arrays
    vectorize.
    """
    trace, setup_s = time_call(
        lambda: trace_for_placement(ctx, num_users, PLACEMENT, run_seed)
    )
    config = ctx.config(**SCALE_OVERRIDES)
    streamer = MulticastStreamer(
        config, ctx.dnn, ctx.probes, ctx.scenario.channel_model, seed=run_seed
    )
    _, run_s = time_call(lambda: streamer.session(trace).run(frames))
    return run_s, setup_s


def bench_emulation_scale(
    ctx: ExperimentContext,
    user_counts=USER_COUNTS_FULL,
    frames: int = 6,
) -> dict:
    """The ``emulation_scale`` benchmark stage: one run per user count."""
    curve = []
    for num_users in user_counts:
        run_s, setup_s = scale_run(ctx, num_users, frames)
        curve.append({
            "users": num_users,
            "run_s": run_s,
            "setup_s": setup_s,
            "runs_per_s": throughput(1, run_s),
        })
        print(f"    {num_users:5d} users: {run_s:7.2f} s/run "
              f"({throughput(1, run_s):6.2f} runs/s, setup {setup_s:.2f} s)",
              flush=True)

    max_point = curve[-1]
    return {
        "frames": frames,
        "resolution": f"{ctx.height}x{ctx.width}",
        "placement": "arc 5.0 m, MAS 60 deg",
        "scheme": SCALE_OVERRIDES["scheme"].value,
        "scheduler": SCALE_OVERRIDES["scheduler"].value,
        "max_group_size": SCALE_OVERRIDES["max_group_size"],
        "curve": curve,
        "max_users": max_point["users"],
        "run_s_at_max_users": max_point["run_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced resolution and fewer sweep points for CI smoke runs",
    )
    parser.add_argument(
        "--frames", type=int, default=None,
        help="frames per run (default 6, quick 3)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "bench_scale_users.json",
        help="JSON report path (default: bench_scale_users.json)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        ctx = build_context(height=144, width=256, dnn_epochs=60, probe_frames=2)
        user_counts = USER_COUNTS_QUICK
    else:
        ctx = build_context()
        user_counts = USER_COUNTS_FULL
    frames = args.frames or (3 if args.quick else 6)

    print(f"emulation scale sweep ({ctx.height}x{ctx.width}, {frames} frames)")
    stage = bench_emulation_scale(ctx, user_counts, frames)

    report = {
        "schema": 1,
        "generated_unix": time.time(),
        "quick": bool(args.quick),
        "stages": {"emulation_scale": stage},
    }
    path = write_bench_report(args.output, report)

    print()
    print(f"{stage['max_users']} users : {stage['run_s_at_max_users']:.2f} s per run")
    print(f"report     : {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Campaign engine benchmark: serial in-process vs the persistent pool.

Times the same variant-sweep campaign two ways through
``run_variant_sweep`` — serial in-process (``jobs=1``), and sharded and
checkpointed on the persistent shared-memory worker pool — and reports
campaign points/s for each and the pool's speedup and parallel
efficiency.

Both arms must produce bit-identical merged results
(``merged_identical``); the engine's per-run seeding makes the shard
count, worker count, and completion order irrelevant to the output, and
the script exits non-zero when they differ.  A second, untimed campaign
checks the same for the mobile comparison's shape
(``mobile_merged_identical``): a multicast arm (``realtime_update``) and
an MPC arm (``fast_mpc``) on a 0.3 s walk trace per run.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_shard.py           # full
    PYTHONPATH=src python benchmarks/bench_sweep_shard.py --quick   # CI smoke

The stage dict is written to ``bench_sweep_shard.json`` by default.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.emulation import (
    ExperimentContext,
    build_context,
    run_variant_sweep,
    variant_from_spec,
)
from repro.emulation.context import QUICK_CONTEXT
from repro.emulation.runner import mobile_variant
from repro.perf import speedup, throughput, time_call, write_bench_report
from repro.types import frame_count

PLACEMENT = ("arc", 5.0, 60)

#: The mobile campaign: one multicast and one MPC arm, each run on its own
#: 0.3 s walk trace.
MOBILE_APPROACHES = ("realtime_update", "fast_mpc")
MOBILE_WALK = ("walk", "high", (0,), 0.3)

#: Two-variant campaign: the paper's default pipeline vs round-robin
#: scheduling — cheap enough for CI, distinct enough that a merge bug
#: (crossed variants, reordered runs) cannot cancel out.
VARIANT_SPECS = ("base", "rr:scheduler=round_robin")


def bench_sweep_shard(
    ctx: ExperimentContext,
    runs: int,
    frames: int,
    shards: int,
    jobs: int,
    users: int = 2,
    checkpoint_dir: Path | None = None,
) -> dict:
    """Time the serial and persistent-pool arms of one campaign."""
    variants = [variant_from_spec(spec) for spec in VARIANT_SPECS]
    points = runs * len(variants)

    def serial_arm(variants, placement, frames) -> dict:
        return run_variant_sweep(
            ctx, variants, users, placement, runs=runs, frames=frames, jobs=1
        )

    def persistent_arm(variants, placement, frames) -> dict:
        with tempfile.TemporaryDirectory(dir=checkpoint_dir) as tmp:
            return run_variant_sweep(
                ctx, variants, users, placement, runs=runs, frames=frames,
                shards=shards, checkpoint=Path(tmp) / "ck.jsonl", jobs=jobs,
            )

    serial_results, serial_s = time_call(
        lambda: serial_arm(variants, PLACEMENT, frames)
    )
    persistent_results, persistent_s = time_call(
        lambda: persistent_arm(variants, PLACEMENT, frames)
    )
    mobile = [mobile_variant(approach) for approach in MOBILE_APPROACHES]
    mobile_frames = frame_count(MOBILE_WALK[-1], ctx.base_config.fps)
    mobile_identical = serial_arm(
        mobile, MOBILE_WALK, mobile_frames
    ) == persistent_arm(mobile, MOBILE_WALK, mobile_frames)

    return {
        "runs": runs,
        "frames": frames,
        "users": users,
        "shards": shards,
        "jobs": jobs,
        "points": points,
        "resolution": f"{ctx.height}x{ctx.width}",
        "serial_wall_s": serial_s,
        "persistent_wall_s": persistent_s,
        "points_per_s_serial": throughput(points, serial_s),
        "points_per_s_persistent": throughput(points, persistent_s),
        "speedup_vs_serial": speedup(serial_s, persistent_s),
        "parallel_efficiency": speedup(serial_s, persistent_s) / jobs,
        "merged_identical": serial_results == persistent_results,
        "mobile_merged_identical": mobile_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke runs (~a minute)",
    )
    parser.add_argument("--runs", type=int, default=None,
                        help="campaign runs (default 12, quick 8)")
    parser.add_argument("--frames", type=int, default=None,
                        help="frames per run (default 3, quick 2)")
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default = runs)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker count for the pool arm (default 2)")
    parser.add_argument(
        "--output", type=Path,
        default=REPO_ROOT / "bench_sweep_shard.json",
        help="report path (default: bench_sweep_shard.json at the repo root)",
    )
    args = parser.parse_args(argv)

    runs = args.runs or (8 if args.quick else 12)
    frames = args.frames or (2 if args.quick else 3)
    shards = args.shards or runs
    if args.quick:
        ctx = build_context(**QUICK_CONTEXT)
    else:
        ctx = build_context()

    print(
        f"sweep shard bench: {runs} runs x {len(VARIANT_SPECS)} variants, "
        f"{shards} shards, jobs={args.jobs}"
    )
    stage = bench_sweep_shard(ctx, runs, frames, shards, args.jobs)
    path = write_bench_report(args.output, {"schema": 1, "sweep_shard": stage})

    print(f"serial      : {stage['serial_wall_s']:8.2f} s "
          f"({stage['points_per_s_serial']:.3f} points/s)")
    print(f"persistent  : {stage['persistent_wall_s']:8.2f} s "
          f"({stage['points_per_s_persistent']:.3f} points/s, "
          f"x{stage['speedup_vs_serial']:.2f} vs serial, "
          f"{stage['parallel_efficiency']:.2f} efficiency)")
    print(f"identical   : {stage['merged_identical']}")
    print(f"mobile      : {stage['mobile_merged_identical']} "
          f"({' + '.join(MOBILE_APPROACHES)} on a {MOBILE_WALK[-1]} s walk)")
    print(f"report      : {path}")
    identical = stage["merged_identical"] and stage["mobile_merged_identical"]
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())

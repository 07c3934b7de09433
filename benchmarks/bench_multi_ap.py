#!/usr/bin/env python
"""Multi-AP failover benchmark: SSIM vs LoS-blockage intensity, 1 AP vs 2.

Streams the same placements and the same seeded blockage schedules through
a single-AP config and a two-AP config (association + cross-AP coded
repair) over one shared superset trace per placement, and reports the
mean-SSIM curve against blockage depth.  The qualitative claim under test
— a second AP holds quality up under LoS blockage that a single AP cannot
ride out (the multi-link resilience argument of arXiv:1711.06154) — is
distilled into the ``two_ap_ssim_not_worse_under_blockage`` flag; tier-1
holds the same claim in miniature as
``tests/core/test_multi_ap.py::test_two_ap_holds_ssim_under_blockage``.

The 1-AP arm is not handicapped: AP0's blockage windows are drawn
identically in both arms (the per-AP schedule extends the single-AP
draws), and AP0's sub-trace of the superset recording is bit-identical to
a 1-AP trace.

Usage::

    PYTHONPATH=src python benchmarks/bench_multi_ap.py          # full
    PYTHONPATH=src python benchmarks/bench_multi_ap.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.emulation import ap_fault_grid, build_context, run_variant_sweep
from repro.emulation.context import QUICK_CONTEXT

#: Deep-blockage base shared by every arm: long bursts, high rate, pinned
#: schedule seed — intense enough that quick CI runs still catch bursts
#: inside their short streamed window.
BLOCKAGE_BASE = {
    "faults.seed": "11",
    "faults.blockage_rate_hz": "6",
    "faults.blockage_duration_s": "0.25",
}

#: The 2-AP curve may dip below the 1-AP curve by at most this much at any
#: grid point before the flag trips (placement/loss noise allowance).
SSIM_TOLERANCE = 0.02


def bench_multi_ap(
    ctx,
    depths_db=(0.0, 10.0, 25.0),
    users: int = 3,
    runs: int = 3,
    frames: int = 9,
    jobs=None,
) -> dict:
    """SSIM-vs-blockage-depth curves for 1 AP vs 2 APs.

    One :func:`ap_fault_grid` sweep: every (AP count, depth) arm streams
    the identical placements, traces, and AP0 blockage windows, so the
    only degree of freedom between the 1-AP and 2-AP rows is the topology.
    """
    variants = ap_fault_grid(
        "blockage_depth_db",
        [float(d) for d in depths_db],
        ap_counts=(1, 2),
        base=BLOCKAGE_BASE,
    )
    start = time.perf_counter()
    results = run_variant_sweep(
        ctx, variants, users, ("arc", 4.0, 60),
        runs=runs, frames=frames, jobs=jobs,
    )
    wall_s = time.perf_counter() - start

    curve = {"1ap": {}, "2ap": {}}
    for depth in depths_db:
        for arm in (1, 2):
            name = f"{arm}ap:blockage_depth_db={float(depth)}"
            curve[f"{arm}ap"][f"{float(depth):g}"] = float(
                np.mean(results[name]["ssim"])
            )

    blocked = [f"{float(d):g}" for d in depths_db if float(d) > 0.0]
    not_worse = all(
        curve["2ap"][key] >= curve["1ap"][key] - SSIM_TOLERANCE
        for key in blocked
    )
    deepest = f"{float(max(depths_db)):g}"
    return {
        "users": users,
        "runs": runs,
        "frames": frames,
        "depths_db": [float(d) for d in depths_db],
        "blockage_rate_hz": float(BLOCKAGE_BASE["faults.blockage_rate_hz"]),
        "blockage_duration_s": float(
            BLOCKAGE_BASE["faults.blockage_duration_s"]
        ),
        "ssim_tolerance": SSIM_TOLERANCE,
        "curve": curve,
        "two_ap_advantage_at_max_depth": (
            curve["2ap"][deepest] - curve["1ap"][deepest]
        ),
        "two_ap_ssim_not_worse_under_blockage": bool(not_worse),
        "wall_s": wall_s,
    }


def format_curve(result: dict) -> str:
    lines = ["depth_db    1 AP      2 APs     delta"]
    for depth in result["depths_db"]:
        key = f"{float(depth):g}"
        one = result["curve"]["1ap"][key]
        two = result["curve"]["2ap"][key]
        lines.append(f"{depth:8.1f}  {one:.4f}    {two:.4f}    {two - one:+.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke runs",
    )
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the result dict as JSON",
    )
    args = parser.parse_args(argv)

    if args.quick:
        ctx = build_context(**QUICK_CONTEXT)
        runs = args.runs or 2
        frames = args.frames or 6
        depths = (0.0, 25.0)
    else:
        ctx = build_context()
        runs = args.runs or 4
        frames = args.frames or 12
        depths = (0.0, 10.0, 25.0)

    result = bench_multi_ap(
        ctx, depths, runs=runs, frames=frames, jobs=args.jobs
    )
    print(format_curve(result))
    print(f"2-AP advantage at {max(depths):g} dB: "
          f"{result['two_ap_advantage_at_max_depth']:+.4f} SSIM")
    print("two_ap_ssim_not_worse_under_blockage: "
          f"{result['two_ap_ssim_not_worse_under_blockage']}")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report: {args.output}")
    return 0 if result["two_ap_ssim_not_worse_under_blockage"] else 1


if __name__ == "__main__":
    sys.exit(main())

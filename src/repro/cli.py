"""Command-line interface: run any of the paper's experiments from a shell.

Examples::

    repro-wigig beamforming --users 3 --distance 3 --mas 60 --runs 5
    repro-wigig scheduler --users 6 --range 8 16 --mas 120
    repro-wigig ablation --axis source_coding --users 3
    repro-wigig mobile --users 3 --moving 0 1 --regime low --duration 4
    repro-wigig sweep --variant base --variant rr:scheduler=round_robin
    repro-wigig sweep --variant base --variant rr:scheduler=round_robin \\
        --runs 40 --shards 8 --jobs 4 --checkpoint campaign.jsonl --resume
    repro-wigig sweep --fault-grid blockage_rate_hz --fault-values 0,1,2 \\
        --runs 8 --shards 4 --checkpoint chaos.jsonl
    repro-wigig serve --quick-context --control-port 8700 --receiver-port 8701
    repro-wigig quality-model --epochs 500
    repro-wigig observe --users 3 --frames 6 --trace obs_trace.jsonl
    repro-wigig chaos --users 3 --frames 9 \\
        --fault blockage_rate_hz=2 --fault feedback_loss_rate_hz=1
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import obs
from .emulation import (
    CampaignSpec,
    ap_fault_grid,
    build_context,
    fault_grid,
    parse_config_overrides,
    run_ablation,
    run_beamforming_comparison,
    run_mobile_comparison,
    run_scheduler_comparison,
    run_variant_sweep,
    trace_for_placement,
    variant_from_spec,
    write_results_json,
)
from .emulation.context import QUICK_CONTEXT
from .emulation.stats import print_table, summarize
from .emulation.sweep import multicast_session

#: Named --fault-base bundles for common chaos campaigns.  The
#: ``blockage_failover`` preset is the deep-LoS-blockage base of the
#: 1-AP-vs-2-AP failover curve: long, deep bursts an AP cannot ride out
#: alone, so resilience has to come from the second AP.
FAULT_BASE_PRESETS = {
    "blockage_failover": {
        "faults.seed": "11",
        "faults.blockage_rate_hz": "6",
        "faults.blockage_duration_s": "0.3",
        "faults.blockage_depth_db": "25",
    },
}

#: Same-seed replays ``chaos`` streams and compares.
CHAOS_REPEATS = 2


def _placement(args) -> tuple:
    if args.range is not None:
        return ("range", args.range[0], args.range[1], args.mas)
    return ("arc", args.distance, args.mas)


def _cmd_beamforming(args) -> int:
    ctx = build_context(seed=args.seed)
    results = run_beamforming_comparison(
        ctx, args.users, _placement(args), runs=args.runs, frames=args.frames
    )
    print_table(
        f"Beamforming comparison ({args.users} users)",
        summarize({k: v["ssim"] for k, v in results.items()}),
        header="SSIM box statistics per scheme",
    )
    print_table(
        "PSNR (dB)",
        summarize({k: v["psnr"] for k, v in results.items()}),
    )
    return 0


def _cmd_scheduler(args) -> int:
    ctx = build_context(seed=args.seed)
    results = run_scheduler_comparison(
        ctx, args.users, _placement(args), runs=args.runs, frames=args.frames
    )
    print_table(
        f"Scheduler comparison ({args.users} users)",
        summarize({k: v["ssim"] for k, v in results.items()}),
    )
    return 0


def _cmd_ablation(args) -> int:
    ctx = build_context(seed=args.seed)
    results = run_ablation(
        ctx, args.axis, args.users, _placement(args),
        runs=args.runs, frames=args.frames,
    )
    print_table(
        f"Ablation: {args.axis} ({args.users} users)",
        summarize({k: v["ssim"] for k, v in results.items()}),
    )
    return 0


def _cmd_mobile(args) -> int:
    ctx = build_context(seed=args.seed)
    series = run_mobile_comparison(
        ctx,
        args.users,
        args.moving,
        args.regime,
        duration_s=args.duration,
        seed=args.seed,
    )
    print(f"\n=== Mobile comparison: regime={args.regime}, {args.users} users ===")
    for approach, values in series.items():
        arr = np.asarray(values)
        print(
            f"{approach:18} mean={arr.mean():.3f} min={arr.min():.3f} "
            f"p10={np.percentile(arr, 10):.3f}"
        )
    return 0


def _cmd_sweep(args) -> int:
    """Ad-hoc variant sweep: any SystemConfig axis straight from the shell.

    Every sweep runs on the one campaign engine: ``--jobs`` workers of a
    persistent pool (or this process, at one job).  ``--shards`` splits
    the campaign into individually-seeded shards, each appended to the
    ``--checkpoint`` JSONL as it completes.  A killed run restarted with
    ``--resume`` re-runs only the missing shards and merges to a
    bit-identical result.

    ``--fault-grid AXIS --fault-values V,V,...`` appends one chaos arm per
    value of a :class:`repro.faults.FaultConfig` knob; fault campaigns go
    through the same engine as any other variant set (their overrides
    canonicalize into the checkpoint's campaign hash).

    ``--ap-grid 1,2`` crosses the fault grid with AP counts — the
    blockage-failover comparison (arXiv:1711.06154's multi-link resilience)
    in one command::

        repro-wigig sweep --fault-grid blockage_rate_hz \\
            --fault-values 0,1,2,4 --fault-base preset:blockage_failover \\
            --ap-grid 1,2
    """
    if args.shards is not None and args.checkpoint is None:
        print("--shards requires --checkpoint PATH")
        return 2
    if args.resume and args.shards is None:
        print("--resume requires --shards")
        return 2
    variants = [variant_from_spec(spec) for spec in args.variant]
    if args.fault_grid is not None:
        if not args.fault_values:
            print("--fault-grid requires --fault-values V[,V,...]")
            return 2
        base = {}
        for item in args.fault_base:
            if item.startswith("preset:"):
                preset = item[len("preset:"):].strip()
                if preset not in FAULT_BASE_PRESETS:
                    print(
                        f"unknown --fault-base preset {preset!r} "
                        f"(known: {', '.join(sorted(FAULT_BASE_PRESETS))})"
                    )
                    return 2
                base.update(FAULT_BASE_PRESETS[preset])
                continue
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                print(f"bad --fault-base {item!r} (expected field=value)")
                return 2
            key = key.strip()
            if "." not in key:
                key = f"faults.{key}"
            base[key] = value.strip()
        values = [v.strip() for v in args.fault_values.split(",") if v.strip()]
        if args.ap_grid is not None:
            ap_counts = [
                int(v) for v in args.ap_grid.split(",") if v.strip()
            ]
            variants.extend(
                ap_fault_grid(args.fault_grid, values, ap_counts, base)
            )
        else:
            variants.extend(fault_grid(args.fault_grid, values, base))
    elif args.fault_values or args.fault_base or args.ap_grid:
        print("--fault-values/--fault-base/--ap-grid require --fault-grid AXIS")
        return 2
    if not variants:
        print("need at least one arm: --variant and/or --fault-grid")
        return 2
    ctx = build_context(
        **(QUICK_CONTEXT if args.quick_context else {}), seed=args.seed
    )
    results = run_variant_sweep(
        ctx, variants, args.users, _placement(args),
        runs=args.runs, frames=args.frames, jobs=args.jobs,
        shards=args.shards, checkpoint=args.checkpoint,
        resume=args.resume,
    )
    if args.result_json is not None:
        spec = None
        if args.shards is not None:
            spec = CampaignSpec(
                variants=tuple(variants),
                num_users=args.users,
                placement=_placement(args),
                runs=args.runs,
                frames=args.frames,
                shards=args.shards,
            )
        path = write_results_json(args.result_json, results, spec)
        print(f"results written     : {path}")
    print_table(
        f"Variant sweep ({args.users} users)",
        summarize({k: v["ssim"] for k, v in results.items()}),
        header="SSIM box statistics per variant",
    )
    print_table(
        "PSNR (dB)",
        summarize({k: v["psnr"] for k, v in results.items()}),
    )
    return 0


def _cmd_observe(args) -> int:
    """Run an instrumented scenario and print/save the observability report.

    Everything runs serially in this process (``jobs=1``) so the trace is
    complete — the observability registry is per-process and worker-pool
    telemetry is not merged back.
    """
    obs.OBS.reset()
    obs.configure(mode=args.mode, trace_path=str(args.trace))
    # Build the context *after* enabling observability: reference probes are
    # encoded here, so the encode.jigsaw stage lands in the trace.  The DNN
    # is loaded (or, off the committed shapes, trained) without encoding
    # through the instrumented stages.
    ctx = build_context(seed=args.seed)
    placement = _placement(args)
    for run in range(args.runs):
        run_seed = 9000 + 31 * run
        trace = trace_for_placement(ctx, args.users, placement, run_seed)
        with obs.OBS.span("emulation.run", run=run, frames=args.frames) as span:
            session = multicast_session(ctx, ctx.config(), trace, run_seed)
            outcome = session.run(args.frames)
            span.set(mean_ssim=outcome.mean_ssim)

    report = obs.build_report(obs.OBS)
    print(obs.format_report(report))
    if obs.OBS.mode >= obs.TRACE:
        path = obs.OBS.trace.flush()
        print(f"trace written      : {path}")
    if args.report is not None:
        path = obs.write_report(report, args.report)
        print(f"report written     : {path}")
    missing = [
        stage
        for stage in obs.PIPELINE_STAGES
        if stage not in report["stages"]
    ]
    if missing:
        print(f"WARNING: stages without samples: {missing}")
    return 0


def _cmd_chaos(args) -> int:
    """Stream one seeded fault schedule, twice, and check determinism.

    Runs with counters-mode observability so the ``fault.*`` counters the
    fault controller emits are printed, and replays the identical (seed, schedule,
    trace) ``CHAOS_REPEATS`` times: any divergence in the per-frame/per-user
    OutcomeStats across repeats is a reproducibility bug and exits nonzero.
    """
    from .faults import FaultController

    pairs = {}
    for item in args.fault:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            print(f"bad --fault {item!r} (expected field=value)")
            return 2
        pairs[f"faults.{key.strip()}"] = value.strip()
    pairs.setdefault("faults.seed", str(args.seed))
    overrides = parse_config_overrides(pairs)

    ctx = build_context(seed=args.seed)
    config = ctx.config(**overrides)
    trace = trace_for_placement(ctx, args.users, _placement(args), args.seed + 11)
    controller = FaultController.from_config(
        config.faults, args.frames / config.fps, trace.user_ids()
    )
    print(f"\n=== Chaos run: {args.users} users, {args.frames} frames, "
          f"seed={config.faults.seed} ===")
    print("schedule:", controller.schedule.summary() or "(no events drawn)")

    fingerprints = []
    counters = {}
    for repeat in range(CHAOS_REPEATS):
        with obs.observed("counters"):
            # The session draws a fresh controller from config.faults each
            # repeat: same seed, same schedule.
            session = multicast_session(ctx, config, trace, args.seed)
            outcome = session.run(args.frames)
            counters = obs.OBS.counters()
        fingerprints.append(outcome.fingerprint())
        print(f"run {repeat}: mean SSIM={outcome.mean_ssim:.4f} "
              f"mean PSNR={outcome.mean_psnr_db:.2f} dB "
              f"({len(outcome.stats)} frame/user stats)")

    fault_counters = {
        name: value for name, value in sorted(counters.items())
        if name.startswith("fault.")
    }
    print("\nfault.* counters (last run):")
    if fault_counters:
        for name, value in fault_counters.items():
            print(f"  {name:40} {value:.0f}")
    else:
        print("  (none fired)")

    deterministic = all(fp == fingerprints[0] for fp in fingerprints[1:])
    print(f"\ndeterministic across {CHAOS_REPEATS} same-seed runs: "
          f"{'yes' if deterministic else 'NO — OutcomeStats diverged'}")
    return 0 if deterministic else 1


def _cmd_serve(args) -> int:
    """Run the asyncio multicast service until SIGTERM/SIGINT.

    Sessions are created at runtime through ``POST /start`` on the
    control plane, each streaming in a process of its own; receivers join
    over the length-prefixed JSON protocol.  Both termination signals
    trigger the graceful drain path: receivers get ``bye`` plus a grace
    window for in-flight feedback, session processes stop at their next
    frame boundary and write their JSONL traces, and the server reaps
    every one of them and flushes its own trace before it exits.
    """
    import asyncio
    import signal

    from .service import ServiceServer

    if args.obs != "off":
        obs.configure(mode=args.obs, trace_path=str(args.trace))
    ctx = build_context(
        **(QUICK_CONTEXT if args.quick_context else {}), seed=args.seed
    )

    def _log(line: str) -> None:
        # Unbuffered: supervisors (and the smoke test) parse these lines
        # to discover the ephemeral ports before the first request.
        print(line, flush=True)

    async def _serve() -> None:
        server = ServiceServer(
            ctx,
            host=args.host,
            receiver_port=args.receiver_port,
            control_port=args.control_port,
            frame_interval_s=args.frame_interval,
            log=_log,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await server.serve_until(stop)

    asyncio.run(_serve())
    return 0


def _cmd_quality_model(args) -> int:
    from .quality import train_quality_models

    trained = train_quality_models(dnn_epochs=args.epochs, seed=args.seed)
    print("\n=== Quality model test MSE (Table 1) ===")
    for name, mse in trained.test_mse.items():
        print(f"{name:20} {mse:.3e}")
    print("\nPer-layer DNN accuracy (Fig 1b):")
    for layer in range(4):
        acc = trained.per_layer_accuracy(layer)
        print(
            f"layer {layer}: mean={acc['mean']:.3f} "
            f"min={acc['min']:.3f} max={acc['max']:.3f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-wigig",
        description="Reproduction experiments for the WiGig 4K multicast paper.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--users", type=int, default=3)
        p.add_argument("--distance", type=float, default=3.0)
        p.add_argument("--range", type=float, nargs=2, default=None,
                       metavar=("MIN", "MAX"))
        p.add_argument("--mas", type=float, default=60.0,
                       help="maximum angular spacing, degrees")
        p.add_argument("--runs", type=int, default=3)
        p.add_argument("--frames", type=int, default=9)

    p = sub.add_parser("beamforming", help="compare the four beamforming schemes")
    common(p)
    p.set_defaults(func=_cmd_beamforming)

    p = sub.add_parser("scheduler", help="optimized scheduler vs round robin")
    common(p)
    p.set_defaults(func=_cmd_scheduler)

    p = sub.add_parser("ablation", help="source-coding / rate-control on-off")
    common(p)
    p.add_argument("--axis", choices=["source_coding", "rate_control"],
                   default="source_coding")
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser("mobile", help="trace-driven mobile comparison")
    p.add_argument("--users", type=int, default=1)
    p.add_argument("--moving", type=int, nargs="*", default=[0])
    p.add_argument("--regime", choices=["high", "low", "env"], default="high")
    p.add_argument("--duration", type=float, default=3.0)
    p.set_defaults(func=_cmd_mobile)

    p = sub.add_parser(
        "sweep",
        help="ad-hoc variant sweep over any SystemConfig fields",
    )
    common(p)
    p.add_argument(
        "--variant", action="append", default=[],
        metavar="NAME[:FIELD=VALUE,...]",
        help="one comparison arm, e.g. rr:scheduler=round_robin "
             "(repeat for more arms)",
    )
    p.add_argument(
        "--fault-grid", default=None, metavar="AXIS",
        help="sweep one FaultConfig knob (e.g. blockage_rate_hz); adds "
             "one arm per --fault-values entry",
    )
    p.add_argument(
        "--fault-values", default=None, metavar="V[,V,...]",
        help="comma-separated grid points for --fault-grid",
    )
    p.add_argument(
        "--fault-base", action="append", default=[],
        metavar="FIELD=VALUE|preset:NAME",
        help="FaultConfig override shared by every --fault-grid arm "
             "(repeat for more); preset:blockage_failover expands to the "
             "deep-LoS-blockage base used by the multi-AP failover curve",
    )
    p.add_argument(
        "--ap-grid", default=None, metavar="N[,N,...]",
        help="cross --fault-grid with these AP counts (e.g. 1,2): one "
             "<n>ap:<axis>=<value> arm per combination, all sharing one "
             "superset trace per placement",
    )
    p.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="split the campaign into N checkpointable shards on a "
             "persistent worker pool (requires --checkpoint)",
    )
    p.add_argument(
        "--checkpoint", type=Path, default=None, metavar="PATH",
        help="JSONL checkpoint the sharded campaign appends to",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="load finished shards from --checkpoint and run only the rest",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or 1)",
    )
    p.add_argument(
        "--result-json", type=Path, default=None, metavar="PATH",
        help="dump merged results as hex-float JSON for bit-exact diffing",
    )
    p.add_argument(
        "--quick-context", action="store_true",
        help="small low-res experiment context (CI-sized campaigns)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "observe",
        help="run an instrumented scenario and emit the observability report",
    )
    common(p)
    p.add_argument(
        "--mode", choices=["counters", "trace"], default="trace",
        help="observability level (default: trace)",
    )
    p.add_argument(
        "--trace", type=Path, default=Path("repro_obs_trace.jsonl"),
        help="JSONL trace destination (trace mode only)",
    )
    p.add_argument(
        "--report", type=Path, default=None,
        help="also save the aggregate report as JSON",
    )
    p.set_defaults(func=_cmd_observe, runs=1, frames=6)

    p = sub.add_parser(
        "chaos",
        help="stream a seeded fault schedule and verify determinism",
    )
    common(p)
    p.add_argument(
        "--fault", action="append", default=[],
        metavar="FIELD=VALUE",
        help="one FaultConfig knob, e.g. blockage_rate_hz=2 "
             "(repeat for more; seed defaults to --seed)",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="run the asyncio multicast service (REST control plane + "
             "receiver protocol)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--receiver-port", type=int, default=0,
        help="receiver-protocol TCP port (default: ephemeral)",
    )
    p.add_argument(
        "--control-port", type=int, default=0,
        help="REST control-plane port (default: ephemeral)",
    )
    p.add_argument(
        "--frame-interval", type=float, default=0.0, metavar="SECONDS",
        help="how long each session process waits for control commands "
             "between frames (0 = stream as fast as its core allows)",
    )
    p.add_argument(
        "--obs", choices=["off", "counters", "trace"], default="counters",
        help="observability mode for the server process (default: counters)",
    )
    p.add_argument(
        "--trace", type=Path, default=Path("repro_obs_trace.jsonl"),
        help="server-wide JSONL trace destination (--obs trace only)",
    )
    p.add_argument(
        "--quick-context", action="store_true",
        help="small low-res experiment context (CI-sized sessions)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("quality-model", help="train and evaluate Table 1 models")
    p.add_argument("--epochs", type=int, default=300)
    p.set_defaults(func=_cmd_quality_model)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

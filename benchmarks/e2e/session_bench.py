"""Session workloads: real ``StreamSession``s stepped frame by frame.

``run`` builds the workload's sessions from the generated seeds, streams
them, checks the outputs and returns the metrics.  Untraced, it yields the
end-to-end metrics.  Traced, each session is built the same way and then
its stages, enumerator, beam planner, optimizer, transmitter and probes are
replaced by timing proxies; half the sessions are also streamed untraced on
the same inputs, so the outcome digests can be compared and the tracing
overhead measured.  All times are wall clock.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import layers
import stats
from tracing import ATTRS, FRAME, NAME, PARENT, TimedProxy, Tracer, durations, self_times
from workloads import ARC, FRAMES_PER_BEACON, SessionWorkload, session_inputs

STAGES = ("plan", "encode", "map", "transmit", "feedback", "score")

#: Tail percentile of every frame-time metric: the highest one that still
#: has ten samples beyond it on the smallest workload (54 frames).
TAIL = 80.0

#: Stage spans must sum to the frame span within this share.
STAGE_SUM_TOLERANCE = 0.05


@dataclass
class SessionRun:
    """One streamed session: measured frame times, outcome and set-up split."""

    frame_ms: List[float]
    setup_s: float
    failed_frames: int
    trace_record_s: float
    streamer_init_s: float
    begin_s: float
    ticks: int
    outcome: Any
    frame_budget_ms: float


@dataclass
class Result:
    """What a workload run hands back to ``run.py``."""

    metrics: Dict[str, float]
    extras: Dict[str, Any]
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)


def _build(ctx: Any, workload: SessionWorkload, seed: int, index: int) -> Tuple[Any, Dict[str, Any]]:
    """Placement + trace + streamer + session + ``begin()``, each timed."""
    from repro.core import MulticastStreamer
    from repro.video.dataset import FrameQualityProbe

    inputs = session_inputs(seed, index)
    # Fresh probes per session: a probe's mask memo fills from the session's
    # own warm-up frames, never from another placement's masks or from the
    # untraced twin of the same session.
    probes = [
        FrameQualityProbe(p.codec, p.reference, p.layered, p.cumulative_ssim, p.blank_ssim)
        for p in ctx.probes
    ]
    total = workload.warmup_frames + workload.measured_frames
    t0 = perf_counter()
    config = ctx.config(**workload.overrides(ctx.base_config, inputs))
    positions = ctx.scenario.place_arc(
        workload.users, ARC[0], ARC[1], seed=inputs.placement_seed
    )
    # One snapshot per beacon for every streamed frame, so each replan
    # reads a fresh snapshot instead of the hold past a 1 s trace.
    ticks = math.ceil(total / config.frames_per_beacon)
    trace = ctx.scenario.static_trace(
        positions, duration_s=ticks * config.beacon_interval_s,
        seed=inputs.trace_seed, num_aps=config.num_aps,
    )
    t1 = perf_counter()
    streamer = MulticastStreamer(
        config, ctx.dnn, probes, ctx.scenario.channel_model,
        seed=inputs.streamer_seed,
    )
    session = streamer.session(trace)
    t2 = perf_counter()
    session.begin(total)
    t3 = perf_counter()
    return session, {
        "setup_s": t3 - t0, "trace_record_s": t1 - t0,
        "streamer_init_s": t2 - t1, "begin_s": t3 - t2, "ticks": ticks,
    }


def install_proxies(session: Any, tracer: Tracer) -> None:
    """Replace the session's components by pass-through timing proxies."""
    streamer = session.streamer
    session.stages = [
        TimedProxy(stage, tracer, {"run": f"core.{stage.name}"}, _describe_stage(stage.name))
        for stage in session.stages
    ]
    enumerator = streamer.enumerator
    enumerator.planner = TimedProxy(
        enumerator.planner, tracer, {"plan_group": "beamforming.plan_group"}
    )
    streamer.enumerator = TimedProxy(
        enumerator, tracer, {"enumerate": "scheduling.enumerate"},
        lambda groups, args: {"groups": len(groups)},
    )
    streamer.optimizer = TimedProxy(
        streamer.optimizer, tracer, {"optimize": "scheduling.allocate"}
    )
    streamer.transmitter = TimedProxy(
        streamer.transmitter, tracer, {"transmit": "transport.transmit"}
    )
    streamer.probes = [
        TimedProxy(probe, tracer, {"measure_masks": "video.measure_masks"})
        for probe in streamer.probes
    ]


def _describe_stage(name: str):
    if name == "map":
        def describe(_result: Any, args: tuple) -> Dict[str, Any]:
            ctx = args[0]
            per_ap = ctx.ap_assignments or [ctx.assignments]
            return {"units": sum(len(a) for a in per_ap if a is not None)}
        return describe
    if name == "transmit":
        return lambda _result, args: _describe_transmission(args[0])
    if name == "score":
        return lambda _result, args: {"users": len(args[0].users)}
    return None


def _describe_transmission(ctx: Any) -> Dict[str, Any]:
    result = ctx.result
    if result.cohort is not None:
        rows = result.cohort.member_rows(ctx.users)
        received = int(result.cohort.packets_received[rows].sum())
        lost = int(result.cohort.packets_lost[rows].sum())
    else:
        received = sum(r.packets_received for r in result.receptions.values())
        lost = sum(r.packets_lost for r in result.receptions.values())
    return {
        "fastpath": result.cohort is not None,
        "packets_sent": result.packets_sent,
        "queue_drops": result.packets_dropped_at_queue,
        "received": received,
        "lost": lost,
        "airtime_s": result.airtime_s,
        "feedback_rounds": result.feedback_rounds_used,
    }


def stream_session(
    ctx: Any, workload: SessionWorkload, seed: int, index: int,
    tracer: Optional[Tracer], errors: List[str],
) -> SessionRun:
    from repro.fountain.raptor import COEFFICIENT_CACHE

    # A live session never sees a frame index twice; rows an earlier
    # session of this process cached for the same indices would be a gift.
    COEFFICIENT_CACHE.clear()
    session, setup = _build(ctx, workload, seed, index)
    if tracer is not None:
        install_proxies(session, tracer)
    total = workload.warmup_frames + workload.measured_frames
    frame_ms: List[float] = []
    failed = 0
    for frame in range(total):
        span = None
        if tracer is not None:
            tracer.frame = index * total + frame
            span = tracer.begin("core.frame")
        start = perf_counter()
        try:
            session.stream_frame(frame)
        except Exception:  # noqa: BLE001 - a raising frame is a failed frame
            if frame >= workload.warmup_frames:
                failed += 1
            if not errors:
                traceback.print_exc(file=sys.stderr)
            errors.append(f"session {index} frame {frame} raised")
        end = perf_counter()
        if span is not None:
            tracer.end(span)
        if frame >= workload.warmup_frames:
            frame_ms.append((end - start) * 1e3)
    return SessionRun(
        frame_ms=frame_ms, failed_frames=failed, outcome=session.outcome,
        frame_budget_ms=1e3 / session.config.fps, **setup,
    )


def _check_outcome(
    run: SessionRun, workload: SessionWorkload, index: int, errors: List[str]
) -> int:
    """Stats count and SSIM range; returns frames with non-finite stats."""
    rows = run.outcome.stats
    total = workload.warmup_frames + workload.measured_frames
    if len(rows) != total * workload.users:
        errors.append(
            f"session {index}: {len(rows)} stats, expected "
            f"{total} frames x {workload.users} members"
        )
    bad_frames = set()
    for row in rows:
        if not (math.isfinite(row.ssim) and math.isfinite(row.psnr_db)):
            bad_frames.add(row.frame_index)
        elif not 0.0 <= row.ssim <= 1.0:
            errors.append(f"session {index}: SSIM {row.ssim} outside [0, 1]")
            break
    return sum(1 for f in bad_frames if f >= workload.warmup_frames)


def run(
    workload: SessionWorkload, seed: int, trace: bool, smoke: bool, out_dir: Path,
) -> Result:
    from repro.emulation import build_context

    min_beyond = 0 if smoke else stats.MIN_BEYOND
    errors: List[str] = []
    cache_warm = any((out_dir / "cache").glob("dnn_*.npz"))
    t0 = perf_counter()
    ctx = build_context()
    context_build_s = perf_counter() - t0

    # Let process-wide caches fill and lazy imports finish before the first
    # set-up is timed: one short throwaway session on a placement no
    # measured session uses.
    throwaway = replace(workload, warmup_frames=0, measured_frames=2 * FRAMES_PER_BEACON)
    stream_session(ctx, throwaway, seed, workload.sessions, None, errors)

    tracer = Tracer() if trace else None
    runs: List[SessionRun] = []
    # In a traced run the first half of the sessions is also streamed
    # untraced on the same inputs, to compare digests and frame times; a
    # twin for every session would double the run.
    twins: List[SessionRun] = []
    twinned = (workload.sessions + 1) // 2 if trace else 0
    for index in range(workload.sessions):
        # Whichever twin streams second finds the process a little warmer
        # (allocator, Precode.for_k), so the twins take turns going first.
        traced_first = (seed + index) % 2 == 1
        if index < twinned and not traced_first:
            twins.append(stream_session(ctx, workload, seed, index, None, errors))
        runs.append(stream_session(ctx, workload, seed, index, tracer, errors))
        if index < twinned and traced_first:
            twins.append(stream_session(ctx, workload, seed, index, None, errors))

    frame_ms = [ms for r in runs for ms in r.frame_ms]
    attempted = len(frame_ms)
    failed = sum(r.failed_frames for r in runs)
    for index, r in enumerate(runs):
        failed += _check_outcome(r, workload, index, errors)
    digests = [r.outcome.fingerprint() for r in runs]
    ssim_mean = stats.mean([r.outcome.mean_ssim for r in runs])
    if not ssim_mean >= workload.ssim_floor:
        errors.append(f"ssim_mean {ssim_mean:.4f} below floor {workload.ssim_floor}")
    extras: Dict[str, Any] = {
        "digests": digests,
        "frames_measured": attempted,
        "context_cache_warm": cache_warm,
        "context_build_s": context_build_s,
    }

    if not trace:
        budget_ms = runs[0].frame_budget_ms
        airtime_missed = [
            not row.deadline_met
            for r in runs for row in r.outcome.stats
            if row.frame_index >= workload.warmup_frames
        ]
        extras.update({
            # A frame that raised is in frame_ms with the time it took to
            # fail and in failed; both count it as a miss.
            "deadline_miss_ratio": stats.mean([ms > budget_ms for ms in frame_ms]),
            "airtime_miss_ratio": stats.mean(airtime_missed),
            "failed_ratio": failed / attempted,
        })
        metrics = {
            "frame_ms_p50": stats.percentile(frame_ms, 50.0),
            f"frame_ms_p{TAIL:g}": stats.percentile(frame_ms, TAIL, min_beyond),
            "fps_sustained": attempted / (sum(frame_ms) / 1e3),
            "ssim_mean": ssim_mean,
            "setup_s": statistics.median(r.setup_s for r in runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return Result(metrics, extras, attempted, failed, errors)

    assert tracer is not None
    if [r.outcome.fingerprint() for r in twins] != digests[:twinned]:
        errors.append("traced and untraced outcome digests differ: the proxies are not transparent")
    tracer.write_jsonl(out_dir / f"{workload.name}.trace.jsonl")
    metrics = _layer_metrics(tracer, workload, min_beyond, errors)
    metrics.update(layers.direct_metrics(ctx, smoke))
    metrics.update({
        # Traced / untraced fps_sustained over the twinned sessions' frames.
        "core.trace_overhead_ratio": sum(ms for r in twins for ms in r.frame_ms)
        / sum(ms for r in runs[:twinned] for ms in r.frame_ms),
        "emulation.context_build_s": context_build_s,
        "emulation.trace_record_ms_per_user_beacon": statistics.median(
            r.trace_record_s * 1e3 / (workload.users * r.ticks) for r in runs
        ),
        "emulation.streamer_init_ms": statistics.median(r.streamer_init_s for r in runs) * 1e3,
        "faults.schedule_build_ms": statistics.median(r.begin_s for r in runs) * 1e3,
    })
    return Result(metrics, extras, attempted, failed, errors)


def _layer_metrics(
    tracer: Tracer, workload: SessionWorkload, min_beyond: int, errors: List[str]
) -> Dict[str, float]:
    """Per-layer numbers from the spans of the measured frames."""
    total = workload.warmup_frames + workload.measured_frames
    spans = tracer.spans
    wall = durations(spans)
    own = self_times(spans)
    measured = [
        i for i, span in enumerate(spans)
        if span[FRAME] % total >= workload.warmup_frames
    ]
    by_name: Dict[str, List[int]] = {}
    for i in measured:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def ms(name: str, source: List[float] = wall) -> List[float]:
        return [source[i] * 1e3 for i in by_name.get(name, [])]

    def attrs(name: str, key: str) -> List[float]:
        return [spans[i][ATTRS][key] for i in by_name.get(name, [])]

    frames = len(by_name["core.frame"])
    frame_total_ms = sum(ms("core.frame"))
    stage_total_ms = sum(sum(ms(f"core.{stage}")) for stage in STAGES)
    if abs(frame_total_ms - stage_total_ms) > STAGE_SUM_TOLERANCE * frame_total_ms:
        errors.append(
            f"stage spans sum to {stage_total_ms:.1f} ms, frame spans to "
            f"{frame_total_ms:.1f} ms: more than {STAGE_SUM_TOLERANCE:.0%} apart"
        )

    out: Dict[str, float] = {}
    for stage in STAGES:
        # One span per frame and stage, so the mean is per frame.
        out[f"core.{stage}_ms_mean"] = sum(ms(f"core.{stage}")) / frames
        out[f"core.{stage}_share"] = sum(ms(f"core.{stage}")) / frame_total_ms
    for stage in ("plan", "transmit", "score"):
        out[f"core.{stage}_ms_p{TAIL:g}"] = stats.percentile(
            ms(f"core.{stage}"), TAIL, min_beyond
        )
    out["core.frame_self_ms_mean"] = sum(ms("core.frame", own)) / frames

    enumerations = len(by_name.get("scheduling.enumerate", []))
    out["core.plans_per_frame"] = enumerations / frames
    out["scheduling.enumerate_ms_mean"] = stats.mean(ms("scheduling.enumerate"))
    out["scheduling.enumerate_self_ms_mean"] = stats.mean(ms("scheduling.enumerate", own))
    allocate = ms("scheduling.allocate")
    if not allocate:
        # Round-robin allocates inside the plan stage, outside any proxy:
        # what the replanning frames spend beyond enumeration.
        planning = {spans[i][PARENT] for i in by_name.get("scheduling.enumerate", [])}
        allocate = [own[i] * 1e3 for i in planning]
    out["scheduling.allocate_ms_mean"] = stats.mean(allocate)
    out["scheduling.groups_per_plan"] = stats.mean(attrs("scheduling.enumerate", "groups"))
    out["scheduling.units_per_frame"] = stats.mean(attrs("core.map", "units"))

    plan_groups = ms("beamforming.plan_group")
    out["beamforming.plan_group_us_mean"] = stats.mean(plan_groups) * 1e3
    out["beamforming.plan_group_calls_per_plan"] = (
        len(plan_groups) / enumerations if enumerations else 0.0
    )

    transmits = ms("transport.transmit")
    out["transport.transmit_ms_mean"] = stats.mean(transmits)
    out["transport.transmit_calls_per_frame"] = len(transmits) / frames
    out["transport.fastpath_frame_ratio"] = stats.mean(attrs("core.transmit", "fastpath"))
    out["transport.packets_sent_per_frame"] = stats.mean(attrs("core.transmit", "packets_sent"))
    out["transport.queue_drops_per_frame"] = stats.mean(attrs("core.transmit", "queue_drops"))
    received = sum(attrs("core.transmit", "received"))
    lost = sum(attrs("core.transmit", "lost"))
    out["transport.loss_ratio"] = lost / (received + lost) if received + lost else 0.0
    out["transport.airtime_ms_mean"] = stats.mean(attrs("core.transmit", "airtime_s")) * 1e3
    out["transport.feedback_rounds_mean"] = stats.mean(attrs("core.transmit", "feedback_rounds"))

    measures = ms("video.measure_masks")
    out["video.measure_masks_ms_mean"] = stats.mean(measures)
    out["video.measure_calls_per_frame"] = len(measures) / frames
    out["video.measure_calls_per_user"] = len(measures) / sum(attrs("core.score", "users"))
    return out

"""Experiment runners shared by the benchmark harness.

Thin, figure-oriented shims over the campaign engine
(:mod:`repro.emulation.shard`), one per experiment family:

* :func:`run_beamforming_comparison` — Figs 5, 6, 7, 11, 12, 13
* :func:`run_scheduler_comparison` — Figs 8, 15
* :func:`run_ablation` — Figs 9, 10, 14 (rate control / source coding)
* :func:`run_mobile_comparison` — Figs 16, 17 (vs No Update and the MPCs)

Each runner builds its variant list, delegates to
:func:`~repro.emulation.shard.run_variant_sweep` (random placements) or
:func:`~repro.emulation.shard.run_session_sweep` (one shared mobile trace),
and returns raw per-run samples so the benchmarks can print the same box
statistics the paper plots.  Seed schedules are per-family constants, so
metrics are identical at any job count and unchanged from the historical
monolithic runners.

The heavyweight shared state lives in :mod:`repro.emulation.context`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines import AbrSession, FastMpc, RobustMpc
from ..core import MulticastStreamer
from ..errors import EmulationError
from ..types import AdaptationPolicy, BeamformingScheme, SchedulerKind
from .context import DEFAULT_FRAMES, DEFAULT_RUNS, ExperimentContext
from .shard import run_session_sweep, run_variant_sweep
from .sweep import Variant


def run_beamforming_comparison(
    ctx: ExperimentContext,
    num_users: int,
    placement: Tuple,
    schemes: Sequence[BeamformingScheme] = tuple(BeamformingScheme),
    runs: int = DEFAULT_RUNS,
    frames: int = DEFAULT_FRAMES,
    config_overrides: Optional[dict] = None,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, List[float]]]:
    """Per-scheme SSIM/PSNR samples over random placements."""
    variants = [
        Variant(scheme.value, {"scheme": scheme, **(config_overrides or {})})
        for scheme in schemes
    ]
    return run_variant_sweep(
        ctx, variants, num_users, placement, runs, frames,
        jobs=jobs, seed_base=1000, seed_stride=17,
    )


def run_scheduler_comparison(
    ctx: ExperimentContext,
    num_users: int,
    placement: Tuple,
    runs: int = DEFAULT_RUNS,
    frames: int = DEFAULT_FRAMES,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, List[float]]]:
    """Optimized scheduler vs round-robin (both with optimized multicast)."""
    variants = [
        Variant(kind.value, {"scheduler": kind}) for kind in SchedulerKind
    ]
    return run_variant_sweep(
        ctx, variants, num_users, placement, runs, frames,
        jobs=jobs, seed_base=2000, seed_stride=13,
    )


def run_ablation(
    ctx: ExperimentContext,
    axis: str,
    num_users: int,
    placement: Tuple,
    runs: int = DEFAULT_RUNS,
    frames: int = DEFAULT_FRAMES,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, List[float]]]:
    """On/off comparison along ``'source_coding'`` or ``'rate_control'``."""
    if axis not in ("source_coding", "rate_control"):
        raise EmulationError(f"unknown ablation axis {axis!r}")
    variants = [
        Variant(f"with_{axis}", {axis: True}),
        Variant(f"without_{axis}", {axis: False}),
    ]
    return run_variant_sweep(
        ctx, variants, num_users, placement, runs, frames,
        jobs=jobs, seed_base=3000, seed_stride=29,
    )


#: The four approaches of the mobile comparison (Sec 4.3.4).
MOBILE_APPROACHES = ("realtime_update", "no_update", "robust_mpc", "fast_mpc")


def _multicast_session(policy: AdaptationPolicy, ctx: ExperimentContext, seed: int):
    """Session factory for the multicast system under one adaptation policy."""
    config = ctx.config(adaptation=policy)
    return MulticastStreamer(
        config, ctx.dnn, ctx.probes, ctx.scenario.channel_model, seed=seed + 7
    )


def _abr_session(controller_factory, ctx: ExperimentContext, seed: int):
    """Session factory for one MPC baseline (unicast DASH)."""
    return AbrSession(
        controller_factory,
        ctx.scenario.channel_model,
        ctx.rate_quality(),
        ctx.freeze_model(),
        fps=ctx.base_config.fps,
        rate_scale=ctx.base_config.rate_scale,
        seed=seed + 7,
    )


def mobile_variant(approach: str) -> Variant:
    """The session-factory variant for one mobile-comparison approach."""
    if approach == "realtime_update":
        factory = partial(_multicast_session, AdaptationPolicy.REALTIME_UPDATE)
    elif approach == "no_update":
        factory = partial(_multicast_session, AdaptationPolicy.NO_UPDATE)
    elif approach == "robust_mpc":
        factory = partial(_abr_session, RobustMpc)
    elif approach == "fast_mpc":
        factory = partial(_abr_session, FastMpc)
    else:
        raise EmulationError(
            f"unknown mobile approach {approach!r} "
            f"(known: {', '.join(MOBILE_APPROACHES)})"
        )
    return Variant(approach, session_factory=factory)


def run_mobile_comparison(
    ctx: ExperimentContext,
    num_users: int,
    moving_users: Sequence[int],
    regime: str,
    duration_s: float = 3.0,
    approaches: Sequence[str] = MOBILE_APPROACHES,
    seed: int = 0,
    arc_distance_m: float = 5.0,
    jobs: Optional[int] = None,
) -> Dict[str, List[float]]:
    """Mean-over-users SSIM time series per approach on one shared trace.

    Args:
        ctx: Shared context.
        num_users: Receivers in the trace.
        moving_users: Which receivers walk (ignored for ``regime='env'``).
        regime: ``'high'`` / ``'low'`` (moving receivers) or ``'env'``
            (moving environment).
        duration_s: Trace length.
        approaches: Subset of :data:`MOBILE_APPROACHES`.
        seed: Trace seed — all approaches replay the identical trace, the
            point of trace-driven evaluation.
        arc_distance_m: User distance for the 'env' regime.
        jobs: Worker processes (approaches fan out; ``REPRO_JOBS`` default).
    """
    if regime == "env":
        trace = ctx.scenario.moving_environment_trace(
            num_users, distance_m=arc_distance_m, mas_deg=60,
            duration_s=duration_s, seed=seed,
        )
    else:
        trace = ctx.scenario.mobile_receiver_trace(
            num_users, moving_users, duration_s, rss_regime=regime, seed=seed
        )
    num_frames = int(duration_s * ctx.base_config.fps)
    variants = [mobile_variant(approach) for approach in approaches]
    return run_session_sweep(
        ctx, variants, trace, num_users, num_frames, seed=seed, jobs=jobs
    )

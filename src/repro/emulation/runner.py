"""Experiment runners shared by the benchmark harness.

Thin, figure-oriented shims over the campaign engine
(:mod:`repro.emulation.shard`), one per experiment family:

* :func:`run_beamforming_comparison` — Figs 5, 6, 7, 11, 12, 13
* :func:`run_scheduler_comparison` — Figs 8, 15
* :func:`run_ablation` — Figs 9, 10, 14 (rate control / source coding)
* :func:`run_mobile_comparison` — Figs 16, 17 (vs No Update and the MPCs)

Each runner builds its variant list and a trace spec, delegates to
:func:`~repro.emulation.shard.run_variant_sweep`, and returns raw per-run
samples so the benchmarks can print the same box statistics the paper
plots; the mobile comparison is one run over a walk or
moving-environment trace and returns its per-frame series.  Seed
schedules are per-family constants, so metrics are identical at any job
count and unchanged from the historical monolithic runners.

The heavyweight shared state lives in :mod:`repro.emulation.context`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import EmulationError
from ..types import (
    AdaptationPolicy,
    BeamformingScheme,
    SchedulerKind,
    frame_count,
)
from .context import DEFAULT_FRAMES, DEFAULT_RUNS, ExperimentContext
from .shard import run_variant_sweep
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


#: The four approaches of the mobile comparison (Sec 4.3.4) as variants:
#: the multicast system under each adaptation policy, and the two MPCs.
MOBILE_VARIANTS = {
    "realtime_update": Variant(
        "realtime_update", {"adaptation": AdaptationPolicy.REALTIME_UPDATE}
    ),
    "no_update": Variant("no_update", {"adaptation": AdaptationPolicy.NO_UPDATE}),
    "robust_mpc": Variant("robust_mpc", approach="robust_mpc"),
    "fast_mpc": Variant("fast_mpc", approach="fast_mpc"),
}

#: The names of :data:`MOBILE_VARIANTS`, in figure order.
MOBILE_APPROACHES = tuple(MOBILE_VARIANTS)


def mobile_variant(approach: str) -> Variant:
    """The variant of one mobile-comparison approach."""
    if approach not in MOBILE_VARIANTS:
        raise EmulationError(
            f"unknown mobile approach {approach!r} "
            f"(known: {', '.join(MOBILE_APPROACHES)})"
        )
    return MOBILE_VARIANTS[approach]


def run_mobile_comparison(
    ctx: ExperimentContext,
    num_users: int,
    moving_users: Sequence[int],
    regime: str,
    duration_s: float = 3.0,
    approaches: Sequence[str] = MOBILE_APPROACHES,
    seed: int = 0,
    arc_distance_m: float = 5.0,
) -> Dict[str, List[float]]:
    """Mean-over-users SSIM time series per approach on one shared trace.

    One run of :func:`~repro.emulation.shard.run_variant_sweep` with run
    seed ``seed``, over a ``'walk'`` or ``'env'`` trace spec.

    Args:
        ctx: Shared context.
        num_users: Receivers in the trace.
        moving_users: Which receivers walk (ignored for ``regime='env'``).
        regime: ``'high'`` / ``'low'`` (moving receivers) or ``'env'``
            (moving environment).
        duration_s: Trace length.
        approaches: Subset of :data:`MOBILE_APPROACHES`.
        seed: Run seed — all approaches replay the identical trace, the
            point of trace-driven evaluation.
        arc_distance_m: User distance for the 'env' regime.
    """
    if regime == "env":
        placement: Tuple = ("env", arc_distance_m, duration_s)
    else:
        placement = ("walk", regime, tuple(moving_users), duration_s)
    merged = run_variant_sweep(
        ctx,
        [mobile_variant(approach) for approach in approaches],
        num_users,
        placement,
        runs=1,
        frames=frame_count(duration_s, ctx.base_config.fps),
        seed_base=seed,
    )
    return {name: metrics["frame_ssim"][0] for name, metrics in merged.items()}

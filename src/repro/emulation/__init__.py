"""Emulation harness: scenarios, traces, experiment runners, statistics.

Reproduces the paper's evaluation methodology (Sec 4): the same encoder,
decoder, scheduler, source coding and rate control run in testbed and
emulation; here the "testbed" is the ray-traced channel at close range with
few users, and "emulation" covers the larger topologies and the trace-driven
mobile experiments.
"""

from .context import ExperimentContext, build_context, trace_for_placement
from .scenario import EmulationScenario
from .stats import BoxStats, summarize
from .sweep import (
    Variant,
    ap_fault_grid,
    fault_grid,
    sweep_num_aps,
    merge_runs,
    parse_config_overrides,
    variant_from_spec,
)
from .shard import (
    CampaignSpec,
    CheckpointError,
    load_checkpoint,
    merge_shards,
    merged_to_jsonable,
    plan_shards,
    run_session_sweep,
    run_variant_sweep,
    write_results_json,
)
from .runner import (
    MOBILE_APPROACHES,
    run_ablation,
    run_beamforming_comparison,
    run_mobile_comparison,
    run_scheduler_comparison,
)

__all__ = [
    "EmulationScenario",
    "BoxStats",
    "summarize",
    "ExperimentContext",
    "build_context",
    "trace_for_placement",
    "Variant",
    "variant_from_spec",
    "parse_config_overrides",
    "fault_grid",
    "ap_fault_grid",
    "sweep_num_aps",
    "merge_runs",
    "run_variant_sweep",
    "run_session_sweep",
    "CampaignSpec",
    "CheckpointError",
    "load_checkpoint",
    "merge_shards",
    "merged_to_jsonable",
    "plan_shards",
    "write_results_json",
    "MOBILE_APPROACHES",
    "run_beamforming_comparison",
    "run_scheduler_comparison",
    "run_ablation",
    "run_mobile_comparison",
]

"""What a variant sweep is: its arms, its runs, and its one worker task.

Every experiment family in the paper is the same shape: stream the *same*
channel conditions under a handful of **variants** and compare the
resulting quality.  This module owns that shape once, as data:

* :class:`Variant` names one arm of a comparison: an ``approach`` (the
  multicast system, or the Robust/Fast MPC unicast DASH baselines) and,
  for the multicast system, :class:`~repro.core.SystemConfig` field
  overrides.
* :func:`parse_config_overrides`, :func:`variant_from_spec` and the
  :func:`fault_grid` / :func:`ap_fault_grid` helpers turn shell strings
  and grids into variants.
* One run is a trace spec (see
  :func:`~repro.emulation.context.trace_for_placement`) and a run seed.
  Its trace is recorded from the run seed and every streamer is seeded
  ``run seed + STREAMER_SEED_OFFSET``; :func:`multicast_session` is the
  one constructor of a run's multicast session, shared by campaign
  points, served sessions and the CLI.
* The worker task :func:`_run_task` streams every variant on one run's
  trace and reduces each outcome to (mean SSIM, mean PSNR, per-frame
  mean-over-users SSIM); :func:`merge_runs` stitches the runs into
  per-variant series.

The campaign engine that runs the task — in-process or on the persistent
worker pool, optionally sharded and checkpointed — is
:mod:`repro.emulation.shard` (:func:`run_variant_sweep`).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from ..baselines import FastMpc, RobustMpc, simulate_abr_session
from ..core import MulticastStreamer, SystemConfig
from ..core.pipeline import StreamSession
from ..errors import EmulationError
from ..obs import OBS
from ..phy.csi import CsiTrace
from ..phy.topology import TopologyConfig, topology_num_aps
from ..types import OutcomeStats
from .context import ExperimentContext, trace_for_placement

__all__ = [
    "APPROACHES",
    "STREAMER_SEED_OFFSET",
    "Variant",
    "variant_from_spec",
    "parse_config_overrides",
    "fault_grid",
    "ap_fault_grid",
    "sweep_num_aps",
    "install_context",
    "multicast_session",
    "merge_runs",
]

#: A run's trace is recorded from the run seed; its streamers (multicast
#: or MPC) are seeded with the run seed plus this offset.
STREAMER_SEED_OFFSET = 7

#: The unicast DASH baselines of the mobile comparison (Sec 4.3.4).
MPC_CONTROLLERS = {"robust_mpc": RobustMpc, "fast_mpc": FastMpc}

#: What a variant can stream with: the multicast system or an MPC baseline.
APPROACHES = ("multicast", *MPC_CONTROLLERS)


@dataclass(frozen=True)
class Variant:
    """One arm of a comparison sweep.

    Args:
        name: Result key for this arm.
        config_overrides: :class:`SystemConfig` fields that define a
            multicast arm (the streamer is built around the overridden
            config).  ``None``/empty means the base config.
        approach: One of :data:`APPROACHES`.  The MPC baselines stream at
            the base config's frame rate and rate scale and take no
            overrides.
    """

    name: str
    config_overrides: Optional[Mapping[str, Any]] = None
    approach: str = "multicast"

    def __post_init__(self) -> None:
        if not self.name:
            raise EmulationError("variant needs a non-empty name")
        if self.approach not in APPROACHES:
            raise EmulationError(
                f"variant {self.name!r}: unknown approach {self.approach!r} "
                f"(known: {', '.join(APPROACHES)})"
            )
        if self.approach != "multicast" and self.config_overrides:
            raise EmulationError(
                f"variant {self.name!r}: the {self.approach} baseline takes "
                "no config overrides"
            )


def _coerce_field(current: Any, annotation: Any, name: str, raw: str) -> Any:
    """One ``field=value`` string coerced to the type of its field.

    The default's type decides, except for ``Optional[int]`` /
    ``Optional[float]`` fields, whose default is usually ``None``: those go
    by the annotation and accept ``none``.
    """
    members = get_args(annotation)
    if get_origin(annotation) is Union and type(None) in members:
        if str(raw).strip().lower() == "none":
            return None
        for kind in (int, float):
            if kind in members:
                return kind(raw)
    if isinstance(current, enum.Enum):
        return type(current)(raw)
    if isinstance(current, bool):
        lowered = str(raw).strip().lower()
        if lowered in ("1", "true", "on", "yes"):
            return True
        if lowered in ("0", "false", "off", "no"):
            return False
        raise EmulationError(f"field {name!r} expects a boolean, got {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw


def parse_config_overrides(pairs: Mapping[str, str]) -> Dict[str, Any]:
    """Coerce ``field=value`` strings to typed :class:`SystemConfig` values.

    Enum fields accept the enum's value (e.g. ``scheduler=round_robin``),
    booleans accept on/off/true/false/1/0; numbers are cast to the field
    type, and optional numbers (``max_group_size``) also accept ``none``.
    Fault-injection knobs nest under a dotted prefix
    (``faults.blockage_rate_hz=2``) and come back as one merged
    :class:`repro.faults.FaultConfig` under the ``faults`` key; topology
    knobs likewise (``topology.num_aps=2``) merge into a
    :class:`repro.phy.topology.TopologyConfig` under ``topology``.  Unknown
    fields raise :class:`EmulationError` so CLI typos fail loudly instead
    of silently streaming the base config.
    """
    fields = get_type_hints(SystemConfig)
    config_defaults = SystemConfig()
    fault_defaults = config_defaults.faults
    fault_fields = get_type_hints(type(fault_defaults))
    topology_defaults = TopologyConfig()
    topology_fields = get_type_hints(TopologyConfig)
    overrides: Dict[str, Any] = {}
    fault_overrides: Dict[str, Any] = {}
    topology_overrides: Dict[str, Any] = {}
    for name, raw in pairs.items():
        if name.startswith("faults."):
            sub = name[len("faults."):]
            if sub not in fault_fields:
                raise EmulationError(
                    f"unknown FaultConfig field {name!r} "
                    f"(known: {', '.join('faults.' + f for f in sorted(fault_fields))})"
                )
            fault_overrides[sub] = _coerce_field(
                getattr(fault_defaults, sub), fault_fields[sub], name, raw
            )
            continue
        if name.startswith("topology."):
            sub = name[len("topology."):]
            if sub not in topology_fields:
                raise EmulationError(
                    f"unknown TopologyConfig field {name!r} "
                    f"(known: {', '.join('topology.' + f for f in sorted(topology_fields))})"
                )
            topology_overrides[sub] = _coerce_field(
                getattr(topology_defaults, sub), topology_fields[sub], name, raw
            )
            continue
        if name == "faults":
            raise EmulationError(
                "set fault knobs individually as faults.<field>=<value>"
            )
        if name == "topology":
            raise EmulationError(
                "set topology knobs individually as topology.<field>=<value>"
            )
        if name not in fields:
            raise EmulationError(
                f"unknown SystemConfig field {name!r} "
                f"(known: {', '.join(sorted(fields))})"
            )
        overrides[name] = _coerce_field(
            getattr(config_defaults, name), fields[name], name, raw
        )
    if fault_overrides:
        overrides["faults"] = dataclasses.replace(
            fault_defaults, **fault_overrides
        )
    if topology_overrides:
        overrides["topology"] = dataclasses.replace(
            topology_defaults, **topology_overrides
        )
    return overrides


def fault_grid(
    axis: str,
    values: Sequence[Any],
    base: Optional[Mapping[str, str]] = None,
) -> List[Variant]:
    """Variants sweeping one ``faults.*`` knob — the chaos sweep axis.

    Args:
        axis: A :class:`repro.faults.FaultConfig` field name
            (e.g. ``blockage_rate_hz``).
        values: The grid points; one variant per value.
        base: Extra ``field=value`` string overrides shared by every arm
            (dotted ``faults.`` keys welcome).

    Returns:
        One :class:`Variant` per value, named ``"<axis>=<value>"``, ready
        for :func:`run_variant_sweep`.
    """
    if not values:
        raise EmulationError(f"fault_grid({axis!r}) needs at least one value")
    variants = []
    for value in values:
        pairs = dict(base or {})
        pairs[f"faults.{axis}"] = str(value)
        variants.append(
            Variant(
                f"{axis}={value}",
                config_overrides=parse_config_overrides(pairs),
            )
        )
    return variants


def ap_fault_grid(
    axis: str,
    values: Sequence[Any],
    ap_counts: Sequence[int] = (1, 2),
    base: Optional[Mapping[str, str]] = None,
) -> List[Variant]:
    """The blockage-failover grid: ``faults.*`` axis x AP count.

    Crosses one fault knob with a topology size so the 1-AP-vs-multi-AP
    failover comparison (does a second AP hold SSIM up under LoS blockage?)
    runs as a single sweep.  Arms are named ``"<n>ap:<axis>=<value>"``.
    """
    if not values:
        raise EmulationError(f"ap_fault_grid({axis!r}) needs at least one value")
    if not ap_counts:
        raise EmulationError("ap_fault_grid needs at least one AP count")
    variants = []
    for n_aps in ap_counts:
        for value in values:
            pairs = dict(base or {})
            pairs[f"faults.{axis}"] = str(value)
            if int(n_aps) > 1:
                pairs["topology.num_aps"] = str(int(n_aps))
            variants.append(
                Variant(
                    f"{int(n_aps)}ap:{axis}={value}",
                    config_overrides=parse_config_overrides(pairs),
                )
            )
    return variants


def sweep_num_aps(variants: Sequence[Variant]) -> int:
    """The AP count a shared sweep trace must be recorded with.

    The max over every arm's topology: 1-AP arms stream AP0's sub-trace of
    the superset recording bit-identically, so the widest arm decides.
    """
    n_aps = 1
    for variant in variants:
        overrides = variant.config_overrides or {}
        n_aps = max(n_aps, topology_num_aps(overrides.get("topology")))
    return n_aps


def variant_from_spec(spec: str) -> Variant:
    """Parse ``'name'`` or ``'name:field=value,field=value'`` CLI specs."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    pairs: Dict[str, str] = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise EmulationError(
                    f"bad override {item!r} in variant spec {spec!r} "
                    "(expected field=value)"
                )
            pairs[key.strip()] = value.strip()
    return Variant(name, config_overrides=parse_config_overrides(pairs) or None)


# ----------------------------------------------------------- worker plumbing

#: Shared context inside pool workers (installed once per worker by the
#: pool initializer; the serial path installs it in-process).
_WORKER_CTX: Optional[ExperimentContext] = None


def install_context(ctx: ExperimentContext) -> None:
    """Make the heavyweight context the worker global the tasks read."""
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_context() -> ExperimentContext:
    if _WORKER_CTX is None:
        raise EmulationError(
            "worker context not installed — call install_context(ctx) "
            "before running a sweep task"
        )
    return _WORKER_CTX


def multicast_session(
    ctx: ExperimentContext, config: SystemConfig, trace: CsiTrace, run_seed: int
) -> StreamSession:
    """A run's multicast session: ``config`` streaming ``trace``, the
    streamer seeded ``run_seed + STREAMER_SEED_OFFSET``."""
    streamer = MulticastStreamer(
        config, ctx.dnn, ctx.probes, ctx.scenario.channel_model,
        seed=run_seed + STREAMER_SEED_OFFSET,
    )
    return streamer.session(trace)


#: One variant's sample of one run: (mean SSIM, mean PSNR, per-frame
#: mean-over-users SSIM).
Sample = Tuple[float, float, List[float]]


def _stream_variant(
    ctx: ExperimentContext,
    variant: Variant,
    trace: CsiTrace,
    num_users: int,
    frames: int,
    run_seed: int,
) -> Sample:
    """Stream one variant over a run's trace and reduce the outcome."""
    seed = run_seed + STREAMER_SEED_OFFSET
    outcome: OutcomeStats
    with OBS.span("emulation.run", frames=frames, seed=seed) as span:
        if variant.approach == "multicast":
            config = ctx.config(**dict(variant.config_overrides or {}))
            outcome = multicast_session(ctx, config, trace, run_seed).run(frames)
        else:
            outcome = simulate_abr_session(
                MPC_CONTROLLERS[variant.approach],
                trace,
                ctx.scenario.channel_model,
                ctx.rate_quality(),
                ctx.freeze_model(),
                num_frames=frames,
                fps=ctx.base_config.fps,
                rate_scale=ctx.base_config.rate_scale,
                seed=seed,
            )
        mean_ssim, mean_psnr = outcome.mean_ssim, outcome.mean_psnr_db
        span.set(mean_ssim=mean_ssim)
    per_frame = np.zeros(frames)
    for user in range(num_users):
        user_series = outcome.ssim_series(user)
        per_frame[: len(user_series)] += np.asarray(
            user_series[:frames]
        ) / num_users
    return mean_ssim, mean_psnr, per_frame.tolist()


def _run_task(args: Tuple) -> Dict[str, Sample]:
    """One run, every variant on its one trace (worker task)."""
    run, num_users, placement, variants, frames, seed_base, seed_stride = args
    ctx = _worker_context()
    run_seed = seed_base + seed_stride * run
    trace = trace_for_placement(
        ctx, num_users, placement, run_seed, num_aps=sweep_num_aps(variants)
    )
    return {
        variant.name: _stream_variant(
            ctx, variant, trace, num_users, frames, run_seed
        )
        for variant in variants
    }


def merge_runs(
    keys: Sequence[str], per_run: Sequence[Dict[str, Sample]]
) -> Dict[str, Dict[str, List[Any]]]:
    """Stitch ordered per-run samples back into the per-key series shape:
    ``ssim`` and ``psnr`` hold one mean per run, ``frame_ssim`` one
    per-frame series per run.

    Every run must report exactly ``keys``; a worker returning a partial or
    unknown key set raises :class:`EmulationError` naming the offending run
    instead of silently corrupting (or KeyError-ing mid-merge) the series.
    """
    expected = set(keys)
    results: Dict[str, Dict[str, List[Any]]] = {
        key: {"ssim": [], "psnr": [], "frame_ssim": []} for key in keys
    }
    for run_index, run_result in enumerate(per_run):
        got = set(run_result)
        if got != expected:
            missing = sorted(expected - got)
            unexpected = sorted(got - expected)
            raise EmulationError(
                f"run {run_index} returned malformed keys: "
                f"missing {missing}, unexpected {unexpected} "
                f"(expected {sorted(expected)})"
            )
        for key, (ssim_value, psnr_value, frame_ssim) in run_result.items():
            results[key]["ssim"].append(ssim_value)
            results[key]["psnr"].append(psnr_value)
            results[key]["frame_ssim"].append(frame_ssim)
    return results

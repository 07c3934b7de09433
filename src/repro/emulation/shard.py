"""The campaign engine: every emulation sweep runs here.

:func:`run_variant_sweep` runs every campaign — the placement figures,
the mobile comparison (one run over a walk or moving-environment trace),
``fault_grid`` chaos sweeps — as runs × variants, through one private
executor:

* One worker (the ``jobs`` argument, else ``REPRO_JOBS``, else 1, clamped
  to the task count) runs the tasks in this process, in order — the
  trivially-debuggable path, where a task's exception propagates bare.
* More workers run on a :class:`repro.perf.workers.PersistentPool`:
  workers are forked once per campaign and inherit the heavyweight
  :class:`~repro.emulation.context.ExperimentContext` (trained DNN weights,
  encoded probe frames) with the fork, bound into the task with
  ``functools.partial`` — shared copy-on-write, never pickled.  Each
  worker receives its tasks and returns its results over one pipe of its
  own.  Dead or hung workers are detected by the pool's
  heartbeat/deadline supervision and their tasks requeued; a task's
  exception surfaces as :class:`~repro.errors.ParallelWorkerError`
  carrying the worker traceback.

Every task carries its own seed, so results never depend on the worker
count, the shard count or the completion order.

A placement campaign is split into deterministic, individually-seeded
**shards** — contiguous run ranges (one run each by default).  With a
``checkpoint`` path every completed shard is appended to a **JSONL
checkpoint**: one fsync'd ``write()`` per shard, floats serialized via
``float.hex()`` so values survive the JSON round-trip bit-exactly, and a
header line binding the file to the campaign through a SHA-256 hash of
the canonical :class:`CampaignSpec`.  ``resume=True`` loads finished
shards, re-runs only the missing ones, and merges to a result
**bit-identical** to an uninterrupted run.  Every variant is data, so
every campaign hashes, shards and checkpoints.

Corruption handling (exercised by ``tests/emulation/test_shard.py``): a
truncated *trailing* line — the signature of a SIGKILL mid-append — is
dropped and its shard re-run; a spec-hash mismatch, a duplicate shard id,
or a corrupt interior line raises :class:`~repro.errors.EmulationError`
naming the file, because silently merging a checkpoint from a different
campaign (or a doubly-written one) would corrupt results.

``repro-wigig sweep --shards N --checkpoint PATH [--resume]`` drives this
from the shell; ``sweep.shard.*`` counters and the ``sweep.shard.campaign``
span report progress through :mod:`repro.obs`.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    IO,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import EmulationError
from ..obs import OBS
from ..perf.workers import PersistentPool, effective_jobs
from .context import ExperimentContext
from .sweep import Sample, Variant, _run_task, merge_runs

__all__ = [
    "CampaignSpec",
    "CheckpointError",
    "plan_shards",
    "load_checkpoint",
    "merge_shards",
    "run_variant_sweep",
    "merged_to_jsonable",
    "write_results_json",
]

#: Checkpoint file format version (header field; bumped on layout changes).
CHECKPOINT_SCHEMA = 2


class CheckpointError(EmulationError):
    """A sweep checkpoint file is unusable for the requested campaign."""


# ------------------------------------------------------------ campaign spec


def _canonical_value(value: Any) -> Any:
    """A JSON-stable representation of one config-override value."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            k: _canonical_value(v)
            for k, v in sorted(dataclasses.asdict(value).items())
        }
    if isinstance(value, Mapping):
        return {str(k): _canonical_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines a campaign's results.

    Every :func:`run_variant_sweep` builds one, so this is where its
    variants are validated.  The canonical JSON of this spec is hashed
    into the checkpoint header; a resume against a checkpoint whose hash
    differs is refused, so stale files can never be silently merged into a
    different campaign.
    """

    variants: Tuple[Variant, ...]
    num_users: int
    placement: Tuple
    runs: int
    frames: int
    shards: int
    seed_base: int = 1000
    seed_stride: int = 17

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise EmulationError(f"campaign needs runs >= 1, got {self.runs}")
        if not 1 <= self.shards <= self.runs:
            raise EmulationError(
                f"campaign needs 1 <= shards <= runs, got shards={self.shards} "
                f"for runs={self.runs}"
            )
        names = [variant.name for variant in self.variants]
        if len(set(names)) != len(names):
            raise EmulationError(f"duplicate variant names in sweep: {names}")

    @property
    def points(self) -> int:
        """Scenario points in the campaign (runs × variants)."""
        return self.runs * len(self.variants)

    def to_dict(self) -> Dict[str, Any]:
        """The canonical (JSON-stable) spec used for hashing and headers."""
        return {
            "schema": CHECKPOINT_SCHEMA,
            "variants": [
                {
                    "name": v.name,
                    "approach": v.approach,
                    "overrides": _canonical_value(
                        dict(v.config_overrides or {})
                    ),
                }
                for v in self.variants
            ],
            "num_users": self.num_users,
            "placement": list(self.placement),
            "runs": self.runs,
            "frames": self.frames,
            "shards": self.shards,
            "seed_base": self.seed_base,
            "seed_stride": self.seed_stride,
        }

    def spec_hash(self) -> str:
        """SHA-256 over the canonical spec JSON."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def plan_shards(runs: int, shards: int) -> List[Tuple[int, ...]]:
    """Split ``range(runs)`` into ``shards`` contiguous, near-equal chunks.

    Deterministic in all inputs; the first ``runs % shards`` shards take
    the extra run.  Every run index appears in exactly one shard.
    """
    if runs < 1:
        raise EmulationError(f"plan_shards needs runs >= 1, got {runs}")
    if not 1 <= shards <= runs:
        raise EmulationError(
            f"plan_shards needs 1 <= shards <= runs, got {shards} for {runs}"
        )
    base, extra = divmod(runs, shards)
    plan: List[Tuple[int, ...]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        plan.append(tuple(range(start, start + size)))
        start += size
    return plan


# --------------------------------------------------------------- checkpoint

_RunResult = Dict[str, Sample]


def _encode_shard_line(
    shard_id: int, results: Sequence[Tuple[int, _RunResult]]
) -> str:
    payload = {
        "kind": "shard",
        "shard_id": shard_id,
        "results": [
            [run, {
                name: [s.hex(), p.hex(), [v.hex() for v in frames]]
                for name, (s, p, frames) in sorted(res.items())
            }]
            for run, res in results
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _decode_shard_line(obj: Dict[str, Any]) -> Tuple[int, List[Tuple[int, _RunResult]]]:
    results = [
        (
            int(run),
            {
                name: (
                    float.fromhex(ssim),
                    float.fromhex(psnr),
                    [float.fromhex(v) for v in frames],
                )
                for name, (ssim, psnr, frames) in res.items()
            },
        )
        for run, res in obj["results"]
    ]
    return int(obj["shard_id"]), results


def _append_line(fh: IO[str], line: str) -> None:
    """One atomic, durable JSONL append: single write + flush + fsync."""
    fh.write(line + "\n")
    fh.flush()
    os.fsync(fh.fileno())


def load_checkpoint(
    path: Path, spec: CampaignSpec
) -> Tuple[Dict[int, List[Tuple[int, _RunResult]]], bool]:
    """Parse a checkpoint and return its finished shards.

    Returns ``(finished, dropped_trailing)`` where ``finished`` maps
    shard id -> per-run results and ``dropped_trailing`` reports whether a
    truncated final line (interrupted append) was discarded.

    Raises :class:`CheckpointError` naming ``path`` when the file cannot
    be trusted: unreadable header, spec-hash mismatch, duplicate shard
    ids, out-of-range shard ids, or a corrupt line that is *not* the
    trailing one.
    """
    raw = path.read_bytes()
    if not raw:
        return {}, False
    text = raw.decode("utf-8", errors="replace")
    complete = text.endswith("\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    dropped_trailing = False
    if not complete and lines:
        # A SIGKILL mid-append leaves an unterminated fragment; the shard
        # it belonged to simply re-runs.
        lines.pop()
        dropped_trailing = True
    if not lines:
        return {}, dropped_trailing

    parsed: List[Dict[str, Any]] = []
    for index, line in enumerate(lines):
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if index == len(lines) - 1:
                # Newline-terminated but still unparsable trailing line
                # (torn write flushed in pieces): drop and re-run.
                dropped_trailing = True
                break
            raise CheckpointError(
                f"checkpoint {path}: corrupt line {index + 1} "
                f"(not the trailing line — refusing to guess): {exc}"
            ) from exc

    if not parsed:
        return {}, dropped_trailing
    header = parsed[0]
    if header.get("kind") != "header":
        raise CheckpointError(
            f"checkpoint {path}: first line is not a campaign header"
        )
    if header.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint {path}: schema {header.get('schema')!r} != "
            f"{CHECKPOINT_SCHEMA} (written by an incompatible version)"
        )
    expected = spec.spec_hash()
    if header.get("spec_hash") != expected:
        raise CheckpointError(
            f"checkpoint {path}: spec hash {header.get('spec_hash')!r} does "
            f"not match this campaign ({expected!r}) — it records a "
            "different campaign; pass a fresh --checkpoint path"
        )

    finished: Dict[int, List[Tuple[int, _RunResult]]] = {}
    for obj in parsed[1:]:
        if obj.get("kind") != "shard":
            raise CheckpointError(
                f"checkpoint {path}: unexpected record kind {obj.get('kind')!r}"
            )
        shard_id, results = _decode_shard_line(obj)
        if shard_id in finished:
            raise CheckpointError(
                f"checkpoint {path}: duplicate shard id {shard_id} — the "
                "file was appended by two concurrent campaigns"
            )
        if not 0 <= shard_id < spec.shards:
            raise CheckpointError(
                f"checkpoint {path}: shard id {shard_id} out of range for "
                f"{spec.shards} shards"
            )
        finished[shard_id] = results
    return finished, dropped_trailing


# ----------------------------------------------------------------- workers


def _shard_task(
    ctx: ExperimentContext, payload: Tuple
) -> Tuple[int, List[Tuple[int, _RunResult]]]:
    """One shard, worker-side: every run in the range, every variant."""
    shard_id, run_indices, *run_args = payload
    return shard_id, [
        (run, _run_task(ctx, (run, *run_args))) for run in run_indices
    ]


# ------------------------------------------------------------------ engine


def _execute(
    payloads: Sequence[Tuple],
    ctx: ExperimentContext,
    jobs: Optional[int],
    on_result: Callable[[Any], None],
) -> None:
    """Run the shard tasks of ``payloads``, handing each result to
    ``on_result``.

    The one place a campaign decides how it runs.  With one worker (see
    :func:`repro.perf.workers.effective_jobs`; never more than there are
    payloads) the tasks run here, in order.  Otherwise they run on a
    :class:`PersistentPool` whose workers inherit ``ctx`` by fork, bound
    into the task, and results arrive in completion order.
    """
    count = min(effective_jobs(jobs), len(payloads))
    if count <= 1:
        for payload in payloads:
            on_result(_shard_task(ctx, payload))
        return
    with PersistentPool(functools.partial(_shard_task, ctx), count) as pool:
        pool.run_tasks(payloads, on_result=lambda _id, res: on_result(res))


def _open_checkpoint(
    path: Optional[Path], spec: CampaignSpec, append: bool
) -> ContextManager[Optional[IO[str]]]:
    """The checkpoint to append shards to (``None`` when not persisting).

    A fresh campaign recreates the file and writes the header line; a
    resumed one appends after the shards it loaded.
    """
    if path is None:
        return nullcontext()
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "a" if append else "w", encoding="utf-8")
    if not append:
        header = dict(spec.to_dict())
        header.update(kind="header", spec_hash=spec.spec_hash())
        _append_line(fh, json.dumps(header, sort_keys=True, separators=(",", ":")))
    return fh


def run_variant_sweep(
    ctx: ExperimentContext,
    variants: Sequence[Variant],
    num_users: int,
    placement: Tuple,
    runs: int,
    frames: int,
    jobs: Optional[int] = None,
    seed_base: int = 1000,
    seed_stride: int = 17,
    shards: Optional[int] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> Dict[str, Dict[str, List[Any]]]:
    """Per-variant samples over independently seeded runs.

    Returns ``{variant: {"ssim": [...], "psnr": [...], "frame_ssim":
    [[...], ...]}}``: per run, the session's mean SSIM and PSNR and its
    per-frame mean-over-users SSIM.  The merged result is bit-identical at
    any shard count, any job count, and across any number of
    interrupt/resume cycles.

    Args:
        ctx: Shared context (shipped to pool workers once, via shared
            memory).
        variants: The comparison arms (``fault_grid`` output and MPC
            baselines welcome).
        num_users: Receivers per run.
        placement: The trace spec every run records its trace from; see
            :func:`~repro.emulation.context.trace_for_placement`.
        runs: Independent runs (placements, for the static specs).
        frames: Frames streamed per session.
        jobs: Worker processes (``REPRO_JOBS`` default; 1 = in-process).
        seed_base, seed_stride: Per-run seed schedule
            (``seed_base + seed_stride * run``), kept distinct per
            experiment family so figures stay reproducible.
        shards: How many independently checkpointable chunks to split the
            ``runs`` into (default: one per run).
        checkpoint: JSONL checkpoint path (default: write nothing).
            Without ``resume`` the file is recreated; with ``resume``
            finished shards are loaded from it and only missing shards
            execute.
        resume: Continue a previous (interrupted) campaign; needs
            ``checkpoint``.
    """
    if resume and checkpoint is None:
        raise EmulationError("resume needs a checkpoint path to resume from")
    spec = CampaignSpec(
        variants=tuple(variants),
        num_users=num_users,
        placement=tuple(placement),
        runs=runs,
        frames=frames,
        shards=runs if shards is None else shards,
        seed_base=seed_base,
        seed_stride=seed_stride,
    )
    path = None if checkpoint is None else Path(checkpoint)
    plan = plan_shards(spec.runs, spec.shards)

    finished: Dict[int, List[Tuple[int, _RunResult]]] = {}
    if resume and path is not None and path.exists():
        finished, dropped = load_checkpoint(path, spec)
        OBS.count("sweep.shard.loaded", len(finished))
        if dropped:
            OBS.count("sweep.shard.trailing_line_dropped")
    payloads = [
        (
            shard_id, plan[shard_id], spec.num_users, spec.placement,
            spec.variants, spec.frames, spec.seed_base, spec.seed_stride,
        )
        for shard_id in range(spec.shards)
        if shard_id not in finished
    ]

    with OBS.span(
        "sweep.shard.campaign",
        shards=spec.shards,
        runs=spec.runs,
        points=spec.points,
        resumed=len(finished),
    ):
        with _open_checkpoint(path, spec, append=bool(finished)) as fh:

            def record(result: Tuple[int, List[Tuple[int, _RunResult]]]) -> None:
                shard_id, results = result
                finished[shard_id] = results
                if fh is not None:
                    _append_line(fh, _encode_shard_line(shard_id, results))
                OBS.count("sweep.shard.completed")
                OBS.count(
                    "sweep.shard.points_completed",
                    len(results) * len(spec.variants),
                )

            _execute(payloads, ctx, jobs, record)

    return merge_shards([v.name for v in spec.variants], spec.runs, finished)


def merge_shards(
    names: Sequence[str],
    runs: int,
    finished: Mapping[int, Sequence[Tuple[int, _RunResult]]],
) -> Dict[str, Dict[str, List[Any]]]:
    """Stitch per-shard results back into ``run_variant_sweep``'s shape.

    Reassembly is keyed by run index, so the outcome is independent of
    shard count, shard completion order, and dict iteration order; a run
    missing from every shard raises :class:`EmulationError`.
    """
    per_run: List[Optional[_RunResult]] = [None] * runs
    for results in finished.values():
        for run, run_result in results:
            per_run[run] = run_result
    missing = [run for run, result in enumerate(per_run) if result is None]
    if missing:
        raise EmulationError(
            f"sharded campaign finished with unexecuted runs {missing} — "
            "checkpoint/plan mismatch"
        )
    return merge_runs(names, per_run)  # type: ignore[arg-type]


# ---------------------------------------------------------------- results


def merged_to_jsonable(
    merged: Mapping[str, Mapping[str, Sequence[Any]]],
) -> Dict[str, Dict[str, List[Any]]]:
    """Merged sweep results with every float as ``float.hex()``.

    The golden-suite serialization: byte-comparable across runs, lossless
    across the JSON round-trip.
    """
    return {
        name: {
            metric: _hex(series)
            for metric, series in sorted(dict(metrics).items())
        }
        for name, metrics in sorted(dict(merged).items())
    }


def _hex(value: Any) -> Any:
    """A float as ``float.hex()``, a (nested) series element-wise."""
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return float(value).hex()


def write_results_json(
    path: Path,
    merged: Mapping[str, Mapping[str, Sequence[Any]]],
    spec: Optional[CampaignSpec] = None,
) -> Path:
    """Dump merged results (hex floats) for bit-exact diffing in CI."""
    payload: Dict[str, Any] = {"results": merged_to_jsonable(merged)}
    if spec is not None:
        payload["spec_hash"] = spec.spec_hash()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path

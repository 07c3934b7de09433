"""Tests for the sharded, resumable sweep scheduler and its checkpoints."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulation.runner import mobile_variant
from repro.emulation.shard import (
    CampaignSpec,
    CheckpointError,
    _encode_shard_line,
    load_checkpoint,
    merge_shards,
    merged_to_jsonable,
    plan_shards,
    run_variant_sweep,
    write_results_json,
)
from repro.emulation.sweep import (
    Variant,
    _run_task,
    install_context,
    merge_runs,
)
from repro.errors import EmulationError, ParallelWorkerError

VARIANTS = (Variant("base"), Variant("rr", {"fps": 24}))


def _spec(runs=6, shards=3, variants=VARIANTS) -> CampaignSpec:
    return CampaignSpec(
        variants=tuple(variants),
        num_users=2,
        placement=("arc", 3, 60),
        runs=runs,
        frames=2,
        shards=shards,
    )


def _fake_run_result(run: int) -> dict:
    """Synthetic per-run result with awkward (non-round) floats."""
    return {
        "base": (0.9 + run / 7.0, 30.0 + run / 3.0, [0.9 + run / 13.0]),
        "rr": (0.8 - run / 11.0, 25.0 + run / 9.0, [0.8, 0.7 - run / 17.0]),
    }


def _write_checkpoint(path: Path, spec: CampaignSpec, shard_ids) -> None:
    """A checkpoint with the given finished shards, synthetic payloads."""
    plan = plan_shards(spec.runs, spec.shards)
    header = dict(spec.to_dict())
    header.update(kind="header", spec_hash=spec.spec_hash())
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for shard_id in shard_ids:
        results = [(run, _fake_run_result(run)) for run in plan[shard_id]]
        lines.append(_encode_shard_line(shard_id, results))
    path.write_text("\n".join(lines) + "\n")


class TestPlanShards:
    def test_contiguous_partition(self):
        assert plan_shards(7, 3) == [(0, 1, 2), (3, 4), (5, 6)]

    def test_one_shard_takes_everything(self):
        assert plan_shards(4, 1) == [(0, 1, 2, 3)]

    def test_shard_per_run(self):
        assert plan_shards(3, 3) == [(0,), (1,), (2,)]

    def test_invalid_counts_rejected(self):
        with pytest.raises(EmulationError):
            plan_shards(0, 1)
        with pytest.raises(EmulationError):
            plan_shards(3, 4)
        with pytest.raises(EmulationError):
            plan_shards(3, 0)

    @given(
        runs=st.integers(min_value=1, max_value=200),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_run_in_exactly_one_shard(self, runs, data):
        shards = data.draw(st.integers(min_value=1, max_value=runs))
        plan = plan_shards(runs, shards)
        flat = [run for chunk in plan for run in chunk]
        assert flat == list(range(runs))
        assert len(plan) == shards


class TestCampaignSpec:
    def test_points(self):
        assert _spec(runs=6).points == 12

    def test_hash_is_stable(self):
        assert _spec().spec_hash() == _spec().spec_hash()

    def test_hash_tracks_every_field(self):
        base = _spec().spec_hash()
        assert _spec(runs=7).spec_hash() != base
        assert _spec(shards=2).spec_hash() != base
        assert _spec(variants=(Variant("base"),)).spec_hash() != base

    def test_hash_tracks_the_approach(self):
        multicast = _spec(variants=(Variant("x"),)).spec_hash()
        assert _spec(variants=(
            Variant("x", approach="fast_mpc"),
        )).spec_hash() != multicast

    def test_duplicate_names_rejected(self):
        with pytest.raises(EmulationError, match="duplicate"):
            _spec(variants=(Variant("same"), Variant("same", {"fps": 24})))

    def test_shards_bounds_enforced(self):
        with pytest.raises(EmulationError):
            _spec(runs=2, shards=3)


class TestCheckpointCorruption:
    def test_round_trip(self, tmp_path):
        spec = _spec()
        path = tmp_path / "ck.jsonl"
        _write_checkpoint(path, spec, [0, 2])
        finished, dropped = load_checkpoint(path, spec)
        assert not dropped
        assert set(finished) == {0, 2}
        # Hex-float serialization is bit-exact across the JSON round trip.
        plan = plan_shards(spec.runs, spec.shards)
        assert finished[0] == [
            (run, _fake_run_result(run)) for run in plan[0]
        ]

    def test_truncated_trailing_line_dropped(self, tmp_path):
        spec = _spec()
        path = tmp_path / "ck.jsonl"
        _write_checkpoint(path, spec, [0, 1])
        text = path.read_text()
        path.write_text(text[:-30])  # SIGKILL mid-append
        finished, dropped = load_checkpoint(path, spec)
        assert dropped
        assert set(finished) == {0}

    def test_unparsable_terminated_trailing_line_dropped(self, tmp_path):
        spec = _spec()
        path = tmp_path / "ck.jsonl"
        _write_checkpoint(path, spec, [0])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "shard", "shard_id":\n')
        finished, dropped = load_checkpoint(path, spec)
        assert dropped
        assert set(finished) == {0}

    def test_spec_hash_mismatch_raises_naming_file(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        _write_checkpoint(path, _spec(), [0])
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path, _spec(runs=7, shards=3))

    def test_duplicate_shard_ids_raise_naming_file(self, tmp_path):
        spec = _spec()
        path = tmp_path / "ck.jsonl"
        _write_checkpoint(path, spec, [0, 1])
        duplicate = path.read_text().splitlines()[1]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(duplicate + "\n")
        with pytest.raises(CheckpointError, match="duplicate shard id"):
            load_checkpoint(path, spec)

    def test_corrupt_interior_line_raises(self, tmp_path):
        spec = _spec()
        path = tmp_path / "ck.jsonl"
        _write_checkpoint(path, spec, [0, 1])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # mangle a non-trailing record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt line 2"):
            load_checkpoint(path, spec)

    def test_missing_header_raises(self, tmp_path):
        spec = _spec()
        path = tmp_path / "ck.jsonl"
        _write_checkpoint(path, spec, [0])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(CheckpointError, match="not a campaign header"):
            load_checkpoint(path, spec)

    def test_out_of_range_shard_id_raises(self, tmp_path):
        spec = _spec()
        path = tmp_path / "ck.jsonl"
        _write_checkpoint(path, spec, [0])
        bad = _encode_shard_line(99, [(0, _fake_run_result(0))])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
        with pytest.raises(CheckpointError, match="out of range"):
            load_checkpoint(path, spec)

    def test_empty_file_is_fresh(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text("")
        assert load_checkpoint(path, _spec()) == ({}, False)


class TestMergeShards:
    @given(
        runs=st.integers(min_value=1, max_value=60),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_shard_count_and_order_merges_identically(self, runs, data):
        """ISSUE 7: shard count / completion order never change the merge."""
        shards = data.draw(st.integers(min_value=1, max_value=runs))
        per_run = [_fake_run_result(run) for run in range(runs)]
        reference = merge_runs(["base", "rr"], per_run)

        plan = plan_shards(runs, shards)
        order = data.draw(st.permutations(range(shards)))
        finished = {
            shard_id: [(run, per_run[run]) for run in plan[shard_id]]
            for shard_id in order
        }
        assert merge_shards(["base", "rr"], runs, finished) == reference

    def test_missing_run_raises(self):
        with pytest.raises(EmulationError, match="unexecuted runs"):
            merge_shards(["base", "rr"], 3, {0: [(0, _fake_run_result(0))]})


def _placement_oracle(ctx, variants, runs, frames):
    """The campaign by hand: every run's task in order, then the merge."""
    install_context(ctx)
    return merge_runs(
        [v.name for v in variants],
        [
            _run_task((run, 2, ("arc", 3, 60), tuple(variants), frames,
                       1000, 17))
            for run in range(runs)
        ],
    )


class TestCampaignEngine:
    """End-to-end equivalence on a real (tiny) streaming campaign."""

    @pytest.mark.parametrize(
        "shards,jobs,checkpointed",
        [
            pytest.param(None, 1, False, id="per_run-serial"),
            pytest.param(None, 2, False, id="per_run-pool"),
            pytest.param(1, 1, True, id="1shard-serial-checkpoint"),
            pytest.param(3, 1, True, id="3shards-serial-checkpoint"),
            pytest.param(4, 2, True, id="4shards-pool-checkpoint"),
        ],
    )
    def test_bit_identical_to_in_test_oracle(
        self, sweep_ctx, tmp_path, shards, jobs, checkpointed
    ):
        variants = [Variant("base"), Variant("rr", {"fps": 24})]
        merged = run_variant_sweep(
            sweep_ctx, variants, 2, ("arc", 3, 60), runs=4, frames=1,
            shards=shards, jobs=jobs,
            checkpoint=tmp_path / "ck.jsonl" if checkpointed else None,
        )
        assert merged == _placement_oracle(sweep_ctx, variants, 4, 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mobile_campaign_resumes_bit_identically(
        self, sweep_ctx, tmp_path, jobs
    ):
        """A multicast and an MPC arm on walk traces: sharded,
        checkpointed, cut mid-append and resumed, it merges to the
        uninterrupted in-process campaign."""
        variants = [mobile_variant("realtime_update"), mobile_variant("fast_mpc")]
        walk = ("walk", "high", (0,), 0.2)
        full = run_variant_sweep(
            sweep_ctx, variants, 2, walk, runs=3, frames=6, seed_base=5,
            jobs=1,
        )
        ck = tmp_path / "ck.jsonl"
        assert run_variant_sweep(
            sweep_ctx, variants, 2, walk, runs=3, frames=6, seed_base=5,
            shards=3, checkpoint=ck, jobs=jobs,
        ) == full
        # Keep the header and one shard, and half of the next line: a
        # SIGKILL mid-append.
        lines = ck.read_text().splitlines(keepends=True)
        ck.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
        resumed = run_variant_sweep(
            sweep_ctx, variants, 2, walk, runs=3, frames=6, seed_base=5,
            shards=3, checkpoint=ck, jobs=jobs, resume=True,
        )
        assert resumed == full
        assert merged_to_jsonable(resumed) == merged_to_jsonable(full)

    def test_pooled_worker_error_carries_its_traceback(self, sweep_ctx):
        bad_walk = ("walk", "sideways", (0,), 0.2)
        with pytest.raises(EmulationError, match="rss_regime"):
            run_variant_sweep(
                sweep_ctx, [Variant("a")], 1, bad_walk, runs=2, frames=1,
                jobs=1,
            )
        with pytest.raises(ParallelWorkerError) as excinfo:
            run_variant_sweep(
                sweep_ctx, [Variant("a")], 1, bad_walk, runs=2, frames=1,
                jobs=2,
            )
        message = str(excinfo.value)
        assert "worker traceback" in message
        assert "mobile_receiver_trace" in message
        assert "EmulationError: rss_regime" in message

    def test_no_checkpoint_writes_no_file(self, sweep_ctx, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_variant_sweep(
            sweep_ctx, [Variant("base")], 2, ("arc", 3, 60), runs=2, frames=1,
            shards=2,
        )
        assert list(tmp_path.iterdir()) == []

    def test_resume_without_checkpoint_rejected(self, sweep_ctx):
        with pytest.raises(EmulationError, match="resume needs a checkpoint"):
            run_variant_sweep(
                sweep_ctx, [Variant("base")], 2, ("arc", 3, 60), runs=1,
                frames=1, resume=True,
            )

    def test_pool_never_outnumbers_the_tasks(self, sweep_ctx, pool_spy):
        run_variant_sweep(
            sweep_ctx, [Variant("base")], 2, ("arc", 3, 60), runs=2, frames=1,
            jobs=8,
        )
        assert pool_spy.started == [2]

    def test_resume_from_partial_checkpoint_is_bit_identical(
        self, sweep_ctx, tmp_path
    ):
        variants = [Variant("base"), Variant("rr", {"fps": 24})]
        ck = tmp_path / "ck.jsonl"
        full = run_variant_sweep(
            sweep_ctx, variants, 2, ("arc", 3, 60), runs=4, frames=1,
            shards=4, checkpoint=ck, jobs=1,
        )
        # Simulate an interrupt: keep the header and the first two shards.
        lines = ck.read_text().splitlines(keepends=True)
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(lines[:3]))
        resumed = run_variant_sweep(
            sweep_ctx, variants, 2, ("arc", 3, 60), runs=4, frames=1,
            shards=4, checkpoint=partial, jobs=1, resume=True,
        )
        assert resumed == full
        # Only the two missing shards were appended on resume.
        assert len(partial.read_text().splitlines()) == 5

    def test_resume_refuses_checkpoint_from_other_campaign(
        self, sweep_ctx, tmp_path
    ):
        variants = [Variant("base")]
        ck = tmp_path / "ck.jsonl"
        run_variant_sweep(
            sweep_ctx, variants, 2, ("arc", 3, 60), runs=2, frames=1,
            shards=2, checkpoint=ck, jobs=1,
        )
        with pytest.raises(CheckpointError, match="different campaign"):
            run_variant_sweep(
                sweep_ctx, variants, 2, ("arc", 3, 60), runs=3, frames=1,
                shards=2, checkpoint=ck, jobs=1, resume=True,
            )

    def test_fresh_run_overwrites_stale_checkpoint(self, sweep_ctx, tmp_path):
        variants = [Variant("base")]
        ck = tmp_path / "ck.jsonl"
        ck.write_text("not a checkpoint at all\n")
        result = run_variant_sweep(
            sweep_ctx, variants, 2, ("arc", 3, 60), runs=2, frames=1,
            shards=2, checkpoint=ck, jobs=1,
        )
        assert set(result) == {"base"}
        header = json.loads(ck.read_text().splitlines()[0])
        assert header["kind"] == "header"


class TestResultsJson:
    def test_hex_round_trip(self, tmp_path):
        merged = {"base": {"ssim": [0.1 + 0.2], "psnr": [30.000000001]}}
        path = write_results_json(tmp_path / "res.json", merged)
        loaded = json.loads(path.read_text())
        assert loaded["results"] == merged_to_jsonable(merged)
        assert float.fromhex(
            loaded["results"]["base"]["ssim"][0]
        ) == 0.1 + 0.2

    def test_spec_hash_embedded(self, tmp_path):
        spec = _spec()
        path = write_results_json(
            tmp_path / "res.json", {"base": {"ssim": [], "psnr": []}}, spec
        )
        assert json.loads(path.read_text())["spec_hash"] == spec.spec_hash()

"""Tests for the command-line interface."""

import pytest

from repro import obs
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_beamforming_defaults(self):
        args = build_parser().parse_args(["beamforming"])
        assert args.users == 3
        assert args.distance == 3.0
        assert args.range is None

    def test_range_placement(self):
        args = build_parser().parse_args(
            ["scheduler", "--range", "8", "16", "--mas", "120"]
        )
        assert args.range == [8.0, 16.0]
        assert args.mas == 120.0

    def test_ablation_axis_choices(self):
        args = build_parser().parse_args(["ablation", "--axis", "rate_control"])
        assert args.axis == "rate_control"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "--axis", "magic"])

    def test_mobile_args(self):
        args = build_parser().parse_args(
            ["mobile", "--users", "3", "--moving", "0", "1", "--regime", "low"]
        )
        assert args.moving == [0, 1]
        assert args.regime == "low"

    def test_seed_is_global(self):
        args = build_parser().parse_args(["--seed", "42", "quality-model"])
        assert args.seed == 42

    def test_sweep_shard_flags(self):
        args = build_parser().parse_args([
            "sweep", "--variant", "base", "--shards", "4",
            "--checkpoint", "ck.jsonl", "--resume", "--jobs", "2",
            "--result-json", "out.json", "--quick-context",
        ])
        assert args.shards == 4
        assert str(args.checkpoint) == "ck.jsonl"
        assert args.resume
        assert args.jobs == 2
        assert str(args.result_json) == "out.json"
        assert args.quick_context

    def test_sweep_defaults_to_unsharded(self):
        args = build_parser().parse_args(["sweep", "--variant", "base"])
        assert args.shards is None
        assert args.checkpoint is None
        assert not args.resume

    def test_shards_without_checkpoint_rejected(self, capsys):
        exit_code = main([
            "sweep", "--variant", "base", "--shards", "2",
        ])
        assert exit_code == 2
        assert "--checkpoint" in capsys.readouterr().out

    def test_resume_without_shards_rejected(self, capsys):
        exit_code = main([
            "sweep", "--variant", "base", "--resume",
            "--checkpoint", "ck.jsonl",
        ])
        assert exit_code == 2
        assert "--resume requires --shards" in capsys.readouterr().out

    def test_ap_grid_flag_parsed(self):
        args = build_parser().parse_args([
            "sweep", "--fault-grid", "blockage_depth_db",
            "--fault-values", "0,25", "--ap-grid", "1,2",
        ])
        assert args.ap_grid == "1,2"

    def test_ap_grid_without_fault_grid_rejected(self, capsys):
        exit_code = main(["sweep", "--variant", "base", "--ap-grid", "1,2"])
        assert exit_code == 2
        assert "--fault-grid" in capsys.readouterr().out

    def test_unknown_fault_base_preset_rejected(self, capsys):
        exit_code = main([
            "sweep", "--fault-grid", "blockage_depth_db",
            "--fault-values", "0,25", "--fault-base", "preset:warp",
        ])
        assert exit_code == 2
        assert "blockage_failover" in capsys.readouterr().out

    def test_blockage_failover_preset_carries_events(self):
        """The preset must produce arms that actually schedule blockage —
        a rate-less preset would make every depth arm a clean run."""
        from repro.cli import FAULT_BASE_PRESETS
        from repro.emulation.sweep import ap_fault_grid
        from repro.faults import FaultSchedule

        variants = ap_fault_grid(
            "blockage_depth_db", [25],
            base=FAULT_BASE_PRESETS["blockage_failover"],
        )
        for variant in variants:
            faults = variant.config_overrides["faults"]
            assert faults.blockage_rate_hz > 0
            schedule = FaultSchedule.generate(faults, 1.0, [0, 1])
            assert schedule.summary().get("blockage", 0) > 0


class TestExecution:
    def test_quality_model_command_runs(self, capsys, monkeypatch):
        # Patch the trainer to a fast configuration.
        from repro.quality.model import train_quality_models as real_train

        def fast_train(dnn_epochs, seed):
            from repro.video.synthetic import make_standard_videos
            from repro.video.dataset import generate_dataset

            videos = make_standard_videos(height=144, width=256, num_frames=4)
            dataset = generate_dataset(
                videos[:2], frames_per_video=1, samples_per_frame=8, seed=seed
            )
            return real_train(dataset=dataset, dnn_epochs=30, seed=seed)

        import repro.quality

        monkeypatch.setattr(repro.quality, "train_quality_models", fast_train)
        exit_code = main(["quality-model", "--epochs", "30"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Quality model test MSE" in output
        assert "dnn" in output

    def test_sweep_caps_group_size_from_the_shell(self, monkeypatch, tmp_path, capsys):
        """``max_group_size`` has no default to take a type from: the cap
        must arrive as an int (and ``none`` as None), end to end."""
        import json

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        result_path = tmp_path / "sweep.json"
        exit_code = main([
            "sweep", "--quick-context", "--users", "3", "--runs", "1",
            "--frames", "3", "--variant", "base",
            "--variant", "cap2:max_group_size=2",
            "--variant", "open:max_group_size=none",
            "--result-json", str(result_path),
        ])
        assert exit_code == 0
        assert "cap2" in capsys.readouterr().out
        results = json.loads(result_path.read_text())["results"]
        assert results["open"] == results["base"]
        assert len(results["cap2"]["ssim"]) == 1

    def test_observe_counts_the_same_work_at_any_seed(self):
        """The quality model is loaded, not trained inside the observed
        block: only the four probes are jigsaw-encoded, and the seed moves
        the placement but not which stages run how often."""
        calls = {}
        previous = obs.OBS.mode
        try:
            for seed in (0, 5):
                assert main([
                    "--seed", str(seed), "observe", "--mode", "counters",
                    "--users", "3", "--frames", "6",
                ]) == 0
                calls[seed] = {
                    name: value for name, value in obs.OBS.counters().items()
                    if name.endswith(".calls")
                }
        finally:
            obs.OBS.reset()
            obs.OBS.mode = previous
        assert calls[0]["encode.jigsaw.calls"] == 4
        assert calls[0] == calls[5]

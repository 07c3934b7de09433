"""Session-level chaos properties: determinism and graceful quality decay."""

import numpy as np

from repro.faults import (
    FaultConfig,
    FaultController,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)

from tests.faults.conftest import build_streamer, fingerprint

FRAMES = 4

#: A busy mixed schedule: every axis active.
CHAOS = dict(
    seed=13,
    blockage_rate_hz=4.0,
    feedback_loss_rate_hz=3.0,
    erasure_rate_hz=4.0,
    beacon_loss_rate_hz=3.0,
    snr_dip_rate_hz=2.0,
    churn_rate_hz=2.0,
)


class TestDeterminism:
    def test_same_seed_chaos_runs_bit_identical(self, parts):
        """The acceptance property: one seeded chaos schedule, streamed
        twice from scratch, produces identical OutcomeStats."""
        _, _, _, trace = parts
        outcomes = []
        for _ in range(2):
            streamer = build_streamer(parts, seed=7, faults=CHAOS)
            outcomes.append(streamer.stream_trace(trace, num_frames=FRAMES))
        assert fingerprint(outcomes[0]) == fingerprint(outcomes[1])
        assert outcomes[0].stats  # chaos still produced scored frames

    def test_config_generated_controller_matches_explicit(self, parts):
        """stream_trace's internally drawn controller equals passing the
        equivalent from_config controller by hand."""
        _, _, _, trace = parts
        config = FaultConfig(**CHAOS)
        implicit = build_streamer(parts, seed=7, faults=CHAOS).stream_trace(
            trace, num_frames=FRAMES
        )
        streamer = build_streamer(parts, seed=7, faults=CHAOS)
        controller = FaultController.from_config(
            config, FRAMES / streamer.config.fps, trace.user_ids()
        )
        explicit = streamer.session(trace, faults=controller).run(FRAMES)
        assert fingerprint(implicit) == fingerprint(explicit)


class TestQualityDegradesWithErasure:
    def test_ssim_monotone_on_average_in_erasure_rate(self, parts):
        """Mean SSIM must not improve as the erasure probability grows.

        One full-session erasure window per probability level; identical
        streamer seeds, so scaling the delivery probabilities down can only
        remove deliveries.  Averaged over two seeds to wash out makeup-round
        divergence, with a small epsilon for scoring noise.
        """
        _, _, _, trace = parts
        probs = [0.0, 0.5, 0.95]
        means = []
        for prob in probs:
            samples = []
            for seed in (7, 21):
                streamer = build_streamer(parts, seed=seed)
                controller = FaultController(
                    FaultSchedule(events=[
                        FaultEvent(
                            FaultKind.ERASURE, 0.0, 10.0, probability=prob
                        ),
                    ])
                )
                outcome = streamer.session(trace, faults=controller).run(
                    FRAMES
                )
                samples.append(outcome.mean_ssim)
            means.append(float(np.mean(samples)))
        for better, worse in zip(means, means[1:]):
            assert worse <= better + 1e-3
        assert means[-1] < means[0]  # near-total erasure really hurts

    def test_zero_probability_erasure_is_identity(self, parts):
        _, _, _, trace = parts
        clean = build_streamer(parts, seed=9).stream_trace(
            trace, num_frames=FRAMES
        )
        controller = FaultController(
            FaultSchedule(events=[
                FaultEvent(FaultKind.ERASURE, 0.0, 10.0, probability=0.0),
            ])
        )
        faulted = build_streamer(parts, seed=9).session(
            trace, faults=controller
        ).run(FRAMES)
        assert fingerprint(clean) == fingerprint(faulted)


class TestSweepIntegration:
    def test_fault_grid_variants_stream(self, parts):
        """fault_grid arms build configs the streamer accepts end to end."""
        from repro.emulation import fault_grid

        _, _, _, trace = parts
        variants = fault_grid(
            "erasure_rate_hz", [0.0, 8.0], base={"faults.seed": "3"}
        )
        means = {}
        for variant in variants:
            overrides = dict(variant.config_overrides)
            streamer = build_streamer(parts, seed=5, **overrides)
            means[variant.name] = streamer.stream_trace(
                trace, num_frames=FRAMES
            ).mean_ssim
        assert set(means) == {"erasure_rate_hz=0.0", "erasure_rate_hz=8.0"}
        assert np.isfinite(list(means.values())).all()

"""Served sessions are bit-identical to the in-process sweep engine.

The ISSUE 8 acceptance criterion: a session served over the wire — with
live control-plane traffic that does not change membership — produces
per-frame outcomes bit-identical to the same seeded spec run through the
batch engine.  Two anchors:

* the full per-frame/per-user ``OutcomeStats`` fingerprint against an
  in-process :meth:`SessionSpec.build` run, and
* the hex-exact session means against ``run_variant_sweep`` for the
  matching seed-schedule point (``seed_base + 0 * stride`` = seed 1000).
"""

import asyncio

from repro.emulation.shard import run_variant_sweep
from repro.emulation.sweep import Variant
from repro.service import ReceiverClient, ServiceServer, http_request
from repro.service.session import SessionSpec

USERS = 2
FRAMES = 3
PLACEMENT = ("arc", 3, 60)


def _serve_session(ctx, spec_dict, with_traffic=False, frame_interval_s=0.0):
    """Run one session to completion over the wire; return its detail."""

    async def main():
        server = ServiceServer(ctx, log=None,
                               frame_interval_s=frame_interval_s)
        await server.start()
        try:
            host, port = server.host, server.control_port
            _, body = await http_request(host, port, "POST", "/start",
                                         spec_dict)
            session_id = body["session"]
            if with_traffic:
                # Telemetry-only control traffic: pings and external
                # feedback reports must not perturb the stream.
                client = await ReceiverClient.connect(
                    host, server.receiver_port
                )
                for _ in range(3):
                    await client.ping()
                    await client.feedback(session_id, 0, 0.5)
                await client.close()
            while True:
                _, detail = await http_request(
                    host, port, "GET", f"/sessions/{session_id}"
                )
                if detail["state"] != "running":
                    return detail
                await asyncio.sleep(0.01)
        finally:
            await server.shutdown()

    return asyncio.run(main())


def _inprocess_fingerprint(ctx, spec: SessionSpec):
    session = spec.build(ctx)
    total = session.begin(spec.frames)
    for frame_index in range(total):
        session.stream_frame(frame_index)
    return session.outcome


class TestServedDeterminism:
    def test_served_equals_inprocess_session(self, service_ctx):
        spec = SessionSpec(users=USERS, frames=FRAMES, seed=42,
                           placement=PLACEMENT)
        reference = _inprocess_fingerprint(service_ctx, spec)
        detail = _serve_session(service_ctx, spec.to_dict())
        assert detail["state"] == "finished"
        outcome = detail["outcome"]
        assert outcome["fingerprint"] == reference.fingerprint()
        assert outcome["mean_ssim_hex"] == float(reference.mean_ssim).hex()
        assert outcome["mean_psnr_db_hex"] == float(
            reference.mean_psnr_db
        ).hex()

    def test_start_override_caps_group_size(self, service_ctx):
        """A ``/start`` override is a string; ``max_group_size`` must reach
        the enumerator as the int a typed config would carry."""
        from repro.core import MulticastStreamer
        from repro.emulation.context import trace_for_placement
        from repro.service.session import SEED_OFFSET

        seed, users = 42, 3
        config = service_ctx.config(max_group_size=2)
        streamer = MulticastStreamer(
            config, service_ctx.dnn, service_ctx.probes,
            service_ctx.scenario.channel_model, seed=seed + SEED_OFFSET,
        )
        trace = trace_for_placement(service_ctx, users, PLACEMENT, seed,
                                    num_aps=config.num_aps)
        reference = streamer.session(trace).run(FRAMES)

        spec = SessionSpec(users=users, frames=FRAMES, seed=seed,
                           placement=PLACEMENT,
                           overrides={"max_group_size": "2"})
        detail = _serve_session(service_ctx, spec.to_dict())
        assert detail["state"] == "finished"
        assert detail["outcome"]["fingerprint"] == reference.fingerprint()
        uncapped = _serve_session(
            service_ctx, {**spec.to_dict(), "overrides": {"max_group_size": "none"}}
        )
        assert uncapped["state"] == "finished"
        assert uncapped["outcome"]["fingerprint"] != reference.fingerprint()

    def test_control_traffic_does_not_perturb(self, service_ctx):
        spec = SessionSpec(users=USERS, frames=FRAMES, seed=42,
                           placement=PLACEMENT)
        quiet = _serve_session(service_ctx, spec.to_dict())
        # Paced so the telemetry lands mid-session; wall-clock pacing must
        # not affect the outcome either.
        noisy = _serve_session(service_ctx, spec.to_dict(),
                               with_traffic=True, frame_interval_s=0.1)
        assert noisy["feedback_reports"] == 3
        assert (noisy["outcome"]["fingerprint"]
                == quiet["outcome"]["fingerprint"])

    def test_served_matches_sweep_engine_sample(self, service_ctx):
        """Seed 1000 is run 0 of the sweep schedule — means match bit-for-bit."""
        merged = run_variant_sweep(
            service_ctx, [Variant("base")], USERS, PLACEMENT,
            runs=1, frames=FRAMES,
        )
        spec = SessionSpec(users=USERS, frames=FRAMES, seed=1000,
                           placement=PLACEMENT)
        detail = _serve_session(service_ctx, spec.to_dict())
        served_ssim = float.fromhex(detail["outcome"]["mean_ssim_hex"])
        served_psnr = float.fromhex(detail["outcome"]["mean_psnr_db_hex"])
        assert served_ssim == merged["base"]["ssim"][0]
        assert served_psnr == merged["base"]["psnr"][0]

    def test_membership_churn_changes_outcome(self, service_ctx):
        """The flip side: a leave/rejoin genuinely alters the stream."""

        async def main():
            server = ServiceServer(service_ctx, log=None,
                                   frame_interval_s=0.03)
            await server.start()
            try:
                host, port = server.host, server.control_port
                _, body = await http_request(
                    host, port, "POST", "/start",
                    {"users": USERS, "frames": 6, "seed": 42,
                     "placement": list(PLACEMENT)},
                )
                session_id = body["session"]
                client = await ReceiverClient.connect(
                    host, server.receiver_port
                )
                await client.leave(session_id, 1)
                await asyncio.sleep(0.1)
                await client.join(session_id, 1)
                await client.close()
                while True:
                    _, detail = await http_request(
                        host, port, "GET", f"/sessions/{session_id}"
                    )
                    if detail["state"] != "running":
                        return detail
                    await asyncio.sleep(0.02)
            finally:
                await server.shutdown()

        churned = asyncio.run(main())
        spec = SessionSpec(users=USERS, frames=6, seed=42,
                           placement=PLACEMENT)
        reference = _inprocess_fingerprint(service_ctx, spec)
        assert churned["leaves"] >= 1 and churned["joins"] >= 1
        assert (churned["outcome"]["fingerprint"]
                != reference.fingerprint())

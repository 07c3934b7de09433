"""Control-plane behaviour: lifecycle, membership, rejection, metrics.

Each test spins up a real :class:`ServiceServer` on ephemeral localhost
ports inside ``asyncio.run`` and talks to it over actual sockets — the
same path external receivers take.
"""

import asyncio

import pytest

from repro.errors import ServiceError
from repro.service import ReceiverClient, ServiceServer, http_request
from repro.service.session import SessionSpec


def _spec(users=2, frames=3, seed=5, **kw):
    return {"users": users, "frames": frames, "seed": seed, **kw}


async def _wait_done(host, port, session_id, timeout=60.0):
    """Poll /sessions/<id> until the session leaves the running state."""
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        _, body = await http_request(host, port, "GET",
                                     f"/sessions/{session_id}")
        if body["state"] != "running":
            return body
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"session {session_id} still running")
        await asyncio.sleep(0.02)


def _run(service_ctx, fn, **server_kw):
    """Start a server, run ``fn(server)``, always shut down."""

    async def main():
        server = ServiceServer(service_ctx, log=None, **server_kw)
        await server.start()
        try:
            return await fn(server)
        finally:
            await server.shutdown()

    return asyncio.run(main())


class TestSessionLifecycle:
    def test_concurrent_sessions_run_to_completion(self, service_ctx):
        async def scenario(server):
            host, port = server.host, server.control_port
            starts = await asyncio.gather(*[
                http_request(host, port, "POST", "/start",
                             _spec(users=2, frames=2, seed=seed))
                for seed in (3, 4, 5)
            ])
            ids = [body["session"] for _, body in starts]
            assert sorted(ids) == ["s1", "s2", "s3"]
            finals = await asyncio.gather(*[
                _wait_done(host, port, session_id) for session_id in ids
            ])
            assert all(body["state"] == "finished" for body in finals)
            assert all(body["frames_streamed"] == 2 for body in finals)
            _, status = await http_request(host, port, "GET", "/status")
            assert len(status["sessions"]) == 3
            assert status["state"] == "running"
            # Distinct seeds -> distinct streams.
            prints = {body["outcome"]["fingerprint"] for body in finals}
            assert len(prints) == 3

        _run(service_ctx, scenario)

    def test_stop_interrupts_at_frame_boundary(self, service_ctx):
        async def scenario(server):
            host, port = server.host, server.control_port
            _, body = await http_request(
                host, port, "POST", "/start", _spec(frames=500)
            )
            session_id = body["session"]
            _, stopped = await http_request(
                host, port, "POST", "/stop", {"session": session_id}
            )
            assert stopped["state"] == "stopped"
            assert stopped["frames_streamed"] < 500
            assert "fingerprint" in stopped["outcome"]

        _run(service_ctx, scenario, frame_interval_s=0.02)

    def test_bad_requests_rejected(self, service_ctx):
        async def scenario(server):
            host, port = server.host, server.control_port
            status, body = await http_request(
                host, port, "POST", "/start", {"users": 0, "frames": 3}
            )
            assert status == 400 and "users" in body["error"]
            status, body = await http_request(
                host, port, "POST", "/start", _spec(bogus_field=1)
            )
            assert status == 400 and "bogus_field" in body["error"]
            status, body = await http_request(
                host, port, "POST", "/start",
                _spec(overrides={"num_elements": "64"}),
            )
            assert status == 400 and "num_elements" in body["error"]
            status, _ = await http_request(
                host, port, "POST", "/stop", {"session": "s99"}
            )
            assert status == 404
            status, _ = await http_request(
                host, port, "GET", "/sessions/s99"
            )
            assert status == 404
            status, _ = await http_request(host, port, "GET", "/nowhere")
            assert status == 404
            status, _ = await http_request(host, port, "GET", "/start")
            assert status == 405

        _run(service_ctx, scenario)


class TestMembership:
    def test_join_leave_reflected_in_status(self, service_ctx):
        async def scenario(server):
            host = server.host
            _, body = await http_request(
                host, server.control_port, "POST", "/start",
                _spec(users=3, frames=400)
            )
            session_id = body["session"]
            client = await ReceiverClient.connect(host, server.receiver_port)
            try:
                resp, _ = await client.leave(session_id, 1)
                assert resp["members"] == [0, 2]
                _, detail = await http_request(
                    host, server.control_port, "GET",
                    f"/sessions/{session_id}"
                )
                assert detail["members"] == [0, 2]
                assert detail["leaves"] == 1
                resp, _ = await client.join(session_id, 1)
                assert resp["members"] == [0, 1, 2]
                # Rejoining a member is acknowledged but changes nothing.
                resp, _ = await client.join(session_id, 1)
                assert resp["changed"] is False
            finally:
                await client.close()

        _run(service_ctx, scenario, frame_interval_s=0.02)

    def test_disconnect_auto_leaves(self, service_ctx):
        async def scenario(server):
            host = server.host
            _, body = await http_request(
                host, server.control_port, "POST", "/start",
                _spec(users=3, frames=400)
            )
            session_id = body["session"]
            client = await ReceiverClient.connect(host, server.receiver_port)
            await client.join(session_id, 2)
            await client.close()
            deadline = asyncio.get_running_loop().time() + 10.0
            while True:
                _, detail = await http_request(
                    host, server.control_port, "GET",
                    f"/sessions/{session_id}"
                )
                if detail["members"] == [0, 1]:
                    break
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)

        _run(service_ctx, scenario, frame_interval_s=0.02)

    def test_feedback_recorded_and_malformed_rejected(self, service_ctx):
        async def scenario(server):
            host = server.host
            _, body = await http_request(
                host, server.control_port, "POST", "/start",
                _spec(users=2, frames=400)
            )
            session_id = body["session"]
            client = await ReceiverClient.connect(host, server.receiver_port)
            try:
                resp, rtt = await client.feedback(session_id, 0, 0.75)
                assert resp["type"] == "feedback_ack"
                assert rtt > 0.0
                _, detail = await http_request(
                    host, server.control_port, "GET",
                    f"/sessions/{session_id}"
                )
                assert detail["feedback_reports"] == 1
                assert detail["last_feedback"] == {"0": 0.75}

                # Rejections: each gets an error response, none kills the
                # connection.
                with pytest.raises(ServiceError, match="unknown control"):
                    await client.request({"type": "subscribe"})
                with pytest.raises(ServiceError, match="missing required"):
                    await client.request({"type": "join", "session": session_id})
                with pytest.raises(ServiceError, match="unknown session"):
                    await client.feedback("s77", 0, 0.5)
                with pytest.raises(ServiceError, match="not part of"):
                    await client.feedback(session_id, 55, 0.5)
                resp, _ = await client.ping()
                assert resp["type"] == "pong"
            finally:
                await client.close()

        _run(service_ctx, scenario, frame_interval_s=0.02)

    def test_framing_violation_is_fatal_but_server_survives(self, service_ctx):
        async def scenario(server):
            host = server.host
            bad = await ReceiverClient.connect(host, server.receiver_port)
            await bad.send_raw(b"\xff\xff\xff\xff")  # absurd length prefix
            await asyncio.wait_for(bad.closed.wait(), 10.0)
            assert bad.protocol_errors >= 1
            await bad.close()
            # The server keeps serving other clients.
            good = await ReceiverClient.connect(host, server.receiver_port)
            resp, _ = await good.ping()
            assert resp["type"] == "pong"
            await good.close()

        _run(service_ctx, scenario)


class TestMetrics:
    def test_metrics_surface_session_scopes(self, service_ctx):
        from repro import obs

        async def scenario(server):
            host, port = server.host, server.control_port
            _, body = await http_request(
                host, port, "POST", "/start", _spec(users=2, frames=2)
            )
            session_id = body["session"]
            await _wait_done(host, port, session_id)
            _, metrics = await http_request(host, port, "GET", "/metrics")
            assert metrics["obs_mode"] == "counters"
            scoped = metrics["sessions"][session_id]
            assert scoped["frames.streamed"] == 2
            assert scoped["finished"] == 1
            assert metrics["counters"]["service.sessions.started"] == 1

        with obs.observed("counters"):
            _run(service_ctx, scenario)

    def test_spec_round_trip(self):
        spec = SessionSpec.from_dict(
            {"users": 4, "frames": 7, "seed": 11,
             "placement": ["range", 2, 9, 120],
             "overrides": {"fps": "24"}}
        )
        assert SessionSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "raw, match",
        [
            ({"users": 1}, "frames"),
            ({"frames": 1}, "users"),
            ({"users": 1, "frames": 1, "placement": ["orbit", 2]},
             "placement"),
            ({"users": 1, "frames": 1, "overrides": {"fps": 24}},
             "overrides"),
            ({"users": "two", "frames": 1}, "non-integer"),
            ({"users": 1, "frames": 1, "placement": ["arc", None, 60]},
             "finite"),
            ({"users": 1, "frames": 1, "placement": ["arc", [], 60]},
             "finite"),
            ({"users": 1, "frames": 1, "placement": ["arc", 3, float("nan")]},
             "finite"),
            ({"users": 1, "frames": 1,
              "placement": ["arc", float("inf"), 60]}, "finite"),
            ({"users": 1, "frames": 1, "placement": ["arc", True, 60]},
             "finite"),
            ({"users": 1, "frames": 1, "placement": ["arc", "3", 60]},
             "finite"),
            ({"users": 1, "frames": 1, "placement": ["arc", 10**400, 60]},
             "finite"),
            ({"users": 1, "frames": 1, "placement": ["arc"]},
             "takes 2 numbers"),
            ({"users": 1, "frames": 1, "placement": ["range", 2, 9]},
             "takes 3 numbers"),
            ({"users": 1, "frames": 1, "placement": [["arc"], 3, 60]},
             "placement"),
            ({"users": 1, "frames": 1, "placement": "arc"}, "placement"),
        ],
    )
    def test_spec_rejections(self, raw, match):
        with pytest.raises(ServiceError, match=match):
            SessionSpec.from_dict(raw)

#!/usr/bin/env python
"""Service-layer load test: N receivers across M concurrent sessions.

Boots a real :class:`repro.service.ServiceServer` inside one event loop,
starts ``--sessions`` sessions (one process each), connects ``--receivers`` TCP receiver
clients spread across them, then applies a seeded churn schedule (random
leaves and rejoins through the wire protocol) and a feedback storm while
every session is actively streaming frames.  It records:

* ``sessions_per_s`` — full start -> stream -> stop lifecycles per second,
* ``control_msgs_per_s`` and feedback RTT percentiles (p50/p95/p99),
* dropped / rejected control-message counts (the acceptance criterion is
  zero of both),
* ``membership_reflected`` — after the churn schedule, ``/status`` must
  report exactly the membership the driver tracked locally,
* ``clean_shutdown`` — the graceful drain path completed,
* ``children_left`` — session processes still alive after shutdown
  (``multiprocessing.active_children()``); anything but 0 fails the run.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_load.py           # full
    PYTHONPATH=src python benchmarks/bench_service_load.py --quick   # CI smoke

Full sizes exercise >=100 receivers across >=8 sessions; ``--quick`` runs
>=50 receivers across >=4 sessions for CI.  The stage dict is written to
``bench_service_load.json`` by default.
"""

from __future__ import annotations

import argparse
import asyncio
import multiprocessing
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.emulation import ExperimentContext, build_context
from repro.emulation.context import QUICK_CONTEXT
from repro.errors import ServiceError
from repro.perf import throughput, write_bench_report
from repro.service import ReceiverClient, ServiceServer, http_request

#: Session processes pace frames so the four sessions do not saturate a
#: small CI host while every stream stays live — roughly the cadence of a
#: live feed at these bench resolutions.
FRAME_INTERVAL_S = 0.1

#: Concurrent in-flight churn operations; ops on the same (session, user)
#: stay ordered, distinct receivers churn in parallel.
CHURN_CHUNK = 8

#: Far beyond what any phase streams — sessions stay running until /stop.
UNBOUNDED_FRAMES = 1_000_000

REQUEST_TIMEOUT_S = 120.0


async def _drive_load(
    ctx: ExperimentContext,
    sessions: int,
    receivers: int,
    churn_ops: int,
    feedback_rounds: int,
    seed: int,
) -> dict:
    users_per_session = -(-receivers // sessions)  # ceil
    server = ServiceServer(ctx, log=None, frame_interval_s=FRAME_INTERVAL_S)
    await server.start()
    host = server.host
    rng = random.Random(seed)

    rtts: list = []
    dropped = 0
    rejected = 0
    control_msgs = 0
    t_start = time.perf_counter()
    phase_s: dict = {}
    t_phase = t_start

    def phase(name: str) -> None:
        nonlocal t_phase
        now = time.perf_counter()
        phase_s[name] = now - t_phase
        t_phase = now

    async def tracked(coro):
        """Run one control request, folding its fate into the tallies."""
        nonlocal control_msgs, dropped, rejected
        try:
            _, rtt = await coro
        except (asyncio.TimeoutError, ConnectionError):
            dropped += 1
            return None
        except ServiceError:
            rejected += 1
            return None
        control_msgs += 1
        rtts.append(rtt)
        return rtt

    try:
        # -- start M concurrent sessions ---------------------------------
        session_ids = []
        for index in range(sessions):
            _, body = await http_request(
                host, server.control_port, "POST", "/start",
                {"users": users_per_session, "frames": UNBOUNDED_FRAMES,
                 "seed": seed + index},
                timeout=REQUEST_TIMEOUT_S,
            )
            session_ids.append(body["session"])
        phase("start_sessions")

        # -- connect N receivers, one (session, user) each ---------------
        assignments = [
            (session_ids[i % sessions], (i // sessions) % users_per_session)
            for i in range(receivers)
        ]
        unique_keys = sorted(set(assignments))
        connections = await asyncio.gather(*[
            ReceiverClient.connect(host, server.receiver_port)
            for _ in unique_keys
        ])
        clients = dict(zip(unique_keys, connections))
        phase("connect")
        join_rtts = await asyncio.gather(*[
            tracked(clients[key].join(key[0], key[1],
                                      timeout=REQUEST_TIMEOUT_S))
            for key in clients
        ])
        phase("join")

        # -- seeded churn: leaves and rejoins against live sessions ------
        # The schedule is drawn up front (fully determined by the seed),
        # then executed in chunks: distinct receivers churn concurrently,
        # repeat ops on one (session, user) stay strictly ordered.
        membership = {
            sid: set(range(users_per_session)) for sid in session_ids
        }
        keys = sorted(clients)
        schedule = []
        for _ in range(churn_ops):
            sid, user = keys[rng.randrange(len(keys))]
            if user in membership[sid]:
                schedule.append((sid, user, "leave"))
                membership[sid].discard(user)
            else:
                schedule.append((sid, user, "join"))
                membership[sid].add(user)

        joins = leaves = 0
        index = 0
        while index < len(schedule):
            chunk = []
            seen = set()
            while (index < len(schedule) and len(chunk) < CHURN_CHUNK
                   and schedule[index][:2] not in seen):
                chunk.append(schedule[index])
                seen.add(schedule[index][:2])
                index += 1
            results = await asyncio.gather(*[
                tracked(
                    clients[(sid, user)].leave(sid, user,
                                               timeout=REQUEST_TIMEOUT_S)
                    if action == "leave" else
                    clients[(sid, user)].join(sid, user,
                                              timeout=REQUEST_TIMEOUT_S)
                )
                for sid, user, action in chunk
            ])
            for (sid, user, action), rtt in zip(chunk, results):
                if rtt is None:
                    continue
                if action == "leave":
                    leaves += 1
                else:
                    joins += 1
        phase("churn")

        # -- the churn must be visible on the control plane --------------
        _, status = await http_request(
            host, server.control_port, "GET", "/status",
            timeout=REQUEST_TIMEOUT_S,
        )
        reported = {
            entry["id"]: entry["members"] for entry in status["sessions"]
        }
        membership_reflected = all(
            reported[sid] == sorted(membership[sid]) for sid in session_ids
        )
        phase("verify_status")

        # -- feedback storm while every stream is still live -------------
        feedback_rtts: list = []
        for _ in range(feedback_rounds):
            round_rtts = await asyncio.gather(*[
                tracked(clients[(sid, user)].feedback(
                    sid, user, rng.random(), timeout=REQUEST_TIMEOUT_S
                ))
                for sid, user in keys if user in membership[sid]
            ])
            feedback_rtts.extend(r for r in round_rtts if r is not None)
        phase("feedback")

        # -- tear down: close receivers, stop every session, drain -------
        await asyncio.gather(*[c.close() for c in clients.values()])
        finals = []
        for sid in session_ids:
            _, final = await http_request(
                host, server.control_port, "POST", "/stop",
                {"session": sid}, timeout=REQUEST_TIMEOUT_S,
            )
            finals.append(final)
        frames_streamed = sum(f["frames_streamed"] for f in finals)
        all_stopped = all(f["state"] == "stopped" for f in finals)

        await server.shutdown()
        clean_shutdown = all_stopped and server._shutdown_done.is_set()
        children_left = len(multiprocessing.active_children())
        phase("teardown")
    except BaseException:
        await server.shutdown()
        raise
    wall_s = time.perf_counter() - t_start

    joined_ok = sum(1 for r in join_rtts if r is not None)
    percentiles = (
        np.percentile(feedback_rtts, [50, 95, 99]).tolist()
        if feedback_rtts else [None, None, None]
    )
    return {
        "sessions": sessions,
        "receivers": receivers,
        "users_per_session": users_per_session,
        "churn_ops": churn_ops,
        "churn_joins": joins,
        "churn_leaves": leaves,
        "feedback_reports": len(feedback_rtts),
        "frames_streamed": frames_streamed,
        "wall_s": wall_s,
        "sessions_per_s": throughput(sessions, wall_s),
        "control_msgs": control_msgs,
        "control_msgs_per_s": throughput(control_msgs, wall_s),
        "feedback_rtt_p50_s": percentiles[0],
        "feedback_rtt_p95_s": percentiles[1],
        "feedback_rtt_p99_s": percentiles[2],
        "dropped_msgs": dropped,
        "rejected_msgs": rejected,
        "receivers_joined": joined_ok,
        "zero_dropped": dropped == 0 and rejected == 0,
        "membership_reflected": bool(membership_reflected),
        "clean_shutdown": bool(clean_shutdown),
        "children_left": children_left,
        "phase_s": {name: round(value, 4)
                    for name, value in phase_s.items()},
    }


def bench_service_load(
    ctx: ExperimentContext,
    sessions: int,
    receivers: int,
    churn_ops: int,
    feedback_rounds: int = 2,
    seed: int = 0,
) -> dict:
    """Run the load scenario; returns the ``service_load`` stage dict."""
    return asyncio.run(
        _drive_load(ctx, sessions, receivers, churn_ops, feedback_rounds, seed)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI sizes: >=50 receivers across >=4 sessions",
    )
    parser.add_argument("--sessions", type=int, default=None,
                        help="concurrent sessions (default 8, quick 4)")
    parser.add_argument("--receivers", type=int, default=None,
                        help="receiver connections (default 104, quick 52)")
    parser.add_argument("--churn-ops", type=int, default=None,
                        help="seeded leave/rejoin operations "
                             "(default 80, quick 40)")
    parser.add_argument("--feedback-rounds", type=int, default=2,
                        help="feedback reports per receiver (default 2)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output", type=Path,
        default=REPO_ROOT / "bench_service_load.json",
        help="report path (default: bench_service_load.json at repo root)",
    )
    args = parser.parse_args(argv)

    sessions = args.sessions or (4 if args.quick else 8)
    receivers = args.receivers or (52 if args.quick else 104)
    churn_ops = args.churn_ops if args.churn_ops is not None else (
        40 if args.quick else 80
    )
    if args.quick:
        ctx = build_context(**QUICK_CONTEXT)
    else:
        ctx = build_context()

    print(f"service load: {receivers} receivers across {sessions} sessions, "
          f"{churn_ops} churn ops, seed={args.seed}")
    stage = bench_service_load(
        ctx, sessions, receivers, churn_ops,
        feedback_rounds=args.feedback_rounds, seed=args.seed,
    )
    path = write_bench_report(args.output, {"schema": 1, "service_load": stage})

    print(f"wall                 : {stage['wall_s']:8.2f} s "
          f"({stage['sessions_per_s']:.3f} sessions/s, "
          f"{stage['frames_streamed']} frames)")
    print(f"control plane        : {stage['control_msgs']} msgs "
          f"({stage['control_msgs_per_s']:.1f} msgs/s)")
    print(f"feedback RTT         : p50 {stage['feedback_rtt_p50_s']:.4f} s, "
          f"p95 {stage['feedback_rtt_p95_s']:.4f} s, "
          f"p99 {stage['feedback_rtt_p99_s']:.4f} s")
    print(f"churn                : {stage['churn_leaves']} leaves, "
          f"{stage['churn_joins']} rejoins "
          f"(reflected: {stage['membership_reflected']})")
    print(f"dropped / rejected   : {stage['dropped_msgs']} / "
          f"{stage['rejected_msgs']}")
    print(f"clean shutdown       : {stage['clean_shutdown']} "
          f"({stage['children_left']} session processes left)")
    print(f"report               : {path}")

    ok = (stage["zero_dropped"] and stage["membership_reflected"]
          and stage["clean_shutdown"] and stage["children_left"] == 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

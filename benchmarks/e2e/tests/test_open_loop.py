"""Open-loop generator: round trips run from the due time, not the send time."""

import asyncio
import time

import pytest

from serve_bench import open_loop


def test_a_stall_is_charged_to_every_message_it_delayed():
    # Wide margins: the host this runs on stalls for tens of milliseconds itself.
    interval = 0.05
    stall = 0.4
    slack = 0.08

    async def send(index):
        if index == 1:
            time.sleep(stall)        # blocks the loop, like a frame on the server's
        await asyncio.sleep(0)

    samples = asyncio.run(open_loop(send, 12, interval))

    assert [round((s.due - samples[0].due) / interval) for s in samples] == list(range(12))
    assert all(s.ok for s in samples)
    # Message 2 was due one interval after message 1 but could only leave once
    # the stall ended: it ran late, and its round trip counts that wait.
    assert samples[2].late_s == pytest.approx(stall - interval, abs=slack)
    assert samples[2].rtt_s >= samples[2].late_s
    assert samples[3].late_s == pytest.approx(stall - 2 * interval, abs=slack)
    # Messages due after the stall ended leave on schedule again.
    assert samples[0].late_s < slack and samples[11].late_s < slack
    assert samples[0].rtt_s < slack


def test_failures_and_timeouts_are_counted_not_raised():
    from repro.errors import ServiceError

    async def send(index):
        if index == 0:
            raise ServiceError("rejected")
        if index == 1:
            raise asyncio.TimeoutError
        await asyncio.sleep(0)

    samples = asyncio.run(open_loop(send, 3, 0.001))
    assert [s.ok for s in samples] == [False, False, True]

"""Span arithmetic and proxy transparency."""

import pytest

from tracing import ATTRS, END, NAME, PARENT, START, TimedProxy, Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    frame = tracer.begin("core.frame")          # 0 .. 10
    clock.now = 1.0
    plan = tracer.begin("core.plan")            # 1 .. 6
    clock.now = 2.0
    enum = tracer.begin("scheduling.enumerate")  # 2 .. 5
    clock.now = 3.0
    beam = tracer.begin("beamforming.plan_group")  # 3 .. 4
    clock.now = 4.0
    tracer.end(beam)
    clock.now = 5.0
    tracer.end(enum)
    clock.now = 6.0
    tracer.end(plan)
    clock.now = 7.0
    score = tracer.begin("core.score")          # 7 .. 9
    clock.now = 9.0
    tracer.end(score)
    clock.now = 10.0
    tracer.end(frame)

    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 1, 2, 0]
    own = dict(zip((s[NAME] for s in tracer.spans), self_times(tracer.spans)))
    assert own == {
        "core.frame": 10.0 - 5.0 - 2.0,       # minus plan and score, not grandchildren
        "core.plan": 5.0 - 3.0,
        "scheduling.enumerate": 3.0 - 1.0,
        "beamforming.plan_group": 1.0,
        "core.score": 2.0,
    }
    assert sum(own.values()) == pytest.approx(10.0)


class Component:
    def __init__(self):
        self.knob = 3
        self.calls = []

    def work(self, x, scale=1):
        self.calls.append(x)
        return self.helper() * x * scale

    def helper(self):
        return self.knob

    def boom(self):
        raise KeyError("boom")


def test_proxy_forwards_everything_and_times_only_the_named_methods():
    real = Component()
    tracer = Tracer()
    proxy = TimedProxy(real, tracer, {"work": "layer.work"},
                       lambda result, args: {"result": result, "arg": args[0]})

    assert proxy.work(2, scale=5) == 30          # same result, kwargs forwarded
    assert proxy.helper() == 3 and len(tracer.spans) == 1   # untimed: no span
    assert proxy.knob == 3
    proxy.knob = 7                               # writes land on the real object
    assert real.knob == 7 and proxy.work(1) == 7
    assert real.calls == [2, 1]

    first = tracer.spans[0]
    assert first[NAME] == "layer.work" and first[END] >= first[START]
    assert first[ATTRS] == {"result": 30, "arg": 2}
    with pytest.raises(AttributeError):
        proxy.missing


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()
    proxy = TimedProxy(Component(), tracer, {"boom": "layer.boom"})
    outer = tracer.begin("outer")
    with pytest.raises(KeyError):
        proxy.boom()
    tracer.end(outer)
    assert [s[NAME] for s in tracer.spans] == ["outer", "layer.boom"]
    assert all(s[END] is not None for s in tracer.spans)


def test_proxies_leave_a_real_session_bit_identical(tmp_path, monkeypatch):
    """Traced and untraced streams of the same inputs share one digest."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.emulation import build_context

    import session_bench
    import workloads

    ctx = build_context(height=144, width=256, dnn_epochs=30, probe_frames=2)
    for base in (workloads.LIVE4_DENSE, workloads.REPAIR2AP_PRECODE):
        workload = base.sized(workloads.SIZING_SECONDS, smoke=True)
        errors = []
        plain = session_bench.stream_session(ctx, workload, 5, 0, None, errors)
        tracer = Tracer()
        traced = session_bench.stream_session(ctx, workload, 5, 0, tracer, errors)
        assert not errors
        assert traced.outcome.fingerprint() == plain.outcome.fingerprint()
        names = {s[NAME] for s in tracer.spans}
        assert {"core.frame", "core.plan", "core.score", "scheduling.enumerate",
                "beamforming.plan_group", "transport.transmit",
                "video.measure_masks"} <= names

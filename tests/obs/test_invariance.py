"""Turning observation on does not change which code runs.

Every ``OBS`` mode streams the same session through the same functions:
instrumentation only records what the pipeline computed, it never selects
a different implementation.  The check profiles a short session under
``off``, ``counters`` and ``trace`` and compares the sets of named
functions called under ``src/repro`` outside ``repro/obs`` (comprehension,
generator and lambda scopes aside).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import repro
from repro.cli import FAULT_BASE_PRESETS
from repro.core import MulticastStreamer, SystemConfig
from repro.emulation import parse_config_overrides
from repro.faults.schedule import FaultSchedule
from repro.obs import observed
from repro.types import SchedulerKind

from tests.faults.conftest import fingerprint

SRC = Path(repro.__file__).resolve().parent
OBS_DIR = SRC / "obs"

MODES = ("off", "counters", "trace")

FRAMES = 9


def _key(code):
    """``(file under src/repro, first line, name)`` of a code object.

    ``co_qualname`` would read better but exists only from Python 3.11.
    """
    return (
        str(Path(code.co_filename).relative_to(SRC)),
        code.co_firstlineno,
        code.co_name,
    )


#: Helpers whose only callers sit inside an ``if OBS.mode:`` block, so they
#: run only while observing: function -> what records through them.
OBS_ONLY = {
    FaultSchedule.events_active_at: "begin_frame's fault.* counters and events",
}

CONFIGS = {
    "default": dict(num_aps=1, overrides={}),
    "precode_2ap_failover": dict(
        num_aps=2,
        overrides=parse_config_overrides(
            {
                **FAULT_BASE_PRESETS["blockage_failover"],
                "fountain_codec": "precode",
                "topology.num_aps": "2",
            }
        ),
    ),
    "round_robin": dict(
        num_aps=1, overrides=dict(scheduler=SchedulerKind.ROUND_ROBIN)
    ),
}


def _called(run):
    """``run()``'s result and the :func:`_key` of every named ``repro``
    function outside ``repro.obs`` it called."""
    src, obs = str(SRC), str(OBS_DIR)
    seen = set()

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        path = code.co_filename
        if (
            path.startswith(src)
            and not path.startswith(obs)
            and not code.co_name.startswith("<")
        ):
            seen.add(_key(code))

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, seen


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_observation_does_not_change_which_code_runs(
    name, scenario, tiny_dnn, hr_probe
):
    spec = CONFIGS[name]
    positions = scenario.place_arc(4, 3.0, 60, seed=5)
    trace = scenario.static_trace(
        positions, duration_s=FRAMES / 30, seed=6, num_aps=spec["num_aps"]
    )
    config = SystemConfig(height=144, width=256, **spec["overrides"])

    def stream():
        streamer = MulticastStreamer(
            config, tiny_dnn, [hr_probe], scenario.channel_model, seed=3
        )
        return streamer.session(trace).run(FRAMES)

    stream()  # warm the probe's mask memo and the codecs' shared tables
    outcomes, calls = {}, {}
    for mode in MODES:
        with observed(mode):
            outcomes[mode], calls[mode] = _called(stream)

    assert fingerprint(outcomes["counters"]) == fingerprint(outcomes["off"])
    assert fingerprint(outcomes["trace"]) == fingerprint(outcomes["off"])
    obs_only = {_key(func.__code__) for func in OBS_ONLY}
    differ = {
        mode: sorted(
            f"{path}:{line}:{name}"
            for path, line, name in calls[mode] ^ calls["off"]
            if (path, line, name) not in obs_only
        )
        for mode in MODES[1:]
    }
    assert differ == {"counters": [], "trace": []}

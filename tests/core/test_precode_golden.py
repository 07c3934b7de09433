"""Default-codec sessions must never touch the precode, and stay golden.

The RaptorQ-style precode is opt-in via ``SystemConfig.fountain_codec``.
Two safety properties keep the seed wire format trustworthy:

* a default-config session never instantiates a
  :class:`repro.fountain.precode.Precode` (the constructor is rigged to
  explode), and
* the recorded golden snapshots reproduce bit-identically with the precode
  module imported and its process-wide cache cleared, so merely shipping
  the new codec cannot perturb ``tests/core/golden_stream.json``.

A precode-config session is also exercised end to end here for sane
quality; ``tests/transport/test_cohort_equivalence.py`` holds its cohort
to real inactivation decoders.
"""

import json

import pytest

from repro.core import MulticastStreamer, SystemConfig
from repro.errors import ConfigurationError
from repro.fountain.precode import Precode
from repro.types import SchedulerKind

from tests.core.golden_cases import (
    CASES,
    GOLDEN_PATH,
    HEIGHT,
    NUM_FRAMES,
    POLICIES,
    STREAM_SEED,
    WIDTH,
    build_environment,
    case_key,
    serialize_stat,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def environment():
    return build_environment()


def _stream(environment, **config_kwargs):
    dnn, probes, channel_model, trace = environment
    config = SystemConfig(height=HEIGHT, width=WIDTH, **config_kwargs)
    streamer = MulticastStreamer(
        config, dnn, probes, channel_model, seed=STREAM_SEED
    )
    outcome = streamer.session(trace).run(NUM_FRAMES)
    return [serialize_stat(stat) for stat in outcome.stats]


class TestDenseSessionsNeverInstantiatePrecode:
    def test_default_config_never_builds_a_precode(
        self, golden, environment, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise AssertionError(
                "a dense-codec session instantiated the precode"
            )

        Precode.clear_cache()
        monkeypatch.setattr(Precode, "__init__", explode)
        current = _stream(environment)
        assert current == golden[case_key(*CASES[0])]

    def test_golden_stream_unchanged_with_precode_cache_cleared(
        self, golden, environment
    ):
        """Importing the codec and clearing its cache perturbs nothing."""
        Precode.clear_cache()
        scheduler, policy, source_coding, rate_control = CASES[0]
        current = _stream(
            environment,
            scheduler=SchedulerKind(scheduler),
            source_coding=source_coding,
            rate_control=rate_control,
            **POLICIES[policy],
        )
        assert current == golden[case_key(*CASES[0])]


class TestPrecodeSessions:
    def test_precode_session_delivers_quality(self, environment):
        stats = _stream(environment, fountain_codec="precode")
        ssims = [float.fromhex(s["ssim"]) for s in stats]
        assert len(ssims) == NUM_FRAMES * 2
        assert min(ssims) > 0.3
        assert max(ssims) > 0.9

    def test_invalid_codec_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(fountain_codec="turbo")

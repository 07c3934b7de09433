"""The Fig 16/17 mobile-comparison series, pinned hex-exactly.

``mobile_series.json`` holds every approach's per-frame mean-over-users
SSIM, as ``float.hex()`` strings, for the quick context at seed 5 and
0.5 s: regimes ``high``, ``low`` and ``env``, one receiver moving ``[0]``
and three receivers moving ``[0, 1]``.  It was recorded when the mobile
arms still ran as session-factory closures on their own worker task;
the campaign engine must reproduce it bit for bit.

Regenerate (only for an intentional behaviour change) with::

    PYTHONPATH=src:tests python -m emulation.test_mobile_series
"""

import json
from pathlib import Path

import pytest

from repro.emulation.runner import MOBILE_APPROACHES, run_mobile_comparison

FIXTURE = Path(__file__).with_name("mobile_series.json")

SEED = 5
DURATION_S = 0.5

#: (num_users, moving_users) per pinned case; each runs in every regime.
RECEIVERS = ((1, (0,)), (3, (0, 1)))
REGIMES = ("high", "low", "env")


def case_key(regime: str, users: int, moving) -> str:
    return f"{regime}/users={users}/moving={','.join(map(str, moving))}"


def mobile_series(ctx, regime: str, users: int, moving):
    """One pinned case's series, hex-encoded."""
    series = run_mobile_comparison(
        ctx, users, list(moving), regime, duration_s=DURATION_S,
        approaches=MOBILE_APPROACHES, seed=SEED,
    )
    return {
        name: [float(v).hex() for v in values]
        for name, values in series.items()
    }


@pytest.mark.parametrize("users,moving", RECEIVERS)
@pytest.mark.parametrize("regime", REGIMES)
def test_mobile_series_hex_identical(sweep_ctx, regime, users, moving):
    expected = json.loads(FIXTURE.read_text())[case_key(regime, users, moving)]
    assert mobile_series(sweep_ctx, regime, users, moving) == expected


def record() -> None:
    from repro.emulation import build_context
    from repro.emulation.context import QUICK_CONTEXT

    ctx = build_context(**QUICK_CONTEXT)
    cases = {
        case_key(regime, users, moving): mobile_series(ctx, regime, users, moving)
        for regime in REGIMES
        for users, moving in RECEIVERS
    }
    FIXTURE.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()

"""Shared service-layer fixtures.

The control-plane tests run real asyncio servers on ephemeral localhost
ports.  ``pytest-asyncio`` is an optional dev extra, so every test drives
its coroutine through ``asyncio.run`` inside a plain sync function — the
suite must pass in environments where the plugin is absent.
"""

import pytest

from repro.emulation import build_context
from repro.emulation.context import QUICK_CONTEXT


@pytest.fixture(scope="package")
def service_ctx():
    """A small shared experiment context for service tests."""
    return build_context(**QUICK_CONTEXT)

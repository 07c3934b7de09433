"""Shared emulation fixtures."""

import pytest

from repro.emulation import build_context, shard
from repro.emulation.context import QUICK_CONTEXT
from repro.perf.workers import PersistentPool


class _PoolSpy(PersistentPool):
    """The real pool, recording the worker count of every one started."""

    started = []

    def __init__(self, worker_fn, jobs, **kwargs):
        type(self).started.append(jobs)
        super().__init__(worker_fn, jobs, **kwargs)


@pytest.fixture
def pool_spy(monkeypatch):
    """Spy on the campaign engine's pools; ``.started`` lists their sizes."""
    _PoolSpy.started = []
    monkeypatch.setattr(shard, "PersistentPool", _PoolSpy)
    return _PoolSpy


@pytest.fixture(scope="package")
def sweep_ctx():
    """A small shared experiment context for sweep-engine tests (the
    committed quick model: nothing is trained)."""
    return build_context(**QUICK_CONTEXT)

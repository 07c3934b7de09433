"""Shared emulation fixtures."""

import pytest

from repro.emulation import build_context, shard
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
def sweep_ctx(tmp_path_factory, monkeypatch_package_cache):
    """A small shared experiment context for sweep-engine tests."""
    return build_context(
        height=144, width=256, dnn_epochs=100, probe_frames=2, seed=0
    )


@pytest.fixture(scope="package")
def monkeypatch_package_cache(tmp_path_factory):
    """Point the DNN disk cache at a temp dir for the whole package."""
    import os

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("sweep_cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous

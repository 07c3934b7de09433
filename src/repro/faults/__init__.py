"""Deterministic fault injection for the streaming pipeline.

Failure is a first-class, schedulable input to every session: a
:class:`FaultConfig` (the ``faults`` block of
:class:`repro.core.SystemConfig`) describes impairment rates; a seeded
:class:`FaultSchedule` turns them into a concrete, reproducible event
timeline; a :class:`FaultController` binds the timeline to one running
:class:`repro.core.pipeline.StreamSession` and exposes the point queries
the pipeline consumes — per-user RSS offsets for blockage bursts and SNR
dips (:meth:`FaultController.rss_offsets_db`, an array the link model
takes as data), packet-erasure scaling in the transmitter, per-user
feedback loss, beacon loss, and receiver churn.

With all rates at zero (the default) nothing is injected and the pipeline
is bit-identical to a fault-free run; see ``DESIGN.md`` ("Fault model")
for the mapping from each fault to the paper's impairment.
"""

from .config import FaultConfig
from .controller import FaultController
from .schedule import FaultEvent, FaultKind, FaultSchedule

__all__ = [
    "FaultConfig",
    "FaultController",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
]

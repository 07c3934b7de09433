"""Asynchronous multicast service layer: session server + control plane.

Turns the batch emulation library into a long-running service, modeled on
the broadcaster / receiver / control-broadcaster split of production
multicast stacks:

* :class:`ServiceServer` admits many concurrent served sessions and runs
  each in a process of its own, forked once the session's
  :class:`SessionSpec` and config have been checked.  The process builds
  a :class:`repro.core.pipeline.StreamSession` from the context it
  inherited and steps it frame by frame, so sessions stream on separate
  cores while the server's asyncio event loop only does I/O: sockets,
  HTTP and the bookkeeping it mirrors from one small record per frame.
* Receivers connect over a length-prefixed JSON protocol
  (:mod:`repro.service.protocol`) and send ``join`` / ``leave`` /
  ``feedback`` control messages; joins and leaves go to the session's
  process, which applies them through the pipeline's ``evict_user`` /
  ``rejoin_user`` seams between frames and answers at that boundary.
* A REST control API (stdlib asyncio, no extra dependency) exposes
  ``/start``, ``/stop``, ``/status``, ``/sessions/<id>`` and ``/metrics``
  (the :mod:`repro.obs` registry, session processes' telemetry merged in,
  with per-session counters namespaced under ``service.session.<id>``).

``repro-wigig serve`` runs the server from the shell;
``benchmarks/bench_service_load.py`` is the load-test driver.  A session
served over the wire with no control-plane interference is bit-identical
to the same seeded spec run through the in-process sweep engine — the
equivalence `tests/service/test_determinism.py` pins.
"""

from .client import ReceiverClient, http_request
from .protocol import (
    MAX_MESSAGE_BYTES,
    encode_message,
    read_message,
    validate_control_message,
)
from .server import ServiceServer
from .session import ServedSession, SessionSpec

__all__ = [
    "MAX_MESSAGE_BYTES",
    "ReceiverClient",
    "ServedSession",
    "ServiceServer",
    "SessionSpec",
    "encode_message",
    "http_request",
    "read_message",
    "validate_control_message",
]

"""Service mode: a long-running streaming front door for the runtime.

Every other entry point in this repo executes a *closed* run — finite
streams in, outputs out.  :mod:`repro.serve` is the open-world tier on
top: a TCP service that accepts externally produced event streams,
executes them on any registered backend — on one attempt kept open
for the service's life on the in-process substrate, an attempt per
seal elsewhere (crash recovery and live reconfiguration keep
working) — and streams committed outputs to subscribers with
exactly-once delivery at root-join commit boundaries.

The pieces:

* :class:`~repro.serve.service.ServiceRuntime` — the service core:
  admission control, seals, commit-by-checkpoint-prefix (importable
  without any sockets for embedding and testing);
* :class:`~repro.serve.server.ServiceServer` /
  :func:`~repro.serve.server.start_service` — the asyncio TCP tier
  (cookie-authenticated hello, framed ingest with per-batch admission
  acks, sequence-numbered egress, Prometheus gauges);
* :func:`~repro.serve.client.connect` /
  :class:`~repro.serve.client.ServiceClient` — the blocking-socket
  client for producers (``mode="ingest"``) and consumers
  (``mode="subscribe"``);
* :mod:`~repro.serve.apps` — servable instances of the paper's
  applications plus the sequential-spec oracle;
* ``python -m repro.serve`` — run a service from the command line.

Configuration is one value: :class:`~repro.runtime.options.ServeOptions`
(wrapping the per-epoch :class:`~repro.runtime.options.RunOptions`).
"""

from ..runtime.options import ServeOptions
from .apps import SERVICE_APPS, ServiceApp, keycounter_app, spec_outputs, value_barrier_app
from .client import IngestAck, ServiceClient, connect
from .protocol import PROTOCOL_VERSION
from .server import ServiceHandle, ServiceServer, start_service
from .service import (
    ADMITTED,
    REJECT_BACKPRESSURE,
    REJECT_CLOSED,
    REJECT_INVALID_TS,
    REJECT_LATE,
    REJECT_ORDER,
    REJECT_REASONS,
    REJECT_UNKNOWN,
    AdmissionGate,
    EpochReport,
    ServiceCounters,
    ServiceRuntime,
)

__all__ = [
    "ADMITTED",
    "AdmissionGate",
    "EpochReport",
    "IngestAck",
    "PROTOCOL_VERSION",
    "REJECT_BACKPRESSURE",
    "REJECT_CLOSED",
    "REJECT_INVALID_TS",
    "REJECT_LATE",
    "REJECT_ORDER",
    "REJECT_REASONS",
    "REJECT_UNKNOWN",
    "SERVICE_APPS",
    "ServeOptions",
    "ServiceApp",
    "ServiceClient",
    "ServiceCounters",
    "ServiceHandle",
    "ServiceRuntime",
    "ServiceServer",
    "connect",
    "keycounter_app",
    "spec_outputs",
    "start_service",
    "value_barrier_app",
]

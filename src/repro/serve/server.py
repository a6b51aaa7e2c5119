"""The service front door: asyncio TCP ingest/egress around a
:class:`~repro.serve.service.ServiceRuntime`.

One listener serves both roles; the hello handshake picks the mode:

* **ingest** connections stream framed event batches in (decoded as
  columnar runs and handed to
  :meth:`~repro.serve.service.ServiceRuntime.offer_batch` as they
  are) and receive an
  admission ack per batch (admitted/rejected-by-reason counts plus the
  current backpressure state), so a rejected event is always *reported*
  back to the producer that sent it.  ``flush`` forces an epoch,
  ``finish`` closes the service with a final commit-everything epoch.
* **subscribe** connections receive the committed output log from any
  ``from_seq`` cursor onward: first the catch-up tail, then each
  epoch's newly committed outputs as they land, then ``eof`` once the
  service finishes.  Sequence numbers make redelivery detectable, so a
  subscriber reconnecting mid-stream still sees the exactly-once log.

The handshake drops strays: the first frame must be a control hello
carrying the service cookie (compared with ``hmac.compare_digest``);
anything slow, malformed, or mis-cookied is counted and dropped without
disturbing the service.

Epochs are sealed by a background task — when the inbox reaches
``epoch_events``, or after ``epoch_idle_ms`` of a non-empty buffer —
and executed on a worker thread so the event loop keeps admitting and
acking while a (possibly crashing, possibly reconfiguring) epoch runs.
The :mod:`~repro.runtime.metrics` exporter, when enabled, publishes
the ``repro_serve_*`` gauges plus the accumulated run metrics
(``worker="all"``), refreshed after each epoch from the attempts'
end-of-attempt reports: one scrape shape on every backend.
"""

from __future__ import annotations

import asyncio
import hmac
import secrets
import threading
from typing import Any, Dict, List, Optional

from ..core.errors import RuntimeFault
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from ..runtime.messages import EventMsg, EventRun
from ..runtime.metrics import MetricsExporter
from ..runtime.options import ServeOptions
from ..runtime.wire import FRAME_LEN
from .protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    control_frame,
    outputs_frame,
    parse_frame,
)
from .service import ServiceRuntime

#: A client that has not said a valid hello within this window is a
#: stray.
HELLO_TIMEOUT_S = 5.0

#: Egress push chunking: one frame per this many committed outputs.
EGRESS_CHUNK = 512


class ServiceServer:
    """The asyncio service tier.  Construct, then either ``await
    run()`` inside an event loop or use :func:`start_service` for the
    background-thread form."""

    def __init__(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        *,
        options: Optional[ServeOptions] = None,
    ) -> None:
        opts = options if options is not None else ServeOptions()
        self.cookie = opts.cookie if opts.cookie is not None else secrets.token_hex(16)
        self.exporter: Optional[MetricsExporter] = None
        if opts.metrics_port is not None:
            self.exporter = MetricsExporter(opts.host, int(opts.metrics_port)).start()
        self.options = opts
        self.runtime = ServiceRuntime(program, plan, options=opts)
        #: Connections dropped at the handshake (bad cookie, garbage,
        #: timeout) — the service's stray counter.
        self.strays = 0
        self.port: Optional[int] = None
        #: Set once a client's ``finish`` is fully served: the final
        #: epoch committed, every subscriber got its tail and ``eof``,
        #: and the ``finished`` reply is written — the point from which
        #: stopping the listener loses nothing.
        self.closed = threading.Event()

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._sealer: Optional[asyncio.Task] = None
        self._epoch_lock: Optional[asyncio.Lock] = None
        self._kick: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        #: key -> [writer, cursor]; cursors only move under _epoch_lock.
        self._subscribers: Dict[int, List[Any]] = {}
        self._next_sub = 0
        #: Every open connection's handler task -> its writer, ingest
        #: and subscribe alike: a stop closes each and awaits them all.
        self._conns: Dict[asyncio.Task, Any] = {}

    # -- lifecycle -------------------------------------------------------
    async def run(self, *, ready: Optional[threading.Event] = None) -> None:
        """Bind, serve until :meth:`request_stop`, then tear down."""
        self._loop = asyncio.get_running_loop()
        self._epoch_lock = asyncio.Lock()
        self._kick = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_conn, self.options.host, self.options.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sealer = asyncio.create_task(self._seal_loop())
        if ready is not None:
            ready.set()
        try:
            await self._stopped.wait()
        finally:
            self._sealer.cancel()
            self._server.close()
            # Each handler sees its connection end and returns: a
            # handler cancelled by the loop's shutdown instead would
            # have its stream callback log the CancelledError.
            handlers = list(self._conns)
            for writer in self._conns.values():
                writer.close()
            if handlers:
                await asyncio.wait(handlers)
            await self._server.wait_closed()
            if self.exporter is not None:
                self.exporter.stop()

    def request_stop(self) -> None:
        """Stop serving (thread-safe; does not run a final epoch —
        send ``finish`` on an ingest connection for a clean close)."""
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(self._stopped.set)

    # -- epoch sealing ---------------------------------------------------
    async def _seal_loop(self) -> None:
        tick = max(self.options.epoch_idle_ms, 1.0) / 1000.0
        while not self.runtime.finished:
            try:
                await asyncio.wait_for(self._kick.wait(), timeout=tick)
            except asyncio.TimeoutError:
                pass
            self._kick.clear()
            if self.runtime.finished:
                return
            if self.runtime.inbox_size() > 0:
                await self._run_epoch()

    async def _run_epoch(self, *, final: bool = False):
        async with self._epoch_lock:
            if self.runtime.finished:
                return None
            report = await self._loop.run_in_executor(
                None, lambda: self.runtime.run_epoch(final=final)
            )
            await self._publish()
            return report

    async def _publish(self) -> None:
        """Push newly committed outputs to every subscriber (caller
        holds the epoch lock, so cursors move race-free) and refresh
        the exporter."""
        self._export()
        dead: List[int] = []
        for key, sub in list(self._subscribers.items()):
            writer, cursor = sub
            try:
                sub[1] = await self._push_outputs(writer, cursor)
                if self.runtime.finished:
                    writer.write(
                        control_frame({"type": "eof", "next_seq": sub[1]})
                    )
                    await writer.drain()
            except (ConnectionError, OSError):
                dead.append(key)
        for key in dead:
            self._subscribers.pop(key, None)

    async def _push_outputs(self, writer, cursor: int) -> int:
        tail, nxt = self.runtime.committed_since(cursor)
        for i in range(0, len(tail), EGRESS_CHUNK):
            writer.write(outputs_frame(tail[i : i + EGRESS_CHUNK], cursor + i))
            await writer.drain()
        return nxt

    def _export(self) -> None:
        if self.exporter is None:
            return
        self.exporter.set_service_gauges(self.runtime.service_gauges())
        metrics = self.runtime.metrics
        if metrics is not None:
            self.exporter.update(metrics.merged())

    # -- connections -----------------------------------------------------
    async def _on_conn(self, reader, writer) -> None:
        """One connection's handler, registered while it runs so that a
        stop can close the connection and await its return."""
        task = asyncio.current_task()
        self._conns[task] = writer
        try:
            await self._converse(reader, writer)
        finally:
            del self._conns[task]
            writer.close()

    async def _converse(self, reader, writer) -> None:
        try:
            blob = await asyncio.wait_for(self._hello(reader), HELLO_TIMEOUT_S)
        except (asyncio.TimeoutError, RuntimeFault, ConnectionError, OSError):
            blob = None
        if blob is None:
            self.strays += 1
            return
        mode = blob["mode"]
        try:
            writer.write(
                control_frame(
                    {
                        "type": "welcome",
                        "v": PROTOCOL_VERSION,
                        "mode": mode,
                        "next_seq": len(self.runtime.committed),
                    }
                )
            )
            await writer.drain()
            if mode == "subscribe":
                await self._serve_subscriber(
                    reader, writer, int(blob.get("from_seq", 0))
                )
            else:
                await self._serve_ingest(reader, writer)
        except (RuntimeFault, ConnectionError, OSError):
            pass  # a broken client never disturbs the service

    async def _hello(self, reader) -> Optional[dict]:
        body = await self._read_frame(reader)
        if body is None:
            return None
        kind, blob = parse_frame(body)  # RuntimeFault on garbage -> stray
        if (
            kind == "control"
            and blob.get("type") == "hello"
            and blob.get("v") == PROTOCOL_VERSION
            and isinstance(blob.get("cookie"), str)
            and hmac.compare_digest(blob["cookie"], self.cookie)
            and blob.get("mode") in ("ingest", "subscribe")
        ):
            return blob
        return None

    async def _serve_ingest(self, reader, writer) -> None:
        while True:
            body = await self._read_frame(reader)
            if body is None:
                return
            kind, payload = parse_frame(body)
            if kind == "events":
                events = [
                    m.event if isinstance(m, EventMsg) else m
                    for m in payload
                    if isinstance(m, (EventMsg, EventRun))
                ]
                counts = self.runtime.offer_batch(events)
                unsupported = len(payload) - len(events)
                if unsupported:
                    counts["unsupported"] = counts.get("unsupported", 0) + unsupported
                reasons = {k: v for k, v in counts.items() if k != "admitted"}
                writer.write(
                    control_frame(
                        {
                            "type": "ack",
                            "admitted": counts.get("admitted", 0),
                            "rejected": sum(reasons.values()),
                            "reasons": reasons,
                            "paused": self.runtime.gate.paused,
                        }
                    )
                )
                await writer.drain()
                if self.runtime.inbox_size() >= self.options.epoch_events:
                    self._kick.set()
                continue
            msg_type = payload.get("type")
            if msg_type == "flush":
                report = await self._run_epoch()
                writer.write(
                    control_frame(
                        {
                            "type": "flushed",
                            "epoch": None if report is None else report.index,
                            "committed_total": len(self.runtime.committed),
                        }
                    )
                )
                await writer.drain()
            elif msg_type == "finish":
                await self._run_epoch(final=True)
                writer.write(
                    control_frame(
                        {
                            "type": "finished",
                            "committed_total": len(self.runtime.committed),
                        }
                    )
                )
                await writer.drain()
                self.closed.set()
            elif msg_type == "bye":
                return
            else:
                raise RuntimeFault(
                    f"service protocol: unexpected ingest control {msg_type!r}"
                )

    async def _serve_subscriber(self, reader, writer, from_seq: int) -> None:
        key = self._next_sub
        self._next_sub += 1
        sub = [writer, max(0, from_seq)]
        # Catch up under the epoch lock: no epoch can commit (and
        # publish) between the tail read and the registration, so the
        # subscriber sees every seq exactly once.
        async with self._epoch_lock:
            self._subscribers[key] = sub
            sub[1] = await self._push_outputs(writer, sub[1])
            if self.runtime.finished:
                writer.write(control_frame({"type": "eof", "next_seq": sub[1]}))
                await writer.drain()
        try:
            while True:
                body = await self._read_frame(reader)
                if body is None:
                    return
                kind, payload = parse_frame(body)
                if kind == "control" and payload.get("type") == "bye":
                    return
                # Anything else from a subscriber is noise; ignore.
        finally:
            self._subscribers.pop(key, None)

    async def _read_frame(self, reader) -> Optional[bytes]:
        """One length-prefixed frame body; None on EOF or the
        zero-length stop sentinel (a polite close)."""
        try:
            header = await reader.readexactly(FRAME_LEN.size)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None
        (length,) = FRAME_LEN.unpack(header)
        if length == 0:
            return None
        if length > MAX_FRAME:
            raise RuntimeFault(
                f"service protocol: {length}-byte frame exceeds the "
                f"{MAX_FRAME}-byte cap"
            )
        try:
            return await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None


class ServiceHandle:
    """A running service in a background thread (see
    :func:`start_service`); context-manager for scoped use."""

    def __init__(self, server: ServiceServer, thread: threading.Thread) -> None:
        self.server = server
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def cookie(self) -> str:
        return self.server.cookie

    @property
    def runtime(self) -> ServiceRuntime:
        return self.server.runtime

    @property
    def metrics_port(self) -> Optional[int]:
        exporter = self.server.exporter
        return None if exporter is None else exporter.port

    def stop(self, timeout: float = 30.0) -> None:
        self.server.request_stop()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeFault("service did not stop within the timeout")

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_service(
    program: DGSProgram,
    plan: SyncPlan,
    *,
    options: Optional[ServeOptions] = None,
) -> ServiceHandle:
    """Run a :class:`ServiceServer` on a background event-loop thread
    and return once the listener is bound (``handle.port`` is live)."""
    server = ServiceServer(program, plan, options=options)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run(ready=ready)),
        name="repro-serve",
        daemon=True,
    )
    thread.start()
    if not ready.wait(timeout=30.0) or server.port is None:
        raise RuntimeFault("service failed to start (listener never bound)")
    return ServiceHandle(server, thread)

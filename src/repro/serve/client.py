"""The service client: blocking sockets, no asyncio required.

:func:`connect` opens one connection in either role:

* ``mode="ingest"`` — :meth:`ServiceClient.send_events` streams event
  batches and returns the server's admission ack (admitted count,
  rejections by reason, backpressure state), so producers see exactly
  which events entered the run.  :meth:`~ServiceClient.flush` forces
  an epoch; :meth:`~ServiceClient.finish` closes the service.
* ``mode="subscribe"`` — :meth:`ServiceClient.outputs` iterates the
  committed output log as ``(seq, value)`` pairs from ``from_seq``
  until the service finishes.  The iterator enforces the exactly-once
  contract on the client side: duplicate sequence numbers (possible
  across reconnects) are dropped, and a gap — which would mean a lost
  committed output — raises instead of being papered over.

Frames are reassembled with the data plane's
:class:`~repro.runtime.wire.FrameAssembler`, so a recv boundary can
land anywhere (mid-prefix, mid-frame, many frames at once) without the
client caring.
"""

from __future__ import annotations

import socket
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..core.events import Event
from ..runtime.wire import FRAME_LEN, FrameAssembler
from .protocol import (
    PROTOCOL_VERSION,
    control_frame,
    decode_outputs,
    ingest_events_frame,
    parse_frame,
)

_RECV_CHUNK = 1 << 16


@dataclass
class IngestAck:
    """The server's admission verdict for one :meth:`send_events`
    call (summed across the call's wire batches)."""

    admitted: int = 0
    rejected: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    #: Whether admission was paused (backpressure) after the batch.
    paused: bool = False

    def merge(self, blob: dict) -> None:
        self.admitted += int(blob.get("admitted", 0))
        self.rejected += int(blob.get("rejected", 0))
        for reason, count in dict(blob.get("reasons", {})).items():
            self.reasons[reason] = self.reasons.get(reason, 0) + int(count)
        self.paused = bool(blob.get("paused", False))


class ServiceClient:
    """One authenticated service connection; use :func:`connect`."""

    def __init__(self, sock: socket.socket, mode: str, welcome: dict) -> None:
        self._sock = sock
        self.mode = mode
        #: The committed-log length at connect time.
        self.server_seq = int(welcome.get("next_seq", 0))
        self._assembler = FrameAssembler()
        self._frames: deque = deque()
        self._closed = False

    # -- plumbing --------------------------------------------------------
    def _read_frame(self) -> Optional[bytes]:
        while not self._frames:
            data = self._sock.recv(_RECV_CHUNK)
            if not data:
                self._assembler.close()  # raises on a torn frame
                return None
            self._frames.extend(self._assembler.feed(data))
        body = self._frames.popleft()
        return None if body == b"" else body

    def _read_control(self, expect: str) -> dict:
        body = self._read_frame()
        if body is None:
            raise RuntimeFault(
                f"service connection closed while waiting for {expect!r}"
            )
        kind, payload = parse_frame(body)
        if kind != "control" or payload.get("type") != expect:
            raise RuntimeFault(
                f"service protocol: expected {expect!r}, got {kind}:{payload!r}"
            )
        return payload

    def _require_mode(self, mode: str, what: str) -> None:
        if self.mode != mode:
            raise RuntimeFault(f"{what} needs a mode={mode!r} connection")

    # -- ingest ----------------------------------------------------------
    def send_events(
        self, events: Sequence[Event], *, batch: int = 1024
    ) -> IngestAck:
        """Stream events in wire batches of ``batch`` and return the
        summed admission ack.

        Each itag's events keep the order given.  Within one wire batch
        the events are grouped by itag (first-appearance order, see
        :func:`~repro.serve.protocol.ingest_events_frame`), and the
        server checks them in that grouped order.  So when backpressure
        trips mid-batch it rejects, as ``backpressure``, every later
        event of the grouped order that passes the other checks: per
        itag, what the batch gets admitted is a prefix of what passes
        them — whole itag groups first, then part of one.  Rejected
        events are *not* retried — the reasons map tells the producer
        what to do (back off on ``backpressure``, fix its clock on
        ``late``/``out-of-order``)."""
        self._require_mode("ingest", "send_events")
        ack = IngestAck()
        for i in range(0, len(events), batch):
            self._sock.sendall(ingest_events_frame(events[i : i + batch]))
            ack.merge(self._read_control("ack"))
        return ack

    def flush(self) -> int:
        """Force the service to seal and run an epoch now; returns the
        committed-log length afterwards."""
        self._require_mode("ingest", "flush")
        self._sock.sendall(control_frame({"type": "flush"}))
        return int(self._read_control("flushed")["committed_total"])

    def finish(self) -> int:
        """Close the service: a final epoch commits everything that
        was ever admitted; returns the final committed-log length."""
        self._require_mode("ingest", "finish")
        self._sock.sendall(control_frame({"type": "finish"}))
        return int(self._read_control("finished")["committed_total"])

    # -- egress ----------------------------------------------------------
    def outputs(self, *, dedup_from: Optional[int] = None) -> Iterator[Tuple[int, Any]]:
        """Iterate committed outputs as ``(seq, value)`` until the
        service finishes (the server's ``eof``).  Sequence numbers
        below the cursor are duplicates and are dropped; a gap raises
        :class:`RuntimeFault` (a committed output must never be lost)."""
        self._require_mode("subscribe", "outputs")
        expected = dedup_from
        while True:
            body = self._read_frame()
            if body is None:
                return
            kind, payload = parse_frame(body)
            if kind == "control":
                if payload.get("type") == "eof":
                    return
                continue  # other control traffic is not for us
            for seq, value in decode_outputs(payload):
                if expected is None:
                    expected = seq
                if seq < expected:
                    continue  # redelivery (reconnect overlap): drop
                if seq > expected:
                    raise RuntimeFault(
                        f"egress gap: expected seq {expected}, got {seq} "
                        "(committed output lost in transit)"
                    )
                expected = seq + 1
                yield (seq, value)

    def output_values(self) -> List[Any]:
        """Drain :meth:`outputs` to completion, values only."""
        return [value for _seq, value in self.outputs()]

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.sendall(FRAME_LEN.pack(0))  # polite stop sentinel
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(
    port: int,
    cookie: str,
    *,
    host: str = "127.0.0.1",
    mode: str = "ingest",
    from_seq: int = 0,
    timeout: float = 60.0,
) -> ServiceClient:
    """Open, authenticate, and return a :class:`ServiceClient`.

    ``mode`` is ``"ingest"`` (stream events in) or ``"subscribe"``
    (stream committed outputs from ``from_seq`` out).  The cookie is
    the service's shared secret (``handle.cookie``, or the value the
    operator passed in :class:`~repro.runtime.options.ServeOptions`)."""
    if mode not in ("ingest", "subscribe"):
        raise ValueError(f"mode must be 'ingest' or 'subscribe', not {mode!r}")
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.sendall(
            control_frame(
                {
                    "type": "hello",
                    "v": PROTOCOL_VERSION,
                    "cookie": cookie,
                    "mode": mode,
                    "from_seq": from_seq,
                }
            )
        )
        client = ServiceClient(sock, mode, {})
        welcome = client._read_control("welcome")
        client.server_seq = int(welcome.get("next_seq", 0))
        return client
    except BaseException:
        sock.close()
        raise

"""The service wire protocol: framed control + event traffic.

Every message on a service connection rides the same 4-byte
length-prefix convention as the data plane
(:data:`~repro.runtime.wire.FRAME_LEN`, reassembled by
:class:`~repro.runtime.wire.FrameAssembler`).  Inside the length
prefix, the first byte selects the payload kind:

* ``C`` (0x43) — a JSON control blob (hello, welcome, ack, flush,
  finish, eof).  JSON, never pickle: control frames arrive from
  sockets that are not yet trusted, and unpickling attacker bytes is
  code execution — the same rule the cluster handshake follows.
* ``E`` (0x45) — a batch of protocol messages in the frame codec
  (:func:`~repro.runtime.wire.pack_frame`).  Ingest clients send each
  batch grouped by implementation tag, as columnar
  :class:`~repro.runtime.messages.EventRun`\\ s (one
  :class:`~repro.runtime.messages.EventMsg` per event a run cannot
  carry), and the server decodes them as runs and admits them run by
  run (:func:`ingest_events_frame`).  Per-event ``EventMsg`` frames are
  the same codec and still admit, event by event.  The egress channel
  sends committed outputs wrapped as events (below).

Committed outputs are opaque application values; the egress channel
wraps each as ``Event(OUT_TAG, OUT_STREAM, ts=float(seq), payload=v)``
so they ride the existing codec, with the commit-log sequence number
carried in the timestamp.  Sequence numbers are the exactly-once
handle: the server assigns them at commit time, subscribers resume
from any ``from_seq`` and deduplicate by seq across reconnects.

The hello handshake mirrors the cluster registry: the first frame must
be a control blob carrying the service cookie (compared with
``hmac.compare_digest``), and anything malformed, mis-cookied, or slow
is dropped without joining — or crashing — the service.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..core.events import Event
from ..runtime.messages import EventMsg
from ..runtime.wire import FRAME_LEN, event_runs, pack_frame, unpack_frame

#: Protocol version, echoed in hellos; bumped on incompatible change.
PROTOCOL_VERSION = 1

#: Frame kind bytes.
KIND_CONTROL = 0x43  # 'C'
KIND_EVENTS = 0x45  # 'E'

#: Control blobs are a few hundred bytes; event frames are bounded by
#: the client's batch size.  Anything bigger is not a client of ours.
MAX_FRAME = 1 << 24

#: The egress channel's synthetic route for committed outputs.
OUT_TAG = "__serve_out__"
OUT_STREAM = "egress"


def control_frame(obj: Any) -> bytes:
    """A length-prefixed control frame carrying one JSON blob."""
    body = bytes((KIND_CONTROL,)) + json.dumps(obj).encode("utf-8")
    return FRAME_LEN.pack(len(body)) + body


def events_frame(msgs: Sequence[Any]) -> bytes:
    """A length-prefixed event frame carrying one message batch."""
    body = bytes((KIND_EVENTS,)) + pack_frame(msgs)
    return FRAME_LEN.pack(len(body)) + body


def parse_frame(body: bytes, *, runs: bool = False) -> Tuple[str, Any]:
    """Decode one reassembled frame body into ``("control", dict)`` or
    ``("events", [msgs])``; anything else is a protocol violation.
    ``runs`` is :func:`~repro.runtime.wire.unpack_frame`'s: the ingest
    side keeps columnar runs as :class:`EventRun`\\ s."""
    if not body:
        raise RuntimeFault("service protocol: empty frame")
    kind = body[0]
    if kind == KIND_CONTROL:
        try:
            blob = json.loads(body[1:].decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise RuntimeFault(f"service protocol: bad control blob: {exc!r}") from exc
        if not isinstance(blob, dict):
            raise RuntimeFault("service protocol: control blob must be an object")
        return ("control", blob)
    if kind == KIND_EVENTS:
        return ("events", unpack_frame(body[1:], runs=runs))
    raise RuntimeFault(f"service protocol: unknown frame kind {kind:#x}")


def ingest_events_frame(events: Sequence[Event]) -> bytes:
    """The ingest side's event frame: ``events`` grouped by
    implementation tag, each group packed into columnar runs.

    Groups go out in first-appearance order and keep their internal
    order, so every itag's stream is exactly as given; only the
    interleaving *across* itags changes, and the service orders nothing
    across itags within a batch.  Grouping is by Python equality — the
    itag identity the service's admission uses — so ``("k", 1)`` and
    ``("k", True)`` stay one group in their given order (the codec
    still gives them separate, type-exact runs).  A batch whose tags
    or streams cannot be hashed goes out in arrival order."""
    groups: Dict[Tuple[Any, Any], List[Event]] = defaultdict(list)
    try:
        for e in events:
            groups[e.tag, e.stream].append(e)
    except TypeError:
        return events_frame([EventMsg(e) for e in events])
    msgs: List[Any] = []
    for group in groups.values():
        msgs.extend(event_runs(group))
    return events_frame(msgs)


def outputs_frame(values: Sequence[Any], start_seq: int) -> bytes:
    """The egress side's event frame: committed output values wrapped
    with their commit-log sequence numbers riding the timestamp."""
    msgs = [
        EventMsg(Event(OUT_TAG, OUT_STREAM, float(start_seq + i), v))
        for i, v in enumerate(values)
    ]
    return events_frame(msgs)


def decode_outputs(msgs: Sequence[Any]) -> List[Tuple[int, Any]]:
    """Inverse of :func:`outputs_frame`: ``(seq, value)`` pairs."""
    out: List[Tuple[int, Any]] = []
    for m in msgs:
        if not isinstance(m, EventMsg) or m.event.tag != OUT_TAG:
            raise RuntimeFault(f"service protocol: unexpected egress message {m!r}")
        out.append((int(m.event.ts), m.event.payload))
    return out

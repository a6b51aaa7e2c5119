"""Event, heartbeat, and implementation-tag definitions (paper §3.1).

The paper models every input record as a quadruple ``(tg, id, ts, v)``:

* ``tg``  -- the *tag*, the only part visible to predicates and to the
  dependence relation.  Tags must be hashable and the tag universe must
  be finite (the implementation requirement stated in §3.1).
* ``id``  -- the input-stream identifier.  The pair ``(tg, id)`` is the
  *implementation tag* used for parallelization at the plan level.
* ``ts``  -- a timestamp, totally ordering events across streams (the
  order relation ``O``).
* ``v``   -- an opaque payload, used only by ``update`` functions.

Heartbeats (§3.4) carry a tag, stream id and timestamp but no payload;
they promise the absence of events with that implementation tag up to
the given timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, NamedTuple

Tag = Hashable
StreamId = Hashable
Timestamp = int


class ImplTag(NamedTuple):
    """Implementation tag: the (tag, stream id) pair of §3.1."""

    tag: Tag
    stream: StreamId

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ImplTag({self.tag!r}@{self.stream!r})"


@dataclass(frozen=True, slots=True)
class Event:
    """A timestamped input event.

    ``order_key`` implements the total order ``O``: timestamps first,
    with (tag, stream) as a deterministic tie-break so that sorting the
    union of streams is reproducible.
    """

    tag: Tag
    stream: StreamId
    ts: Timestamp
    payload: Any = None

    @property
    def itag(self) -> ImplTag:
        return ImplTag(self.tag, self.stream)

    @property
    def order_key(self) -> tuple:
        return (self.ts, _stable_key(self.tag), _stable_key(self.stream))

    def is_heartbeat(self) -> bool:
        return False

    def __reduce__(self) -> tuple:
        # Explicit constructor-based pickling: frozen slots dataclasses
        # have no working default reduce on Python 3.10, and the plain
        # argument tuple is the compact wire form the process runtime
        # ships across OS-process boundaries.
        return (Event, (self.tag, self.stream, self.ts, self.payload))


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """A system event promising no more events of ``itag`` up to ``ts``."""

    tag: Tag
    stream: StreamId
    ts: Timestamp

    @property
    def itag(self) -> ImplTag:
        return ImplTag(self.tag, self.stream)

    @property
    def order_key(self) -> tuple:
        return (self.ts, _stable_key(self.tag), _stable_key(self.stream))

    def is_heartbeat(self) -> bool:
        return True

    def __reduce__(self) -> tuple:
        return (Heartbeat, (self.tag, self.stream, self.ts))


Record = Event | Heartbeat


def _stable_key(value: Hashable) -> tuple:
    """Map an arbitrary hashable onto a totally ordered key.

    Python cannot compare e.g. ``int`` and ``str`` directly; we prefix
    every value with its type name so heterogeneous tags still sort
    deterministically.
    """
    if isinstance(value, tuple):
        return ("tuple", tuple(_stable_key(v) for v in value))
    return (type(value).__name__, value)


def sort_streams(streams: Iterable[Iterable[Record]]) -> list[Event]:
    """The paper's ``sortO``: merge sorted streams, drop heartbeats.

    Streams need not be pre-sorted here; the result is the total order
    ``O`` over all non-heartbeat events.
    """
    merged: list[Event] = [
        rec  # type: ignore[misc]
        for stream in streams
        for rec in stream
        if not rec.is_heartbeat()
    ]
    merged.sort(key=lambda e: e.order_key)
    return merged


def stream_is_monotone(stream: Iterable[Record]) -> bool:
    """Check the Monotonicity property of Definition 3.3 for one stream."""
    prev: tuple | None = None
    for rec in stream:
        key = rec.order_key
        if prev is not None and key <= prev:
            return False
        prev = key
    return True


def check_valid_input_instance(streams: list[list[Record]]) -> list[str]:
    """Validate Definition 3.3; return a list of violation descriptions.

    (1) Monotonicity: each stream strictly increases in the order ``O``.
    (2) Progress: for every event ``x`` in stream ``i`` and every other
        stream ``j``, some record ``y`` of ``j`` satisfies ``x <O y``.
    """
    problems: list[str] = []
    for i, stream in enumerate(streams):
        if not stream_is_monotone(stream):
            problems.append(f"stream {i} is not strictly increasing under O")
    maxima = [
        max((rec.order_key for rec in stream), default=None) for stream in streams
    ]
    for i, stream in enumerate(streams):
        events = [rec for rec in stream if not rec.is_heartbeat()]
        if not events:
            continue
        last = max(rec.order_key for rec in events)
        for j, mx in enumerate(maxima):
            if j == i:
                continue
            if mx is None or mx <= last:
                problems.append(
                    f"progress violated: stream {j} never passes the last "
                    f"event of stream {i}"
                )
    return problems

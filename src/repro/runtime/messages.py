"""Message types exchanged by the Flumina-style runtime (paper §3.4).

Six message kinds flow between producers and workers:

* :class:`EventMsg` — an application event, producer -> owning worker;
* :class:`EventRun` — a columnar *run* of consecutive events sharing
  one route: one implementation tag, of exact types.  Producers build
  runs (the pump, the service's ingest and egress frames) without
  looking at the values; the frame codec validates, and splits, what
  it packs, so the hot path moves timestamp/payload columns instead
  of one :class:`~repro.core.events.Event` object per message.  A run is
  order-equivalent to the per-event sequence it packs — mailboxes
  release runs under exactly the per-event rule, a prefix at a time
  behind a cursor; a leaf applies a released run in one dispatch
  (split at an armed crash fault), and an internal node, which joins
  per event, walks it with a cursor;
* :class:`HeartbeatMsg` — progress promise for one implementation tag;
  producers send them to the tag's owner, and workers *relay* them down
  the tree so descendants' mailboxes can release buffered events;
* :class:`JoinRequest` — sent by a worker processing a synchronizing
  event to its children (and relayed recursively); carries the
  triggering event's order key so child mailboxes can sequence it
  against their own events;
* :class:`JoinResponse` — a child's state traveling up;
* :class:`ForkStateMsg` — a forked state traveling back down.

All six kinds are picklable, over picklable fields (events, order-key
tuples, columns and application states), so they can cross OS-process
boundaries.  :mod:`repro.runtime.wire` encodes them for every
channel in one frame format: events, self-keyed heartbeats and join
requests pack as structs, everything else as a pickled compact tuple.
Join and fork messages carry only what their receiver reads: a join
response is its request id, its side and the state, and no load
signal rides on it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..core.events import Event, ImplTag, _stable_key

OrderKey = Tuple


@dataclass(frozen=True)
class EventMsg:
    event: Event


class EventRun:
    """A columnar run of consecutive events with one route.

    A run has one route — one (tag, stream), of exact types — and not
    one value type: ``ts`` holds the events' timestamps and
    ``payloads`` their payloads (``None`` when every payload is
    ``None``), and either column may mix types.  ``shape`` is a hint:
    the wire codec's shape byte of the first event, which the codec
    derives again, checking every event, when it packs the run
    (:func:`repro.runtime.wire.pack_frame`).  Every event in a run shares the
    order-key suffix ``key_tail`` = ``(stable(tag), stable(stream))``,
    so event ``i``'s key is ``(ts[i], *key_tail)``: the first and last
    keys cost one tuple each, and the full per-event list
    (:meth:`keys`) is built only for a consumer that records keys.
    Whoever already knows the tail (the codec's route caches, which key
    by exact type) passes it in; otherwise it is derived once, on first
    use.

    Runs are *not* wrapped in :class:`EventMsg`: a run is itself a
    protocol message, and counts as ``len(run)`` messages (see
    :func:`repro.runtime.wire.batch_message_count`).
    """

    __slots__ = ("tag", "stream", "shape", "ts", "payloads", "_tail")

    def __init__(
        self,
        tag: Any,
        stream: Any,
        shape: int,
        ts: Tuple,
        payloads: Optional[Tuple],
        key_tail: Optional[Tuple] = None,
    ) -> None:
        self.tag = tag
        self.stream = stream
        self.shape = shape
        self.ts = ts
        self.payloads = payloads
        self._tail = key_tail

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def itag(self) -> ImplTag:
        return ImplTag(self.tag, self.stream)

    @property
    def key_tail(self) -> Tuple:
        """What follows the timestamp in every event's order key."""
        tail = self._tail
        if tail is None:
            tail = self._tail = (_stable_key(self.tag), _stable_key(self.stream))
        return tail

    def keys(self) -> List[tuple]:
        """Every event's order key, in order."""
        kt, ks = self.key_tail
        return [(t, kt, ks) for t in self.ts]

    def key_at(self, i: int) -> tuple:
        return (self.ts[i], *self.key_tail)

    @property
    def first_key(self) -> tuple:
        return (self.ts[0], *self.key_tail)

    @property
    def last_key(self) -> tuple:
        return (self.ts[-1], *self.key_tail)

    def count_through(self, key: tuple, lo: int = 0) -> int:
        """How many events have an order key ``<= key``, counting from
        index ``lo`` (whose key the caller knows is ``<= key``) — a
        bisect on the timestamp column plus, on a tie, one comparison
        of the key tail.  Keys increase strictly along a run, so at
        most one event shares ``key``'s timestamp."""
        ts = self.ts
        t = key[0]
        n = bisect_left(ts, t, lo)
        if n < len(ts) and ts[n] == t and self.key_tail <= key[1:]:
            n += 1
        return n

    def slice(self, lo: int, hi: int) -> "EventRun":
        """Events ``lo`` to ``hi - 1`` as a run of the same route,
        shape hint and key tail."""
        pl = self.payloads
        return EventRun(
            self.tag,
            self.stream,
            self.shape,
            self.ts[lo:hi],
            pl[lo:hi] if pl is not None else None,
            self._tail,
        )

    def event(self, i: int) -> Event:
        p = self.payloads[i] if self.payloads is not None else None
        return Event(self.tag, self.stream, self.ts[i], p)

    def events(self) -> List[Event]:
        """Materialize per-event objects."""
        if self.payloads is None:
            return [Event(self.tag, self.stream, t, None) for t in self.ts]
        return [
            Event(self.tag, self.stream, t, p)
            for t, p in zip(self.ts, self.payloads)
        ]

    def split(self, n: int) -> Tuple["EventRun", "EventRun"]:
        """Split into (first ``n`` events, the rest); both share the
        run's route and shape hint, and neither may be empty.  Used by a
        leaf when a crash fault is due inside the run."""
        if not 0 < n < len(self.ts):
            raise ValueError(
                f"EventRun.split({n}) on a run of {len(self.ts)} events: "
                f"n must be in 1..{len(self.ts) - 1}"
            )
        return self.slice(0, n), self.slice(n, len(self.ts))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventRun({self.tag!r}@{self.stream!r}, n={len(self.ts)}, "
            f"ts=[{self.ts[0]!r}..{self.ts[-1]!r}])"
        )


@dataclass(frozen=True)
class HeartbeatMsg:
    """Progress for ``itag`` up to (and including) ``key``."""

    itag: ImplTag
    key: OrderKey


@dataclass(frozen=True)
class JoinRequest:
    """Join your subtree state as of ``key`` and reply to ``reply_to``."""

    req_id: Tuple[str, int]
    itag: ImplTag  # implementation tag of the triggering event
    key: OrderKey
    reply_to: str
    side: str  # "left" or "right" slot in the requester's join


@dataclass(frozen=True)
class JoinResponse:
    """A child's state traveling up."""

    req_id: Tuple[str, int]
    side: str
    state: Any


@dataclass(frozen=True)
class ForkStateMsg:
    """A forked state traveling back down to a child."""

    req_id: Tuple[str, int]
    state: Any

"""Message types exchanged by the Flumina-style runtime (paper §3.4).

Six message kinds flow between producers and workers:

* :class:`EventMsg` — an application event, producer -> owning worker;
* :class:`EventRun` — a columnar *run* of consecutive events sharing
  one implementation tag and one scalar field shape; producers and the
  frame codec coalesce same-route traffic into runs so the hot path
  moves packed timestamp/payload columns instead of one
  :class:`~repro.core.events.Event` object per message.  A run is
  order-equivalent to the per-event sequence it packs — mailboxes
  release (and may split) runs under exactly the per-event rule, and
  workers fall back to per-event objects at the boundaries that need
  them (fault hooks, synchronizing events at internal nodes);
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
boundaries.  :mod:`repro.runtime.wire` encodes them for the channels:
the queue transport ships compact tuples, and the frame codec packs
the common kinds as structs and falls back to a pickled tuple.  Join
and fork messages carry only what their receiver reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..core.events import Event, ImplTag, _stable_key

OrderKey = Tuple


@dataclass(frozen=True)
class EventMsg:
    event: Event


class EventRun:
    """A columnar run of consecutive events with one route and shape.

    ``ts`` holds the timestamp column and ``payloads`` the payload
    column (``None`` when every payload is ``None`` — the codec's FN
    shape).  ``shape`` is the wire codec's shape byte, kept so a run
    re-packs without re-deriving it.  Order keys are materialized
    lazily and cached: every event in a run shares the same
    ``(stable(tag), stable(stream))`` suffix, so a run's keys cost one
    tuple per event instead of two nested ones.

    Runs are *not* wrapped in :class:`EventMsg`: a run is itself a
    protocol message, and its identity on the in-flight accounting
    plane is ``len(run)`` messages (see
    :func:`repro.runtime.wire.batch_message_count`).
    """

    __slots__ = ("tag", "stream", "shape", "ts", "payloads", "_keys")

    def __init__(
        self,
        tag: Any,
        stream: Any,
        shape: int,
        ts: Tuple,
        payloads: Optional[Tuple],
    ) -> None:
        self.tag = tag
        self.stream = stream
        self.shape = shape
        self.ts = ts
        self.payloads = payloads
        self._keys: Optional[List[tuple]] = None

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def itag(self) -> ImplTag:
        return ImplTag(self.tag, self.stream)

    def keys(self) -> List[tuple]:
        ks = self._keys
        if ks is None:
            kt = _stable_key(self.tag)
            ksm = _stable_key(self.stream)
            ks = self._keys = [(t, kt, ksm) for t in self.ts]
        return ks

    @property
    def first_key(self) -> tuple:
        return self.keys()[0]

    @property
    def last_key(self) -> tuple:
        return self.keys()[-1]

    def event(self, i: int) -> Event:
        p = self.payloads[i] if self.payloads is not None else None
        return Event(self.tag, self.stream, self.ts[i], p)

    def events(self) -> List[Event]:
        """Materialize per-event objects (the fallback boundary)."""
        if self.payloads is None:
            return [Event(self.tag, self.stream, t, None) for t in self.ts]
        return [
            Event(self.tag, self.stream, t, p)
            for t, p in zip(self.ts, self.payloads)
        ]

    def split(self, n: int) -> Tuple["EventRun", "EventRun"]:
        """Split into (first ``n`` events, the rest); both share the
        run's route and shape.  Used by the mailbox when only a prefix
        is releasable."""
        pl = self.payloads
        a = EventRun(self.tag, self.stream, self.shape, self.ts[:n],
                     pl[:n] if pl is not None else None)
        b = EventRun(self.tag, self.stream, self.shape, self.ts[n:],
                     pl[n:] if pl is not None else None)
        if self._keys is not None:
            a._keys = self._keys[:n]
            b._keys = self._keys[n:]
        return a, b

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
    """A child's state traveling up.

    ``backlog`` piggybacks the subtree's queue depth — the number of
    buffered/pending mailbox items below (and at) the answering worker
    at the instant it surrendered its state.  Summed up the tree, the
    root observes the cluster-wide queue depth at every join, which is
    the load signal the elastic auto-scaler thresholds on
    (:mod:`repro.runtime.reconfigure`)."""

    req_id: Tuple[str, int]
    side: str
    state: Any
    backlog: int = 0


@dataclass(frozen=True)
class ForkStateMsg:
    """A forked state traveling back down to a child."""

    req_id: Tuple[str, int]
    state: Any

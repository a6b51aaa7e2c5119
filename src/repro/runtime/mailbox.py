"""Selective reordering mailbox (paper §3.4, "Event reordering").

Each worker's mailbox holds, per implementation tag it may receive
(its own tags plus all ancestors' tags):

* a FIFO **buffer** of pending items (events or join requests), which
  arrive in increasing order-key order per tag (producers are monotone,
  parents dispatch join requests in processing order, and channels are
  FIFO);
* a **timer**: the largest order key seen for the tag (events,
  heartbeats, or join requests).

An item with tag ``s`` and key ``k`` is *released* to the worker when

1. it is at the front of its own buffer, and
2. for every tag ``s'`` that ``s`` depends on: ``timer[s'] >= k`` (the
   mailbox has proof no earlier ``s'`` item is still in flight) and the
   front of ``s'``'s buffer (if any) has key ``> k`` (earlier dependent
   items are processed first).

Release is incremental.  Every tag has a *limit*, the key up to which
it lets its dependants pass: its buffer front's key, or its timer when
nothing is buffered.  Every tag keeps a *release bound*, the minimum
of the limits of the tags it depends on, and its front releases when
its key is at most that bound.  A limit only ever rises, so an arrival
or a heartbeat recomputes the bounds of the reverse dependencies of a
tag whose limit actually moved, and release goes on from the tags
whose bound now reaches their front: the paper's cascading release
through a tag workset, doing work in proportion to what moved rather
than to what is buffered.  An arrival behind a buffered front moves
nothing and returns at once.

Columnar runs (:class:`~repro.runtime.messages.EventRun`) buffer as a
*single* item and release under exactly the per-event rule behind a
*run cursor*: the front run's releasable prefix ends at the tag's
bound (a bisect on the timestamp column plus one comparison of the
key tail), goes out as a slice, and the cursor advances past it; the
buffered run is never re-sliced.  ``buffered_count`` stays event-level
(a run of ``n`` counts ``n``, less what its cursor has passed), so
backlog signals and drain checks are unchanged.

Released items come out in global key order.  When every pair of
known tags is dependent this holds by construction: each release is
bounded by every other tag's limit.  Only when the known tags contain
a mutually independent pair (a property of the dependence relation,
decided once) can a run released from one tag span an item released
from another; then a batch released from more than one tag is sorted
and each such run is split at the item it straddles.

The mailbox is pure data-structure logic — no simulator dependencies —
so it is unit-testable and reusable by every substrate.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from itertools import permutations
from operator import attrgetter
from typing import Any, Deque, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.dependence import DependenceRelation
from ..core.errors import InputError
from ..core.events import ImplTag
from .messages import EventRun

OrderKey = Tuple

NEG_INF_KEY: OrderKey = (float("-inf"),)


class Buffered:
    """An item awaiting release (or released): its tag, its order key
    (a run's first event's) and the item itself."""

    __slots__ = ("itag", "key", "item")

    def __init__(self, itag: ImplTag, key: OrderKey, item: Any) -> None:
        self.itag = itag
        self.key = key
        self.item = item

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Buffered(itag={self.itag!r}, key={self.key!r}, item={self.item!r})"


_key_of = attrgetter("key")


class Mailbox:
    """Selective reordering over a fixed set of known implementation tags."""

    def __init__(
        self,
        known_itags: Iterable[ImplTag],
        depends: DependenceRelation,
    ) -> None:
        self.itags: FrozenSet[ImplTag] = frozenset(known_itags)
        self._buffers: Dict[ImplTag, Deque[Buffered]] = {
            t: deque() for t in self.itags
        }
        self._timers: Dict[ImplTag, OrderKey] = {t: NEG_INF_KEY for t in self.itags}
        #: The run cursor: events of each tag's front run already released.
        self._cursor: Dict[ImplTag, int] = {t: 0 for t in self.itags}
        #: Incrementally-maintained total of all buffered events.
        #: ``buffered_count()`` returns it for ``WorkerCore.unprocessed()``,
        #: which the substrates ask at the end of an attempt (each
        #: worker's leftover count) and on a stall or a timeout.
        self._total_buffered = 0
        # For each tag, the known tags it depends on (excluding itself:
        # same-tag ordering is the buffer's FIFO), and the reverse: the
        # tags whose release may be unblocked when it makes progress.
        self._deps: Dict[ImplTag, Tuple[ImplTag, ...]] = {
            a: tuple(b for b in self.itags if b != a and depends.itag_depends(a, b))
            for a in self.itags
        }
        self._rdeps: Dict[ImplTag, Tuple[ImplTag, ...]] = {
            a: tuple(b for b in self.itags if b != a and a in self._deps[b])
            for a in self.itags
        }
        #: Each tag's limit: its front's key, or its timer when empty.
        self._limit: Dict[ImplTag, OrderKey] = dict(self._timers)
        #: Each tag's release bound, the least limit among its
        #: dependencies (None: it has none, and releases on arrival).
        self._bound: Dict[ImplTag, Optional[OrderKey]] = {
            a: NEG_INF_KEY if self._deps[a] else None for a in self.itags
        }
        #: Whether a released run can straddle another tag's item: only
        #: if some pair of known tags is not dependent both ways.
        self._straddles = any(
            b not in self._deps[a] for a, b in permutations(self.itags, 2)
        )

    # -- queries -----------------------------------------------------------
    def _buffer(self, itag: ImplTag) -> Deque[Buffered]:
        buf = self._buffers.get(itag)
        if buf is None:
            raise InputError(f"mailbox does not know itag {itag!r}")
        return buf

    def timer(self, itag: ImplTag) -> OrderKey:
        self._buffer(itag)
        return self._timers[itag]

    def buffered_count(self, itag: Optional[ImplTag] = None) -> int:
        if itag is None:
            return self._total_buffered
        n = -self._cursor.get(itag, 0)
        for b in self._buffer(itag):
            n += len(b.item) if type(b.item) is EventRun else 1
        return n

    def buffer_empty(self, itag: ImplTag) -> bool:
        return not self._buffer(itag)

    def frontier(self, itag: ImplTag) -> Optional[OrderKey]:
        """The key up to which this mailbox can *vouch* for ``itag``:
        the timer, but only when nothing for the tag is still buffered
        (a buffered item may turn into a join request with a smaller
        key than the timer).  ``None`` = cannot vouch beyond what
        children already know."""
        if self._buffer(itag):
            return None
        return self._timers[itag]

    # -- mutation -----------------------------------------------------------
    def _check_arrival(self, itag: ImplTag, buf: Deque[Buffered], key: OrderKey) -> None:
        if buf:
            last = buf[-1]
            last_key = last.item.last_key if type(last.item) is EventRun else last.key
            if last_key >= key:
                raise InputError(
                    f"non-monotone arrival for {itag!r}: {key} after {last_key}"
                )
        if self._timers[itag] > key:
            raise InputError(
                f"item for {itag!r} arrives behind its heartbeat frontier"
            )

    def insert(self, itag: ImplTag, key: OrderKey, item: Any) -> List[Buffered]:
        """Buffer an item and return everything releasable, in order."""
        buf = self._buffer(itag)
        self._check_arrival(itag, buf, key)
        buf.append(Buffered(itag, key, item))
        self._total_buffered += 1
        self._timers[itag] = key
        if len(buf) > 1:
            return []  # behind a front that cannot release: nothing moved
        return self._release(itag)

    def insert_run(self, run: EventRun) -> List[Buffered]:
        """Buffer a columnar run as one item (keyed at its first event)
        and return everything releasable, in order.

        The run's internal keys are strictly increasing by stream
        monotonicity (one route, one monotone producer), so only the
        boundary conditions need checking; the timer advances straight
        to the run's last key — exactly what inserting the events one
        by one would have left behind."""
        itag = run.itag
        buf = self._buffer(itag)
        first = run.first_key
        self._check_arrival(itag, buf, first)
        buf.append(Buffered(itag, first, run))
        self._total_buffered += len(run.ts)
        self._timers[itag] = run.last_key
        if len(buf) > 1:
            return []
        return self._release(itag)

    def advance(self, itag: ImplTag, key: OrderKey) -> List[Buffered]:
        """Heartbeat: advance the timer without buffering anything."""
        timers = self._timers
        old = timers.get(itag)
        if old is None:
            raise InputError(f"mailbox does not know itag {itag!r}")
        if key <= old:
            return []  # stale heartbeat, nothing new
        timers[itag] = key
        if self._buffers[itag]:
            return []  # the buffered front, not the timer, is the limit
        return self._release(itag)

    # -- release machinery ----------------------------------------------------
    def _release(self, seed: ImplTag) -> List[Buffered]:
        """Cascade from ``seed``, whose front or limit just moved: release
        what each visited tag's bound allows, and where a tag's limit
        rises, raise the bounds of its reverse dependencies and visit
        those whose front the new bound reaches."""
        released: List[Buffered] = []
        buffers = self._buffers
        timers = self._timers
        limits = self._limit
        bounds = self._bound
        work = [seed]
        while work:
            tag = work.pop()
            buf = buffers[tag]
            if buf:
                bound = bounds[tag]
                if bound is None or buf[0].key <= bound:
                    self._release_from(tag, buf, bound, released)
                limit = buf[0].key if buf else timers[tag]
            else:
                limit = timers[tag]
            old = limits[tag]
            if limit == old:
                continue
            limits[tag] = limit
            for dep in self._rdeps[tag]:
                bound = bounds[dep]
                if old > bound:
                    continue  # ``tag`` was not what held ``dep`` back
                deps = self._deps[dep]
                bound = limit if len(deps) == 1 else min([limits[t] for t in deps])
                bounds[dep] = bound
                dep_buf = buffers[dep]
                if dep_buf and dep_buf[0].key <= bound:
                    work.append(dep)
        if self._straddles and len(released) > 1:
            tag = released[0].itag
            if any(b.itag != tag for b in released):
                released.sort(key=_key_of)
                self._split_straddles(released)
        return released

    def _release_from(
        self,
        tag: ImplTag,
        buf: Deque[Buffered],
        bound: Optional[OrderKey],
        out: List[Buffered],
    ) -> None:
        """Release ``tag``'s buffer front-first, up to its ``bound``."""
        while buf:
            front = buf[0]
            if bound is not None and front.key > bound:
                return
            item = front.item
            if type(item) is not EventRun:
                buf.popleft()
                out.append(front)
                self._total_buffered -= 1
                continue
            lo = self._cursor[tag]
            n = len(item.ts)
            hi = n
            if bound is not None and item.ts[-1] >= bound[0]:
                hi = item.count_through(bound, lo)
            self._total_buffered -= hi - lo
            if hi < n:
                # Only a prefix is releasable, and the rest is provably
                # blocked: hand the prefix out, advance the cursor.
                out.append(Buffered(tag, front.key, item.slice(lo, hi)))
                self._cursor[tag] = hi
                front.key = item.key_at(hi)
                return
            buf.popleft()
            if lo:
                self._cursor[tag] = 0
                front = Buffered(tag, front.key, item.slice(lo, n))
            out.append(front)

    @staticmethod
    def _split_straddles(released: List[Buffered]) -> None:
        """Enforce global per-event key order across a released batch.

        ``released`` is sorted by (first) key, but a released run may
        *span* a later-released item of another tag (possible only
        between independent tags: the run's bound never saw the other
        tag).  Split any such run at the next item's key so consumers
        processing the list front-to-back see events in global order,
        exactly as the per-event path would."""
        i = 0
        while i < len(released) - 1:
            b = released[i]
            item = b.item
            nxt = released[i + 1].key
            if type(item) is EventRun and item.last_key > nxt:
                n = item.count_through(nxt)
                rest = item.slice(n, len(item.ts))
                released[i] = Buffered(b.itag, b.key, item.slice(0, n))
                insort(released, Buffered(b.itag, rest.first_key, rest), lo=i + 1, key=_key_of)
            i += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mailbox(tags={len(self.itags)}, buffered={self.buffered_count()})"

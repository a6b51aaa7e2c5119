"""The selective-reordering mailbox held against the paper's rule.

:class:`Reference` is a per-event transcription of §3.4: every arrival
is buffered event by event, and the mailbox releases, again and again,
the smallest-key buffer front whose dependencies all vouch for it (a
timer at or past its key, and no earlier buffered front).  It knows
nothing of runs, cursors, bounds or worksets.

Hypothesis draws dependence relations over two to four implementation
tags (mutually independent pairs — where a released run can straddle
another tag's item — and self-dependent tags on two streams included)
and arrival sequences mixing single events, runs split at random, join
requests, fresh and stale heartbeats and out-of-order arrivals.  After
every step :class:`~repro.runtime.Mailbox` must agree with the
reference on the per-event release sequence, ``buffered_count`` (total
and per tag), every tag's ``frontier`` and ``timer``, and on whether
the step raised :class:`InputError`.

``--hypothesis-profile=nightly`` (``tests/conftest.py``) runs it at
20 000 examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DependenceRelation, Event, ImplTag
from repro.core.errors import InputError
from repro.runtime import Mailbox
from repro.runtime.messages import EventMsg, EventRun, JoinRequest
from repro.runtime.wire import event_runs

NEG_INF = (float("-inf"),)


class Reference:
    """§3.4, one event at a time."""

    def __init__(self, itags, depends):
        self.deps = {
            a: [b for b in itags if b != a and depends.itag_depends(a, b)] for a in itags
        }
        self.bufs = {t: [] for t in itags}  # [(key, item)] per tag
        self.timers = {t: NEG_INF for t in itags}

    def _check(self, itag, first_key):
        if itag not in self.bufs:
            raise InputError(f"unknown itag {itag!r}")
        buf = self.bufs[itag]
        if buf and buf[-1][0] >= first_key:
            raise InputError("non-monotone arrival")
        if self.timers[itag] > first_key:
            raise InputError("behind the heartbeat frontier")

    def insert(self, itag, entries):
        """Buffer ``[(key, item)]`` (one arrival) and release."""
        self._check(itag, entries[0][0])
        self.bufs[itag].extend(entries)
        self.timers[itag] = entries[-1][0]
        return self._release()

    def advance(self, itag, key):
        if itag not in self.bufs:
            raise InputError(f"unknown itag {itag!r}")
        if key > self.timers[itag]:
            self.timers[itag] = key
        return self._release()

    def _releasable(self, itag):
        key = self.bufs[itag][0][0]
        for d in self.deps[itag]:
            if self.timers[d] < key or (self.bufs[d] and self.bufs[d][0][0] < key):
                return False
        return True

    def _release(self):
        out = []
        while True:
            fronts = [t for t, b in self.bufs.items() if b and self._releasable(t)]
            if not fronts:
                return out
            t = min(fronts, key=lambda t: self.bufs[t][0][0])
            key, item = self.bufs[t].pop(0)
            out.append((t, key, item))

    def frontier(self, itag):
        return None if self.bufs[itag] else self.timers[itag]


def flatten(released):
    """The mailbox's released items as ``(itag, key, item)`` per event."""
    out = []
    for b in released:
        item = b.item
        if type(item) is EventRun:
            assert b.itag == item.itag and b.key == item.first_key
            for e in item.events():
                out.append((b.itag, e.order_key, e.payload))
        elif type(item) is EventMsg:
            assert b.key == item.event.order_key
            out.append((b.itag, b.key, item.event.payload))
        else:
            out.append((b.itag, b.key, item))
    return out


@st.composite
def mailbox_cases(draw):
    """``(itags, relation, steps)`` for one oracle run."""
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))
    itags = []
    for name in names:
        for stream in range(draw(st.integers(1, 2))):
            itags.append(ImplTag(name, stream))
    if len(itags) < 2:
        itags.append(ImplTag(names[0], 1))
    itags = itags[:4]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adjacency = {name: [b for a, b in edges if a == name] for name in names}
    relation = DependenceRelation(names, adjacency)
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(itags + [ImplTag("z", 9)]),
                st.sampled_from(["events", "events", "join", "heartbeat", "stale"]),
                st.integers(1, 12),  # events in the arrival
                st.integers(0, 4),  # timestamp step (0 makes cross-tag ties)
                st.integers(1, 1 << 16),  # how the arrival splits into runs
            ),
            max_size=30,
        )
    )
    return itags, relation, steps


def arrivals(itag, kind, n, gap, split, last_ts, serial):
    """One step's messages for the mailbox: ``("insert", key, item)``,
    ``("run", run)`` or ``("advance", key)``.  Timestamps continue from
    ``last_ts``; a ``gap`` of 0 on the first event repeats it, which is
    non-monotone for an event and stale for a heartbeat."""
    tag, stream = itag.tag, itag.stream
    if kind in ("heartbeat", "stale"):
        ts = last_ts + gap if kind == "heartbeat" else last_ts - gap
        return [("advance", Event(tag, stream, ts).order_key)]
    if kind == "join":
        key = Event(tag, stream, last_ts + gap).order_key
        return [("insert", key, JoinRequest(("p", serial), itag, key, "p", "left"))]
    events, ts = [], last_ts + gap
    for i in range(n):
        events.append(Event(tag, stream, float(ts), payload=serial * 100 + i))
        ts += 1 + (split >> i) % 3
    out, start = [], 0
    for i in range(1, n + 1):  # bit i-1 of ``split`` cuts before event i
        if i == n or (split >> (i - 1)) & 1:
            for m in event_runs(events[start:i]):
                if type(m) is EventRun:
                    out.append(("run", m))
                else:
                    out.append(("insert", m.event.order_key, m))
            start = i
    return out


def run_case(itags, relation, steps):
    mb = Mailbox(itags, relation)
    ref = Reference(itags, relation)
    last_ts = {t: 0.0 for t in itags + [ImplTag("z", 9)]}
    for serial, (itag, kind, n, gap, split) in enumerate(steps):
        for msg in arrivals(itag, kind, n, gap, split, last_ts[itag], serial):
            got = want = None
            try:
                if msg[0] == "run":
                    run = msg[1]
                    got = mb.insert_run(run)
                elif msg[0] == "insert":
                    got = mb.insert(itag, msg[1], msg[2])
                else:
                    got = mb.advance(itag, msg[1])
            except InputError:
                got = InputError
            try:
                if msg[0] == "run":
                    entries = [(e.order_key, e.payload) for e in run.events()]
                    want = ref.insert(itag, entries)
                elif msg[0] == "insert":
                    item = msg[2]
                    payload = item.event.payload if type(item) is EventMsg else item
                    want = ref.insert(itag, [(msg[1], payload)])
                else:
                    want = ref.advance(itag, msg[1])
            except InputError:
                want = InputError
            assert (got is InputError) == (want is InputError), (msg, got, want)
            if got is not InputError:
                assert flatten(got) == want, msg
            if msg[0] == "run":
                last_ts[itag] = max(last_ts[itag], run.ts[-1])
            elif msg[0] == "insert" or kind == "heartbeat" and gap % 2 == 0:
                last_ts[itag] = max(last_ts[itag], msg[1][0])
            assert mb.buffered_count() == sum(len(b) for b in ref.bufs.values())
            for t in itags:
                assert mb.buffered_count(t) == len(ref.bufs[t]), t
                assert mb.frontier(t) == ref.frontier(t), t
                assert mb.timer(t) == ref.timers[t], t
                assert mb.buffer_empty(t) == (not ref.bufs[t]), t


class TestMailboxOracle:
    @settings(deadline=None)
    @given(mailbox_cases())
    def test_mailbox_matches_the_per_event_rule(self, case):
        run_case(*case)

    def test_straddling_run_and_a_join_request(self):
        """``b`` depends on ``a`` and ``c``, which are independent: a
        heartbeat on ``b`` frees an ``a`` run that spans a ``c`` join
        request, and the release must interleave them per event."""
        A, B, C = ImplTag("a", 0), ImplTag("b", 0), ImplTag("c", 0)
        relation = DependenceRelation("abc", {"b": ["a", "c"]})
        steps = [
            (A, "events", 8, 1, 0),
            (C, "join", 1, 4, 0),
            (C, "events", 3, 1, 0),
            (B, "heartbeat", 1, 6, 0),
            (B, "heartbeat", 1, 50, 0),
        ]
        run_case([A, B, C], relation, steps)

    def test_self_dependent_tag_on_two_streams(self):
        B0, B1 = ImplTag("b", 0), ImplTag("b", 1)
        relation = DependenceRelation("b", {"b": ["b"]})
        steps = [
            (B0, "events", 6, 1, 0b100),
            (B1, "events", 4, 2, 0),
            (B1, "stale", 1, 3, 0),
            (B1, "heartbeat", 1, 20, 0),
            (B0, "heartbeat", 1, 30, 0),
        ]
        run_case([B0, B1], relation, steps)


def test_reference_releases_heartbeat_free_independent_tags():
    """The reference itself: independent tags release on arrival."""
    A, B = ImplTag("a", 0), ImplTag("b", 0)
    ref = Reference([A, B], DependenceRelation("ab", {}))
    key = Event("a", 0, 1.0).order_key
    assert ref.insert(A, [(key, "x")]) == [(A, key, "x")]
    assert ref.frontier(A) == key
    assert ref.advance(B, Event("b", 0, 2.0).order_key) == []

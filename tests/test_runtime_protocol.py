"""The one worker protocol (repro.runtime.protocol) on its own: a lone
WorkerCore fed out-of-protocol messages raises typed errors that name
the worker and its state, and the producer schedule every substrate
shares starts its heartbeat grid at the attempt, not at timestamp 0;
the rewritten ``producer_messages`` is list-equal to its frozen
predecessor, and the producer pump posts a subsequence of it in
chunked, interleaved rounds — as fast as it can, or each cut capped at
the wall clock."""

import math
import random
import re
import threading
import time
from types import SimpleNamespace
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import value_barrier as vb
from repro.core import Event, ImplTag
from repro.core.errors import RuntimeFault
from repro.core.events import Heartbeat
from repro.runtime import InputStream, RunOptions, protocol, run_on_backend
from repro.runtime.messages import (
    EventMsg,
    EventRun,
    ForkStateMsg,
    HeartbeatMsg,
    JoinRequest,
    JoinResponse,
)
from repro.runtime.protocol import (
    OutputSink,
    WorkerCore,
    end_timestamp,
    producer_messages,
    pump_producers,
    start_timestamp,
)
from repro.runtime.faults import CrashFault, WorkerCrash, WorkerFaultView
from repro.runtime.wire import batch_message_count, event_runs


@pytest.fixture
def cores():
    """(root core, leaf core, leaf's value itag, barrier itag, posted)
    on the two-leaf value-barrier plan; no state installed anywhere."""
    prog = vb.make_program()
    wl = vb.make_workload(n_value_streams=2, values_per_barrier=5, n_barriers=1)
    plan = vb.make_plan(prog, wl)
    posted = []

    def core(node):
        return WorkerCore(
            node, plan, prog, lambda dst, msg: posted.append((dst, msg)), OutputSink()
        )

    leaf = plan.leaves()[0]
    (value_itag,) = leaf.itags
    return core(plan.root), core(leaf), value_itag, wl.barrier_itag, posted


def _far(itag: ImplTag):
    return HeartbeatMsg(itag, Event(itag.tag, itag.stream, 1e9).order_key)


class TestProtocolViolations:
    def test_event_while_absorbed(self, cores):
        _root, leaf, value_itag, barrier_itag, _ = cores
        event = Event(value_itag.tag, value_itag.stream, 1.0, 7)
        leaf.handle(EventMsg(event))  # buffered behind the barrier frontier
        with pytest.raises(RuntimeFault) as err:
            leaf.handle(_far(barrier_itag))
        msg = str(err.value)
        assert f"worker {leaf.node.id}" in msg and "event while absorbed" in msg
        assert "absorbed=True" in msg and repr(event) in msg

    def test_double_absorb(self, cores):
        root, leaf, value_itag, barrier_itag, _ = cores
        key = Event(barrier_itag.tag, barrier_itag.stream, 2.0).order_key
        req = JoinRequest((root.node.id, 1), barrier_itag, key, root.node.id, "left")
        leaf.handle(req)  # buffered behind the leaf's own value frontier
        with pytest.raises(RuntimeFault) as err:
            leaf.handle(_far(value_itag))
        msg = str(err.value)
        assert f"worker {leaf.node.id}" in msg and "double absorb" in msg
        assert "absorbed=True" in msg and repr(req) in msg

    def test_unexpected_join_response(self, cores):
        root, leaf, value_itag, barrier_itag, posted = cores
        stray = JoinResponse((root.node.id, 99), "left", 0)
        with pytest.raises(RuntimeFault) as err:
            root.handle(stray)
        assert "unexpected join response" in str(err.value)
        assert "outstanding join=None" in str(err.value)
        # With a join outstanding, a response to another request id is
        # just as wrong, and the error names the one it is waiting on.
        for itag in root.mailbox.itags:
            if itag != barrier_itag:
                root.handle(_far(itag))
        root.handle(EventMsg(Event(barrier_itag.tag, barrier_itag.stream, 3.0)))
        assert sum(isinstance(m, JoinRequest) for _dst, m in posted) == 2
        with pytest.raises(RuntimeFault) as err:
            root.handle(stray)
        msg = str(err.value)
        assert f"outstanding join={(root.node.id, 1)}" in msg
        assert "blocked=True" in msg and repr(stray) in msg

    def test_fork_state_without_absorption(self, cores):
        root, leaf, _value_itag, _barrier_itag, _ = cores
        fork = ForkStateMsg((root.node.id, 1), 0)
        with pytest.raises(RuntimeFault) as err:
            root.handle(fork)
        assert f"worker {root.node.id}" in str(err.value)
        assert "fork state without absorption" in str(err.value)
        leaf.state, leaf.has_state = 0, True
        with pytest.raises(RuntimeFault) as err:
            leaf.handle(fork)
        assert "fork state without absorption" in str(err.value)
        assert "absorbed=False" in str(err.value) and repr(fork) in str(err.value)


class TestFrontierRelay:
    def test_a_frontier_waits_for_its_tags_last_dispatch(self, cores):
        """An internal node relays a tag's frontier once nothing of the
        tag is released-but-undispatched, in whichever later handle
        that happens, and a handle that moves nothing relays nothing."""
        root, _leaf, _value_itag, b, posted = cores
        for itag in root.mailbox.itags:
            if itag != b:
                root.handle(_far(itag))
        posted.clear()

        def relayed():
            return [(dst, m.key) for dst, m in posted if isinstance(m, HeartbeatMsg)]

        first = Event(b.tag, b.stream, 3.0)
        root.handle(EventMsg(first))  # dispatched: its join starts
        assert relayed() == [(child, first.order_key) for child in root.children]
        root.handle(EventMsg(Event(b.tag, b.stream, 4.0)))  # released, not dispatched
        hb = Event(b.tag, b.stream, 5.0).order_key
        root.handle(HeartbeatMsg(b, hb))
        (req, _) = [m for _dst, m in posted if isinstance(m, JoinRequest)]
        root.handle(JoinResponse(req.req_id, "left", 0))
        assert len(relayed()) == 2  # the event at 4.0 is still in flight
        root.handle(JoinResponse(req.req_id, "right", 0))  # dispatches it
        assert relayed()[2:] == [(child, hb) for child in root.children]
        root.handle(HeartbeatMsg(b, hb))  # stale
        root.handle(HeartbeatMsg(b, Event(b.tag, b.stream, 4.5).order_key))  # staler
        assert len(relayed()) == 4


class TestRunsAtTheWorker:
    """A run is one pending item everywhere: an internal node walks it
    with a cursor, an armed leaf splits it at the crash."""

    def test_internal_node_walks_a_run_with_a_cursor(self, cores):
        root, _leaf, _value_itag, barrier_itag, posted = cores
        (run,) = event_runs(
            [Event(barrier_itag.tag, barrier_itag.stream, ts) for ts in (2.0, 3.0, 4.0)]
        )
        root.handle(run)
        for k in range(3):
            requests = [m for _dst, m in posted if isinstance(m, JoinRequest)]
            assert [r.key for r in requests] == [run.keys()[i] for i in range(k + 1) for _ in "lr"]
            # The run stays one pending item until its last event.
            assert len(root.pending) == int(k < 2) and root.unprocessed() == 2 - k
            for side in ("left", "right"):
                root.handle(JoinResponse(requests[-1].req_id, side, 0))
        assert root.unprocessed() == 0 and not root.blocked
        assert root.sink.joins == root.sink.events_processed == 3

    @pytest.mark.parametrize(
        "fault", [dict(after_events=4), dict(at_ts=3.5)], ids=["after_events", "at_ts"]
    )
    def test_armed_leaf_splits_a_run_at_the_crash(self, fault):
        """The crash fires where it fires event by event — same record,
        state and counters — and the prefix is applied in one dispatch."""
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=5, n_barriers=1)
        plan = vb.make_plan(prog, wl)
        node = plan.leaves()[0]
        (itag,) = node.itags
        events = [Event(itag.tag, itag.stream, float(t), t) for t in range(1, 7)]
        (run,) = event_runs(events)
        got = []
        for items in ([run], [EventMsg(e) for e in events]):
            view = WorkerFaultView(node.id, [(0, CrashFault(node.id, **fault))], [])
            leaf = WorkerCore(node, plan, prog, lambda dst, msg: None, OutputSink(), faults=view)
            leaf.state, leaf.has_state = 0, True
            batches = []
            real = leaf.update_batch
            leaf.update_batch = lambda s, r: batches.append(len(r)) or real(s, r)
            leaf.handle(_far(wl.barrier_itag))
            with pytest.raises(WorkerCrash) as crash:
                for item in items:
                    leaf.handle(item)
            got.append((crash.value.record, leaf.state, leaf.sink.events_processed, batches))
        (record, state, processed, batches), per_event = got
        assert (record, state, processed) == per_event[:3]
        assert (record.events_seen, record.ts, state, processed) == (4, 4.0, 1 + 2 + 3, 3)
        assert batches == [3] and per_event[3] == []


def _stream(itag, timestamps, interval=5.0):
    return InputStream(
        itag,
        tuple(Event(itag.tag, itag.stream, t) for t in timestamps),
        heartbeat_interval=interval,
    )


class TestHeartbeatGrid:
    A, B = ImplTag("a", "s"), ImplTag("b", "s")

    def _messages(self, shift):
        streams = [
            _stream(self.A, [shift + t for t in (1.0, 7.0, 18.0)]),
            _stream(self.B, [shift + 12.0]),
            _stream(ImplTag("c", "s"), []),
        ]
        start, end = start_timestamp(streams), end_timestamp(streams)
        return [producer_messages(s, end, start) for s in streams]

    def test_message_count_is_independent_of_the_shift(self):
        """The same events shifted by T (a late service epoch, a
        recovery suffix) cost the same traffic: no T/interval dead
        heartbeats per stream.  (The base sits one interval in: the
        grid has never had a point at timestamp 0.)"""
        base = self._messages(5.0)
        for shift in (1_000.0, 5_000_000.0):
            shifted = self._messages(shift)
            assert [len(m) for m in shifted] == [len(m) for m in base]
            assert [[type(x) for x in m] for m in shifted] == [
                [type(x) for x in m] for m in base
            ]

    def test_grid_starts_at_the_last_point_at_or_before_the_first_event(self):
        (msgs, _, idle) = self._messages(1_000.0)
        hb = [m.key[0] for m in idle if isinstance(m, HeartbeatMsg)]
        assert hb == [1000.0, 1005.0, 1010.0, 1015.0, 1019.0]
        assert isinstance(msgs[0], HeartbeatMsg) and msgs[0].key[0] == 1000.0
        assert msgs[1].event.ts == 1001.0

    def test_two_argument_call_keeps_the_grid_from_zero(self):
        s = _stream(self.A, [1_001.0])
        hb = [
            m.key[0]
            for m in producer_messages(s, end_timestamp([s]))
            if isinstance(m, HeartbeatMsg)
        ]
        assert hb[:2] == [5.0, 10.0] and len(hb) == 201

    def test_a_negative_or_nan_interval_is_rejected(self):
        """Such a grid would never reach the end of the stream."""
        for interval in (-1.0, math.nan):
            with pytest.raises(ValueError, match="heartbeat_interval"):
                InputStream(self.A, (), heartbeat_interval=interval)
        for interval in (None, 0.0, 0.5):
            InputStream(self.A, (), heartbeat_interval=interval)


# ---------------------------------------------------------------------------
# The producer schedule and the closed-loop pump, without a substrate
# ---------------------------------------------------------------------------

def frozen_producer_messages(stream, end_ts, start_ts=0.0):
    """``producer_messages`` as it stood before the grid was merged in
    by position (commit 42eccde), kept verbatim as the reference the
    rewritten generator and the closed-loop pump are held against."""
    items = [(e.order_key, EventMsg(e)) for e in stream.events]
    hb_times = []
    interval = stream.heartbeat_interval
    if interval:
        t = max(interval, start_ts // interval * interval)
        while t < end_ts:
            hb_times.append(t)
            t += interval
    hb_times.append(end_ts)
    event_ts = {e.ts for e in stream.events}
    for t in hb_times:
        if t in event_ts:
            continue
        hb = Heartbeat(stream.itag.tag, stream.itag.stream, t)
        items.append((hb.order_key, HeartbeatMsg(stream.itag, hb.order_key)))
    items.sort(key=lambda kv: kv[0])
    return [msg for _, msg in items]


class StrTag(str):
    """A ``str`` subclass: equal to its ``str``, off the codec's fast path."""


class PairTag(NamedTuple):
    """A ``tuple`` subclass: equal to its ``tuple``, just as far off it."""

    kind: str
    key: int


#: Tags the route grammar carries (every one of them rides runs) and
#: tags it refuses: a bool inside the tag, a tuple or str subclass, an
#: int beyond 64 bits, a frozenset.
STR_TAGS = ["a", "b", "c", "d", "e"]
TUPLE_TAGS = [("k", 1), ("k", 2), ("k", (1,)), ("k", 1.5, None), ()]
INELIGIBLE_TAGS = [
    ("k", True),
    PairTag("k", 3),
    StrTag("c"),
    ("k", 1 << 70),
    frozenset({"k", 4}),
]


def _tag_id(tag):
    """A tag's repr, with a frozenset's members sorted: its own repr
    follows string hashing, which changes from run to run."""
    if isinstance(tag, frozenset):
        return f"frozenset({sorted(tag, key=repr)})"
    return repr(tag)


TAG_POOLS = {
    "str": STR_TAGS,
    "tuple": TUPLE_TAGS,
    "ineligible": INELIGIBLE_TAGS,
    "mixed": STR_TAGS[:2] + TUPLE_TAGS[:2] + INELIGIBLE_TAGS[:3],
}
pools = pytest.mark.parametrize("pool", sorted(TAG_POOLS))

PAYLOADS = [None, None, 0, 3, -4, 0.5, -1.25, "x", 1 << 70, -(1 << 63), True]


@st.composite
def stream_sets(draw, pool="mixed"):
    """1-4 timestamp-ordered streams over distinct tags of one pool,
    on str and int stream ids.  Timestamps
    come from a small grid shifted by ``base`` so that events fall on
    heartbeat grid points and share timestamps across streams; a
    stream is int- or float-stamped (or mixed, or off the grid),
    payload shapes mix freely inside it, and some streams are empty or
    heartbeat-free.  Sizes and kinds are drawn, the filling is seeded
    (one draw per event would spend the budget on generation)."""
    base = draw(st.sampled_from([0, 3, 1_000_000]))
    tags = draw(st.permutations(TAG_POOLS[pool]))[: draw(st.integers(1, 4))]
    itags = [ImplTag(tag, ("s", 0, 1)[i % 3]) for i, tag in enumerate(tags)]
    rng = random.Random(draw(st.integers(0, 1 << 30)))
    streams = []
    for itag in itags:
        n = draw(st.integers(0, 25))
        kind = draw(st.sampled_from(["float", "int", "mixed", "half"]))
        uniform = draw(st.booleans())
        events = []
        for t in sorted(rng.sample(range(1, 61), n)):
            ts = base + t
            if kind == "float" or (kind == "mixed" and rng.random() < 0.5):
                ts = float(ts)
            elif kind == "half":
                ts = ts + 0.5
            payload = 7 if uniform else rng.choice(PAYLOADS)
            events.append(Event(itag.tag, itag.stream, ts, payload))
        interval = draw(st.sampled_from([None, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0]))
        streams.append(
            InputStream(itag, tuple(events), heartbeat_interval=interval)
        )
    return streams


class _OnePlan:
    """Every stream is owned by a worker named after its tag."""

    def owner_of(self, itag):
        return SimpleNamespace(id=f"w:{itag.tag!r}@{itag.stream}")


def _pump(streams, max_run, **kwargs):
    posted = []
    with mock.patch.object(protocol, "MAX_RUN", max_run):
        for delay in pump_producers(
            _OnePlan(), streams, lambda dst, msg: posted.append((dst, msg)), **kwargs
        ):
            assert delay == 0.0
    return posted


def _expand(msg):
    """A posted message as the per-event messages it stands for."""
    if type(msg) is EventRun:
        return [EventMsg(e) for e in msg.events()]
    return [msg]


def _key(msg):
    return msg.event.order_key if isinstance(msg, EventMsg) else msg.key


def _round_cuts(streams, max_run, end_ts):
    """The cut of every chunk-round, from the definition: the earliest
    timestamp at which an unfinished stream has ``max_run`` events (or
    its last) to post; the closing round's cut is ``end_ts``."""
    pos = [0] * len(streams)
    cuts = []
    while True:
        ends = [
            s.events[min(p + max_run, len(s.events)) - 1].ts
            for s, p in zip(streams, pos)
            if p < len(s.events)
        ]
        if not ends:
            return cuts + [end_ts]
        cuts.append(min(ends))
        pos = [
            sum(1 for e in s.events if e.ts <= cuts[-1]) for s in streams
        ]


class TestProducerMessages:
    @settings(max_examples=200, deadline=None)
    @given(stream_sets(), st.booleans())
    def test_list_equal_to_the_frozen_generator(self, streams, two_args):
        start, end = start_timestamp(streams), end_timestamp(streams)
        two_args = two_args and start < 100  # else a grid of millions
        for s in streams:
            args = (s, end) if two_args else (s, end, start)
            got = producer_messages(*args)
            want = frozen_producer_messages(*args)
            assert got == want
            assert [type(_key(m)[0]) for m in got] == [type(_key(m)[0]) for m in want]

    def test_end_timestamp_reads_each_streams_last_event(self):
        A, B = ImplTag("a", "s"), ImplTag("b", "s")
        streams = [_stream(A, [1.0, 9.0]), _stream(B, [4.0, 30.0]), _stream(A, [])]
        assert end_timestamp(streams) == 31.0
        assert end_timestamp([]) == end_timestamp([_stream(A, [])]) == 1.0


class TestClosedLoopPump:
    """`pump_producers(pace=None)` against a recording ``post``."""

    @pools
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 3, 7, 512]))
    def test_subsequence_rounds_skew_and_accounting(self, pool, data, max_run):
        streams = data.draw(stream_sets(pool))
        start, end = start_timestamp(streams), end_timestamp(streams)
        posted = _pump(streams, max_run)
        cuts = _round_cuts(streams, max_run, end)
        owners = [_OnePlan().owner_of(s.itag).id for s in streams]

        def round_of(msg):
            ts = _key(msg)[0]
            return next(k for k, cut in enumerate(cuts) if ts <= cut)

        # (d) in-flight accounting: a run counts its length.
        n_events = sum(len(s.events) for s in streams)
        n_hb = sum(isinstance(m, HeartbeatMsg) for _, m in posted)
        assert batch_message_count([m for _, m in posted]) == n_events + n_hb
        assert all(len(m) <= max_run for _, m in posted if type(m) is EventRun)

        # (e) what the route grammar carries rides runs, str and tuple
        # tags alike — a uniform stream posts one item per round — and
        # what it refuses never does.
        if pool == "ineligible":
            assert not any(type(m) is EventRun for _, m in posted)
        elif pool != "mixed":
            for s, owner in zip(streams, owners):
                if len({(type(e.ts), type(e.payload)) for e in s.events}) == 1 and (
                    s.events[0].payload == 7
                ):
                    rounds = [
                        round_of(EventMsg(m.event(0)) if type(m) is EventRun else m)
                        for dst, m in posted
                        if dst == owner and not isinstance(m, HeartbeatMsg)
                    ]
                    assert len(rounds) == len(set(rounds))

        # Streams are served in turn, round after round.
        order = [
            (round_of(m), owners.index(dst))
            for dst, msg in posted
            for m in _expand(msg)
        ]
        assert order == sorted(order)

        for s, owner in zip(streams, owners):
            full = frozen_producer_messages(s, end, start)
            mine = [m for dst, msg in posted if dst == owner for m in _expand(msg)]
            # (a) a subsequence of the full schedule, every event kept...
            it = iter(full)
            assert all(any(m == f for f in it) for m in mine)
            assert [m for m in mine if isinstance(m, EventMsg)] == [
                m for m in full if isinstance(m, EventMsg)
            ]
            # ...closed by the same closing heartbeat...
            assert mine[-1] == full[-1]
            # ...with at most one heartbeat per round,
            hb_rounds = [round_of(m) for m in mine if isinstance(m, HeartbeatMsg)]
            assert len(hb_rounds) == len(set(hb_rounds))
            # (b) and a grid heartbeat is dropped only when a later
            # message of the stream follows in the same round.
            for f in full:
                if isinstance(f, HeartbeatMsg) and f not in mine:
                    assert any(
                        _key(m) > f.key and round_of(m) == round_of(f) for m in mine
                    ), f

        # (c) bounded skew: no stream has posted more than one chunk of
        # events past the next event another stream has yet to post.
        done = [0] * len(streams)
        for dst, msg in posted:
            i = owners.index(dst)
            done[i] += sum(isinstance(m, EventMsg) for m in _expand(msg))
            for u, todo in enumerate(streams):
                if done[u] == len(todo.events):
                    continue
                waiting_at = todo.events[done[u]].ts
                ahead = sum(e.ts > waiting_at for e in streams[i].events[: done[i]])
                assert ahead <= max_run

    @pytest.mark.parametrize("tag_of", [str, lambda name: (name, 1)], ids=["str", "tuple"])
    def test_real_chunk_size_interleaves_long_streams(self, tag_of):
        A, B, C = (ImplTag(tag_of(name), "s") for name in "abc")

        def long(itag, offset):
            return InputStream(
                itag,
                tuple(
                    Event(itag.tag, itag.stream, offset + 0.1 * i, i)
                    for i in range(1300)
                ),
                heartbeat_interval=1.0,
            )

        streams = [long(A, 5.0), long(B, 5.05), _stream(C, [70.0, 120.0], 1.0)]
        names = {_OnePlan().owner_of(s.itag).id: n for s, n in zip(streams, "abc")}
        posted = _pump(streams, protocol.MAX_RUN)
        kinds = [
            (names[dst], len(m) if type(m) is EventRun else type(m).__name__)
            for dst, m in posted
        ]
        # First round: a full run of a, what b has up to the same cut,
        # and one heartbeat for the idle stream c — not fifty.
        assert kinds[:3] == [("a", 512), ("b", 511), ("c", "HeartbeatMsg")]
        # Tuple tags or str tags, a long uniform stream leaves the pump
        # as runs: 1300 events, one run per round it has events in.
        assert [k for n, k in kinds if n == "a" and k != "HeartbeatMsg"] == [
            512, 511, 128, 149
        ]
        n_rounds = len(_round_cuts(streams, protocol.MAX_RUN, end_timestamp(streams)))
        assert n_rounds == 6  # a's and b's chunks, each stream's end, the closing one
        n_posted_hb = sum(k == "HeartbeatMsg" for _, k in kinds)
        n_grid_hb = sum(
            isinstance(m, HeartbeatMsg)
            for s in streams
            for m in frozen_producer_messages(s, end_timestamp(streams), 5.0)
        )
        assert n_posted_hb <= 3 * n_rounds < n_grid_hb // 10

    @pytest.mark.parametrize("tag", INELIGIBLE_TAGS, ids=_tag_id)
    def test_ineligible_traffic_travels_per_event_in_order(self, tag):
        s = _stream(ImplTag(tag, "s"), [1.0, 2.0, 3.0], interval=None)
        posted = [m for _, m in _pump([s], 512)]
        assert [type(m) for m in posted] == [EventMsg] * 3 + [HeartbeatMsg]
        assert [m.event for m in posted[:3]] == list(s.events)
        assert all(type(m.event.tag) is type(tag) for m in posted[:3])

    @pytest.mark.parametrize("tag", TUPLE_TAGS, ids=repr)
    def test_tuple_tag_traffic_travels_as_runs(self, tag):
        s = _stream(ImplTag(tag, "s"), [1.0, 2.0, 3.0], interval=None)
        run, hb = (m for _, m in _pump([s], 512))
        assert type(run) is EventRun and run.events() == list(s.events)
        assert repr(run.tag) == repr(tag) and type(hb) is HeartbeatMsg

    def test_foreign_event_is_rejected(self):
        A = ImplTag("a", "s")
        bad = InputStream(A, (Event("a", "s", 1.0), Event("b", "s", 2.0)))
        with pytest.raises(RuntimeFault, match="does not belong to stream"):
            _pump([bad], 512)



class _FakeClock:
    """``time`` for the paced pump: the clock moves ``tick`` per reading
    and by exactly what the pump's caller sleeps."""

    def __init__(self, tick=0.0):
        self.now, self.tick, self.slept = 1_000.0, tick, []

    def time(self):
        self.now += self.tick
        return self.now

    def sleep(self, s):
        self.slept.append(s)
        self.now += s


def _paced(streams, pace, clock, before_sleep=None):
    """Paced-pump posts as ``(clock at post, dst, msg)``; the caller
    sleeps what each round boundary asks, running ``before_sleep``
    first."""
    posted = []
    with mock.patch.object(protocol, "time", clock):
        for delay in pump_producers(
            _OnePlan(),
            streams,
            lambda dst, msg: posted.append((clock.now, dst, msg)),
            pace=pace,
        ):
            if delay > 0:
                if before_sleep is not None:
                    before_sleep()
                clock.sleep(delay)
    return posted


class TestPacedPump:
    """`pump_producers(pace=...)`: the closed pump's rounds, each cut
    capped at the timestamp the wall clock has reached."""

    def _streams(self):
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=20, n_barriers=3)
        return vb.make_streams(wl)

    def test_on_time_posts_each_message_when_due(self):
        streams = self._streams()
        start, end = start_timestamp(streams), end_timestamp(streams)
        pace, clock, flushes = 10.0, _FakeClock(), []
        t0 = clock.now
        posted = _paced(streams, pace, clock, lambda: flushes.append(clock.now))
        for now, _dst, msg in posted:
            due = [_key(m)[0] for m in _expand(msg)]
            # never early, and (the clock only moves by sleeping) never
            # late: an item goes out at the moment its last message is
            # due — a grid point before the first event, at the start
            assert now == pytest.approx(t0 + max(0.0, max(due) - start) / pace)
        assert sum(clock.slept) == pytest.approx((end - start) / pace)
        assert flushes == [t0 + sum(clock.slept[:i]) for i in range(len(clock.slept))]
        for s in streams:
            owner = _OnePlan().owner_of(s.itag).id
            full = frozen_producer_messages(s, end, start)
            mine = [m for _, dst, msg in posted if dst == owner for m in _expand(msg)]
            it = iter(full)
            assert all(any(m == f for f in it) for m in mine)
            assert [m for m in mine if isinstance(m, EventMsg)] == [
                m for m in full if isinstance(m, EventMsg)
            ]
            assert mine[-1] == full[-1]

    def test_behind_schedule_it_is_the_closed_pump(self):
        """A pump that finds everything due posts the closed pump's
        rounds: the same runs, heartbeats and order, and never sleeps."""
        streams = self._streams()
        clock = _FakeClock(tick=1.0)
        paced = [(dst, _expand(m)) for _, dst, m in _paced(streams, 1e12, clock)]
        closed = [(dst, _expand(m)) for dst, m in _pump(streams, protocol.MAX_RUN)]
        assert paced == closed and not clock.slept
        assert any(len(m) > 1 for dst, m in paced)

    def test_options_reject_a_pace_they_cannot_honour(self):
        for pace in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="pace"):
                RunOptions(pace=pace)
        assert RunOptions(pace=1e-3).pace == 1e-3


REAL_SUBSTRATES = {
    "threaded": ("threaded", {}),
    "process": ("process", {}),
    "nodes=2": ("process", {"nodes": 2}),
}


@pytest.mark.parametrize("substrate", sorted(REAL_SUBSTRATES))
def test_real_substrates_reject_a_foreign_event(substrate):
    """What only the simulator used to check: an event filed under
    another stream's tag is an input error, not traffic — named with
    its stream, also where a forked worker pumps that stream."""
    backend, extra = REAL_SUBSTRATES[substrate]
    prog = vb.make_program()
    wl = vb.make_workload(n_value_streams=2, values_per_barrier=5, n_barriers=1)
    plan = vb.make_plan(prog, wl)
    streams = vb.make_streams(wl)
    first, other = streams[0], streams[1]
    stray = other.events[0]
    mixed = sorted(first.events + (stray,), key=lambda e: e.ts)
    streams[0] = InputStream(first.itag, tuple(mixed), heartbeat_interval=1.0)
    before = threading.active_count()
    named = re.escape(f"does not belong to stream {first.itag!r}")
    with pytest.raises(RuntimeFault, match=named):
        run_on_backend(
            backend, prog, plan, streams, options=RunOptions(timeout_s=20.0, **extra)
        )
    deadline = time.monotonic() + 5.0
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before


# -- one worker loop, one coordinator: what a failed attempt looks like ------


def _vb_with_update(update, *, values_per_barrier=10):
    """The two-leaf value-barrier program with ``update`` swapped in."""
    from repro.core.dependence import DependenceRelation
    from repro.core.program import single_state_program

    prog = single_state_program(
        name="vb-with-update",
        tags=vb.TAGS,
        depends=DependenceRelation.from_function(vb.TAGS, vb.depends_fn),
        init=lambda: 0,
        update=update,
        fork=vb._fork,
        join=vb._join,
    )
    wl = vb.make_workload(
        n_value_streams=2, values_per_barrier=values_per_barrier, n_barriers=2
    )
    return prog, vb.make_plan(prog, wl), vb.make_streams(wl)


def _assert_nothing_left_behind(threads_before):
    import multiprocessing

    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and (
        threading.active_count() > threads_before or multiprocessing.active_children()
    ):
        time.sleep(0.01)
    assert threading.active_count() <= threads_before
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("substrate", sorted(REAL_SUBSTRATES))
def test_a_raising_update_surfaces_with_its_worker_and_text(substrate):
    """A user ``update`` that raises is the run's fault, on every real
    substrate: named worker, original exception text and traceback,
    promptly (not after ``timeout_s``), nothing left running.  (The old
    threaded loop lost the exception: its thread died silently and the
    run reported unprocessed items or waited out the timeout.)"""
    seen = {"bad": None}

    def update(state, event):
        if (event.stream, event.ts) == seen["bad"]:
            raise ValueError("the seventh value is refused")
        return vb._update(state, event)

    prog, plan, streams = _vb_with_update(update)
    bad = streams[0].events[6]
    assert bad.tag == vb.VALUE_TAG
    seen["bad"] = (bad.stream, bad.ts)
    backend, opts = REAL_SUBSTRATES[substrate]
    before = threading.active_count()
    t0 = time.monotonic()
    with pytest.raises(RuntimeFault) as err:
        run_on_backend(
            backend, prog, plan, streams, options=RunOptions(timeout_s=60.0, **opts)
        )
    assert time.monotonic() - t0 < 20.0
    text = str(err.value)
    assert f"worker {plan.owner_of(bad.itag).id} crashed" in text
    assert "ValueError" in text and "the seventh value is refused" in text
    assert "Traceback" in text
    _assert_nothing_left_behind(before)


def _aborted_case(how):
    """A value-barrier run whose first attempt ends early: a leaf
    crashes (recovered from a checkpoint) or the root quiesces for a
    planned re-plan."""
    from repro.runtime import (
        CrashFault,
        FaultPlan,
        ReconfigPoint,
        ReconfigSchedule,
        every_root_join,
    )

    prog = vb.make_program()
    wl = vb.make_workload(n_value_streams=4, values_per_barrier=10, n_barriers=3)
    plan, streams = vb.make_plan(prog, wl), vb.make_streams(wl)
    if how == "crash":
        victim = plan.leaves()[0].id
        at = streams[-1].events[1].ts + 0.01
        opts = RunOptions(
            fault_plan=FaultPlan(CrashFault(victim, at_ts=at)),
            checkpoint_predicate=every_root_join(),
        )
    else:
        sched = ReconfigSchedule(ReconfigPoint(after_joins=1, to_leaves=2))
        opts = RunOptions(reconfig_schedule=sched)
    return prog, plan, streams, opts


@pytest.mark.parametrize("how", ["crash", "quiesce"])
def test_an_aborted_threaded_attempt_stops_its_threads(how):
    """Crash / quiesce twin of the foreign-event case above: an attempt
    that ends early (and is recovered / migrated by the driver) leaves
    ``threading.active_count()`` where it was."""
    prog, plan, streams, opts = _aborted_case(how)
    before = threading.active_count()
    run = run_on_backend("threaded", prog, plan, streams, options=opts)
    assert run.recovery.attempts >= 2
    assert (run.recovery.crashes if how == "crash" else run.reconfig.reconfigured)
    _assert_nothing_left_behind(before)


@pytest.mark.parametrize("how", ["crash", "quiesce"])
def test_an_aborted_process_attempt_joins_its_place_thread_before_the_next_fork(
    monkeypatch, how
):
    """The process twin: the coordinator runs the root's place on a
    thread, which no fork may see alive — it starts after its attempt's
    forks and is joined before the next attempt's — and the run leaves
    no thread or child behind."""
    import multiprocessing.process as mp_process

    alive_at_fork, place_threads = [], []
    real_fork, real_thread = mp_process.BaseProcess.start, threading.Thread.start

    def fork(self):
        names = [t.name for t in threading.enumerate()]
        alive_at_fork.append([n for n in names if n.startswith("worker:")])
        real_fork(self)

    def thread(self):
        place_threads.append(self.name)
        real_thread(self)

    monkeypatch.setattr(mp_process.BaseProcess, "start", fork)
    monkeypatch.setattr(threading.Thread, "start", thread)
    prog, plan, streams, opts = _aborted_case(how)
    before = threading.active_count()
    run = run_on_backend("process", prog, plan, streams, options=opts)
    assert run.recovery.attempts >= 2
    assert (run.recovery.crashes if how == "crash" else run.reconfig.reconfigured)
    assert place_threads == [f"worker:{plan.root.id}"] * run.recovery.attempts
    assert len(alive_at_fork) >= run.recovery.attempts
    assert alive_at_fork == [[]] * len(alive_at_fork)
    _assert_nothing_left_behind(before)


@pytest.mark.parametrize("backend", ["threaded", "process"])
def test_a_drain_timeout_names_its_substrate_and_who_is_busy(backend):
    """ROADMAP 6c, first instalment: the one drain timeout says which
    substrate and which workers are still busy: on the in-process
    substrate, what its run queue holds and who holds work; on the
    forking ones, each worker not drained through the closing key,
    with its state or as silent when sent its stop frame."""

    def slow_update(state, event):
        time.sleep(0.2)
        return vb._update(state, event)

    # Each leaf's first batch is 10 value events at 0.2 s: one handler
    # call of ~2 s, past the 0.2 s budget plus the 1 s a stopped worker
    # is given to report.  (A worker that is merely behind reports at
    # its stop frame and is counted as stopped, not named.)
    prog, plan, streams = _vb_with_update(slow_update)
    before = threading.active_count()
    with pytest.raises(RuntimeFault) as err:
        run_on_backend(backend, prog, plan, streams, options=RunOptions(timeout_s=0.2))
    text = str(err.value)
    assert f"{backend} runtime did not drain within 0.2s" in text
    if backend == "threaded":
        assert "message(s) in flight" in text and " 0 message(s)" not in text
        for leaf in plan.leaves():
            assert repr(leaf.id) in text.split("no report from")[1]
            assert text.count(f"\n  worker {leaf.id}: ") == 1
    else:
        assert "not drained through the closing key" in text
        for leaf in plan.leaves():
            assert f"\n  worker {leaf.id}: silent" in text
    _assert_nothing_left_behind(before)


def test_a_handler_stuck_in_the_coordinators_place_still_times_out():
    """A handler that never returns on the root's first leaf, which the
    default placement runs on the coordinator's own thread: that thread
    cannot be killed, but the drain timeout still raises, within a few
    seconds of ``timeout_s``, naming the worker.  Once the handler
    returns, the place stops and nothing is left behind."""
    from repro.runtime.process import default_placement

    release = threading.Event()
    seen = {}

    def update(state, event):
        if seen["plan"].owner_of(event.itag).id == seen["stuck"]:
            release.wait(60.0)
        return vb._update(state, event)

    prog, plan, streams = _vb_with_update(update)
    stuck = plan.leaves()[0].id
    placement = default_placement(plan)
    assert placement[stuck] == placement[plan.root.id]
    seen.update(plan=plan, stuck=stuck)
    before = threading.active_count()
    t0 = time.monotonic()
    try:
        with pytest.raises(RuntimeFault) as err:
            run_on_backend("process", prog, plan, streams, options=RunOptions(timeout_s=1.0))
        assert time.monotonic() - t0 < 1.0 + 8.0
    finally:
        release.set()
    text = str(err.value)
    assert "process runtime did not drain within 1s" in text
    assert f"\n  worker {stuck}: silent" in text
    _assert_nothing_left_behind(before)

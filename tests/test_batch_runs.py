"""The columnar batch plane: :class:`EventRun`, producer-side
coalescing (:func:`coalesce_event_runs`), the mailbox's run-aware
release rules (whole-run, prefix split, cross-tag straddle split), and
``update_batch`` equivalence against the per-event fold.

The invariant under test everywhere: carrying packed columns through
the data plane must be *observationally identical* to shipping one
:class:`EventMsg` per event — same release order, same outputs, same
final state — or the fast path is a semantics change, not an
optimization.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import keycounter as kc
from repro.apps import value_barrier as vb
from repro.core import DependenceRelation, Event, ImplTag
from repro.core.errors import InputError
from repro.core.semantics import output_multiset
from repro.plans import root_and_leaves_plan
from repro.runtime import (
    CrashFault,
    FaultPlan,
    InputStream,
    Mailbox,
    RunOptions,
    every_root_join,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime.messages import EventMsg, EventRun, HeartbeatMsg
from repro.runtime.wire import (
    batch_message_count,
    coalesce_event_runs,
    event_runs,
    pack_frame,
    unpack_frame,
)


class StrTag(str):
    """Equal to its ``str``, but never on the codec's fast path."""


def vmsgs(n, tag="value", stream="v0", start=0, payload=lambda i: i):
    return [
        EventMsg(Event(tag, stream, float(start + i), payload=payload(i)))
        for i in range(n)
    ]


def one_run(msgs):
    """Coalesce and require the result to be a single run."""
    out = coalesce_event_runs(msgs)
    assert len(out) == 1 and type(out[0]) is EventRun
    return out[0]


def expand(batch):
    """Flatten runs back to per-event messages (the fallback boundary)."""
    out = []
    for m in batch:
        if type(m) is EventRun:
            out.extend(EventMsg(e) for e in m.events())
        else:
            out.append(m)
    return out


class TestEventRun:
    def test_keys_match_per_event_order_keys(self):
        msgs = vmsgs(5)
        run = one_run(msgs)
        assert run.keys() == [m.event.order_key for m in msgs]
        assert run.first_key == msgs[0].event.order_key
        assert run.last_key == msgs[-1].event.order_key
        assert run.itag == ImplTag("value", "v0")
        assert len(run) == 5

    def test_events_materialize_exactly(self):
        msgs = vmsgs(4)
        run = one_run(msgs)
        assert run.events() == [m.event for m in msgs]
        assert run.event(2) == msgs[2].event

    def test_split_preserves_route_columns_and_cached_keys(self):
        msgs = vmsgs(6)
        run = one_run(msgs)
        keys = run.keys()  # populate the cache before splitting
        a, b = run.split(2)
        assert (len(a), len(b)) == (2, 4)
        assert a.events() + b.events() == [m.event for m in msgs]
        assert a.keys() == keys[:2] and b.keys() == keys[2:]
        assert (a.itag, b.itag, a.shape) == (run.itag, run.itag, run.shape)

    def test_payloadless_run_has_no_payload_column(self):
        run = one_run(vmsgs(3, payload=lambda i: None))
        assert run.payloads is None
        assert [e.payload for e in run.events()] == [None, None, None]


class TestCoalesce:
    def test_homogeneous_stretch_becomes_one_run(self):
        msgs = vmsgs(8)
        assert expand(coalesce_event_runs(msgs)) == msgs

    def test_max_run_bounds_length(self):
        out = coalesce_event_runs(vmsgs(10), max_run=4)
        assert [len(r) for r in out] == [4, 4, 2]
        assert all(type(r) is EventRun for r in out)

    def test_route_change_breaks_the_run(self):
        msgs = vmsgs(3, stream="v0") + vmsgs(3, stream="v1", start=10)
        out = coalesce_event_runs(msgs)
        assert [type(m) for m in out] == [EventRun, EventRun]
        assert expand(out) == msgs

    def test_non_events_pass_through_in_order(self):
        hb = HeartbeatMsg(ImplTag("value", "v0"), (2.5,))
        msgs = vmsgs(3) + [hb] + vmsgs(3, start=10)
        out = coalesce_event_runs(msgs)
        assert [type(m) for m in out] == [EventRun, HeartbeatMsg, EventRun]
        assert expand(out) == msgs

    def test_exotic_shapes_stay_per_event(self):
        stringy = vmsgs(3, payload=lambda i: f"s{i}")
        assert coalesce_event_runs(stringy) == stringy
        huge = vmsgs(3, payload=lambda i: 2**70 + i)  # overflows i64 columns
        assert coalesce_event_runs(huge) == huge

    def test_single_event_is_not_wrapped(self):
        msgs = vmsgs(1)
        assert coalesce_event_runs(msgs) == msgs

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1 << 30), st.sampled_from([2, 3, 5, 512]))
    def test_mixed_traffic_packs_into_maximal_uniform_runs(self, seed, max_run):
        """Whatever the mix of routes, shapes and non-events: expanding
        gives back the input, a run is uniform in exact types and
        within ``max_run``, and no two neighbours could have been one
        run (so whole-window and event-by-event packing agree)."""
        rng = random.Random(seed)
        tags = ["a", "b", StrTag("a"), ("t", 1), ("t", True), ("t", 1.0), ("t", (1,))]
        streams = [0, 1, True, "s"]
        values = [None, 1, 2.5, "x", 1 << 70, -(1 << 63), True]
        msgs, sticky = [], rng.random()
        t, s, p, fl = "a", 0, 1, True
        for k in range(rng.randint(0, 40)):
            if rng.random() > sticky:
                t, s, p = rng.choice(tags), rng.choice(streams), rng.choice(values)
                fl = rng.random() < 0.7
            if rng.random() < 0.05:
                msgs.append(HeartbeatMsg(ImplTag("a", 0), (k,)))
            else:
                ts = float(k) if fl else (k if rng.random() < 0.95 else 1 << 65)
                msgs.append(EventMsg(Event(t, s, ts, p)))
        out = coalesce_event_runs(msgs, max_run=max_run)

        def signature(e):  # repr: the types inside a tuple tag count too
            return (type(e.tag), repr(e.tag), type(e.stream), e.stream, type(e.ts), type(e.payload))

        def packable(e):  # the frame codec's own verdict on this event
            (back, *_) = unpack_frame(pack_frame([EventMsg(e)] * 2), runs=True)
            return type(back) is EventRun

        flat = expand(out)
        assert flat == msgs
        assert [signature(m.event) for m in flat if type(m) is EventMsg] == [
            signature(m.event) for m in msgs if type(m) is EventMsg
        ]
        for a, b in zip(out, out[1:] + [None]):
            if type(a) is EventRun:
                assert 2 <= len(a) <= max_run
                assert len({signature(e) for e in a.events()}) == 1
                assert all(packable(e) for e in a.events())
            if b is None or HeartbeatMsg in (type(a), type(b)):
                continue
            last = a.events()[-1] if type(a) is EventRun else a.event
            nxt = b.events()[0] if type(b) is EventRun else b.event
            mergeable = (
                signature(last) == signature(nxt) and packable(last) and packable(nxt)
            )
            assert not mergeable or (type(a) is EventRun and len(a) == max_run)

    def test_wire_roundtrip_and_message_accounting(self):
        """A coalesced batch frames, counts, and decodes as its events."""
        msgs = vmsgs(7) + [HeartbeatMsg(ImplTag("value", "v0"), (99.0,))]
        batch = coalesce_event_runs(msgs)
        assert batch_message_count(batch) == 8
        assert expand(unpack_frame(pack_frame(batch), runs=True)) == msgs


class TestMailboxRuns:
    """Run-aware selective reordering: value events gated by a barrier
    tag (the paper's canonical dependence pattern)."""

    V = ImplTag("value", "v0")
    B = ImplTag("barrier", "s")
    DEP = DependenceRelation(
        ("value", "barrier"), {"barrier": ("barrier", "value")}
    )

    def mailbox(self):
        return Mailbox([self.V, self.B], self.DEP)

    @staticmethod
    def bkey(ts):
        return Event("barrier", "s", ts).order_key

    def test_heartbeat_releases_the_whole_run(self):
        mb = self.mailbox()
        run = one_run(vmsgs(5, start=1))
        assert mb.insert_run(run) == []  # barrier timer still at -inf
        assert mb.buffered_count(self.V) == 5
        (rel,) = mb.advance(self.B, self.bkey(50.0))
        assert rel.item is run and rel.key == run.first_key
        assert mb.buffered_count() == 0
        assert mb.timer(self.V) == run.last_key

    def test_partial_release_splits_at_the_dependence_bound(self):
        mb = self.mailbox()
        run = one_run(vmsgs(10, start=1))  # ts 1..10
        mb.insert_run(run)
        released = mb.advance(self.B, self.bkey(5.5))
        (prefix,) = released
        assert [e.ts for e in prefix.item.events()] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert mb.buffered_count(self.V) == 5
        (rest,) = mb.advance(self.B, self.bkey(50.0))
        assert [e.ts for e in rest.item.events()] == [6.0, 7.0, 8.0, 9.0, 10.0]
        assert mb.buffered_count() == 0

    def test_run_equivalent_to_per_event_inserts(self):
        """Same arrivals, run vs per-event: identical release schedule
        event by event."""
        msgs = vmsgs(10, start=1)
        schedules = []
        for columnar in (True, False):
            mb = self.mailbox()
            timeline = []

            def note(released):
                for b in released:
                    if type(b.item) is EventRun:
                        timeline.extend(e.ts for e in b.item.events())
                    elif type(b.item) is EventMsg:
                        timeline.append(b.item.event.ts)
                    else:
                        timeline.append(b.item)

            if columnar:
                note(mb.insert_run(one_run(msgs)))
            else:
                for m in msgs:
                    note(mb.insert(self.V, m.event.order_key, m))
            note(mb.advance(self.B, self.bkey(4.5)))
            note(mb.insert(self.B, self.bkey(7.5), "BARRIER"))
            note(mb.advance(self.B, self.bkey(50.0)))
            schedules.append(timeline)
        assert schedules[0] == schedules[1]

    def test_full_length_run_splits_mid_run_where_per_event_would(self):
        """The closed-loop pump's unit of traffic: a 512-event run met
        by a dependency frontier that lands inside it releases exactly
        the events the per-event path releases, step by step."""
        msgs = vmsgs(512, start=1)  # ts 1..512
        run = one_run(msgs)
        assert len(run) == 512
        steps = [self.bkey(200.5), self.bkey(200.75), self.bkey(201.0), self.bkey(1e9)]
        timelines = []
        for columnar in (True, False):
            mb = self.mailbox()
            released = []
            if columnar:
                released.append(mb.insert_run(run))
            else:
                released.append(
                    [b for m in msgs for b in mb.insert(self.V, m.event.order_key, m)]
                )
            released += [mb.advance(self.B, key) for key in steps]
            timelines.append(
                [
                    [
                        e.ts
                        for b in step
                        for e in (
                            b.item.events()
                            if type(b.item) is EventRun
                            else [b.item.event]
                        )
                    ]
                    for step in released
                ]
            )
            assert mb.buffered_count() == 0
        assert timelines[0] == timelines[1]
        # A frontier at ts 201.0 sorts before the value event of the
        # same timestamp ("barrier" < "value"), so it releases nothing.
        assert [len(step) for step in timelines[0]] == [0, 200, 0, 0, 312]

    def test_non_monotone_run_is_rejected(self):
        mb = self.mailbox()
        mb.insert_run(one_run(vmsgs(3, start=5)))
        with pytest.raises(InputError, match="non-monotone"):
            mb.insert_run(one_run(vmsgs(3, start=1)))

    def test_straddle_split_restores_global_order(self):
        """Asymmetric dependence: a released run may span another tag's
        released item; the mailbox must split it so the batch reads in
        global key order, exactly as per-event release would."""
        A, C, B = ImplTag("a", 0), ImplTag("c", 0), ImplTag("b", 0)
        dep = DependenceRelation(("a", "b", "c"), {"b": ("a", "c")})
        mb = Mailbox([A, C, B], dep)
        a_run = one_run(
            [EventMsg(Event("a", 0, float(t), payload=t)) for t in range(1, 11)]
        )
        assert mb.insert_run(a_run) == []
        c_ev = Event("c", 0, 5.5, payload="c")
        assert mb.insert(C, c_ev.order_key, EventMsg(c_ev)) == []
        released = mb.advance(B, Event("b", 0, 50.0).order_key)
        flat = []
        for b in released:
            if type(b.item) is EventRun:
                flat.extend((e.ts, e.tag) for e in b.item.events())
            else:
                flat.append((b.item.event.ts, b.item.event.tag))
        assert flat == sorted(flat), "release order must be global key order"
        assert (5.5, "c") in flat
        assert [b.key for b in released] == sorted(b.key for b in released)


def fold_per_event(update, state, run):
    outs = []
    for e in run.events():
        state, emitted = update(state, e)
        outs.extend(emitted)
    return state, outs


class TestUpdateBatchEquivalence:
    def test_value_barrier_value_run(self):
        run = one_run(vmsgs(9, payload=lambda i: i * 3))
        s_batch, indexed = vb._update_batch(7, run)
        s_fold, outs = fold_per_event(vb._update, 7, run)
        assert s_batch == s_fold
        assert [o for _, o in indexed] == outs == []

    def test_value_barrier_barrier_run(self):
        run = one_run(
            [EventMsg(Event("barrier", "s", float(t))) for t in (1, 2, 3)]
        )
        s_batch, indexed = vb._update_batch(41, run)
        s_fold, outs = fold_per_event(vb._update, 41, run)
        assert s_batch == s_fold == 0
        assert [o for _, o in indexed] == outs
        assert [i for i, _ in indexed] == [0, 1, 2]

    def test_keycounter_increment_run(self):
        run = EventRun(("i", 0), 0, 0, (1.0, 2.0, 3.0), (2, 3, 4))
        s_batch, indexed = kc._update_batch({0: 1}, run)
        s_fold, outs = fold_per_event(kc._update, {0: 1}, run)
        assert kc.state_eq(s_batch, s_fold)
        assert [o for _, o in indexed] == outs == []

    def test_keycounter_payloadless_increment_run_counts_ones(self):
        run = EventRun(("i", 1), 0, 0, (1.0, 2.0, 3.0), None)
        s_batch, _ = kc._update_batch({}, run)
        s_fold, _ = fold_per_event(kc._update, {}, run)
        assert kc.state_eq(s_batch, s_fold)

    def test_keycounter_read_reset_run_keeps_per_event_semantics(self):
        """First read observes the count, later reads in the same run
        observe zero — the batch path may not collapse them."""
        run = EventRun(("r", 0), 0, 0, (1.0, 2.0), None)
        s_batch, indexed = kc._update_batch({0: 9}, run)
        s_fold, outs = fold_per_event(kc._update, {0: 9}, run)
        assert kc.state_eq(s_batch, s_fold)
        assert [o for _, o in indexed] == outs == [(0, 9), (0, 0)]


@pytest.mark.parametrize("backend", ["threaded", "process"])
def test_keycounter_leaf_crash_mid_run_is_exactly_once(backend):
    """Keyed (tuple-tag) traffic reaches a leaf as runs; an armed fault
    expands them back to the per-event crash seam, so a crash in the
    middle of a run loses nothing and repeats nothing."""
    prog = kc.make_program(1)
    incs = [ImplTag(kc.inc_tag(0), f"i{s}") for s in range(2)]
    rit = ImplTag(kc.reset_tag(0), "r")
    plan = root_and_leaves_plan(prog, [rit], [[t] for t in incs])
    streams = [
        InputStream(
            t,
            tuple(Event(t.tag, t.stream, k + 0.1 * (s + 1), k) for k in range(1, 60)),
            heartbeat_interval=5.0,
        )
        for s, t in enumerate(incs)
    ]
    resets = tuple(Event(rit.tag, rit.stream, float(ts)) for ts in (15, 30, 45))
    streams.append(InputStream(rit, resets, heartbeat_interval=5.0))
    # What the pump posts for a leaf is one run, far longer than the
    # stretch between two resets...
    (run,) = event_runs(list(streams[0].events))
    assert type(run) is EventRun and len(run) == 59 and run.tag == ("i", 0)
    # ...and the crash lands inside it: after the second snapshot, 7
    # events into the stretch the mailbox released behind it.
    leaf = plan.leaves()[0].id
    out = run_on_backend(
        backend,
        prog,
        plan,
        streams,
        options=RunOptions(
            fault_plan=FaultPlan(CrashFault(leaf, after_events=36)),
            checkpoint_predicate=every_root_join(),
        ),
    )
    ref = run_sequential_reference(prog, streams)
    assert output_multiset(out.outputs) == output_multiset(ref)
    assert out.recovery.attempts == 2
    assert [c.worker for c in out.recovery.crashes] == [leaf]
    assert out.recovery.recoveries[0].resumed_from_ts == 30.0

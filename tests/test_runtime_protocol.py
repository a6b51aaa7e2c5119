"""The one worker protocol (repro.runtime.protocol) on its own: a lone
WorkerCore fed out-of-protocol messages raises typed errors that name
the worker and its state, and the producer schedule every substrate
shares starts its heartbeat grid at the attempt, not at timestamp 0."""

import pytest

from repro.apps import value_barrier as vb
from repro.core import Event, ImplTag
from repro.core.errors import RuntimeFault
from repro.runtime import InputStream
from repro.runtime.messages import (
    EventMsg,
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
    start_timestamp,
)


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
        stray = JoinResponse((root.node.id, 99), "left", 0, 1.0)
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
        fork = ForkStateMsg((root.node.id, 1), 0, 1.0)
        with pytest.raises(RuntimeFault) as err:
            root.handle(fork)
        assert f"worker {root.node.id}" in str(err.value)
        assert "fork state without absorption" in str(err.value)
        leaf.state, leaf.has_state = 0, True
        with pytest.raises(RuntimeFault) as err:
            leaf.handle(fork)
        assert "fork state without absorption" in str(err.value)
        assert "absorbed=False" in str(err.value) and repr(fork) in str(err.value)


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

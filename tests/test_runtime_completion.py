"""Completion by frontier on the forking substrates.

A worker announces *done* once it has pumped its own input and its
core has drained through the attempt's closing key; the coordinator
finishes when every worker has announced.

* the drained-through predicate, on a hand-driven root and two leaves;
* each worker announces done exactly once per attempt, on closed,
  paced and ``nodes=2`` runs;
* a stalled attempt fails at its drain timeout, naming every worker
  that has not announced with the protocol state its report carries
  (the twins of the in-process substrate's stall test).
"""

import time
from collections import Counter, deque

import pytest

from repro.apps import value_barrier as vb
from repro.core.errors import RuntimeFault
from repro.core.semantics import output_multiset
from repro.runtime import RunOptions, run_on_backend, run_sequential_reference
from repro.runtime import process as runtime_process
from repro.runtime.messages import HeartbeatMsg
from repro.runtime.protocol import (
    OutputSink,
    WorkerCore,
    end_timestamp,
    initial_leaf_states,
    producer_messages,
)
from repro.runtime.transport import ControlPlane

#: The forking substrates: the default placement, and node agents.
FORKING = {"process": {}, "nodes=2": {"nodes": 2}}


class _Tree:
    """The value-barrier plan's root and two leaves, each message
    delivered by hand, FIFO per worker.  Each stream is two events (a
    barrier after the values) and its closing heartbeat."""

    def __init__(self):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=2, n_barriers=1)
        self.plan = plan = vb.make_plan(prog, wl)
        self.inbox = {n.id: deque() for n in plan.workers()}
        self.cores = {
            n.id: WorkerCore(
                n, plan, prog, lambda dst, msg: self.inbox[dst].append(msg), OutputSink()
            )
            for n in plan.workers()
        }
        for wid, state in initial_leaf_states(plan, prog).items():
            self.cores[wid].state, self.cores[wid].has_state = state, True
        streams = vb.make_streams(wl, heartbeat_interval=None)
        self.end = end_timestamp(streams)
        self.itags = {s.itag for s in streams}
        self.barrier = wl.barrier_itag
        self.root = plan.root.id
        self.leaves = [n.id for n in plan.leaves()]
        #: Each stream's producer messages, by owner: events first, the
        #: closing heartbeat last.
        self.own = {
            s.itag: (plan.owner_of(s.itag).id, producer_messages(s, self.end))
            for s in streams
        }

    def feed(self, itag, closing: bool) -> None:
        """Post ``itag``'s events, or its closing heartbeat, to its owner."""
        owner, msgs = self.own[itag]
        self.inbox[owner].extend(msgs[-1:] if closing else msgs[:-1])

    def run(self) -> None:
        """Deliver until every inbox is empty."""
        while any(self.inbox.values()):
            for wid, box in self.inbox.items():
                while box:
                    self.cores[wid].handle(box.popleft())

    def drained(self, itags=None):
        itags = self.itags if itags is None else itags
        return {wid: c.drained_through(self.end, itags) for wid, c in self.cores.items()}


def test_the_drained_through_predicate():
    t = _Tree()
    left, right = t.leaves
    (v_left,) = t.plan.node(left).itags
    (v_right,) = t.plan.node(right).itags
    assert not any(t.drained().values())

    # Every event, no closing heartbeat: the root's join waits on both
    # leaves, whose join requests sit buffered behind their value timers.
    for itag in t.own:
        t.feed(itag, closing=False)
    t.run()
    root = t.cores[t.root]
    assert root.blocked and root.pending == deque()
    assert all(t.cores[w].mailbox.buffered_count() == 1 for w in t.leaves)
    assert t.drained() == {t.root: False, left: False, right: False}

    # One leaf's closing heartbeat: it answers and is absorbed; the
    # root still awaits the other, which still buffers its request.
    t.feed(v_left, closing=True)
    t.run()
    assert not t.cores[left].has_state and root._current is not None
    assert t.drained() == {t.root: False, left: False, right: False}

    # The other's: the join completes and forks back down.  The root's
    # barrier timer stops at the barrier, short of the closing key, and
    # so does the frontier it relayed to the leaves.
    t.feed(v_right, closing=True)
    t.run()
    assert not root.blocked and all(t.cores[w].has_state for w in t.leaves)
    assert all(c.unprocessed() == 0 for c in t.cores.values())
    assert t.drained() == {t.root: False, left: False, right: False}
    # A tag without a stream in the attempt is ignored.
    assert all(t.drained(t.itags - {t.barrier}).values())

    # The barrier's closing heartbeat drains the root, and its relay
    # the leaves.
    t.feed(t.barrier, closing=True)
    t.run()
    assert all(t.drained().values())

    # Drained stays drained: a late heartbeat moves nothing.
    for wid in t.leaves:
        (v,) = t.plan.node(wid).itags
        t.inbox[wid].append(HeartbeatMsg(v, t.own[v][1][0].event.order_key))
    t.inbox[t.root].append(t.own[t.barrier][1][-1])
    t.run()
    assert all(t.drained().values())


class _Tap(deque):
    """A control plane's announcement queue that remembers everything
    the coordinator read off the children's sockets."""

    def __init__(self):
        super().__init__()
        self.said = []

    def append(self, item):
        self.said.append(item)
        super().append(item)


@pytest.fixture
def announcements(monkeypatch):
    """Every attempt's announcement queue, in the order made."""
    taps = []

    class Recording(ControlPlane):
        def __init__(self, ctx):
            super().__init__(ctx)
            self._ready = _Tap()
            taps.append(self._ready)

    monkeypatch.setattr(runtime_process, "ControlPlane", Recording)
    return taps


@pytest.mark.parametrize(
    "substrate, pace",
    [("process", None), ("process", 2000.0), ("nodes=2", None)],
    ids=["closed", "paced", "nodes=2"],
)
def test_each_worker_announces_done_once(announcements, substrate, pace):
    prog = vb.make_program()
    wl = vb.make_workload(n_value_streams=2, values_per_barrier=20, n_barriers=4)
    plan, streams = vb.make_plan(prog, wl), vb.make_streams(wl)
    run = run_on_backend(
        "process", prog, plan, streams,
        options=RunOptions(pace=pace, timeout_s=30.0, **FORKING[substrate]),
    )
    assert output_multiset(run.outputs) == output_multiset(
        run_sequential_reference(prog, streams)
    )
    # Every record a worker sends precedes its report on its socket,
    # and the attempt returned with every report in: nothing is unread.
    (tap,) = announcements
    assert Counter(tap.said) == Counter((n.id, "done") for n in plan.workers())


@pytest.mark.parametrize("substrate", sorted(FORKING))
def test_a_stall_names_each_stuck_workers_protocol_state(monkeypatch, substrate):
    """The forking twins of the in-process substrate's stall test
    (test_threaded_runtime.py): a value stream whose closing heartbeat
    is dropped at the pump never vouches for the last barrier's key.
    No worker drains, so the attempt fails at its drain timeout, and
    every worker's report names its state."""
    prog = vb.make_program()
    wl = vb.make_workload(n_value_streams=2, values_per_barrier=10, n_barriers=2)
    plan = vb.make_plan(prog, wl)
    # No heartbeat grid: the closing heartbeat is each stream's only one.
    streams = vb.make_streams(wl, heartbeat_interval=None)
    victim = next(s for s in streams if s.itag != wl.barrier_itag)
    real = runtime_process.pump_producers  # the forked workers' call site

    def dropping(plan, streams, post, **kwargs):
        def filtered(dst, msg):
            if not (type(msg) is HeartbeatMsg and msg.itag == victim.itag):
                post(dst, msg)

        return real(plan, streams, filtered, **kwargs)

    monkeypatch.setattr(runtime_process, "pump_producers", dropping)
    t0 = time.monotonic()
    with pytest.raises(RuntimeFault) as err:
        run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(timeout_s=2.0, **FORKING[substrate]),
        )
    assert time.monotonic() - t0 < 20.0
    text = str(err.value)
    name = "cluster" if substrate == "nodes=2" else "process"
    assert f"{name} runtime did not drain within 2s" in text
    assert "3 of 3 worker(s) not drained through the closing key" in text
    assert "no report from []" in text
    lines = {
        line.split(":", 1)[0].strip(): line
        for line in text.splitlines()
        if line.startswith("  worker ")
    }
    assert len(lines) == 3
    stuck = plan.owner_of(victim.itag).id
    (other,) = [n.id for n in plan.leaves() if n.id != stuck]
    last_barrier = wl.barrier_stream[-1]
    root = lines[f"worker {plan.root.id}"]
    assert "blocked=True, absorbed=False" in root
    assert f"outstanding join=({plan.root.id!r}, 2) at key {last_barrier.order_key}" in root
    leaf = lines[f"worker {stuck}"]
    assert "blocked=False, absorbed=False, outstanding join=None" in leaf
    assert f"buffered {{{wl.barrier_itag!r}: 1}}" in leaf
    # The diagnosis: the value timer stops short of the join's key.
    assert f"{victim.itag!r}: {victim.events[-1].order_key}" in leaf
    assert "blocked=True, absorbed=True" in lines[f"worker {other}"]


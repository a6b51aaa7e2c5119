"""Tests for the process-based runtime: the same protocol across OS
processes with batched channels must match the sequential spec, for
arbitrary P-valid plans — and the backend registry every substrate is
reached through."""

import gc
import multiprocessing.process as mp_process
import os
import random
import threading
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.apps import keycounter as kc, value_barrier as vb
from repro.core import Event, ImplTag
from repro.core.errors import PlanError, RuntimeFault
from repro.plans import PlanNode, SyncPlan, random_valid_plan, sequential_plan
from repro.plans.optimizer import StreamInfo, optimize
from repro.runtime import (
    InputStream,
    RunOptions,
    available_backends,
    get_backend,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime import process
from repro.runtime.options import ServeOptions
from repro.runtime.process import default_placement
from repro.runtime.messages import (
    EventMsg,
    ForkStateMsg,
    HeartbeatMsg,
    JoinRequest,
    JoinResponse,
)
from repro.runtime.protocol import initial_leaf_states
from repro.runtime.transport import STOP
from repro.runtime.wire import pack_frame, unpack_frame


def spec_multiset(prog, streams):
    return Counter(map(repr, run_sequential_reference(prog, streams)))


#: Every substrate, as (backend, deployment fields).
SUBSTRATES = {
    "sim": ("sim", {}),
    "threaded": ("threaded", {}),
    "process": ("process", {}),
    "nodes=2": ("process", {"nodes": 2}),
}


class TestWireCodec:
    MSGS = [
        EventMsg(Event("v", 0, 3, payload=(1, {"a": 2}))),
        EventMsg(Event(("compound", 1), "s9", 7)),
        HeartbeatMsg(ImplTag("b", "s"), (5.0, ("str", "b"), ("str", "s"))),
        JoinRequest(("root", 3), ImplTag("b", "s"), (2.0,), "root", "left"),
        JoinResponse(("root", 3), "right", {"k": 1}),
        ForkStateMsg(("root", 3), (0, 7)),
    ]

    @pytest.mark.parametrize("msg", MSGS, ids=lambda m: type(m).__name__)
    def test_roundtrip(self, msg):
        assert unpack_frame(pack_frame([msg])) == [msg]

    def test_batch_roundtrip(self):
        assert unpack_frame(pack_frame(self.MSGS)) == self.MSGS

    def test_unknown_rejected(self):
        with pytest.raises(RuntimeFault):
            pack_frame([object()])
        with pytest.raises(RuntimeFault):
            unpack_frame(b"\x01\x00\x00\x00\x7f")

    def test_events_pickle_compactly(self):
        # __reduce__ keeps frozen slots dataclasses picklable on every
        # supported Python and drops the per-instance attribute names.
        import pickle

        e = Event("v", 0, 5, payload=(1, 2))
        assert pickle.loads(pickle.dumps(e)) == e
        assert len(pickle.dumps(e)) < 70


class TestProcessValueBarrier:
    def test_matches_spec(self):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=4, values_per_barrier=40, n_barriers=4)
        streams = vb.make_streams(wl)
        res = run_on_backend("process", prog, vb.make_plan(prog, wl), streams)
        assert res.output_multiset() == spec_multiset(prog, streams)
        assert res.events_in == sum(len(s.events) for s in streams)
        assert res.wall_s > 0

    def test_join_counting(self):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=4, values_per_barrier=20, n_barriers=3)
        plan = vb.make_plan(prog, wl)
        res = run_on_backend("process", prog, plan, vb.make_streams(wl))
        assert res.joins == len(plan.internal()) * len(wl.barrier_stream)

    def test_sequential_plan_single_process(self):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=20, n_barriers=3)
        streams = vb.make_streams(wl)
        itags = [it for it, _ in wl.all_streams()]
        res = run_on_backend("process", prog, sequential_plan(prog, itags), streams)
        assert res.output_multiset() == spec_multiset(prog, streams)
        assert res.joins == 0

    def test_empty_streams(self):
        prog = kc.make_program(1)
        it = ImplTag(kc.inc_tag(0), 0)
        streams = [InputStream(it, (), heartbeat_interval=None)]
        res = run_on_backend("process", prog, sequential_plan(prog, [it]), streams)
        assert res.outputs == [] and res.events_processed == 0

    def test_worker_crash_is_surfaced(self):
        def bad_update(state, event):
            raise ValueError("injected fault")

        from repro.core.dependence import DependenceRelation
        from repro.core.program import single_state_program

        prog = single_state_program(
            name="faulty",
            tags=("a",),
            depends=DependenceRelation.from_function(("a",), lambda x, y: True),
            init=lambda: 0,
            update=bad_update,
            fork=lambda s, p1, p2: (s, 0),
            join=lambda a, b: a + b,
        )
        it = ImplTag("a", 0)
        streams = [
            InputStream(it, (Event("a", 0, 1.0),), heartbeat_interval=None)
        ]
        with pytest.raises(RuntimeFault, match="crashed|drain"):
            run_on_backend(
                "process",
                prog,
                sequential_plan(prog, [it]),
                streams,
                options=RunOptions(timeout_s=15.0),
            )


class TestProcessRandomPlans:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_plan_matches_spec(self, seed):
        rng = random.Random(seed)
        nkeys = rng.choice([1, 2])
        prog = kc.make_program(nkeys)
        itags = []
        for k in range(nkeys):
            itags.append(ImplTag(kc.inc_tag(k), f"i{k}"))
            itags.append(ImplTag(kc.reset_tag(k), f"r{k}"))
        events = {it: [] for it in itags}
        for t in range(1, 70):
            it = itags[rng.randrange(len(itags))]
            events[it].append(Event(it.tag, it.stream, float(t)))
        streams = [
            InputStream(it, tuple(events[it]), heartbeat_interval=5.0)
            for it in itags
        ]
        plan = random_valid_plan(prog, itags, rng)
        res = run_on_backend("process", prog, plan, streams)
        assert res.output_multiset() == spec_multiset(prog, streams), plan.pretty()


def _places(placement):
    """The placement's places in order, each as its list of workers."""
    places = {}
    for wid, place in placement.items():
        places.setdefault(place, []).append(wid)
    return list(places.values())


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _six_leaf_plan():
    prog = vb.make_program()
    wl = vb.make_workload(n_value_streams=6, values_per_barrier=5, n_barriers=2)
    return vb.make_plan(prog, wl)


class TestDefaultPlacement:
    """Without ``nodes=``, the leaves in depth-first order split into
    ``min(#leaves, max(2, CPUs))`` contiguous places, each internal node
    joins its first leaf's place, and the root's place is named after
    the root (the coordinator runs it)."""

    def test_the_hand_plan(self, monkeypatch):
        _cpus(monkeypatch, 2)
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=5, n_barriers=2)
        assert default_placement(vb.make_plan(prog, wl)) == {"w1": "w1", "w2": "w1", "w3": "w3"}

    def test_the_optimizers_keycounter_plan(self, monkeypatch):
        """The root with key 0's subtree, then key 1's subtree."""
        _cpus(monkeypatch, 2)
        prog = kc.make_program(2)
        tags = [ImplTag(kc.reset_tag(k), "r") for k in range(2)] + [
            ImplTag(kc.inc_tag(k), f"i{s}") for s in range(2) for k in range(2)
        ]
        plan = optimize(prog, [StreamInfo(t, 1, f"h_{t.stream}") for t in tags])
        key0, key1 = plan.root.children
        assert _places(default_placement(plan)) == [
            [plan.root.id, key0.id, *(c.id for c in key0.children)],
            [key1.id, *(c.id for c in key1.children)],
        ]

    @pytest.mark.parametrize("cpus, n_places", [(1, 2), (2, 2), (3, 3), (8, 6)])
    def test_six_leaves_split_into_contiguous_places(self, monkeypatch, cpus, n_places):
        _cpus(monkeypatch, cpus)
        plan = _six_leaf_plan()
        placement = default_placement(plan)
        leaves = [n.id for n in plan.leaves()]
        assert len(set(placement.values())) == n_places
        blocks = [placement[leaf] for leaf in leaves]
        assert blocks == sorted(blocks, key=blocks.index)  # contiguous
        assert Counter(blocks).most_common()[-1][1] == len(leaves) // n_places
        for node in plan.workers():
            first = node
            while not first.is_leaf:
                first = first.children[0]
            assert placement[node.id] == placement[first.id]
        assert placement[plan.root.id] == plan.root.id

    def test_a_one_leaf_plan_is_one_forked_place(self, monkeypatch):
        """No thread in the coordinator: its only place is forked."""
        _cpus(monkeypatch, 8)
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=10, n_barriers=2)
        streams = vb.make_streams(wl)
        plan = sequential_plan(prog, [s.itag for s in streams])
        assert default_placement(plan) == {"w1": "w1"}
        forked, threads = [], []
        real_fork, real_thread = mp_process.BaseProcess.start, threading.Thread.start
        monkeypatch.setattr(
            mp_process.BaseProcess, "start", lambda p: (forked.append(p.name), real_fork(p))
        )
        monkeypatch.setattr(
            threading.Thread, "start", lambda t: (threads.append(t.name), real_thread(t))
        )
        run = run_on_backend("process", prog, plan, streams)
        assert run.output_multiset() == spec_multiset(prog, streams)
        assert (forked, threads) == (["worker:w1"], [])


@pytest.mark.parametrize("backend", ["threaded", "process"])
def test_a_place_is_freed_without_the_cycle_collector(monkeypatch, backend):
    """With the cyclic collector off, each place this process built
    (``threaded``'s one place, the root's place on ``process``) is gone
    once the run returns, and so are its workers' cores, which hold the
    plan, the program and the sinks: no sender refers back to them."""
    _cpus(monkeypatch, 2)
    refs = []
    real = process._Place.__init__

    def init(self, *args):
        real(self, *args)
        refs.extend(map(weakref.ref, [self, *(w.core for w in self.workers.values())]))

    monkeypatch.setattr(process._Place, "__init__", init)
    prog = vb.make_program()
    wl = vb.make_workload(n_value_streams=2, values_per_barrier=10, n_barriers=2)
    streams = vb.make_streams(wl)
    gc.collect()
    gc.disable()
    try:
        run = run_on_backend(backend, prog, vb.make_plan(prog, wl), streams)
        alive = [r() is not None for r in refs]
    finally:
        gc.enable()
    assert run.output_multiset() == spec_multiset(prog, streams)
    assert alive and not any(alive), alive


@pytest.mark.parametrize("backend", ["threaded", "process"])
def test_a_run_leaves_no_cycle_for_the_collector(monkeypatch, backend):
    """With the cyclic collector off, one run leaves nothing that only
    the collector could free: the initial leaf states are forked
    without a self-referencing closure."""
    _cpus(monkeypatch, 2)
    prog = vb.make_program()
    wl = vb.make_workload(n_value_streams=2, values_per_barrier=10, n_barriers=2)
    streams = vb.make_streams(wl)
    plan = vb.make_plan(prog, wl)
    gc.collect()
    gc.disable()
    try:
        run = run_on_backend(backend, prog, plan, streams)
        found = gc.collect()
    finally:
        gc.enable()
    assert run.output_multiset() == spec_multiset(prog, streams)
    assert found == 0


def test_the_initial_leaf_states_are_forked_left_subtree_first():
    plan = _six_leaf_plan()
    states = initial_leaf_states(plan, vb.make_program())
    assert list(states) == [n.id for n in plan.leaves()]


class _FakeInbox:
    """A receiver on a fake clock (``now``): each non-blocking poll
    takes ``poll_s`` and returns the next of ``batches`` (None once none
    is left); a receive that may block returns ``STOP`` at once.
    Records ``(timeout, now)`` per call."""

    def __init__(self, batches=(), poll_s=0.0):
        self.batches = list(batches)
        self.poll_s = poll_s
        self.now = 0.0
        self.calls = []

    def __call__(self, timeout=None):
        self.calls.append((timeout, self.now))
        if timeout != 0:
            return STOP
        self.now += self.poll_s
        return self.batches.pop(0) if self.batches else None


class TestJoinSpin:
    """A place's wait on its inbox (``process._wait``): while a hosted
    worker has a join outstanding it polls without blocking, yielding
    between polls, for at most ``JOIN_SPIN_S``, then parks."""

    BUDGET = process.JOIN_SPIN_S
    BLOCKED = [SimpleNamespace(blocked=False), SimpleNamespace(blocked=True)]
    FREE = [SimpleNamespace(blocked=False), SimpleNamespace(blocked=False)]

    @pytest.fixture
    def yields(self, monkeypatch):
        count = [0]

        def sched_yield():
            count[0] += 1

        monkeypatch.setattr(process.os, "sched_yield", sched_yield)
        return count

    @staticmethod
    def _wait(monkeypatch, inbox, cores, *timeout):
        """``process._wait`` with the inbox's clock as its own."""
        monkeypatch.setattr(process, "time", SimpleNamespace(monotonic=lambda: inbox.now))
        return process._wait(inbox, cores, *timeout)

    def test_a_batch_within_the_budget_is_taken_by_polls(self, monkeypatch, yields):
        batch = ("w2", ["msg"])
        inbox = _FakeInbox([None, None, batch], poll_s=self.BUDGET / 10)
        assert self._wait(monkeypatch, inbox, self.BLOCKED) is batch
        assert [timeout for timeout, _ in inbox.calls] == [0, 0, 0]
        assert yields[0] == 2

    @pytest.mark.parametrize("timeout", [None, 0.5])
    def test_no_blocked_core_parks_at_once(self, monkeypatch, yields, timeout):
        inbox = _FakeInbox([("w2", ["msg"])])
        assert self._wait(monkeypatch, inbox, self.FREE, timeout) is STOP
        assert inbox.calls == [(timeout, 0.0)]
        assert yields[0] == 0

    def test_a_wait_that_may_not_block_does_not_spin(self, monkeypatch, yields):
        inbox = _FakeInbox([("w2", ["msg"])])
        assert self._wait(monkeypatch, inbox, self.BLOCKED, 0) == ("w2", ["msg"])
        assert inbox.calls == [(0, 0.0)]
        assert yields[0] == 0

    @pytest.mark.parametrize("timeout", [None, 10.0])
    def test_a_spin_that_finds_nothing_parks_within_the_budget(self, monkeypatch, yields, timeout):
        """Every poll starts within the budget, so the park follows the
        budget by at most one poll, with what is left of the timeout."""
        poll_s = self.BUDGET / 8
        inbox = _FakeInbox(poll_s=poll_s)
        assert self._wait(monkeypatch, inbox, self.BLOCKED, timeout) is STOP
        *polls, (parked, at) = inbox.calls
        assert polls and all(t == 0 and now < self.BUDGET for t, now in polls)
        assert self.BUDGET <= at < self.BUDGET + poll_s
        assert yields[0] == len(polls) - 1
        assert parked == (None if timeout is None else pytest.approx(timeout - at))

    def test_a_timeout_inside_the_budget_ends_the_spin(self, monkeypatch, yields):
        timeout = self.BUDGET / 4
        inbox = _FakeInbox(poll_s=self.BUDGET / 10)
        assert self._wait(monkeypatch, inbox, self.BLOCKED, timeout) is None
        assert inbox.calls and all(t == 0 and now < timeout for t, now in inbox.calls)
        assert inbox.now >= timeout


class TestBackendRegistry:
    def test_available(self):
        assert available_backends() == ("process", "sim", "threaded")

    def test_unknown_rejected(self):
        with pytest.raises(RuntimeFault, match="unknown runtime backend"):
            get_backend("gpu")

    @pytest.mark.parametrize("name", ["sim", "threaded", "process"])
    def test_uniform_run(self, name):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=20, n_barriers=2)
        streams = vb.make_streams(wl)
        run = run_on_backend(name, prog, vb.make_plan(prog, wl), streams)
        assert run.backend == name
        assert run.output_multiset() == spec_multiset(prog, streams)
        assert run.events_in == sum(len(s.events) for s in streams)
        assert run.raw is not None

    @pytest.mark.parametrize("broken", ["invalid_plan", "unowned_stream"])
    @pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
    def test_bad_input_is_a_plan_error_before_any_process_starts(
        self, monkeypatch, substrate, broken
    ):
        """The backend checks every attempt once, in the caller, on
        every substrate: a plan that is not P-valid, and a stream no
        worker owns, raise ``PlanError`` and fork nothing."""
        started = []
        monkeypatch.setattr(mp_process.BaseProcess, "start", lambda p: started.append(p))
        prog = kc.make_program(1)
        inc, reset = ImplTag(kc.inc_tag(0), 0), ImplTag(kc.reset_tag(0), 1)
        streams = [InputStream(inc, (Event(inc.tag, inc.stream, 1.0),))]
        if broken == "invalid_plan":
            # inc and reset depend on each other but sit on sibling leaves.
            a = PlanNode("a", "State0", frozenset({inc}))
            b = PlanNode("b", "State0", frozenset({reset}))
            plan = SyncPlan(PlanNode("r", "State0", frozenset(), (a, b)))
        else:
            plan = sequential_plan(prog, [reset])
        backend, deploy = SUBSTRATES[substrate]
        with pytest.raises(PlanError):
            run_on_backend(backend, prog, plan, streams, options=RunOptions(**deploy))
        assert started == []

    @pytest.mark.parametrize(
        "backend, fields",
        [
            ("sim", {"transport": "tcp"}),
            ("sim", {"nodes": 2}),
            ("threaded", {"transport": "bogus"}),
            ("threaded", {"nodes": 2}),
            ("threaded", {"placement": {"w": "node0"}}),
            ("process", {"placement": {"w": "node0"}}),
            ("process", {"nodes": 2, "transport": "pipe"}),
        ],
        ids=lambda v: v if isinstance(v, str) else ",".join(v),
    )
    def test_a_deployment_field_the_backend_never_reads_is_refused(self, backend, fields):
        """Refused at once, naming the field, on the run and on the
        service options alike: no substrate ignores it silently."""
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=5, n_barriers=2)
        opts = RunOptions(**fields)
        with pytest.raises(RuntimeFault, match="transport=|nodes=|placement="):
            run_on_backend(backend, prog, vb.make_plan(prog, wl), vb.make_streams(wl), options=opts)
        with pytest.raises(RuntimeFault):
            ServeOptions(backend=backend, run=opts)

"""Tests for the process-based runtime: the same protocol across OS
processes with batched channels must match the sequential spec, for
every batch size and for arbitrary P-valid plans."""

import random
from collections import Counter

import pytest

from repro.apps import keycounter as kc, value_barrier as vb
from repro.core import Event, ImplTag
from repro.core.errors import RuntimeFault
from repro.plans import random_valid_plan, sequential_plan
from repro.runtime import (
    InputStream,
    available_backends,
    get_backend,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime.messages import (
    EventMsg,
    ForkStateMsg,
    HeartbeatMsg,
    JoinRequest,
    JoinResponse,
)
from repro.runtime.process import ProcessRuntime
from repro.runtime.wire import decode_batch, decode_msg, encode_batch, encode_msg


def spec_multiset(prog, streams):
    return Counter(map(repr, run_sequential_reference(prog, streams)))


class TestWireCodec:
    MSGS = [
        EventMsg(Event("v", 0, 3, payload=(1, {"a": 2}))),
        EventMsg(Event(("compound", 1), "s9", 7)),
        HeartbeatMsg(ImplTag("b", "s"), (5.0, ("str", "b"), ("str", "s"))),
        JoinRequest(("root", 3), ImplTag("b", "s"), (2.0,), "root", "left"),
        JoinResponse(("root", 3), "right", {"k": 1}, 1),
        ForkStateMsg(("root", 3), (0, 7)),
    ]

    @pytest.mark.parametrize("msg", MSGS, ids=lambda m: type(m).__name__)
    def test_roundtrip(self, msg):
        assert decode_msg(encode_msg(msg)) == msg

    def test_batch_roundtrip(self):
        assert decode_batch(encode_batch(self.MSGS)) == self.MSGS

    def test_unknown_rejected(self):
        with pytest.raises(RuntimeFault):
            encode_msg(object())
        with pytest.raises(RuntimeFault):
            decode_msg((99, "?"))

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
        res = ProcessRuntime(prog, vb.make_plan(prog, wl)).run(streams)
        assert res.output_multiset() == spec_multiset(prog, streams)
        assert res.events_in == sum(len(s.events) for s in streams)
        assert res.wall_s > 0

    def test_join_counting(self):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=4, values_per_barrier=20, n_barriers=3)
        plan = vb.make_plan(prog, wl)
        res = ProcessRuntime(prog, plan).run(vb.make_streams(wl))
        assert res.joins == len(plan.internal()) * len(wl.barrier_stream)

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_batch_sizes_agree(self, batch_size):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=3, values_per_barrier=25, n_barriers=3)
        streams = vb.make_streams(wl)
        res = ProcessRuntime(
            prog, vb.make_plan(prog, wl), batch_size=batch_size
        ).run(streams)
        assert res.output_multiset() == spec_multiset(prog, streams)

    def test_sequential_plan_single_process(self):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=20, n_barriers=3)
        streams = vb.make_streams(wl)
        itags = [it for it, _ in wl.all_streams()]
        res = ProcessRuntime(prog, sequential_plan(prog, itags)).run(streams)
        assert res.output_multiset() == spec_multiset(prog, streams)
        assert res.joins == 0

    def test_empty_streams(self):
        prog = kc.make_program(1)
        it = ImplTag(kc.inc_tag(0), 0)
        res = ProcessRuntime(prog, sequential_plan(prog, [it])).run(
            [InputStream(it, (), heartbeat_interval=None)]
        )
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
            ProcessRuntime(prog, sequential_plan(prog, [it])).run(
                streams, timeout_s=15.0
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
        res = ProcessRuntime(prog, plan, batch_size=8).run(streams)
        assert res.output_multiset() == spec_multiset(prog, streams), plan.pretty()


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

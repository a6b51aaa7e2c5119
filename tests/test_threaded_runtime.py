"""Tests for the in-process (``threaded``) runtime: the same protocol,
every worker on the caller's thread, must match the sequential spec for
arbitrary P-valid plans — with one schedule per input, and no thread."""

import random
import threading
import time
from collections import Counter

import pytest

from repro.apps import keycounter as kc, value_barrier as vb
from repro.core import Event, ImplTag
from repro.core.dependence import DependenceRelation
from repro.core.errors import RuntimeFault
from repro.core.program import single_state_program
from repro.plans import random_valid_plan, sequential_plan
from repro.runtime import (
    InputStream,
    RunOptions,
    every_root_join,
    get_backend,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime import threaded as runtime_threaded
from repro.runtime.messages import HeartbeatMsg

from test_differential import ALL_APPS, _app_case


class TestThreadedValueBarrier:
    def test_matches_spec(self):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=4, values_per_barrier=40, n_barriers=4)
        streams = vb.make_streams(wl)
        res = run_on_backend("threaded", prog, vb.make_plan(prog, wl), streams)
        want = Counter(map(repr, run_sequential_reference(prog, streams)))
        assert res.output_multiset() == want

    def test_join_counting(self):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=4, values_per_barrier=20, n_barriers=3)
        plan = vb.make_plan(prog, wl)
        res = run_on_backend("threaded", prog, plan, vb.make_streams(wl))
        assert res.joins == len(plan.internal()) * len(wl.barrier_stream)

    def test_sequential_plan(self):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=20, n_barriers=3)
        streams = vb.make_streams(wl)
        itags = [it for it, _ in wl.all_streams()]
        res = run_on_backend("threaded", prog, sequential_plan(prog, itags), streams)
        want = Counter(map(repr, run_sequential_reference(prog, streams)))
        assert res.output_multiset() == want
        assert res.joins == 0


class TestThreadedRandomPlans:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_plan_matches_spec(self, seed):
        rng = random.Random(seed)
        nkeys = rng.choice([1, 2])
        prog = kc.make_program(nkeys)
        itags = []
        for k in range(nkeys):
            itags.append(ImplTag(kc.inc_tag(k), f"i{k}"))
            itags.append(ImplTag(kc.reset_tag(k), f"r{k}"))
        events = {it: [] for it in itags}
        for t in range(1, 90):
            it = itags[rng.randrange(len(itags))]
            events[it].append(Event(it.tag, it.stream, float(t)))
        streams = [
            InputStream(it, tuple(events[it]), heartbeat_interval=5.0)
            for it in itags
        ]
        plan = random_valid_plan(prog, itags, rng)
        res = run_on_backend("threaded", prog, plan, streams)
        want = Counter(map(repr, run_sequential_reference(prog, streams)))
        assert res.output_multiset() == want, plan.pretty()


class TestThreadedEdgeCases:
    def test_empty_streams(self):
        prog = kc.make_program(1)
        it = ImplTag(kc.inc_tag(0), 0)
        streams = [InputStream(it, (), heartbeat_interval=None)]
        res = run_on_backend("threaded", prog, sequential_plan(prog, [it]), streams)
        assert res.outputs == [] and res.events_processed == 0


class TestInProcessSubstrate:
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_two_runs_of_one_input_are_one_schedule(self, app):
        """One FIFO run queue, outboxes flushed in first-post order:
        the same input gives the same outputs in the same order, the
        same keyed log and checkpoints, and the same counters."""
        prog, streams, plan = _app_case(app)

        def once():
            return get_backend("threaded").attempt(
                prog, plan, streams, options=RunOptions(checkpoint_predicate=every_root_join())
            )

        first, second = once(), once()
        assert first.outputs == second.outputs
        assert first.keyed_outputs == second.keyed_outputs
        assert [c.key for c in first.checkpoints] == [c.key for c in second.checkpoints]
        assert (first.joins, first.events_processed) == (second.joins, second.events_processed)
        assert first.events_processed == first.events_in
        assert first.output_multiset() == Counter(
            map(repr, run_sequential_reference(prog, streams))
        )

    def test_a_run_starts_no_thread(self):
        seen = []

        def update(state, event):
            seen.append((threading.active_count(), threading.current_thread()))
            return vb._update(state, event)

        prog = single_state_program(
            name="vb-watching-threads",
            tags=vb.TAGS,
            depends=DependenceRelation.from_function(vb.TAGS, vb.depends_fn),
            init=lambda: 0,
            update=update,
            fork=vb._fork,
            join=vb._join,
        )
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=10, n_barriers=3)
        before = threading.active_count()
        res = run_on_backend("threaded", prog, vb.make_plan(prog, wl), vb.make_streams(wl))
        assert len(seen) == res.events_in
        assert {count for count, _ in seen} == {before}
        assert {thread for _, thread in seen} == {threading.current_thread()}

    def test_a_run_from_a_non_main_thread(self):
        """How the service calls it: from an executor thread."""
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=3, values_per_barrier=20, n_barriers=3)
        streams = vb.make_streams(wl)
        got = {}

        def target():
            try:
                got["run"] = run_on_backend("threaded", prog, vb.make_plan(prog, wl), streams)
            except BaseException as exc:  # surfaced by the asserts below
                got["error"] = exc

        worker = threading.Thread(target=target)
        worker.start()
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert "error" not in got, got.get("error")
        want = Counter(map(repr, run_sequential_reference(prog, streams)))
        assert got["run"].output_multiset() == want

    def test_a_stall_names_each_stuck_workers_protocol_state(self, monkeypatch):
        """A value stream whose closing heartbeat is dropped at the pump
        never vouches for the last barrier's key: its leaf cannot
        release the last join request, the root waits on that join, the
        other leaf waits for its fork.  The run queue empties, and the
        run fails at once, naming each of the three with its state."""
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=10, n_barriers=2)
        plan = vb.make_plan(prog, wl)
        # No heartbeat grid: the closing heartbeat is each stream's only one.
        streams = vb.make_streams(wl, heartbeat_interval=None)
        victim = next(s for s in streams if s.itag != wl.barrier_itag)
        real = runtime_threaded.pump_producers  # the in-process pump's call site

        def dropping(plan, streams, post, **kwargs):
            def filtered(dst, msg):
                if not (type(msg) is HeartbeatMsg and msg.itag == victim.itag):
                    post(dst, msg)

            return real(plan, streams, filtered, **kwargs)

        monkeypatch.setattr(runtime_threaded, "pump_producers", dropping)
        t0 = time.monotonic()
        with pytest.raises(RuntimeFault) as err:
            run_on_backend("threaded", prog, plan, streams, options=RunOptions(timeout_s=60.0))
        assert time.monotonic() - t0 < 10.0
        text = str(err.value)
        assert "threaded runtime stalled" in text and "3 worker(s)" in text
        lines = {
            line.split(":", 1)[0].strip(): line
            for line in text.splitlines()
            if line.startswith("  worker ")
        }
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

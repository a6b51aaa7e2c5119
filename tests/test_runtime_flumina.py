"""End-to-end correctness tests for the Flumina-style runtime: the
output multiset must match the sequential specification for every
P-valid plan (Theorem 3.5 / Definition 3.4)."""

import random
from collections import Counter

import pytest

from repro.core import Event, ImplTag, ValidityError
from repro.plans import (
    PlanNode,
    SyncPlan,
    chain_plan,
    random_valid_plan,
    root_and_leaves_plan,
    sequential_plan,
)
from repro.runtime import FluminaRuntime, InputStream, every_nth_join, run_sequential_reference
from repro.apps import keycounter as kc


def value_barrier_streams(n_values=3, n_events=40, barrier_every=10.0, hb=2.0):
    """Increment streams plus one reset stream over a single key."""
    streams = []
    for s in range(n_values):
        it = ImplTag(kc.inc_tag(0), f"v{s}")
        evs = tuple(
            Event(it.tag, it.stream, t * 1.0 + s * 0.13 + 0.01)
            for t in range(1, n_events + 1)
        )
        streams.append(InputStream(it, evs, heartbeat_interval=hb))
    rit = ImplTag(kc.reset_tag(0), "b")
    n_resets = int(n_events / barrier_every) + 1
    resets = tuple(
        Event(rit.tag, rit.stream, t * barrier_every) for t in range(1, n_resets)
    )
    streams.append(InputStream(rit, resets, heartbeat_interval=hb))
    return streams


def outputs_match(program, plan, streams):
    rt = FluminaRuntime(program, plan)
    res = rt.run(streams)
    got = Counter(res.output_values())
    want = Counter(run_sequential_reference(program, streams))
    return got == want, res


class TestSequentialPlan:
    def test_single_worker_matches_spec(self):
        prog = kc.make_program(1)
        streams = value_barrier_streams(2, 20)
        itags = [s.itag for s in streams]
        plan = sequential_plan(prog, itags)
        ok, res = outputs_match(prog, plan, streams)
        assert ok
        assert res.joins == 0  # no children, no joins

    def test_single_stream_single_worker(self):
        prog = kc.make_program(1)
        it = ImplTag(kc.inc_tag(0), 0)
        evs = tuple(Event(it.tag, 0, float(t)) for t in range(1, 11))
        streams = [InputStream(it, evs)]
        plan = sequential_plan(prog, [it])
        ok, res = outputs_match(prog, plan, streams)
        assert ok and res.events_processed == 10


class TestTreePlans:
    def test_value_barrier_tree_matches_spec(self):
        prog = kc.make_program(1)
        streams = value_barrier_streams(4, 40)
        leaf = [[s.itag] for s in streams[:-1]]
        plan = root_and_leaves_plan(prog, [streams[-1].itag], leaf)
        ok, res = outputs_match(prog, plan, streams)
        assert ok
        assert res.joins > 0

    def test_chain_plan_matches_spec(self):
        prog = kc.make_program(1)
        streams = value_barrier_streams(4, 30)
        leaf = [[s.itag] for s in streams[:-1]]
        plan = chain_plan(prog, [streams[-1].itag], leaf)
        ok, _ = outputs_match(prog, plan, streams)
        assert ok

    def test_join_count_scales_with_tree(self):
        prog = kc.make_program(1)
        streams = value_barrier_streams(4, 40, barrier_every=10.0)
        leaf = [[s.itag] for s in streams[:-1]]
        plan = root_and_leaves_plan(prog, [streams[-1].itag], leaf)
        _, res = outputs_match(prog, plan, streams)
        n_barriers = len(streams[-1].events)
        n_internal = len(plan.internal())
        assert res.joins == n_barriers * n_internal

    def test_outputs_have_positive_latency(self):
        prog = kc.make_program(1)
        streams = value_barrier_streams(3, 30)
        leaf = [[s.itag] for s in streams[:-1]]
        plan = root_and_leaves_plan(prog, [streams[-1].itag], leaf)
        rt = FluminaRuntime(prog, plan)
        res = rt.run(streams)
        assert all(lat > 0 for lat in res.latencies())


class TestInvalidPlansRejected:
    def test_invalid_plan_raises(self):
        prog = kc.make_program(1)
        # Two unrelated workers sharing a dependent tag pair.
        a = PlanNode("a", "State0", frozenset({ImplTag(kc.inc_tag(0), 0)}))
        b = PlanNode("b", "State0", frozenset({ImplTag(kc.reset_tag(0), 1)}))
        bad = SyncPlan(PlanNode("r", "State0", frozenset(), (a, b)))
        with pytest.raises(ValidityError):
            FluminaRuntime(prog, bad)


class TestRandomPlansAgainstSpec:
    """The headline property: ANY P-valid plan produces the sequential
    spec's output multiset (Theorem 3.5)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_plan_random_workload(self, seed):
        rng = random.Random(seed)
        nkeys = rng.choice([1, 2, 3])
        prog = kc.make_program(nkeys)
        itags = []
        for k in range(nkeys):
            for s in range(rng.choice([1, 2])):
                itags.append(ImplTag(kc.inc_tag(k), f"i{k}.{s}"))
            itags.append(ImplTag(kc.reset_tag(k), f"r{k}"))
        events = {it: [] for it in itags}
        for t in range(1, 100):
            it = itags[rng.randrange(len(itags))]
            events[it].append(Event(it.tag, it.stream, float(t)))
        streams = [
            InputStream(
                it, tuple(events[it]), heartbeat_interval=rng.choice([1.0, 5.0, 20.0])
            )
            for it in itags
        ]
        plan = random_valid_plan(prog, itags, rng)
        ok, res = outputs_match(prog, plan, streams)
        assert ok, f"plan:\n{plan.pretty()}"


class TestRunMetrics:
    def test_throughput_and_duration(self):
        prog = kc.make_program(1)
        streams = value_barrier_streams(2, 30)
        leaf = [[s.itag] for s in streams[:-1]]
        plan = root_and_leaves_plan(prog, [streams[-1].itag], leaf)
        rt = FluminaRuntime(prog, plan)
        res = rt.run(streams)
        assert res.events_in == 2 * 30 + len(streams[-1].events)
        assert res.duration_ms > 30.0
        assert res.throughput_events_per_ms > 0
        assert set(res.host_utilization) == set(rt.topology.hosts)

    def test_network_stats_populated(self):
        prog = kc.make_program(1)
        streams = value_barrier_streams(3, 20)
        leaf = [[s.itag] for s in streams[:-1]]
        plan = root_and_leaves_plan(prog, [streams[-1].itag], leaf)
        rt = FluminaRuntime(prog, plan)
        res = rt.run(streams)
        assert res.network.total_messages > 0
        assert res.network.remote_bytes > 0

    def test_latency_percentiles_nan_when_no_outputs(self):
        import math

        prog = kc.make_program(1)
        it = ImplTag(kc.inc_tag(0), 0)
        evs = tuple(Event(it.tag, 0, float(t)) for t in range(1, 5))
        plan = sequential_plan(prog, [it])
        res = FluminaRuntime(prog, plan).run([InputStream(it, evs)])
        assert all(math.isnan(p) for p in res.latency_percentiles())


    def test_each_run_starts_from_fresh_state(self):
        """A second run of one runtime repeats the first: it neither
        inherits the hosts' busy time and the network counters of the
        first run, nor the join count of its stateful predicate."""
        prog = kc.make_program(1)
        streams = value_barrier_streams(3, 40)
        leaf = [[s.itag] for s in streams[:-1]]
        plan = root_and_leaves_plan(prog, [streams[-1].itag], leaf)
        rt = FluminaRuntime(prog, plan, checkpoint_predicate=every_nth_join(3))

        def record(res):
            net = res.network
            return (
                res.duration_ms,
                (net.local_messages, net.remote_messages, net.local_bytes, net.remote_bytes),
                [c.key for c in res.checkpoints],
                res.outputs,
            )

        first = record(rt.run(streams))
        assert first[2], "the predicate fired in the first run"
        assert record(rt.run(streams)) == first


class TestHeartbeatSensitivity:
    def test_sparse_heartbeats_increase_latency(self):
        # Latency sensitivity appears when value events are *sparser*
        # than heartbeats: the barrier join must wait for proof that no
        # value <= barrier_ts remains, which only heartbeats provide in
        # the gaps (Appendix D.1 / Figure 10b).
        prog = kc.make_program(1)
        results = {}
        for hb in (0.5, 20.0):
            streams = []
            for s in range(3):
                it = ImplTag(kc.inc_tag(0), f"v{s}")
                evs = tuple(
                    Event(it.tag, it.stream, t * 7.0 + s * 0.13 + 0.01)
                    for t in range(1, 15)
                )
                streams.append(InputStream(it, evs, heartbeat_interval=hb))
            rit = ImplTag(kc.reset_tag(0), "b")
            resets = tuple(Event(rit.tag, rit.stream, t * 10.0) for t in range(1, 9))
            streams.append(InputStream(rit, resets, heartbeat_interval=hb))
            leaf = [[s.itag] for s in streams[:-1]]
            plan = root_and_leaves_plan(prog, [rit], leaf)
            res = FluminaRuntime(prog, plan).run(streams)
            results[hb] = res.latency_percentiles([50])[0]
        assert results[20.0] > results[0.5]

    def test_no_periodic_heartbeats_still_drains(self):
        prog = kc.make_program(1)
        streams = [
            InputStream(s.itag, s.events, heartbeat_interval=None)
            for s in value_barrier_streams(2, 20)
        ]
        leaf = [[s.itag] for s in streams[:-1]]
        plan = root_and_leaves_plan(prog, [streams[-1].itag], leaf)
        ok, _ = outputs_match(prog, plan, streams)
        assert ok

"""Microbenchmarks of the core machinery (wall-clock, pytest-benchmark):
simulation kernel, mailbox selective reordering, plan generation and
validation, the sequential spec executor and the consistency checker.

These are not paper artifacts; they track the hot paths of every
simulated experiment in this repository.  The real substrates' data
plane (wire codec, transport edges) and the process runtime's speed
against the sequential spec are measured end to end by ``dgsbench``
(``BENCHMARK.json``): the per-layer ``wire.*`` / ``transport.*``
numbers and the ``vb_cpu`` workload's ``spec_ratio``.
"""

import random

from repro.apps import keycounter as kc
from repro.core import DependenceRelation, Event, ImplTag
from repro.plans import is_p_valid, random_valid_plan
from repro.runtime import Mailbox
from repro.runtime.messages import EventMsg, EventRun, JoinRequest
from repro.runtime.wire import event_runs
from repro.sim import Simulator


def test_sim_kernel_schedule_run(benchmark):
    def run():
        sim = Simulator()
        for i in range(2000):
            sim.schedule_at(float(i % 97), lambda: None)
        sim.run()
        return sim.events_processed

    assert benchmark(run) == 2000


def test_mailbox_insert_release(benchmark):
    uni = ["v", "b"]
    dep = DependenceRelation(uni, {"b": ["b", "v"]})
    v0, v1, b = ImplTag("v", 0), ImplTag("v", 1), ImplTag("b", "s")

    def run():
        mb = Mailbox([v0, v1, b], dep)
        released = 0
        for t in range(1, 500):
            released += len(mb.insert(v0, Event("v", 0, float(t)).order_key, t))
            released += len(mb.insert(v1, Event("v", 1, t + 0.5).order_key, t))
            if t % 50 == 0:
                released += len(mb.insert(b, Event("b", "s", t + 0.25).order_key, t))
            if t % 10 == 0:
                released += len(mb.advance(b, Event("b", "s", t + 0.26).order_key))
        return released

    assert benchmark(run) > 0


def _released_events(released):
    return sum(len(b.item) if type(b.item) is EventRun else 1 for b in released)


def test_mailbox_run_release_service_leaf(benchmark):
    """The service's leaf shape: value events arrive as runs of 125 and
    the root's join requests (its barrier events) arrive every 25, so
    each request releases a 25-event prefix of the buffered run and
    then itself (the last once the value timer passes it)."""
    dep = DependenceRelation(["value", "barrier"], {"barrier": ["barrier", "value"]})
    v, b = ImplTag("value", "v0"), ImplTag("barrier", "b")
    blocks = []
    for blk in range(40):
        t0 = blk * 125
        (run,) = event_runs([Event("value", "v0", float(t0 + i), i) for i in range(125)])
        joins = []
        for j in range(1, 6):
            key = Event("barrier", "b", t0 + 25 * j - 0.5).order_key
            joins.append((key, JoinRequest(("root", blk * 5 + j), b, key, "root", "left")))
        blocks.append((run, joins))
    closing = Event("value", "v0", 1e9).order_key

    def run():
        mb = Mailbox([v, b], dep)
        released = 0
        for vrun, joins in blocks:
            released += _released_events(mb.insert_run(vrun))
            for key, req in joins:
                released += _released_events(mb.insert(b, key, req))
        released += _released_events(mb.advance(v, closing))
        return released

    assert benchmark(run) == 40 * 130


def test_mailbox_run_release_asymmetric(benchmark):
    """Three tags, ``b`` depending on ``a`` and ``c``, which are
    independent: a heartbeat on ``b`` releases an ``a`` run together
    with the ``c`` events inside its span, and the release must split
    the run around them."""
    dep = DependenceRelation(["a", "b", "c"], {"b": ["a", "c"]})
    a, b, c = ImplTag("a", 0), ImplTag("b", 0), ImplTag("c", 0)
    blocks = []
    for blk in range(40):
        t0 = blk * 50
        (arun,) = event_runs([Event("a", 0, float(t0 + i), i) for i in range(50)])
        cs = [EventMsg(Event("c", 0, t0 + 10 * j + 0.5, j)) for j in range(5)]
        blocks.append((arun, cs, Event("b", 0, t0 + 49.75).order_key))

    def run():
        mb = Mailbox([a, b, c], dep)
        released = 0
        for arun, cs, hb in blocks:
            released += _released_events(mb.insert_run(arun))
            for m in cs:
                released += _released_events(mb.insert(c, m.event.order_key, m))
            released += _released_events(mb.advance(b, hb))
        return released

    assert benchmark(run) == 40 * 55


def test_sequential_spec_throughput(benchmark):
    prog = kc.make_program(4)
    rng = random.Random(0)
    tags = sorted(prog.tags, key=repr)
    events = [
        Event(tags[rng.randrange(len(tags))], 0, float(t)) for t in range(5000)
    ]

    def run():
        return len(prog.spec(events))

    assert benchmark(run) >= 0


def test_random_plan_generation_and_validation(benchmark):
    prog = kc.make_program(4)
    itags = [ImplTag(t, s) for t in sorted(prog.tags, key=repr) for s in range(3)]

    def run():
        plan = random_valid_plan(prog, itags, random.Random(42))
        return is_p_valid(plan, prog)

    assert benchmark(run)


def test_consistency_check_speed(benchmark):
    from repro.core import check_consistency

    prog = kc.make_program(2)
    rng = random.Random(1)
    tags = sorted(prog.tags, key=repr)
    events = [Event(tags[rng.randrange(len(tags))], 0, float(t)) for t in range(20)]

    def run():
        return check_consistency(
            prog, events, state_eq=kc.state_eq, rng=random.Random(5)
        ).ok

    assert benchmark(run)

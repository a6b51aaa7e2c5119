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

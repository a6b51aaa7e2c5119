"""The five dgsbench workloads and their seeded input generators.

A workload is a program + a 2-leaf/1-root plan + one generated event
list + the way the load is driven (``closed`` through
``run_on_backend``, or through a ``repro.serve`` service).  Structural
sizes are constants of the workload; ``--seed`` only moves payload
values, the event-to-stream (and key) assignment, and a timestamp
jitter that keeps the list collision-free and globally ordered.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.apps import keycounter, value_barrier
from repro.core.events import Event, ImplTag
from repro.plans.generation import root_and_leaves_plan
from repro.plans.validity import assert_p_valid
from repro.runtime import InputStream

LEAVES = 2  # fixed on every host: the plans are 2 leaves + 1 root


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "closed" (run_on_backend, process backend), "serve_closed"
    #: (frames as fast as acks return) or "serve_open" (fixed schedule).
    drive: str
    #: "vb", "vb_cpu" (value-barrier) or "kc" (keycounter).
    app: str
    #: Events in one repeat at scale 1, synchronizing events included.
    n_events: int
    #: One synchronizing (root) event closes every this many events.
    sync_every: int
    #: Timestamp distance between consecutive events of the merged list.
    period: float
    heartbeat_interval: float
    #: Events per ingest frame (serve workloads only).
    frame: int = 0
    #: Offered rate in events/s (serve_open only).
    rate: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "vb_bulk",
            "communication-bound: 8 joins in 50k events, so pump, wire codec, "
            "transport, Mailbox.insert_run and update_batch do all the work",
            "closed", "vb", 50_000, 6_250, 0.05, 1.0,
        ),
        Workload(
            "kc_sync",
            "synchronization-bound: a read-reset join every 25 events, tiny "
            "frames, tuple tags off the codec's str-tag fast path, dict state",
            "closed", "kc", 10_000, 25, 1.0, 10.0,
        ),
        Workload(
            "vb_cpu",
            "operator-bound (spin=200, no update_batch): the paper's scaling "
            "claim; runtime-overhead optimisations predict no change here",
            "closed", "vb_cpu", 20_000, 5_000, 0.05, 1.0,
        ),
        Workload(
            "serve_closed",
            "service-tier capacity: TCP ingest, admission, epoch loop, threaded "
            "substrate, egress; process-backend optimisations bypass it",
            "serve_closed", "vb", 5_000, 25, 1.0, 10.0, frame=250,
        ),
        Workload(
            "serve_open",
            "latency at ~10% of serve_closed capacity: epochs sealed by the idle "
            "timer, so the per-epoch fixed cost dominates",
            "serve_open", "vb", 1_000, 25, 1.0, 10.0, frame=25, rate=1000.0,
        ),
    )
}


def build(workload: Workload) -> Tuple[Any, Any]:
    """The workload's program and its validated 2-leaf/1-root plan."""
    if workload.app == "kc":
        program = keycounter.make_program(2)
        root = [ImplTag(keycounter.reset_tag(k), "r") for k in range(2)]
        leaves = [
            [ImplTag(keycounter.inc_tag(k), f"i{s}") for k in range(2)]
            for s in range(LEAVES)
        ]
    else:
        program = (
            value_barrier.make_cpu_program(200)
            if workload.app == "vb_cpu"
            else value_barrier.make_program()
        )
        root = [ImplTag(value_barrier.BARRIER_TAG, "b")]
        leaves = [[ImplTag(value_barrier.VALUE_TAG, f"v{s}")] for s in range(LEAVES)]
    plan = root_and_leaves_plan(program, root, leaves)
    assert_p_valid(plan, program)
    return program, plan


@dataclass(frozen=True)
class Inputs:
    events: List[Event]  # globally timestamp-ordered
    sha256: str  # of the generated columns: same seed -> same hash


def generate(workload: Workload, seed: int, *, scale: float = 1.0) -> Inputs:
    """One repeat's input.  ``scale`` changes the event count (smoke and
    warm-up runs, the length of serve_open's one repeat) in whole
    synchronization windows."""
    every = workload.sync_every
    n = max(every, round(workload.n_events * scale) // every * every)
    rng = random.Random(f"{workload.name}:{seed}")
    noise = rng.randbytes(2 * n)
    # Leaf events are dealt to the two streams in seeded pair order, so
    # both leaves get the same share whatever the seed.
    deal = rng.getrandbits(n // 2 + 1)
    period = workload.period
    ts_col = array("d")
    payload_col = array("q")
    route_col = bytearray()
    events: List[Event] = []
    leaf_i = 0
    swap = 0
    for i in range(n):
        # |jitter| < 0.4 period around distinct grid points: strictly
        # increasing, hence collision-free and globally ordered.
        ts = (i + 1 + (noise[2 * i] - 128) / 320.0) * period
        if (i + 1) % every == 0:
            window = (i + 1) // every - 1
            if workload.app == "kc":
                event = Event(keycounter.reset_tag(window % 2), "r", ts, None)
            else:
                event = Event(value_barrier.BARRIER_TAG, "b", ts, None)
            route, payload = 255, 0
        else:
            if leaf_i % 2 == 0:
                swap = (deal >> (leaf_i // 2)) & 1
            leaf = (leaf_i + swap) % 2
            leaf_i += 1
            payload = 1 + noise[2 * i + 1]
            if workload.app == "kc":
                key = payload & 1
                event = Event(keycounter.inc_tag(key), f"i{leaf}", ts, payload)
                route = 2 * leaf + key
            else:
                event = Event(value_barrier.VALUE_TAG, f"v{leaf}", ts, payload)
                route = leaf
        events.append(event)
        ts_col.append(ts)
        payload_col.append(payload)
        route_col.append(route)
    digest = hashlib.sha256()
    for col in (ts_col.tobytes(), payload_col.tobytes(), bytes(route_col)):
        digest.update(col)
    return Inputs(events, digest.hexdigest())


def streams_of(
    plan: Any, events: List[Event], heartbeat_interval: Optional[float]
) -> List[InputStream]:
    """One InputStream per implementation tag of the plan (empty ones
    included: a missing stream would leave its frontier at -inf)."""
    by_itag: Dict[ImplTag, List[Event]] = {
        t: [] for w in plan.workers() for t in w.itags
    }
    for e in events:
        by_itag[e.itag].append(e)
    return [
        InputStream(t, tuple(evs), heartbeat_interval=heartbeat_interval)
        for t, evs in sorted(by_itag.items(), key=lambda kv: repr(kv[0]))
    ]

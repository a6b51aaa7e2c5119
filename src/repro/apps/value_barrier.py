"""Event-based windowing ("value-barrier", paper §4.1 & Figure 11).

Input: several parallel streams of integer *values* and one stream of
*barriers*.  The task: output the sum of all values between every two
consecutive barriers.

DGS program (mirroring the paper's Erlang in Figure 11):

* state = running sum;
* ``update(value)`` adds to the sum; ``update(barrier)`` outputs the
  sum and resets it;
* dependence: every tag depends on barriers (and barriers on
  themselves); values are mutually independent;
* ``fork`` gives one side the sum and the other zero; ``join`` adds.

Note the deviation from Figure 11's literal code: the paper's update
keeps the sum across barriers; the prose ("produce an aggregate of the
values between every two consecutive barriers") implies a reset, which
is what we implement (both versions are consistent programs).
"""

from __future__ import annotations

from typing import Any, List, Tuple

from ..core.dependence import DependenceRelation
from ..core.events import Event
from ..core.predicates import TagPredicate
from ..core.program import DGSProgram, single_state_program
from ._columns import sum_as_ints
from ._cpuwork import burn
from ..data.generators import ValueBarrierWorkload, value_barrier_workload
from ..plans.generation import root_and_leaves_plan
from ..plans.optimizer import StreamInfo, optimize
from ..plans.plan import SyncPlan
from ..runtime.runtime import InputStream

VALUE_TAG = "value"
BARRIER_TAG = "barrier"
TAGS = (VALUE_TAG, BARRIER_TAG)

State = int


def depends_fn(t1, t2) -> bool:
    return BARRIER_TAG in (t1, t2)


def _update(state: State, event: Event) -> Tuple[State, List[Any]]:
    if event.tag == VALUE_TAG:
        return state + int(event.payload), []
    # Barrier: emit the window aggregate, reset.
    return 0, [("window_sum", event.ts, state)]


def _update_batch(state: State, run: Any) -> Tuple[State, List[Tuple[int, Any]]]:
    """Vectorized update over a columnar run (one tag per run).

    A value run folds to one sum over the payload column — this is
    where the batch data plane pays off.  A run has one tag but not one
    value type, so the sum takes ``int`` of each payload as ``update``
    does (:func:`~repro.apps._columns.sum_as_ints`).  Barrier runs are
    rare (and usually length 1); emit per event to keep window
    boundaries."""
    if run.tag == VALUE_TAG:
        return state + sum_as_ints(run.payloads), []
    outs: List[Tuple[int, Any]] = []
    for i, ts in enumerate(run.ts):
        outs.append((i, ("window_sum", ts, state)))
        state = 0
    return state, outs


def _fork(state: State, pred1: TagPredicate, pred2: TagPredicate) -> Tuple[State, State]:
    # The side able to process barriers keeps the running sum (it will
    # need the total); with neither, default left.
    if BARRIER_TAG in pred2 and BARRIER_TAG not in pred1:
        return 0, state
    return state, 0


def _join(s1: State, s2: State) -> State:
    return s1 + s2


def make_program() -> DGSProgram:
    return single_state_program(
        name="value-barrier",
        tags=TAGS,
        depends=DependenceRelation.from_function(TAGS, depends_fn),
        init=lambda: 0,
        update=_update,
        update_batch=_update_batch,
        fork=_fork,
        join=_join,
    )


def make_cpu_program(spin: int) -> DGSProgram:
    """The same program with ``spin`` units of CPU work per value event
    (a stand-in for real per-event feature extraction/scoring cost).

    The plain program's update is a single integer add, so wall-clock
    runs of it measure message-passing overhead, not computation; this
    variant is the workload on which multi-core substrates can show
    genuine parallel speedup (dgsbench's ``vb_cpu`` workload,
    ``benchmarks/bench_reconfig.py``).  Semantics delegate to the plain
    ``_update`` — only the burned work is added.
    """

    def update(state: State, event: Event) -> Tuple[State, List[Any]]:
        if event.tag == VALUE_TAG:
            state = state + burn(int(event.payload), spin)
        return _update(state, event)

    return single_state_program(
        name=f"value-barrier[spin={spin}]",
        tags=TAGS,
        depends=DependenceRelation.from_function(TAGS, depends_fn),
        init=lambda: 0,
        update=update,
        fork=_fork,
        join=_join,
    )


def make_workload(
    *,
    n_value_streams: int = 4,
    values_per_barrier: int = 100,
    n_barriers: int = 10,
    value_rate_per_ms: float = 10.0,
) -> ValueBarrierWorkload:
    return value_barrier_workload(
        value_tag=VALUE_TAG,
        barrier_tag=BARRIER_TAG,
        n_value_streams=n_value_streams,
        values_per_barrier=values_per_barrier,
        n_barriers=n_barriers,
        value_rate_per_ms=value_rate_per_ms,
        value_payload_fn=lambda i: 1 + (i % 7),
    )


def make_streams(
    workload: ValueBarrierWorkload, *, heartbeat_interval: float | None = 1.0
) -> List[InputStream]:
    streams = [
        InputStream(itag, events, heartbeat_interval=heartbeat_interval)
        for itag, events in workload.all_streams()
    ]
    return streams


def make_plan(program: DGSProgram, workload: ValueBarrierWorkload) -> SyncPlan:
    """The natural plan: barriers at the root, one leaf per value
    stream (what the optimizer also produces — see tests)."""
    return root_and_leaves_plan(
        program,
        [workload.barrier_itag],
        [[itag] for itag in workload.value_streams],
    )


def optimized_plan(
    program: DGSProgram, workload: ValueBarrierWorkload, *, hosts: List[str]
) -> SyncPlan:
    """Appendix-B optimizer applied to the workload's rates, with value
    producers placed on distinct hosts and the barrier near host 0."""
    infos = []
    for i, (itag, events) in enumerate(workload.value_streams.items()):
        span = events[-1].ts - events[0].ts if len(events) > 1 else 1.0
        infos.append(StreamInfo(itag, len(events) / max(span, EPS_RATE), hosts[i % len(hosts)]))
    b = workload.barrier_stream
    span = b[-1].ts - b[0].ts if len(b) > 1 else 1.0
    infos.append(StreamInfo(workload.barrier_itag, len(b) / max(span, EPS_RATE), hosts[0]))
    return optimize(program, infos)


EPS_RATE = 1e-9

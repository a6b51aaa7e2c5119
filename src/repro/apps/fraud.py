"""Fraud detection (paper §4.1 & Figure 13).

Input: parallel streams of integer *transactions* plus one stream of
*rules*.  On a rule: output the aggregate of transactions since the
last rule and retrain the "model" — the new model is ``(aggregate +
rule value) mod 1000``.  A transaction is flagged fraudulent when it is
congruent to the current model modulo 1000.

Same synchronization shape as event-based windowing, with the crucial
difference that each window's computation depends on the previous
window's result (the model), which is why Flink cannot parallelize it
(§4.2) while a feedback loop (Timely) or a synchronization plan can.

DGS program (Figure 13): state = (sum, model); ``fork`` hands the model
to both sides but the running sum to one; ``join`` adds sums and keeps
the left model.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from ..core.dependence import DependenceRelation
from ..core.events import Event
from ..core.predicates import TagPredicate
from ..core.program import DGSProgram, single_state_program
from ..data.generators import ValueBarrierWorkload, value_barrier_workload
from ..plans.generation import root_and_leaves_plan
from ..plans.plan import SyncPlan
from ..runtime.runtime import InputStream

TXN_TAG = "txn"
RULE_TAG = "rule"
TAGS = (TXN_TAG, RULE_TAG)
MODULO = 1000

State = Tuple[int, int]  # (window sum, model)


def depends_fn(t1, t2) -> bool:
    return RULE_TAG in (t1, t2)


def _update(state: State, event: Event) -> Tuple[State, List[Any]]:
    total, model = state
    if event.tag == TXN_TAG:
        value = int(event.payload)
        outs: List[Any] = []
        if value % MODULO == model:
            outs.append(("fraud", event.ts, value))
        return (total + value, model), outs
    # Rule: emit the window aggregate, retrain the model.
    rule_value = int(event.payload)
    new_model = (total + rule_value) % MODULO
    return (0, new_model), [("window_sum", event.ts, total)]


def _fork(state: State, pred1: TagPredicate, pred2: TagPredicate) -> Tuple[State, State]:
    total, model = state
    # Both sides need the model to label transactions; the sum follows
    # the rule-processing side (Figure 13 duplicates PrevBModulo).
    if RULE_TAG in pred2 and RULE_TAG not in pred1:
        return (0, model), (total, model)
    return (total, model), (0, model)


def _join(s1: State, s2: State) -> State:
    return (s1[0] + s2[0], s1[1])


def state_eq(a: State, b: State) -> bool:
    return a == b


def make_program() -> DGSProgram:
    return single_state_program(
        name="fraud-detection",
        tags=TAGS,
        depends=DependenceRelation.from_function(TAGS, depends_fn),
        init=lambda: (0, 0),
        update=_update,
        fork=_fork,
        join=_join,
    )


def make_workload(
    *,
    n_txn_streams: int = 4,
    txns_per_rule: int = 100,
    n_rules: int = 10,
    txn_rate_per_ms: float = 10.0,
) -> ValueBarrierWorkload:
    return value_barrier_workload(
        value_tag=TXN_TAG,
        barrier_tag=RULE_TAG,
        n_value_streams=n_txn_streams,
        values_per_barrier=txns_per_rule,
        n_barriers=n_rules,
        value_rate_per_ms=txn_rate_per_ms,
        value_payload_fn=lambda i: (i * 137) % 5000,
        barrier_payload_fn=lambda k: k * 29,
    )


def make_streams(
    workload: ValueBarrierWorkload, *, heartbeat_interval: float | None = 1.0
) -> List[InputStream]:
    return [
        InputStream(itag, events, heartbeat_interval=heartbeat_interval)
        for itag, events in workload.all_streams()
    ]


def make_plan(program: DGSProgram, workload: ValueBarrierWorkload) -> SyncPlan:
    """Rules at the root, transactions at the leaves (§4.3)."""
    return root_and_leaves_plan(
        program,
        [workload.barrier_itag],
        [[itag] for itag in workload.value_streams],
    )

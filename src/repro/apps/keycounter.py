"""The paper's running example (Figure 1): a map from keys to counters.

Two event kinds per key ``k``:

* ``("i", k)`` — increment the counter for ``k`` by the payload (the
  paper increments by one; we allow a payload amount defaulting to 1,
  which preserves all the algebraic structure),
* ``("r", k)`` — *read-reset*: output the current counter, reset to 0.

Dependence (Figure 1): ``r(k)`` depends on ``r(k)`` and ``i(k)`` of the
same key; increments are independent of each other (counting is
commutative and mergeable); different keys are fully independent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..core.dependence import DependenceRelation
from ..core.events import Event, Tag
from ..core.predicates import TagPredicate
from ..core.program import DGSProgram, single_state_program
from ._columns import sum_as_ints

KeyCounterState = Dict[int, int]


def inc_tag(key: int) -> Tag:
    return ("i", key)


def reset_tag(key: int) -> Tag:
    return ("r", key)


def tag_universe(num_keys: int) -> List[Tag]:
    tags: List[Tag] = []
    for k in range(num_keys):
        tags.append(inc_tag(k))
        tags.append(reset_tag(k))
    return tags


def depends_fn(t1: Tag, t2: Tag) -> bool:
    kind1, k1 = t1
    kind2, k2 = t2
    if k1 != k2:
        return False
    # Same key: everything is dependent except increment/increment.
    return not (kind1 == "i" and kind2 == "i")


def _amount(payload: Any) -> int:
    """What one increment adds: its payload as an int, 1 for None."""
    return 1 if payload is None else int(payload)


def _update(state: KeyCounterState, event: Event) -> Tuple[KeyCounterState, List[Any]]:
    kind, key = event.tag
    if kind == "i":
        amount = _amount(event.payload)
        new = dict(state)
        new[key] = new.get(key, 0) + amount
        return new, []
    if kind == "r":
        value = state.get(key, 0)
        new = dict(state)
        new[key] = 0
        return new, [(key, value)]
    raise ValueError(f"unknown tag kind {kind!r}")


def _update_batch(
    state: KeyCounterState, run: Any
) -> Tuple[KeyCounterState, List[Tuple[int, Any]]]:
    """Vectorized update over a columnar run (single tag per run).

    An increment run for key ``k`` folds to one summed add — counting
    is commutative, so the column sum is exactly the per-event fold,
    each payload taken as ``update`` takes it (a run's payloads may mix
    types, ``None`` among them).  Read-reset runs keep per-event
    semantics (the first read observes the count; later reads in the
    same run observe zero)."""
    kind, key = run.tag
    if kind == "i":
        pl = run.payloads
        amount = len(run.ts) if pl is None else sum_as_ints(pl, _amount)
        new = dict(state)
        new[key] = new.get(key, 0) + amount
        return new, []
    new = dict(state)
    outs: List[Tuple[int, Any]] = []
    for i in range(len(run.ts)):
        outs.append((i, (key, new.get(key, 0))))
        new[key] = 0
    return new, outs


def _fork(
    state: KeyCounterState, pred1: TagPredicate, pred2: TagPredicate
) -> Tuple[KeyCounterState, KeyCounterState]:
    """Figure 1's fork: the side responsible for read-resets of a key
    keeps that key's count; keys owned by neither side default to the
    second state (as in the paper's pseudocode)."""
    s1: KeyCounterState = {}
    s2: KeyCounterState = {}
    for key, count in state.items():
        if reset_tag(key) in pred1:
            s1[key] = count
        else:
            s2[key] = count
    return s1, s2


def _join(s1: KeyCounterState, s2: KeyCounterState) -> KeyCounterState:
    out = dict(s1)
    for key, count in s2.items():
        out[key] = out.get(key, 0) + count
    return out


def _normalize(state: KeyCounterState) -> Dict[int, int]:
    return {k: v for k, v in state.items() if v != 0}


def state_eq(a: KeyCounterState, b: KeyCounterState) -> bool:
    """Counter maps are equal up to absent-vs-zero entries."""
    return _normalize(a) == _normalize(b)


def make_program(num_keys: int = 2) -> DGSProgram:
    universe = tag_universe(num_keys)
    depends = DependenceRelation.from_function(universe, depends_fn)
    return single_state_program(
        name=f"keycounter[{num_keys}]",
        tags=universe,
        depends=depends,
        init=dict,
        update=_update,
        update_batch=_update_batch,
        fork=_fork,
        join=_join,
    )

"""DGS programs (paper Definition 2.1).

A DGS program packages:

1. a finite tag universe (the parallelization-relevant part of events),
2. a symmetric dependence relation on tags,
3. one or more *state types*, each with a predicate restricting the
   events a state of that type may process and an ``update`` function,
4. an initial state of type ``State_0`` whose predicate is ``true``,
5. fork and join parallelization primitives converting between state
   types.

Deviation from the paper's signature, for Pythonic ergonomics: the
paper splits event handling into ``update_i : (State_i, Event) ->
State_i`` and ``out_i : (State_i, Event) -> List(Out)``; we merge them
into ``update(state, event) -> (state', [out])``, which is equivalent
(project on either component) and avoids recomputation.

Update functions must be *pure*: they receive a state and return a new
state (in-place mutation of shared containers breaks fork/join
semantics and the consistency checker will catch most such bugs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .dependence import DependenceRelation
from .errors import ProgramError
from .events import Event, Record, Tag, sort_streams
from .predicates import TagPredicate, true_pred

State = Any
Output = Any
UpdateFn = Callable[[State, Event], Tuple[State, List[Output]]]
#: Vectorized update over a columnar run of consecutive events of one
#: route (:class:`repro.runtime.messages.EventRun`): returns the folded
#: state and ``(event_index, output)`` pairs so outputs keep their
#: per-event order keys.  A run has one tag, not one value type: its
#: ``ts`` and ``payloads`` columns may mix types (``payloads`` is None
#: only when every payload is).  Must be output-equivalent to folding
#: ``update`` over the run's events, whatever their types.
BatchUpdateFn = Callable[[State, Any], Tuple[State, List[Tuple[int, Output]]]]
ForkImpl = Callable[[State, TagPredicate, TagPredicate], Tuple[State, State]]
JoinImpl = Callable[[State, State], State]

INITIAL_STATE_TYPE = "State0"


@dataclass(frozen=True)
class StateType:
    """A state type ``State_i`` with its event predicate ``pred_i``.

    ``update_batch`` is an optional vectorized opt-in: when present,
    leaf workers on the runs-enabled data plane hand whole columnar
    runs to it instead of calling ``update`` per event.  A run is the
    events of one route, of whatever value types, so a fast path over
    its columns must fall back where a value's type would make it
    disagree with ``update`` (:data:`BatchUpdateFn`).  Programs that
    leave it ``None`` still benefit from runs (framing and mailbox
    costs amortize); the worker just folds ``update`` over the run."""

    name: str
    pred: TagPredicate
    update: UpdateFn
    update_batch: Optional[BatchUpdateFn] = None


@dataclass(frozen=True)
class ForkFn:
    """A fork primitive ``State_i -> (State_j, State_k)``."""

    input: str
    left: str
    right: str
    fn: ForkImpl

    def __call__(
        self, state: State, pred1: TagPredicate, pred2: TagPredicate
    ) -> Tuple[State, State]:
        return self.fn(state, pred1, pred2)


@dataclass(frozen=True)
class JoinFn:
    """A join primitive ``(State_j, State_k) -> State_i``."""

    left: str
    right: str
    output: str
    fn: JoinImpl

    def __call__(self, s1: State, s2: State) -> State:
        return self.fn(s1, s2)


class DGSProgram:
    """A complete DGS program (Definition 2.1)."""

    def __init__(
        self,
        *,
        name: str,
        tags: Iterable[Tag],
        depends: DependenceRelation,
        state_types: Sequence[StateType],
        init: Callable[[], State],
        forks: Sequence[ForkFn] = (),
        joins: Sequence[JoinFn] = (),
        initial_type: str = INITIAL_STATE_TYPE,
    ) -> None:
        self.name = name
        self.tags = frozenset(tags)
        self.depends = depends
        self.init = init
        self.initial_type = initial_type
        self.state_types: Dict[str, StateType] = {}
        for st in state_types:
            if st.name in self.state_types:
                raise ProgramError(f"duplicate state type {st.name!r}")
            self.state_types[st.name] = st
        self.forks: Tuple[ForkFn, ...] = tuple(forks)
        self.joins: Tuple[JoinFn, ...] = tuple(joins)
        self._validate()
        self._fork_index: Dict[Tuple[str, str, str], ForkFn] = {
            (f.input, f.left, f.right): f for f in self.forks
        }
        self._join_index: Dict[Tuple[str, str, str], JoinFn] = {
            (j.left, j.right, j.output): j for j in self.joins
        }

    # -- validation ----------------------------------------------------
    def _validate(self) -> None:
        if self.depends.universe != self.tags:
            raise ProgramError(
                "dependence relation universe does not match program tags"
            )
        if self.initial_type not in self.state_types:
            raise ProgramError(f"initial state type {self.initial_type!r} undefined")
        init_pred = self.state_types[self.initial_type].pred
        if init_pred.tags != self.tags:
            raise ProgramError("pred_0 must be the true predicate (Definition 2.1)")
        for st in self.state_types.values():
            if st.pred.universe != self.tags:
                raise ProgramError(
                    f"state type {st.name!r} predicate uses a different universe"
                )
        for f in self.forks:
            for ref in (f.input, f.left, f.right):
                if ref not in self.state_types:
                    raise ProgramError(f"fork references unknown state type {ref!r}")
        for j in self.joins:
            for ref in (j.left, j.right, j.output):
                if ref not in self.state_types:
                    raise ProgramError(f"join references unknown state type {ref!r}")

    # -- lookups ---------------------------------------------------------
    def state_type(self, name: str) -> StateType:
        try:
            return self.state_types[name]
        except KeyError:
            raise ProgramError(f"unknown state type {name!r}") from None

    def fork_for(self, input: str, left: str, right: str) -> ForkFn:
        try:
            return self._fork_index[(input, left, right)]
        except KeyError:
            raise ProgramError(
                f"no fork {input!r} -> ({left!r}, {right!r}) declared"
            ) from None

    def join_for(self, left: str, right: str, output: str) -> JoinFn:
        try:
            return self._join_index[(left, right, output)]
        except KeyError:
            raise ProgramError(
                f"no join ({left!r}, {right!r}) -> {output!r} declared"
            ) from None

    def has_fork_join(self, input: str, left: str, right: str) -> bool:
        return (input, left, right) in self._fork_index and (
            left,
            right,
            input,
        ) in self._join_index

    def pred(self, state_type: str) -> TagPredicate:
        return self.state_type(state_type).pred

    def true_pred(self) -> TagPredicate:
        return true_pred(self.tags)

    # -- sequential specification (the paper's ``spec``) ------------------
    def spec(self, events: Iterable[Event]) -> List[Output]:
        """Run the sequential implementation over an already-ordered
        event list; outputs are produced in order."""
        st = self.state_types[self.initial_type]
        state = self.init()
        outputs: List[Output] = []
        for event in events:
            if event.tag not in self.tags:
                raise ProgramError(f"event tag {event.tag!r} outside universe")
            state, outs = st.update(state, event)
            outputs.extend(outs)
        return outputs

    def spec_of_streams(self, streams: Iterable[Iterable[Record]]) -> List[Output]:
        """``spec(sortO(u_1, ..., u_k))`` of Definition 3.4."""
        return self.spec(sort_streams(streams))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DGSProgram({self.name!r}, |tags|={len(self.tags)}, "
            f"states={sorted(self.state_types)}, forks={len(self.forks)}, "
            f"joins={len(self.joins)})"
        )


def single_state_program(
    *,
    name: str,
    tags: Iterable[Tag],
    depends: DependenceRelation,
    init: Callable[[], State],
    update: UpdateFn,
    fork: ForkImpl,
    join: JoinImpl,
    update_batch: Optional[BatchUpdateFn] = None,
) -> DGSProgram:
    """Convenience constructor for the common one-state-type program
    (all of the paper's evaluation applications have this shape)."""
    universe = frozenset(tags)
    st = StateType(INITIAL_STATE_TYPE, true_pred(universe), update, update_batch)
    return DGSProgram(
        name=name,
        tags=universe,
        depends=depends,
        state_types=[st],
        init=init,
        forks=[ForkFn(INITIAL_STATE_TYPE, INITIAL_STATE_TYPE, INITIAL_STATE_TYPE, fork)],
        joins=[JoinFn(INITIAL_STATE_TYPE, INITIAL_STATE_TYPE, INITIAL_STATE_TYPE, join)],
    )

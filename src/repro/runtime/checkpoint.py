"""State checkpointing (paper Appendix D.2).

In Flumina a consistent snapshot of the distributed state is free:
whenever the root has joined its descendants' states, the joined value
*is* the global state as of the triggering event's timestamp.  The
runtime exposes this as a ``checkpoint_predicate`` hook — called at
every root join with the triggering event and the number of snapshots
taken so far — and this module provides the standard policies plus the
:class:`Checkpoint` record and sequential-replay helper used by the
fault-recovery subsystem (:mod:`repro.runtime.recovery`).

The policies are small callable *classes*, not closures: predicate
state (the n-th-join counter, the last snapshot timestamp) must be
picklable so a predicate can cross the process-runtime boundary and be
shipped inside worker reports.  Note that stateful policies keep their
state *per execution attempt* — a recovery attempt restarts the
cadence, which only changes how often snapshots are taken, never their
consistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

from ..core.events import Event
from ..core.program import DGSProgram

CheckpointPredicate = Callable[[Event, int], bool]

OrderKey = Tuple


@dataclass(frozen=True)
class Checkpoint:
    """One consistent snapshot, taken at a root join.

    ``key`` is the triggering event's order key (the paper's total
    order ``O``), ``ts`` its timestamp, and ``state`` the joined root
    state *after* applying the triggering event — i.e. the sequential
    state of the whole computation over every event with order key
    ``<= key``.  All fields are picklable (application states already
    cross process boundaries as join/fork payloads).
    """

    key: OrderKey
    ts: float
    state: Any


class EveryRootJoin:
    """Snapshot at every root join (the paper's default instantiation)."""

    def __call__(self, event: Event, count: int) -> bool:
        return True


class EveryNthJoin:
    """Snapshot at every n-th root join."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.seen = 0

    def __call__(self, event: Event, count: int) -> bool:
        self.seen += 1
        return self.seen % self.n == 0


class ByTimestampInterval:
    """Snapshot when at least ``interval`` timestamp units have passed
    since the previous snapshot."""

    def __init__(self, interval: float) -> None:
        if not interval > 0:  # NaN too: it would never snapshot
            raise ValueError("interval must be positive")
        self.interval = interval
        self.last_ts = float("-inf")

    def __call__(self, event: Event, count: int) -> bool:
        if event.ts - self.last_ts >= self.interval:
            self.last_ts = event.ts
            return True
        return False


def every_root_join() -> CheckpointPredicate:
    return EveryRootJoin()


def every_nth_join(n: int) -> CheckpointPredicate:
    return EveryNthJoin(n)


def by_timestamp_interval(interval: float) -> CheckpointPredicate:
    return ByTimestampInterval(interval)


def recover(
    program: DGSProgram,
    checkpoint_state: Any,
    replay_events: Sequence[Event],
) -> Tuple[Any, List[Any]]:
    """Resume computation from a snapshot: apply the sequential update
    to the events after the checkpoint (sorted by the order relation),
    returning the final state and the replayed outputs.

    This is the sequential model of crash recovery; the distributed
    form — restart the plan's workers from the snapshot and replay the
    input suffix through the full protocol — is
    :class:`repro.runtime.reconfigure.RestartDriver`.
    """
    st = program.state_type(program.initial_type)
    state = checkpoint_state
    outputs: List[Any] = []
    for event in sorted(replay_events, key=lambda e: e.order_key):
        state, outs = st.update(state, event)
        outputs.extend(outs)
    return state, outputs

"""Fault injection for the runtime substrates (chaos testing).

A :class:`FaultPlan` is a *seeded, declarative schedule* of faults that
every execution substrate — the simulated cluster, the threaded
runtime, and the process runtime — honors identically, because the
triggers live inside the substrate-independent worker state machine
(:class:`~repro.runtime.protocol.WorkerCore`):

* :class:`CrashFault` — fail-stop of one worker, keyed by that
  worker's processed-event count or by event timestamp.  The crash
  fires *at an event boundary*: every event the worker processed is
  fully processed (its protocol consequences are sent, its outputs are
  logged), and the triggering event is not.  This is the paper's
  fail-stop model with synchronous output logging; what it deliberately
  does not model is a byzantine half-applied update.
* :class:`DropHeartbeats` — lossy progress signaling: heartbeats
  arriving at one worker are silently discarded.  Drops are bounded to
  timestamps below ``before_ts`` so the closing heartbeat (which lets a
  finite run drain) is always delivered — without it no finite
  execution could terminate, faults or not.

Crash faults fire **once** across a whole recovered execution: the
restart driver marks them fired, so replaying the input suffix after
restoring a checkpoint does not re-kill the restarted worker.  Drop
faults are re-armed per attempt (dropping the same heartbeat again is
harmless by monotonicity).

Everything here is picklable plain data, so fault state can cross the
process-runtime boundary in both directions (plans into forked
workers, crash records back in worker reports).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

OrderKey = Tuple


def check_at_ts(at_ts: object) -> None:
    """An unset time trigger, or a real number that is not a ``bool``,
    below +inf and not NaN (no timestamp reaches either)."""
    if at_ts is not None and (
        isinstance(at_ts, bool) or not isinstance(at_ts, numbers.Real) or not at_ts < math.inf
    ):
        raise ValueError(f"at_ts must be a number below +inf, not {at_ts!r}")


def check_count(name: str, value: object) -> None:
    """An unset count, or an ``int >= 1`` that is not a ``bool``."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 1):
        raise ValueError(f"{name} must be an int >= 1, not {value!r}")


@dataclass(frozen=True)
class CrashFault:
    """Fail-stop one worker, triggered at an event boundary.

    Exactly one of the triggers must be set:

    * ``after_events=n`` — fire when the worker is about to process
      its ``n``-th application event (1-based, per execution attempt);
    * ``at_ts=t`` — fire when the worker is about to process an event
      with timestamp ``>= t``.
    """

    worker: str
    after_events: Optional[int] = None
    at_ts: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.after_events is None) == (self.at_ts is None):
            raise ValueError(
                "CrashFault needs exactly one of after_events= / at_ts="
            )
        check_count("after_events", self.after_events)
        check_at_ts(self.at_ts)

    def due(self, events_seen: int, ts: float) -> bool:
        if self.after_events is not None:
            return events_seen >= self.after_events
        return ts >= self.at_ts  # type: ignore[operator]


@dataclass(frozen=True)
class DropHeartbeats:
    """Drop heartbeats arriving at ``worker``.

    Only heartbeats whose key timestamp is ``< before_ts`` are
    droppable (the closing heartbeat must always get through, see
    module docstring); at most ``count`` of them are dropped (``None``
    = all matching ones).
    """

    worker: str
    before_ts: float
    count: Optional[int] = None

    def __post_init__(self) -> None:
        if math.isnan(self.before_ts):
            raise ValueError("before_ts must not be NaN")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 (or None for unlimited)")


Fault = Union[CrashFault, DropHeartbeats]


class WorkerCrash(Exception):
    """Control-flow signal raised inside a worker when a CrashFault
    fires.  Deliberately *not* a :class:`~repro.core.errors.ReproError`:
    library-error handlers must never swallow an injected crash — only
    the substrates' fail-stop handlers catch it.
    """

    def __init__(
        self, worker: str, fault_index: int, events_seen: int, ts: float
    ) -> None:
        super().__init__(
            f"injected crash at worker {worker!r} "
            f"(fault #{fault_index}, event #{events_seen}, ts={ts})"
        )
        self.record = CrashRecord(worker, fault_index, events_seen, ts)


@dataclass(frozen=True)
class CrashRecord:
    """What actually fired: crosses the process boundary in reports."""

    worker: str
    fault_index: int
    events_seen: int
    ts: float


class WorkerFaultView:
    """One worker's per-attempt view of the plan: local trigger
    counters plus the not-yet-fired crash faults assigned to it."""

    def __init__(
        self,
        worker: str,
        crashes: List[Tuple[int, CrashFault]],
        drops: List[DropHeartbeats],
    ) -> None:
        self.worker = worker
        self._crashes = list(crashes)
        self._drops = [[d.before_ts, d.count] for d in drops]
        self.events_seen = 0

    def note_event(self, ts: float) -> None:
        """Called before a worker processes an application event;
        raises :class:`WorkerCrash` when a crash fault is due."""
        self.events_seen += 1
        for index, fault in self._crashes:
            if fault.due(self.events_seen, ts):
                raise WorkerCrash(self.worker, index, self.events_seen, ts)

    def passable(self, ts: Sequence[float]) -> int:
        """How many of the next events — ``ts``, their timestamps in
        order — pass before a crash fault is due (``len(ts)`` when none
        is); counts those as seen.  The worker applies them in one
        dispatch and calls :meth:`note_event` for the one that is due."""
        n = len(ts)
        for _index, fault in self._crashes:
            if fault.after_events is not None:
                n = min(n, max(0, fault.after_events - self.events_seen - 1))
            else:
                n = min(n, bisect_left(ts, fault.at_ts))
        self.events_seen += n
        return n

    def should_drop_heartbeat(self, key: OrderKey) -> bool:
        ts = key[0]
        for window in self._drops:
            before_ts, budget = window
            if ts < before_ts and (budget is None or budget > 0):
                if budget is not None:
                    window[1] = budget - 1
                return True
        return False


class FaultPlan:
    """A schedule of faults over a plan's workers.

    ``fired`` is coordinator-side bookkeeping: crash faults whose
    indices appear there are excluded from the views handed to workers
    on later recovery attempts.
    """

    def __init__(self, *faults: Fault) -> None:
        self.faults: Tuple[Fault, ...] = tuple(faults)
        self.fired: set = set()

    def crash_indices(self) -> List[int]:
        return [
            i for i, f in enumerate(self.faults) if isinstance(f, CrashFault)
        ]

    def has_crash_faults(self) -> bool:
        return any(isinstance(f, CrashFault) for f in self.faults)

    def mark_fired(self, index: int) -> None:
        if not isinstance(self.faults[index], CrashFault):
            raise ValueError(f"fault #{index} is not a crash fault")
        self.fired.add(index)

    def view_for(self, worker: str) -> Optional[WorkerFaultView]:
        """A fresh per-attempt view for one worker; None when the plan
        holds nothing for it (the common case — zero overhead)."""
        crashes = [
            (i, f)
            for i, f in enumerate(self.faults)
            if isinstance(f, CrashFault)
            and f.worker == worker
            and i not in self.fired
        ]
        drops = [
            f
            for f in self.faults
            if isinstance(f, DropHeartbeats) and f.worker == worker
        ]
        if not crashes and not drops:
            return None
        return WorkerFaultView(worker, crashes, drops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(type(f).__name__ for f in self.faults)
        return f"FaultPlan([{kinds}], fired={sorted(self.fired)})"

"""Worker-side quiesce primitives for elastic reconfiguration.

The fork/join state hierarchy of a synchronization plan makes every
root join a free consistent snapshot (paper Appendix D.2) — the same
mechanism checkpointing exploits.  *Quiescing* is the planned use of
that snapshot: the root, immediately after completing a join (state
updated, outputs emitted, checkpoint optionally taken), raises
:class:`QuiesceSignal` instead of forking the state back down.  The
substrate stops the attempt exactly as it would for an injected crash,
and the restart driver (:mod:`repro.runtime.reconfigure`)
commits the sequential prefix, migrates the captured root state into a
new plan, and replays the input suffix there.

This module is deliberately a *leaf* of the runtime import graph —
plain picklable data plus trigger logic, no runtime imports — so the
substrate-independent :class:`~repro.runtime.protocol.WorkerCore` and
every substrate can use it without cycles (mirroring how
:mod:`repro.runtime.faults` sits below :mod:`repro.runtime.recovery`).

A trigger is a *planned point*: it fires at the first root join whose
triggering event has ``ts >= at_ts``, or at the attempt's
``after_joins``-th root join (mirroring
:class:`~repro.runtime.faults.CrashFault`'s two keys).  Timestamp
triggers are stable across crash-recovery replays: replayed events
keep their original timestamps, so a point that was interrupted by a
crash fires again at the same place.

Everything here is plain picklable data so a view can cross the
process-runtime boundary (into a forked root worker) and the quiesce
record — which carries the snapshot state — can travel back in the
worker's report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

OrderKey = Tuple


@dataclass(frozen=True)
class QuiesceRecord:
    """What actually fired at the root: the consistent snapshot plus
    the trigger bookkeeping the driver needs to pick a target plan.

    ``point_index`` is the schedule index of the point that fired.
    ``state`` is the joined root state *after* applying the triggering
    event — the sequential state over every event with order key
    ``<= key`` (exactly a :class:`~repro.runtime.checkpoint.Checkpoint`'s
    contract).
    """

    worker: str
    point_index: int
    key: OrderKey
    ts: float
    state: Any
    joins_seen: int


class QuiesceSignal(Exception):
    """Control-flow signal raised at the root when a reconfiguration
    trigger fires.  Like :class:`~repro.runtime.faults.WorkerCrash`,
    deliberately *not* a :class:`~repro.core.errors.ReproError`:
    library-error handlers must never swallow a quiesce — only the
    substrates' lifecycle handlers catch it.
    """

    def __init__(self, record: QuiesceRecord) -> None:
        super().__init__(
            f"quiesce at root {record.worker!r} "
            f"(point #{record.point_index}, join #{record.joins_seen}, "
            f"ts={record.ts})"
        )
        self.record = record


@dataclass(frozen=True)
class PointTrigger:
    """One planned reconfiguration point's worker-side trigger.

    Exactly one of ``at_ts`` / ``after_joins`` is set (validated by
    :class:`~repro.runtime.reconfigure.ReconfigPoint`, which this is
    derived from)."""

    index: int
    at_ts: Optional[float] = None
    after_joins: Optional[int] = None

    def due(self, joins_seen: int, ts: float) -> bool:
        if self.after_joins is not None:
            return joins_seen >= self.after_joins
        return ts >= self.at_ts  # type: ignore[operator]


class RootReconfigView:
    """The root worker's per-attempt view of a reconfiguration
    schedule: the not-yet-fired planned triggers and a local root-join
    counter.

    ``maybe_quiesce`` is the single hook the worker state machines call
    — at a root join, after the update/checkpoint but before forking
    the state back down.  It raises :class:`QuiesceSignal` when a
    trigger is due (earliest schedule index first)."""

    def __init__(self, worker: str, points: List[PointTrigger]) -> None:
        self.worker = worker
        self._points = list(points)
        self.joins_seen = 0

    def maybe_quiesce(self, event: Any, state: Any) -> None:
        """Called by the root at every completed event-join; raises
        :class:`QuiesceSignal` when a reconfiguration trigger is due."""
        self.joins_seen += 1
        for trig in self._points:
            if trig.due(self.joins_seen, event.ts):
                raise QuiesceSignal(
                    QuiesceRecord(
                        worker=self.worker,
                        point_index=trig.index,
                        key=event.order_key,
                        ts=event.ts,
                        state=state,
                        joins_seen=self.joins_seen,
                    )
                )

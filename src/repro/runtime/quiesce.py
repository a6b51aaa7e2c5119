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

Triggers come in two flavors:

* **planned points** — fire at the first root join whose triggering
  event has ``ts >= at_ts``, or at the attempt's ``after_joins``-th
  root join (mirroring :class:`~repro.runtime.faults.CrashFault`'s two
  keys).  Timestamp triggers are stable across crash-recovery replays:
  replayed events keep their original timestamps, so a point that was
  interrupted by a crash fires again at the same place.
* **load-driven** — fire when the cluster-wide *queue depth* observed
  at a root join crosses a watermark.  Leaves report their backlog
  (buffered + pending mailbox items) on every
  :class:`~repro.runtime.messages.JoinResponse`; internal nodes sum
  their children's, so the root sees the total number of queued events
  at the instant of the snapshot.  The auto-scaler policy in
  :mod:`repro.runtime.reconfigure` turns these firings into
  widen/narrow decisions.

Everything here is plain picklable data so a view can cross the
process-runtime boundary (into a forked root worker) and the quiesce
record — which carries the snapshot state — can travel back in the
worker's report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

OrderKey = Tuple

#: Reasons a quiesce fired (QuiesceRecord.reason).
PLANNED = "planned"
SCALE_OUT = "scale-out"
SCALE_IN = "scale-in"


@dataclass(frozen=True)
class QuiesceRecord:
    """What actually fired at the root: the consistent snapshot plus
    the trigger bookkeeping the driver needs to pick a target plan.

    ``point_index`` is the schedule index of a planned point, or -1 for
    a load-driven (auto-scaler) firing; ``reason`` is one of
    ``planned`` / ``scale-out`` / ``scale-in``.  ``state`` is the joined
    root state *after* applying the triggering event — the sequential
    state over every event with order key ``<= key`` (exactly a
    :class:`~repro.runtime.checkpoint.Checkpoint`'s contract).
    """

    worker: str
    point_index: int
    reason: str
    key: OrderKey
    ts: float
    state: Any
    joins_seen: int
    queue_depth: int


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
            f"({record.reason}, join #{record.joins_seen}, ts={record.ts}, "
            f"queue_depth={record.queue_depth})"
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


@dataclass(frozen=True)
class WatermarkTrigger:
    """The auto-scaler's worker-side trigger: fire when the queue depth
    observed at a root join crosses a watermark.  ``cooldown_joins``
    root joins must complete in the current attempt before it can fire
    (so a freshly migrated plan processes something before the next
    decision)."""

    high_watermark: Optional[int] = None
    low_watermark: Optional[int] = None
    cooldown_joins: int = 1

    def reason_for(
        self, queue_depth: int, joins_seen: int, backlog_hw: int = 0
    ) -> Optional[str]:
        """``queue_depth`` is the instantaneous cluster-wide depth at
        the join; ``backlog_hw`` is the metrics-plane backlog
        high-water since the previous decision (0 when the plane is
        off).  Scale-out fires when *either* crosses the high
        watermark — a burst that drained before the join still counts
        as load; scale-in needs *both* at or below the low watermark,
        so a bursty-but-currently-empty queue does not shed width it
        is about to need."""
        if joins_seen < self.cooldown_joins:
            return None
        load = max(queue_depth, backlog_hw)
        if self.high_watermark is not None and load >= self.high_watermark:
            return SCALE_OUT
        if self.low_watermark is not None and load <= self.low_watermark:
            return SCALE_IN
        return None


class RootReconfigView:
    """The root worker's per-attempt view of a reconfiguration
    schedule: the not-yet-fired planned triggers plus the (optional)
    load watermarks, and a local root-join counter.

    ``maybe_quiesce`` is the single hook the worker state machines call
    — at a root join, after the update/checkpoint but before forking
    the state back down.  It raises :class:`QuiesceSignal` when a
    trigger is due (planned points win over the auto-scaler, earliest
    schedule index first)."""

    def __init__(
        self,
        worker: str,
        points: List[PointTrigger],
        watermarks: Optional[WatermarkTrigger] = None,
    ) -> None:
        self.worker = worker
        self._points = list(points)
        self._watermarks = watermarks
        self.joins_seen = 0

    def maybe_quiesce(
        self, event: Any, queue_depth: int, state: Any, backlog_hw: int = 0
    ) -> None:
        """Called by the root at every completed event-join; raises
        :class:`QuiesceSignal` when a reconfiguration trigger is due.
        ``backlog_hw`` is the metrics-plane backlog high-water since
        the last join (see :meth:`WatermarkTrigger.reason_for`);
        substrates without the plane leave it 0 and the watermarks
        fall back to the instantaneous depth alone."""
        self.joins_seen += 1
        for trig in self._points:
            if trig.due(self.joins_seen, event.ts):
                raise QuiesceSignal(
                    QuiesceRecord(
                        worker=self.worker,
                        point_index=trig.index,
                        reason=PLANNED,
                        key=event.order_key,
                        ts=event.ts,
                        state=state,
                        joins_seen=self.joins_seen,
                        queue_depth=queue_depth,
                    )
                )
        if self._watermarks is not None:
            reason = self._watermarks.reason_for(
                queue_depth, self.joins_seen, backlog_hw
            )
            if reason is not None:
                raise QuiesceSignal(
                    QuiesceRecord(
                        worker=self.worker,
                        point_index=-1,
                        reason=reason,
                        key=event.order_key,
                        ts=event.ts,
                        state=state,
                        joins_seen=self.joins_seen,
                        queue_depth=queue_depth,
                    )
                )

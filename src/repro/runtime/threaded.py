"""The in-process substrate: every worker of an attempt on the caller's
thread.

An attempt's workers are the real substrates' worker-loop body
(:class:`~repro.runtime.process._Worker`, one
:class:`~repro.runtime.protocol.WorkerCore` each), driven from one FIFO
run queue of ``(worker, batch)`` pairs.  A worker's ``post`` appends to
its per-destination outbox; a flush — at the end of every batch, and
mid-batch when the core asks for one (``flush_hint``) — moves each
outbox onto the run queue as one batch.  The attempt is idle when the
run queue is empty.  Nothing is forked, encoded, locked or handed
between OS threads: a join step (root → leaves → root → fork down)
costs queue appends, not thread wake-ups.

The closed-loop pump posts the whole input before the queue runs; the
paced pump runs the queue to idle before each of its sleeps, so work
overlaps with waiting.  ``timeout_s`` bounds the drain after the pump
and is checked between batches, so a handler that never returns hangs
the caller, as it would on the simulated substrate: the process
backend is the one that can abandon a stuck worker.  A run queue that
empties while some worker still holds items is a stall, raised at once
with every stuck worker's protocol state.  A crash or a
reconfiguration quiesce ends the attempt at the batch that raised it.

One FIFO queue, outboxes flushed in first-post order: the schedule is
deterministic, and two runs of the same input give the same outputs in
the same order.  Real preemption is the process backend's; the
differential matrix runs every app on both.

The name stays ``threaded``: the backend registry, ``ServeOptions``'
default backend (every service epoch runs here) and ``repro.chaos
--backends`` all use it.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from ..plans.validity import assert_p_valid
from .checkpoint import CheckpointPredicate
from .faults import FaultPlan
from .metrics import MetricsConfig
from .process import AttemptSpec, _Worker, merge_reports, pump_attempt, worker_fault
from .protocol import INIT_STATE, AttemptOutcome
from .runtime import InputStream
from .wire import batch_message_count

_SUBSTRATE = "threaded"


class _Outbox:
    """One sender's outgoing messages — a worker's, or the producers'
    on the coordinator's behalf: ``post`` appends to the destination's
    list, ``flush`` moves every list onto the run queue as one batch,
    in first-post order."""

    __slots__ = ("_runq", "_lists", "metrics")

    def __init__(self, runq: Deque[Tuple[str, List[Any]]]) -> None:
        self._runq = runq
        self._lists: Dict[str, List[Any]] = {}
        #: The worker's WorkerMetrics when the metrics plane is on:
        #: counts the batches flushed, as a transport's sender does.
        self.metrics = None

    def post(self, dst: str, msg: Any) -> None:
        batch = self._lists.get(dst)
        if batch is None:
            self._lists[dst] = [msg]
        else:
            batch.append(msg)

    def flush(self) -> None:
        lists = self._lists
        if lists:
            self._lists = {}
            self._runq.extend(lists.items())
            m = self.metrics
            if m is not None:
                m.batches_sent += len(lists)
                m.messages_sent += sum(map(batch_message_count, lists.values()))


def _holds_work(worker: _Worker) -> bool:
    """Items buffered or pending, or a join step still awaited."""
    return worker.core.blocked or worker.core.unprocessed() > 0


class _Attempt:
    """One attempt's workers and their run queue."""

    def __init__(self, spec: AttemptSpec) -> None:
        self.runq: Deque[Tuple[str, List[Any]]] = deque()
        self.workers = {n.id: _Worker(n.id, spec, _Outbox(self.runq)) for n in spec.plan.workers()}
        #: A worker crashed or quiesced: the attempt is over.
        self.aborted = False

    def run(self, timeout_s: Optional[float] = None) -> None:
        """Run the queue until it is empty or a worker stops, checking
        ``timeout_s`` (if given) before each batch."""
        if self.aborted:
            return
        runq, workers = self.runq, self.workers
        popleft, monotonic = runq.popleft, time.monotonic
        deadline = monotonic() + timeout_s if timeout_s is not None else None
        while runq:
            if deadline is not None and monotonic() > deadline:
                raise self._timed_out(timeout_s)
            wid, batch = popleft()
            try:
                stopped = workers[wid].handle(batch)
            except Exception as exc:
                raise worker_fault(wid, f"{exc!r}\n{traceback.format_exc()}") from exc
            if stopped:
                self.aborted = True
                return

    def _timed_out(self, timeout_s: float) -> RuntimeFault:
        queued = sum(batch_message_count(batch) for _, batch in self.runq)
        busy = {wid for wid, _ in self.runq}
        busy.update(wid for wid, w in self.workers.items() if _holds_work(w))
        n = len(self.workers)
        return RuntimeFault(
            f"{_SUBSTRATE} runtime did not drain within {timeout_s:g}s: {queued} "
            f"message(s) in flight, {n - len(busy)} of {n} worker(s) idle, "
            f"no report from {sorted(busy)} (still holding work)"
        )

    def raise_stall(self) -> None:
        """The run queue is empty: a worker that still holds items or
        awaits a join step never will get what it waits for."""
        stuck = [w for w in self.workers.values() if _holds_work(w)]
        if stuck:
            lines = "".join(f"\n  worker {w.node_id}: {w.core.stall_state()}" for w in stuck)
            raise RuntimeFault(
                f"{_SUBSTRATE} runtime stalled: the run queue is empty but "
                f"{len(stuck)} worker(s) still hold work; check heartbeats / "
                f"dependence relation{lines}"
            )


class ThreadedRuntime:
    """Run a DGS program on the in-process substrate: every plan worker
    on the caller's thread, from one run queue."""

    #: No batch policy: a batch is what one flush moved.
    policy = None

    def __init__(self, program: DGSProgram, plan: SyncPlan, *, validate: bool = True):
        self.program = program
        if validate:
            assert_p_valid(plan, program)
        self.plan = plan

    def run(
        self,
        streams: Sequence[InputStream],
        *,
        timeout_s: float = 60.0,
        initial_state: Any = INIT_STATE,
        checkpoint_predicate: Optional[CheckpointPredicate] = None,
        faults: Optional[FaultPlan] = None,
        record_keys: bool = False,
        reconfig: Any = None,
        metrics: Optional[MetricsConfig] = None,
        pace: Optional[float] = None,
    ) -> AttemptOutcome:
        """Execute one attempt (see :meth:`ProcessRuntime.run` for the
        fault-injection / reconfiguration parameter contract: a crashed
        or quiesced attempt returns with ``crashes`` non-empty /
        ``quiesce`` set instead of raising)."""
        spec = AttemptSpec.of(
            self, initial_state, checkpoint_predicate, faults, record_keys, reconfig, metrics
        )
        attempt = _Attempt(spec)
        result = AttemptOutcome(
            events_in=sum(len(s.events) for s in streams), n_workers=len(attempt.workers)
        )
        producers = _Outbox(attempt.runq)

        def before_sleep() -> None:
            producers.flush()
            attempt.run()

        t0 = time.perf_counter()
        pump_attempt(spec.plan, streams, producers, pace, before_sleep)
        attempt.run(timeout_s)
        result.wall_s = time.perf_counter() - t0
        if not attempt.aborted:
            attempt.raise_stall()
        merge_reports(result, [w.report() for w in attempt.workers.values()], spec.metrics)
        return result

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

An attempt is opened once and then fed and sealed any number of times
(:class:`_Attempt`): a feed posts events to their owners, a seal posts
one heartbeat per implementation tag above everything posted, runs the
queue to idle and reports what the attempt has not yet reported.  That
is how the service tier keeps one attempt open for its whole life
(:meth:`~repro.runtime.RuntimeBackend.open_attempt`); a closed run
(:meth:`ThreadedRuntime.run`) is the special case open → pump → final
seal, the seal's heartbeats being the pump's closing ones.

The closed-loop pump posts the whole input before the queue runs; the
paced pump runs the queue to idle before each of its sleeps, so work
overlaps with waiting.  ``timeout_s`` bounds each seal's drain and is
checked between batches, so a handler that never returns hangs the
caller, as it would on the simulated substrate: the process backend is
the one that can abandon a stuck worker.  A run queue that empties
while some worker still holds items is a stall, raised at once with
every stuck worker's protocol state.  A crash or a reconfiguration
quiesce ends the attempt at the batch that raised it.

One FIFO queue, outboxes flushed in first-post order: the schedule is
deterministic, and two runs of the same input give the same outputs in
the same order.  Real preemption is the process backend's; the
differential matrix runs every app on both.

The name stays ``threaded``: the backend registry, ``ServeOptions``'
default backend and ``repro.chaos --backends`` all use it.
"""

from __future__ import annotations

import math
import time
import traceback
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from ..plans.validity import assert_p_valid
from .checkpoint import CheckpointPredicate
from .faults import FaultPlan
from .messages import EventRun, HeartbeatMsg
from .metrics import MetricsConfig
from .process import AttemptSpec, _Worker, merge_reports, pump_attempt, worker_fault
from .protocol import INIT_STATE, AttemptOutcome, _heartbeat_key_tail
from .recovery import ReplayLog
from .runtime import InputStream
from .wire import batch_message_count, event_runs

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


def _log_messages(items: Sequence[Any]) -> Iterator[Any]:
    """One stream's log items as producer messages: runs as they were
    admitted, and each stretch of plain events packed by
    :func:`~repro.runtime.wire.event_runs`."""
    events: List[Any] = []
    for item in items:
        if type(item) is EventRun:
            if events:
                yield from event_runs(events)
                events = []
            yield item
        else:
            events.append(item)
    if events:
        yield from event_runs(events)


class _Attempt:
    """One attempt's workers and their run queue: opened once, then fed
    (:meth:`post`, :meth:`pump`) and sealed (:meth:`seal`) until a seal
    is final or a worker crashes or quiesces."""

    def __init__(self, spec: AttemptSpec, timeout_s: Optional[float]) -> None:
        self.spec = spec
        self.timeout_s = timeout_s
        self.runq: Deque[Tuple[str, List[Any]]] = deque()
        self.workers = {n.id: _Worker(n.id, spec, _Outbox(self.runq)) for n in spec.plan.workers()}
        #: Events and heartbeats, posted on the coordinator's behalf.
        self.producers = _Outbox(self.runq)
        self._owners = {t: n.id for n in spec.plan.workers() for t in n.itags}
        #: Events posted since the last seal; the highest timestamp
        #: ever posted through :meth:`post`.
        self._events_in = 0
        self._high_ts = -math.inf
        #: A worker crashed or quiesced: the attempt is over.
        self.aborted = False
        #: True while the attempt can take another seal.
        self.live = True

    def post(self, log: ReplayLog) -> None:
        """Post ``log``'s events to their owners (they run at the seal)."""
        post = self.producers.post
        for head, items in zip(log.heads, log.items):
            if items:
                owner = self._owners[head.itag]
                for msg in _log_messages(items):
                    post(owner, msg)
                last = items[-1]
                last_ts = last.ts[-1] if type(last) is EventRun else last.ts
                self._high_ts = max(self._high_ts, last_ts)
        self._events_in += len(log)

    def pump(self, streams: Sequence[InputStream], pace: Optional[float]) -> None:
        """Post closed-run input through the producer pump, closing
        heartbeats included; a paced pump runs the queue before each of
        its sleeps."""
        self._events_in += sum(len(s.events) for s in streams)

        def before_sleep() -> None:
            self.producers.flush()
            self.run()

        pump_attempt(self.spec.plan, streams, self.producers, pace, before_sleep)

    def seal(self, *, final: bool) -> AttemptOutcome:
        """Post one heartbeat per implementation tag just above the
        highest timestamp :meth:`post` ever posted — the closing
        heartbeat, one timestamp unit past it, when ``final``; a
        :meth:`pump` posts its own — run the queue to idle, and report
        the seal's window: the outputs and checkpoints not yet committed
        (see :meth:`commit`), and what this seal processed, joined and
        measured.

        The non-final key ``(nextafter(ts),)`` sorts after every order
        key at ``ts`` and before every key at a later timestamp, so it
        releases everything posted and vouches for nothing an admissible
        event could still carry."""
        hi = self._high_ts
        if hi > -math.inf:
            post = self.producers.post
            above = (math.nextafter(hi, math.inf),)
            for itag, owner in self._owners.items():
                key = (hi + 1.0, *_heartbeat_key_tail(itag)) if final else above
                post(owner, HeartbeatMsg(itag, key))
        self.producers.flush()
        t0 = time.perf_counter()
        self.run(self.timeout_s)
        result = AttemptOutcome(
            events_in=self._events_in,
            n_workers=len(self.workers),
            wall_s=time.perf_counter() - t0,
        )
        self._events_in = 0
        self.live = not (final or self.aborted)
        if not self.aborted:
            self.raise_stall()
        merge_reports(result, [w.report() for w in self.workers.values()], self.spec.metrics)
        for w in self.workers.values():
            w.sink.events_processed = w.sink.joins = 0
            if w.metrics is not None:
                w.metrics.next_window()
        return result

    def commit(self, key: tuple) -> None:
        """The driver committed everything at or below ``key``: forget
        those outputs and the checkpoints taken there."""
        for w in self.workers.values():
            w.sink.drop_through(key)

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

    def open(
        self,
        *,
        timeout_s: float = 60.0,
        initial_state: Any = INIT_STATE,
        checkpoint_predicate: Optional[CheckpointPredicate] = None,
        faults: Optional[FaultPlan] = None,
        record_keys: bool = False,
        reconfig: Any = None,
        metrics: Optional[MetricsConfig] = None,
    ) -> _Attempt:
        """Open an attempt to feed and seal (the parameters are
        :meth:`ProcessRuntime.run`'s).  Its fault views and checkpoint
        predicate live as long as it does: an ``after_events`` trigger
        or a stateful predicate counts over every seal of the attempt,
        and still fires once."""
        spec = AttemptSpec.of(
            self, initial_state, checkpoint_predicate, faults, record_keys, reconfig, metrics
        )
        return _Attempt(spec, timeout_s)

    def run(
        self,
        streams: Sequence[InputStream],
        *,
        pace: Optional[float] = None,
        **kwargs: Any,
    ) -> AttemptOutcome:
        """Execute one closed attempt: :meth:`open` one with ``kwargs``,
        pump ``streams`` into it, seal it once, final (see :meth:`ProcessRuntime.run`
        for the parameters and the fault-injection / reconfiguration
        contract: a crashed or quiesced attempt returns with ``crashes``
        non-empty / ``quiesce`` set instead of raising)."""
        attempt = self.open(**kwargs)
        t0 = time.perf_counter()
        attempt.pump(streams, pace)
        result = attempt.seal(final=True)
        result.wall_s = time.perf_counter() - t0
        return result

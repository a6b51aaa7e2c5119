"""The in-process substrate: every worker of an attempt on the caller's
thread.

An attempt is one place (:class:`~repro.runtime.process._Place`)
holding every worker: the real substrates' worker-loop body on one FIFO
run queue, each worker flushing by the forking substrates' rule.  The
attempt is idle when the run queue is empty.  Nothing is forked,
encoded, locked or handed between OS threads: a join step (root →
leaves → root → fork down) costs queue appends, not thread wake-ups.

An attempt is opened once and then fed and sealed any number of times
(:class:`_Attempt`): a feed posts events to their owners, a seal posts
one heartbeat per implementation tag above everything posted, runs the
queue to idle and reports what the attempt has not yet reported.  That
is how the service tier keeps one attempt open for its whole life
(:func:`open_in_process`); a closed run (:func:`run_in_process`) is
the special case open → pump → final seal, the seal's heartbeats being
the pump's closing ones.  Both take the :class:`AttemptSpec` the
backend builds (:meth:`~repro.runtime.RuntimeBackend._spec`).

The closed-loop pump posts the whole input before the queue runs; the
paced pump runs the queue to idle before each of its sleeps, so work
overlaps with waiting.  ``timeout_s`` bounds each seal's drain and is
checked between batches, so a handler that never returns hangs the
caller, as it would on the simulated substrate: the process backend
abandons a stuck worker at its drain timeout.  A run queue that empties
while some worker still holds items is a stall, raised at once with
every stuck worker's protocol state.  A crash or a reconfiguration
quiesce ends the attempt at the batch that raised it.

One FIFO queue, buffers flushed in first-post order: the schedule is
deterministic, and two runs of the same input give the same outputs in
the same order.  Real preemption is the process backend's; the
differential matrix runs every app on both.

The name stays ``threaded``: the backend registry, ``ServeOptions``'
default backend and ``repro.chaos --backends`` all use it.
"""

from __future__ import annotations

import math
import time
from typing import Any, Iterator, List, Sequence

from ..core.errors import RuntimeFault
from .messages import EventRun, HeartbeatMsg
from .process import AttemptSpec, _Place, _Worker, merge_reports
from .protocol import AttemptOutcome, _heartbeat_key_tail, pump_producers
from .recovery import ReplayLog
from .wire import batch_message_count, event_runs

_SUBSTRATE = "threaded"


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


class _Attempt(_Place):
    """One attempt's workers, every one in one place: opened once, then
    fed (:meth:`post`, :meth:`pump`) and sealed (:meth:`seal`) until a
    seal is final or a worker crashes or quiesces."""

    def __init__(self, spec: AttemptSpec, timeout_s: float) -> None:
        super().__init__(spec, [n.id for n in spec.plan.workers()])
        self.timeout_s = timeout_s
        self._owners = {t: n.id for n in spec.plan.workers() for t in n.itags}
        #: Events posted since the last seal; the highest timestamp
        #: ever posted through :meth:`post`.
        self._events_in = 0
        self._high_ts = -math.inf
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

    def pump(self) -> None:
        """Post the spec's closed-run input through the producer pump,
        closing heartbeats included; a paced pump runs the queue before
        each of its sleeps."""
        spec, producers = self.spec, self.producers
        self._events_in += sum(len(s.events) for s in spec.streams)
        for delay in pump_producers(spec.plan, spec.streams, producers.post, pace=spec.pace):
            if delay > 0:
                due = time.monotonic() + delay
                producers.flush()
                self.run()
                time.sleep(max(0.0, due - time.monotonic()))
        producers.flush()

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
        self.run(time.monotonic() + self.timeout_s)
        if self.stopped is None and self.runq:
            raise self._timed_out(self.timeout_s)
        result = AttemptOutcome(
            events_in=self._events_in,
            n_workers=len(self.workers),
            wall_s=time.perf_counter() - t0,
        )
        self._events_in = 0
        self.live = not (final or self.stopped is not None)
        if self.stopped is None:
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

    def _timed_out(self, timeout_s: float) -> RuntimeFault:
        queued = sum(batch_message_count(batch) for _, batch in self.runq)
        busy = {wid for wid, _ in self.runq}
        busy.update(wid for wid, w in self.workers.items() if _holds_work(w))
        n = len(self.workers)
        lines = "".join(
            f"\n  worker {wid}: {self.workers[wid].core.stall_state()}" for wid in sorted(busy)
        )
        return RuntimeFault(
            f"{_SUBSTRATE} runtime did not drain within {timeout_s:g}s: {queued} "
            f"message(s) in flight, {n - len(busy)} of {n} worker(s) idle, "
            f"no report from {sorted(busy)} (still holding work){lines}"
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


def open_in_process(spec: AttemptSpec, timeout_s: float) -> _Attempt:
    """Open an attempt to feed and seal; ``timeout_s`` bounds each
    seal's drain.  Its fault views and checkpoint predicate live as
    long as it does: an ``after_events`` trigger or a stateful
    predicate counts over every seal of the attempt, and still fires
    once."""
    # The latency epoch: the attempt's workers exist from here on.
    return _Attempt(spec.at_origin(time.time()), timeout_s)


def run_in_process(spec: AttemptSpec, timeout_s: float) -> AttemptOutcome:
    """One closed attempt: open it, pump ``spec.streams`` into it, seal
    it once, final.  A crashed or quiesced attempt returns with
    ``crashes`` non-empty / ``quiesce`` set instead of raising."""
    attempt = open_in_process(spec, timeout_s)
    t0 = time.perf_counter()
    attempt.pump()
    result = attempt.seal(final=True)
    result.wall_s = time.perf_counter() - t0
    return result

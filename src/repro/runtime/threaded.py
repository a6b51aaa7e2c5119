"""A real-thread execution of synchronization plans.

The simulated runtime measures performance; this module executes the
*same protocol* (selective-reordering mailboxes, join/fork worker state
machine, heartbeat relay) on actual ``threading`` threads with FIFO
queues — demonstrating that the design runs on a genuinely concurrent
substrate, and giving the test suite a second, independent
implementation to check against the sequential specification.

Python's GIL means this is about concurrency correctness, not speedup;
for multi-core parallelism see :mod:`repro.runtime.process`, which runs
the same :class:`~repro.runtime.protocol.WorkerCore` state machine on
OS processes.

Termination: producers enqueue all events plus closing heartbeats; a
global in-flight message counter reaches zero only when every queue has
drained and no handler is running, at which point stop sentinels are
delivered.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from ..core.errors import RuntimeFault
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from ..plans.validity import assert_p_valid
from .checkpoint import Checkpoint, CheckpointPredicate
from .faults import CrashRecord, FaultPlan, WorkerCrash
from .metrics import MetricsConfig, RunMetrics, WorkerMetrics
from .quiesce import QuiesceRecord, QuiesceSignal
from .protocol import (
    INIT_STATE,
    AttemptOutcome,
    OutputSink,
    WorkerCore,
    initial_leaf_states,
    pump_producers,
)
from .runtime import InputStream

_STOP = object()


class _Router:
    """Message fabric: per-worker FIFO queues + in-flight accounting."""

    def __init__(self) -> None:
        self.queues: Dict[str, "queue.Queue[Any]"] = {}
        self._inflight = 0
        self._lock = threading.Lock()
        self.idle = threading.Event()
        self.idle.set()  # vacuously idle until the first post
        self.crashed = threading.Event()
        self.crashes: List[CrashRecord] = []
        self.quiesced = threading.Event()
        self.quiesce: Optional[QuiesceRecord] = None

    def register(self, name: str) -> "queue.Queue[Any]":
        q: "queue.Queue[Any]" = queue.Queue()
        self.queues[name] = q
        return q

    def post(self, dst: str, msg: Any) -> None:
        with self._lock:
            self._inflight += 1
            self.idle.clear()
        self.queues[dst].put(msg)

    def done(self) -> None:
        with self._lock:
            self._inflight -= 1
            if self._inflight == 0:
                self.idle.set()

    def record_crash(self, record: CrashRecord) -> None:
        with self._lock:
            self.crashes.append(record)
        self.crashed.set()

    def record_quiesce(self, record: QuiesceRecord) -> None:
        with self._lock:
            self.quiesce = record
        self.quiesced.set()

    def stop_all(self) -> None:
        for q in self.queues.values():
            q.put(_STOP)


class _SharedSink(OutputSink):
    """Sink multiplexing every worker's outputs into one AttemptOutcome."""

    __slots__ = ("result", "lock")

    def __init__(
        self, result: AttemptOutcome, lock: threading.Lock, record_keys: bool = False
    ) -> None:
        self.result = result
        self.lock = lock
        self.record_keys = record_keys

    def emit(self, outs: Sequence[Any], key: Any = None) -> None:
        if outs:
            with self.lock:
                self.result.outputs.extend(outs)
                if self.record_keys:
                    self.result.keyed_outputs.extend((key, o) for o in outs)

    def checkpoint(self, ckpt: Checkpoint) -> None:
        with self.lock:
            self.result.checkpoints.append(ckpt)

    def count_event(self) -> None:
        with self.lock:
            self.result.events_processed += 1

    def count_events(self, n: int) -> None:
        with self.lock:
            self.result.events_processed += n

    def count_join(self) -> None:
        with self.lock:
            self.result.joins += 1


class _ThreadedWorker(threading.Thread):
    """One plan worker on its own thread — the WorkerCore state machine
    plus a blocking inbox loop.

    An injected :class:`WorkerCrash` turns the worker fail-stop: the
    crash is reported to the router and every subsequent message is
    silently absorbed (messages to a dead node are lost) until the stop
    sentinel arrives.
    """

    def __init__(
        self,
        core: WorkerCore,
        router: _Router,
    ) -> None:
        super().__init__(name=f"worker:{core.node.id}", daemon=True)
        self.core = core
        self.router = router
        self.inbox = router.register(core.node.id)
        self.crashed = False

    def run(self) -> None:
        while True:
            msg = self.inbox.get()
            if msg is _STOP:
                return
            try:
                if not self.crashed:
                    self.core.handle(msg)
            except WorkerCrash as crash:
                self.crashed = True
                self.router.record_crash(crash.record)
            except QuiesceSignal as sig:
                # Planned stop at a consistent snapshot (elastic
                # reconfiguration): go silent like a fail-stop; the
                # driver migrates the captured state to a new plan.
                self.crashed = True
                self.router.record_quiesce(sig.record)
            finally:
                self.router.done()


class ThreadedRuntime:
    """Run a DGS program on real threads (one per plan worker)."""

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
        """Execute one attempt.

        The fault-injection parameters (``initial_state``,
        ``checkpoint_predicate``, ``faults``, ``record_keys``) default
        to the plain fail-free execution; the restart driver
        (:mod:`repro.runtime.reconfigure`) sets them when replaying
        from a checkpoint and arms ``reconfig=`` (a per-attempt
        :class:`~repro.runtime.quiesce.RootReconfigView`) on the root.
        A crashed or quiesced attempt *returns* (see
        :class:`~repro.runtime.protocol.AttemptOutcome`) rather than
        raising.
        """
        router = _Router()
        result = AttemptOutcome(events_in=sum(len(s.events) for s in streams))
        lock = threading.Lock()
        sink = _SharedSink(result, lock, record_keys=record_keys)
        if metrics is not None and metrics.epoch is None:
            # Latency origin: producers are released (just) below.
            metrics = metrics.with_epoch(time.time())
        workers = {
            n.id: _ThreadedWorker(
                WorkerCore(
                    n,
                    self.plan,
                    self.program,
                    router.post,
                    sink,
                    checkpoint_predicate=checkpoint_predicate,
                    faults=faults.view_for(n.id) if faults is not None else None,
                    reconfig=reconfig if n.id == self.plan.root.id else None,
                    metrics=WorkerMetrics(n.id, metrics) if metrics is not None else None,
                ),
                router,
            )
            for n in self.plan.workers()
        }
        leaf_states = initial_leaf_states(self.plan, self.program, initial_state)
        for leaf_id, state in leaf_states.items():
            workers[leaf_id].core.state = state
            workers[leaf_id].core.has_state = True
        for w in workers.values():
            w.start()

        # Producers: enqueue events and heartbeats in timestamp order
        # per stream (one virtual producer thread each is unnecessary —
        # per-itag FIFO into the owner's queue is what matters).
        t0 = time.perf_counter()
        try:
            pump_producers(self.plan, streams, router.post, pace=pace)
        except BaseException:
            router.stop_all()  # a rejected input must not strand the threads
            raise

        deadline = time.monotonic() + timeout_s
        while True:
            if router.crashed.is_set() or router.quiesced.is_set():
                break
            if router.idle.wait(timeout=0.05):
                break
            if time.monotonic() > deadline:
                router.stop_all()
                raise RuntimeFault("threaded runtime did not drain in time")
        result.wall_s = time.perf_counter() - t0
        router.stop_all()
        for w in workers.values():
            w.join(timeout=5.0)
        result.crashes = list(router.crashes)
        result.quiesce = router.quiesce
        if metrics is not None:
            rm = RunMetrics(latency_buckets=metrics.latency_buckets)
            for w in workers.values():
                for snap in w.core.metrics.all_snapshots():
                    rm.absorb(snap)
            result.metrics = rm
        if not result.crashes and result.quiesce is None:
            for w in workers.values():
                if w.core.unprocessed():
                    raise RuntimeFault(
                        f"worker {w.core.node.id} ended with unprocessed items"
                    )
        return result

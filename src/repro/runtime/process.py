"""A multi-process execution of synchronization plans.

The in-process substrate (:mod:`repro.runtime.threaded`) runs every
worker of an attempt on the caller's thread, one batch at a time.  This
module executes the same :class:`~repro.runtime.protocol.WorkerCore`
state machine with **one OS process per plan worker**, so independent
events on different leaves genuinely run in parallel — the paper's
central claim (dependency-guided synchronization lets independent
events proceed concurrently) measured on real cores rather than
asserted.  It is also the substrate with real preemption, and the one
that can abandon a stuck worker: a handler that never returns costs a
drain timeout here, not the caller's thread.

Three design points keep IPC from eating the speedup:

* **A dedicated transport layer** (:mod:`repro.runtime.transport`).
  By default protocol traffic crosses raw per-edge pipes carrying
  length-prefixed frames in the struct-packed wire format — no queue
  locks, no feeder threads, no per-message pickle on the hot path.
  ``transport="queue"`` keeps the original ``multiprocessing.Queue``
  fabric (see the transport module for why it stays).

* **Adaptive batching.**  Every channel operation carries a *batch* of
  messages, so one encode + one pipe write + one consumer wakeup is
  amortized over the whole batch.  The batch policy adapts per
  channel: batches grow while the observed backlog is high and shrink
  when the system keeps up, with a latency deadline bounding how long
  a message can sit buffered; join-critical messages flush
  immediately (the protocol's flush hint).  An explicit ``batch_size``
  pins the old fixed policy instead.

* **Fork start method.**  Workers are forked, so programs — which
  contain closures and are deliberately *not* picklable — are
  inherited by child processes instead of serialized.  Only protocol
  messages (events, order keys, application states) cross process
  boundaries.

Termination: a shared in-flight message counter is incremented when a
batch is posted and decremented when it has been fully handled *and*
its consequences flushed; the counter reaching zero after all producer
input is posted means every channel has drained, at which point stop
frames are delivered and each worker ships its locally-accumulated
outputs back once.

Every real substrate shares the worker-loop body (:class:`_Worker`),
the producer pump call (:func:`pump_attempt`) and the merge of worker
reports into an attempt's outcome (:func:`merge_reports`).  The
blocking loop around them (:func:`_drive_worker`) and the coordinator's
half of an attempt (:func:`coordinate_attempt`) serve forked processes
here and node agents over dialed TCP edges in
:mod:`repro.runtime.cluster`; :mod:`repro.runtime.threaded` calls the
shared three from its run queue.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing as mp
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.errors import RuntimeFault
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from ..plans.validity import assert_p_valid
from .checkpoint import CheckpointPredicate
from .faults import CrashRecord, FaultPlan, WorkerCrash
from .metrics import MetricsConfig, MetricsSnapshot, RunMetrics, WorkerMetrics
from .quiesce import QuiesceRecord, QuiesceSignal, RootReconfigView
from .protocol import (
    INIT_STATE,
    AttemptOutcome,
    OutputSink,
    WorkerCore,
    initial_leaf_states,
    pump_producers,
)
from .runtime import InputStream
from .transport import (
    COORDINATOR,
    DEFAULT_TRANSPORT,
    STOP,
    BatchingSender,
    BatchPolicy,
    ControlPlane,
    make_transport,
    plan_edges,
    resolve_policy,
)
from .wire import batch_message_count


@dataclass(frozen=True)
class AttemptSpec:
    """What one attempt runs — the same record for every worker of it,
    handed over at start (inherited by fork, shared by threads, never
    pickled)."""

    program: DGSProgram
    plan: SyncPlan
    #: None on the in-process substrate, where a batch is what one
    #: flush moved.
    policy: Optional[BatchPolicy]
    #: Leaf id -> the share of the initial state it starts from.
    leaf_states: Dict[str, Any]
    checkpoint_predicate: Optional[CheckpointPredicate]
    faults: Optional[FaultPlan]
    record_keys: bool
    #: Armed on the root only.
    reconfig: Optional[RootReconfigView]
    metrics: Optional[MetricsConfig]

    @classmethod
    def of(
        cls, runtime, initial_state, checkpoint_predicate, faults, record_keys, reconfig, metrics
    ) -> "AttemptSpec":
        """The keyword arguments of ``runtime.run()`` as a spec."""
        if metrics is not None and metrics.epoch is None:
            # Stamp the latency origin before any worker starts, so all
            # of them share the same epoch.
            metrics = metrics.with_epoch(time.time())
        return cls(
            runtime.program,
            runtime.plan,
            runtime.policy,
            initial_leaf_states(runtime.plan, runtime.program, initial_state),
            checkpoint_predicate,
            faults,
            record_keys,
            reconfig,
            metrics,
        )


@dataclass
class _WorkerReport:
    """One worker's end-of-run shipment to the coordinator (picklable).

    A crashed worker still ships its report — the fail-stop model
    includes synchronous output/checkpoint logging, so everything the
    worker fully processed before the crash travels back (what a real
    deployment would have written to durable storage)."""

    node_id: str
    #: The worker's private sink: outputs, keyed outputs, checkpoints
    #: and the event / join counters.
    sink: OutputSink
    leftover: int
    crash: Optional[CrashRecord] = None
    quiesce: Optional[QuiesceRecord] = None
    #: The worker's final MetricsSnapshot (metrics plane on), else None.
    metrics: Optional[MetricsSnapshot] = None


class _Worker:
    """One plan worker of an attempt, driven a batch at a time — the
    one worker-loop body of the real substrates.  The blocking ones
    (:func:`_drive_worker`) call :meth:`handle` from their ``recv``
    loop; the in-process one (:mod:`repro.runtime.threaded`) calls it
    from its run queue.

    ``sender`` carries the worker's outgoing messages: ``post(dst,
    msg)``, ``flush()``, and a settable ``metrics`` through which it
    counts the batches it flushes.  Outputs accumulate in a
    worker-local sink and travel back to the coordinator exactly once,
    in the :meth:`report` — results never compete with protocol
    traffic for the channels.

    An injected :class:`WorkerCrash` makes the worker fail-stop: the
    consequences of fully-processed events are flushed (they already
    left the failure domain in the model), and from then on incoming
    batches are absorbed unprocessed.  A reconfiguration
    :class:`QuiesceSignal` stops it the same way.
    """

    __slots__ = ("node_id", "core", "sink", "metrics", "crash", "quiesce", "_flush")

    def __init__(self, node_id: str, spec: AttemptSpec, sender) -> None:
        self.node_id = node_id
        self.sink = OutputSink(record_keys=spec.record_keys)
        self.metrics = wm = (
            WorkerMetrics(node_id, spec.metrics) if spec.metrics is not None else None
        )
        if wm is not None:
            # The sender counts the batches it flushes into the same
            # per-worker metrics object (settable post-construction so
            # the transport signatures stay metrics-agnostic).
            sender.metrics = wm
        self._flush = sender.flush
        self.core = core = WorkerCore(
            spec.plan.node(node_id),
            spec.plan,
            spec.program,
            sender.post,
            self.sink,
            checkpoint_predicate=spec.checkpoint_predicate,
            faults=spec.faults.view_for(node_id) if spec.faults is not None else None,
            reconfig=spec.reconfig if node_id == spec.plan.root.id else None,
            flush_hint=sender.flush,
            metrics=wm,
        )
        if node_id in spec.leaf_states:
            core.state = spec.leaf_states[node_id]
            core.has_state = True
        #: Set when the worker crashed or quiesced (either one ends the
        #: attempt); from then on it absorbs what it is sent.
        self.crash: Optional[CrashRecord] = None
        self.quiesce: Optional[QuiesceRecord] = None

    def handle(self, msgs) -> bool:
        """Handle one batch and flush its consequences.  True when this
        batch stopped the worker — the caller announces it, after the
        flush (a lightweight sentinel: the full record, a quiesce
        carries the snapshot state, travels once, in the report)."""
        wm = self.metrics
        if wm is not None:
            wm.frames_received += 1
        if self.crash is not None or self.quiesce is not None:
            return False
        core = self.core
        try:
            for msg in msgs:
                core.handle(msg)
        except WorkerCrash as wc:
            # Fail-stop: the triggering event and the rest of the batch
            # die with the worker.
            self.crash = wc.record
        except QuiesceSignal as sig:
            # Planned stop at a consistent snapshot: the triggering
            # event is fully processed, only its fork-down was
            # withheld — the restart driver continues on a new plan.
            self.quiesce = sig.record
        self._flush()
        return self.crash is not None or self.quiesce is not None

    def report(self) -> _WorkerReport:
        wm = self.metrics
        return _WorkerReport(
            self.node_id,
            self.sink,
            self.core.unprocessed(),
            self.crash,
            self.quiesce,
            wm.snapshot(self.sink) if wm is not None else None,
        )


def _drive_worker(
    node_id: str, spec: AttemptSpec, receiver, batcher, control: ControlPlane
) -> None:
    """Drive one worker from its inbox until the stop frame, then ship
    its report — the blocking substrates' loop around :class:`_Worker`:
    a forked process per worker, or several workers as threads of a
    cluster node agent with channels over TCP.  A stopped worker's
    announcement goes on the dedicated queue; from then on it is
    silent until the stop frame.  With the metrics plane on and the
    control plane's live feed open, a snapshot goes on the feed at most
    every quarter second."""
    worker = _Worker(node_id, spec, batcher)
    feed = control.metrics if worker.metrics is not None else None
    last_push = time.monotonic()
    while True:
        msgs = receiver.recv()
        if msgs is STOP:
            break
        if worker.handle(msgs):
            control.aborts.put(node_id)
        # Declared done only after the flush inside handle(), so the
        # in-flight counter can never dip to zero while this worker
        # still owes messages to others.  Event-level: a columnar run
        # of n events repays the n its sender charged the counter.
        control.mark_done(batch_message_count(msgs))
        if feed is not None:
            # An unbounded queue: the put never waits.
            now = time.monotonic()
            if now - last_push >= 0.25:
                last_push = now
                feed.put_nowait(worker.metrics.snapshot(worker.sink))
    control.results.put(worker.report())


@contextlib.contextmanager
def report_errors(control: ControlPlane, who: str, log=None):
    """Whatever escapes a worker goes on the error queue with its
    traceback: the coordinator raises it as a :class:`RuntimeFault`
    naming ``who``.  An exception ends there (an exit status — a thread
    has none — would carry nothing more); an interrupt or exit goes on."""
    try:
        yield
    except BaseException as exc:
        if log is not None:
            log(f"worker {who} FAILED: {exc!r}")
        control.errors.put((who, f"{exc!r}\n{traceback.format_exc()}"))
        if not isinstance(exc, Exception):
            raise


def _worker_main(node_id: str, spec: AttemptSpec, transport, control: ControlPlane) -> None:
    """Entry point of one forked worker: bind its transport endpoints,
    run the shared loop."""
    try:
        with report_errors(control, node_id):
            # Drop inherited channel endpoints this worker does not own,
            # so a dead peer surfaces as EOF/EPIPE instead of silence.
            transport.child_setup(node_id)
            receiver = transport.receiver(node_id)
            # While this worker waits for channel space it keeps
            # ingesting its own inbox (receiver.poll), so mutual
            # pressure cannot deadlock.
            batcher = transport.sender(node_id, control, spec.policy, on_block=receiver.poll)
            _drive_worker(node_id, spec, receiver, batcher, control)
    finally:
        # Announce this worker's exit on transports that cannot observe
        # it through the kernel (shared-memory rings have no EOF/EPIPE;
        # peers watch the closed flags this sets).  Runs on every exit
        # path, including crashes and KeyboardInterrupt.
        transport.child_teardown(node_id)


# ---------------------------------------------------------------------------
# The coordinator's half of an attempt, the same on every real substrate
# ---------------------------------------------------------------------------

def _aborted(control: ControlPlane) -> bool:
    """True when a crash or a reconfiguration quiesce was announced
    (either one ends the attempt early)."""
    try:
        control.aborts.get_nowait()
    except queue_mod.Empty:
        return False
    return True


def worker_fault(who: str, err: str) -> RuntimeFault:
    """A worker's escaped exception as the run's fault: the worker's
    name, then ``err`` — the exception's repr and its traceback."""
    return RuntimeFault(f"worker {who} crashed:\n{err}")


def raise_worker_faults(control: ControlPlane, procs) -> None:
    """Surface a reported worker error, or a worker that died without
    reporting one, as a :class:`RuntimeFault`."""
    try:
        node_id, err = control.errors.get_nowait()
    except queue_mod.Empty:
        pass
    else:
        raise worker_fault(node_id, err)
    if any(not p.is_alive() and p.exitcode not in (0, None) for p in procs):
        raise RuntimeFault(
            "a worker process died before the run drained "
            f"(exitcodes: {[p.exitcode for p in procs]})"
        )


def _gather_reports(control: ControlPlane, procs, workers: Sequence[str], wait_s: float):
    """End-of-run reports as they arrive, until every worker's is in or
    ``wait_s`` has passed: ``(reports, ids still missing)``."""
    deadline = time.monotonic() + wait_s
    reports: List[_WorkerReport] = []
    missing = set(workers)
    while missing and time.monotonic() <= deadline:
        try:
            reports.append(control.results.get(timeout=0.05))
            missing.discard(reports[-1].node_id)
        except queue_mod.Empty:
            # Poll results and faults together: a fault after
            # quiescence (e.g. an unpicklable output killing the result
            # put) must surface with its traceback, not as a timeout.
            raise_worker_faults(control, procs)
    return reports, sorted(missing)


def _await_idle(
    substrate: str,
    control: ControlPlane,
    procs,
    workers: Sequence[str],
    stop: Callable[[], None],
    timeout_s: float,
) -> bool:
    """Wait for drain, an injected crash, or a reconfiguration quiesce
    (returns True for an aborted attempt), surfacing worker faults
    promptly.  A drain timeout says who is still busy: every worker is
    sent its stop frame and given a second to report; the ones that
    stay silent never came back from a handler."""
    deadline = time.monotonic() + timeout_s
    while True:
        if _aborted(control):
            return True
        if control.idle.wait(timeout=0.05):
            # Drain and an abort can race: a crashed/quiesced worker
            # absorbs its backlog, so the counter may reach zero right
            # as the announcement lands.  Abort wins.
            return _aborted(control)
        raise_worker_faults(control, procs)
        if time.monotonic() > deadline:
            inflight = control.backlog()
            stop()
            _, silent = _gather_reports(control, procs, workers, 1.0)
            raise RuntimeFault(
                f"{substrate} runtime did not drain within {timeout_s:g}s: {inflight} "
                f"message(s) in flight, {len(workers) - len(silent)} of {len(workers)} "
                f"worker(s) stopped when asked, no report from {silent}"
            )


def _collect(
    control: ControlPlane,
    procs,
    result: AttemptOutcome,
    workers: Sequence[str],
    timeout_s: float,
    metrics_cfg: Optional[MetricsConfig],
) -> None:
    """Gather every worker's end-of-run report into ``result``: the
    reports, not the live feed, are what the attempt's metrics hold."""
    reports, missing = _gather_reports(control, procs, workers, timeout_s)
    if missing:
        raise RuntimeFault(
            f"no report from {missing} after drain; a worker likely "
            "crashed or produced unpicklable outputs"
        )
    merge_reports(result, reports, metrics_cfg)


def merge_reports(
    result: AttemptOutcome,
    reports: Sequence[_WorkerReport],
    metrics_cfg: Optional[MetricsConfig],
) -> None:
    """Merge the workers' end-of-run reports into ``result`` — the same
    on every real substrate."""
    result.crashes = [r.crash for r in reports if r.crash is not None]
    for report in reports:
        if report.quiesce is not None:
            result.quiesce = report.quiesce
    for report in reports:
        if report.leftover and not result.crashes and result.quiesce is None:
            raise RuntimeFault(
                f"worker {report.node_id} ended with {report.leftover} "
                "unprocessed items; check heartbeats / dependence relation"
            )
        result.outputs.extend(report.sink.outputs)
        result.keyed_outputs.extend(report.sink.keyed_outputs)
        result.checkpoints.extend(report.sink.checkpoints)
        result.events_processed += report.sink.events_processed
        result.joins += report.sink.joins
    result.checkpoints.sort(key=lambda c: c.key)
    if metrics_cfg is not None:
        rm = RunMetrics(latency_buckets=metrics_cfg.latency_buckets)
        for report in reports:
            if report.metrics is not None:
                rm.absorb(report.metrics)
        result.metrics = rm


def pump_attempt(
    plan: SyncPlan,
    streams: Sequence[InputStream],
    sender,
    pace: Optional[float],
    before_sleep: Callable[[], None],
) -> None:
    """Post the attempt's producer traffic through ``sender`` and flush
    it — the real substrates' one :func:`pump_producers` call site.
    ``before_sleep`` runs before every paced-pump sleep."""
    pump_producers(plan, streams, sender.post, pace=pace, before_sleep=before_sleep)
    sender.flush()


def coordinate_attempt(
    substrate: str,
    spec: AttemptSpec,
    streams: Sequence[InputStream],
    control: ControlPlane,
    procs,
    connect: Callable[[], BatchingSender],
    *,
    stop: Callable[[], None],
    drain: Optional[Callable[[], None]] = None,
    timeout_s: float,
    pace: Optional[float],
    transport: str,
    nodes: int = 0,
) -> AttemptOutcome:
    """The coordinator's half of one attempt over started workers
    (``procs``: processes or node agents): ``connect`` the
    coordinator's edges, pump the producers, wait for drain or an abort
    announcement, ``stop`` the workers (one stop frame each), collect
    their reports, ``drain`` the data plane of an aborted attempt,
    reap.  A failed attempt terminates its workers instead of waiting
    them out — nobody will send them a stop frame."""
    workers = [n.id for n in spec.plan.workers()]
    result = AttemptOutcome(
        events_in=sum(len(s.events) for s in streams),
        n_workers=len(workers),
        transport=transport,
        batch=spec.policy.describe(),
        nodes=nodes,
    )
    try:
        batcher = connect()
        t0 = time.perf_counter()
        pump_attempt(spec.plan, streams, batcher, pace, batcher.flush)
        aborted = _await_idle(substrate, control, procs, workers, stop, timeout_s)
        result.wall_s = time.perf_counter() - t0
        stop()
        _collect(control, procs, result, workers, timeout_s, spec.metrics)
        if aborted and drain is not None:
            drain()
    except BaseException:
        for p in procs:
            p.terminate()
        raise
    finally:
        for p in procs:
            p.join(timeout=5.0)
        for p in procs:
            if p.is_alive():  # pragma: no cover - defensive cleanup
                p.terminate()
                p.join(timeout=1.0)
    return result


def run_on_workers(
    substrate: str,
    ctx,
    transport,
    spec: AttemptSpec,
    streams: Sequence[InputStream],
    timeout_s: float,
    pace: Optional[float],
) -> AttemptOutcome:
    """One attempt with one forked ``ctx.Process`` per plan worker
    over ``transport`` (pipes, queues, sockets or rings)."""
    try:
        control = ControlPlane(ctx)
        procs = [
            ctx.Process(
                target=_worker_main,
                args=(n.id, spec, transport, control),
                daemon=True,
                name=f"worker:{n.id}",
            )
            for n in spec.plan.workers()
        ]
        for p in procs:
            p.start()
        # Every worker holds its endpoints now; drop the parent's
        # copies of the fds only workers use, so dead peers surface as
        # EOF/EPIPE on the survivors' pipes.
        transport.parent_setup()
        # The guard runs while a producer write waits for channel
        # space: a dead worker must surface as a fault, not a hang.
        guard = functools.partial(raise_worker_faults, control, procs)
        return coordinate_attempt(
            substrate,
            spec,
            streams,
            control,
            procs,
            functools.partial(transport.sender, COORDINATOR, control, spec.policy, guard),
            stop=transport.stop_all,
            drain=transport.drain,
            timeout_s=timeout_s,
            pace=pace,
            transport=transport.name,
        )
    finally:
        transport.close()


def fork_context(who: str):
    """The ``multiprocessing`` context of the forking substrates.  fork
    (not spawn): children must inherit the program's closures; only
    messages are ever pickled."""
    if "fork" not in mp.get_all_start_methods():
        raise RuntimeFault(
            f"{who} requires the 'fork' start method (Linux/macOS); use "
            "the 'threaded' or 'sim' backend on this platform"
        )
    return mp.get_context("fork")


class ProcessRuntime:
    """Run a DGS program on OS processes (one per plan worker).

    ``transport`` selects the data plane: ``"pipe"`` (framed raw
    pipes, the default), ``"queue"`` (the original
    ``multiprocessing.Queue`` fabric), ``"tcp"`` (the same frames over
    loopback stream sockets) or ``"shm"`` (shared-memory rings; tuned
    through ``transport_options``).  ``batch_size=None`` (default)
    enables adaptive batching; an explicit integer pins the fixed
    policy (1 degenerates to per-message IPC, useful as a baseline).
    ``flush_ms`` tunes the adaptive policy's latency deadline.
    """

    def __init__(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        *,
        batch_size: Optional[int] = None,
        transport: str = DEFAULT_TRANSPORT,
        flush_ms: Optional[float] = None,
        validate: bool = True,
        transport_options: Optional[dict] = None,
    ) -> None:
        self.program = program
        if validate:
            assert_p_valid(plan, program)
        self.plan = plan
        self.transport_name = transport
        #: Transport-specific tuning (only the shm transport takes any:
        #: ``slots``, ``slot_bytes``); validated by ``make_transport``.
        self.transport_options = dict(transport_options or {})
        self.policy = resolve_policy(batch_size, flush_ms)
        self._ctx = fork_context("the process runtime")

    def run(
        self,
        streams: Sequence[InputStream],
        *,
        timeout_s: float = 120.0,
        initial_state: Any = INIT_STATE,
        checkpoint_predicate: Optional[CheckpointPredicate] = None,
        faults: Optional[FaultPlan] = None,
        record_keys: bool = False,
        reconfig: Optional[RootReconfigView] = None,
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
        raising."""
        spec = AttemptSpec.of(
            self, initial_state, checkpoint_predicate, faults, record_keys, reconfig, metrics
        )
        transport = make_transport(
            self.transport_name,
            self._ctx,
            plan_edges(self.plan),
            **self.transport_options,
        )
        return run_on_workers("process", self._ctx, transport, spec, streams, timeout_s, pace)

"""A multi-process execution of synchronization plans.

The threaded runtime proves the protocol runs on a concurrent
substrate, but the GIL serializes its update functions.  This module
executes the same :class:`~repro.runtime.protocol.WorkerCore` state
machine with **one OS process per plan worker**, so independent events
on different leaves genuinely run in parallel — the paper's central
claim (dependency-guided synchronization lets independent events
proceed concurrently) measured on real cores rather than asserted.

Three design points keep IPC from eating the speedup:

* **A dedicated transport layer** (:mod:`repro.runtime.transport`).
  By default protocol traffic crosses raw per-edge pipes carrying
  length-prefixed frames in the struct-packed wire format — no queue
  locks, no feeder threads, no per-message pickle on the hot path.
  ``transport="queue"`` keeps the original ``multiprocessing.Queue``
  fabric as a measurable baseline.

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

Termination mirrors the threaded runtime: a shared in-flight message
counter is incremented when a batch is posted and decremented when it
has been fully handled *and* its consequences flushed; the counter
reaching zero after all producer input is posted means every channel
has drained, at which point stop frames are delivered and each worker
ships its locally-accumulated outputs back once.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..core.errors import RuntimeFault
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from ..plans.validity import assert_p_valid
from .checkpoint import Checkpoint, CheckpointPredicate
from .faults import CrashRecord, FaultPlan, WorkerCrash, WorkerFaultView
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
    BatchPolicy,
    ControlPlane,
    make_transport,
    plan_edges,
    resolve_policy,
)
from .wire import batch_message_count

@dataclass
class _WorkerReport:
    """One worker's end-of-run shipment to the coordinator (picklable).

    A crashed worker still ships its report — the fail-stop model
    includes synchronous output/checkpoint logging, so everything the
    worker fully processed before the crash travels back (what a real
    deployment would have written to durable storage)."""

    node_id: str
    outputs: List[Any]
    keyed_outputs: List[Any]
    checkpoints: List[Checkpoint]
    events_processed: int
    joins: int
    leftover: int
    crash: Optional[CrashRecord] = None
    quiesce: Optional[QuiesceRecord] = None
    #: The worker's final MetricsSnapshot (metrics plane on), else None.
    metrics: Optional[MetricsSnapshot] = None


def _drive_worker(
    node_id: str,
    plan: SyncPlan,
    program: DGSProgram,
    receiver,
    batcher,
    control: ControlPlane,
    init_state: Optional[tuple],
    checkpoint_predicate: Optional[CheckpointPredicate],
    fault_view: Optional[WorkerFaultView],
    record_keys: bool,
    reconfig_view: Optional[RootReconfigView],
    metrics_cfg: Optional[MetricsConfig] = None,
) -> None:
    """Drive one WorkerCore from its inbox until the stop frame, then
    ship its report — the substrate-independent worker loop shared by
    the one-process-per-worker runtime (each worker its own forked
    process) and the cluster's node agents (several workers as threads
    of one agent process, channels over TCP).

    Outputs accumulate in a worker-local sink and travel back to the
    coordinator exactly once, on shutdown — results never compete with
    protocol traffic for the channels.

    An injected :class:`WorkerCrash` makes the worker fail-stop: the
    consequences of fully-processed events are flushed (they already
    left the failure domain in the model), the crash is announced on
    the dedicated queue, and from then on incoming batches are absorbed
    unprocessed until the stop frame, when the report ships.
    """
    sink = OutputSink(record_keys=record_keys)
    wm = WorkerMetrics(node_id, metrics_cfg) if metrics_cfg is not None else None
    if wm is not None:
        # Transport endpoints count batches/frames into the same
        # per-worker metrics object (settable post-construction so the
        # transport signatures stay metrics-agnostic).
        receiver.metrics = wm
        batcher.metrics = wm
    core = WorkerCore(
        plan.node(node_id),
        plan,
        program,
        batcher.post,
        sink,
        checkpoint_predicate=checkpoint_predicate,
        faults=fault_view,
        reconfig=reconfig_view,
        flush_hint=batcher.flush,
        metrics=wm,
    )
    if init_state is not None:
        core.state = init_state[0]
        core.has_state = True
    crash: Optional[CrashRecord] = None
    quiesce: Optional[QuiesceRecord] = None
    last_push = time.monotonic()
    while True:
        msgs = receiver.recv()
        if msgs is STOP:
            break
        if crash is not None or quiesce is not None:
            control.mark_done(batch_message_count(msgs))
            continue
        try:
            for msg in msgs:
                core.handle(msg)
        except WorkerCrash as wc:
            crash = wc.record
            # Ship consequences of the events processed *before*
            # the crash, then announce it; the triggering event and
            # the rest of the batch die with the worker.
            batcher.flush()
            control.crashes.put(crash)
        except QuiesceSignal as sig:
            quiesce = sig.record
            # Planned stop at a consistent snapshot: the triggering
            # event is fully processed, only its fork-down was
            # withheld.  Ship consequences, announce, go silent —
            # the restart driver continues on a new plan.
            # The announcement is a lightweight sentinel: the full
            # record (carrying the snapshot state) travels once, in
            # the end-of-run report.
            batcher.flush()
            control.quiesces.put(node_id)
        # Flush consequences *before* declaring the batch done, so
        # the in-flight counter can never dip to zero while this
        # worker still owes messages to others.
        batcher.flush()
        # Event-level: a columnar run of n events repays the n its
        # sender charged the in-flight counter.
        control.mark_done(batch_message_count(msgs))
        if wm is not None:
            # Low-rate live feed for the coordinator's Prometheus
            # exporter; best-effort (a full queue is never worth
            # stalling the data plane for).
            now = time.monotonic()
            if now - last_push >= 0.25:
                last_push = now
                try:
                    control.metrics.put_nowait((node_id, wm.wire_snapshot()))
                except Exception:  # pragma: no cover - full queue
                    pass
    control.results.put(
        _WorkerReport(
            node_id,
            sink.outputs,
            sink.keyed_outputs,
            sink.checkpoints,
            sink.events_processed,
            sink.joins,
            core.unprocessed(),
            crash,
            quiesce,
            wm.snapshot() if wm is not None else None,
        )
    )


def _worker_main(
    node_id: str,
    plan: SyncPlan,
    program: DGSProgram,
    transport,
    control: ControlPlane,
    policy: BatchPolicy,
    init_state: Optional[tuple],
    checkpoint_predicate: Optional[CheckpointPredicate],
    fault_view: Optional[WorkerFaultView],
    record_keys: bool,
    reconfig_view: Optional[RootReconfigView] = None,
    metrics_cfg: Optional[MetricsConfig] = None,
) -> None:
    """Child-process entry point of the one-process-per-worker runtime:
    bind this worker's transport endpoints, then run the shared loop."""
    try:
        # Drop inherited channel endpoints this worker does not own,
        # so a dead peer surfaces as EOF/EPIPE instead of silence.
        transport.child_setup(node_id)
        receiver = transport.receiver(node_id)
        # While this worker waits for pipe space it keeps ingesting its
        # own inbox (receiver.poll), so mutual pressure cannot deadlock.
        batcher = transport.sender(node_id, control, policy, on_block=receiver.poll)
        _drive_worker(
            node_id,
            plan,
            program,
            receiver,
            batcher,
            control,
            init_state,
            checkpoint_predicate,
            fault_view,
            record_keys,
            reconfig_view,
            metrics_cfg,
        )
    except BaseException as exc:  # pragma: no cover - exercised via fault tests
        control.errors.put((node_id, f"{exc!r}\n{traceback.format_exc()}"))
        raise
    finally:
        # Announce this worker's exit on transports that cannot observe
        # it through the kernel (shared-memory rings have no EOF/EPIPE;
        # peers watch the closed flags this sets).  Runs on every exit
        # path, including crashes and KeyboardInterrupt.
        transport.child_teardown(node_id)


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
        # fork (not spawn): children must inherit the program's
        # closures; only messages are ever pickled.
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeFault(
                "the process runtime requires the 'fork' start method "
                "(Linux/macOS); use the 'threaded' or 'sim' backend on "
                "this platform"
            )
        self._ctx = mp.get_context("fork")

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
        """Execute one attempt (see :meth:`ThreadedRuntime.run` for the
        fault-injection / reconfiguration parameter contract: a crashed
        or quiesced attempt returns with ``crashes`` non-empty /
        ``quiesce`` set instead of raising)."""
        workers = self.plan.workers()
        transport = make_transport(
            self.transport_name,
            self._ctx,
            plan_edges(self.plan),
            **self.transport_options,
        )
        control = ControlPlane(self._ctx)
        leaf_states = initial_leaf_states(self.plan, self.program, initial_state)
        if metrics is not None and metrics.epoch is None:
            # Stamp the latency origin before forking so every worker
            # process shares the same epoch.
            metrics = metrics.with_epoch(time.time())
        procs = [
            self._ctx.Process(
                target=_worker_main,
                args=(
                    n.id,
                    self.plan,
                    self.program,
                    transport,
                    control,
                    self.policy,
                    (leaf_states[n.id],) if n.id in leaf_states else None,
                    checkpoint_predicate,
                    faults.view_for(n.id) if faults is not None else None,
                    record_keys,
                    reconfig if n.id == self.plan.root.id else None,
                    metrics,
                ),
                daemon=True,
                name=f"worker:{n.id}",
            )
            for n in workers
        ]
        for p in procs:
            p.start()
        # Every worker holds its endpoints now; drop the parent's
        # copies of the fds only workers use, so dead peers surface as
        # EOF/EPIPE on the survivors' pipes.
        transport.parent_setup()

        result = AttemptOutcome(
            events_in=sum(len(s.events) for s in streams),
            n_workers=len(workers),
            transport=transport.name,
            batch=self.policy.describe(),
        )
        try:
            t0 = time.perf_counter()

            def pump_guard() -> None:
                # Invoked while a producer write waits for pipe space:
                # a dead worker must surface as a fault, not a hang.
                self._raise_worker_faults(control, procs)

            batcher = transport.sender(
                COORDINATOR, control, self.policy, on_block=pump_guard
            )
            pump_producers(
                self.plan,
                streams,
                batcher.post,
                pace=pace,
                before_sleep=batcher.flush,
            )
            batcher.flush()
            aborted = self._await_idle(control, procs, timeout_s)
            result.wall_s = time.perf_counter() - t0

            transport.stop_all()
            self._collect(control, result, timeout_s, metrics)
            if aborted:
                transport.drain()
        except BaseException:
            # A failed attempt has nothing to collect: do not wait out
            # workers that will never be sent a stop frame.
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
            transport.close()
        return result

    # -- coordination helpers -------------------------------------------
    @staticmethod
    def _aborted(control: ControlPlane) -> bool:
        """True when a crash or a reconfiguration quiesce was announced
        (either one ends the attempt early)."""
        for q in (control.crashes, control.quiesces):
            try:
                q.get_nowait()
            except queue_mod.Empty:
                continue
            return True
        return False

    @staticmethod
    def _raise_worker_faults(control: ControlPlane, procs) -> None:
        try:
            node_id, err = control.errors.get_nowait()
        except queue_mod.Empty:
            pass
        else:
            raise RuntimeFault(f"worker {node_id} crashed:\n{err}")
        if any(not p.is_alive() and p.exitcode not in (0, None) for p in procs):
            raise RuntimeFault(
                "a worker process died before the run drained "
                f"(exitcodes: {[p.exitcode for p in procs]})"
            )

    @classmethod
    def _await_idle(cls, control: ControlPlane, procs, timeout_s: float) -> bool:
        """Wait for drain, an injected crash, or a reconfiguration
        quiesce (returns True for an aborted attempt), surfacing worker
        faults promptly."""
        deadline = time.monotonic() + timeout_s
        while True:
            if cls._aborted(control):
                return True
            if control.idle.wait(timeout=0.05):
                # Drain and an abort can race: a crashed/quiesced
                # worker absorbs its backlog, so the counter may reach
                # zero right as the announcement lands.  Abort wins.
                return cls._aborted(control)
            cls._raise_worker_faults(control, procs)
            if time.monotonic() > deadline:
                raise RuntimeFault("process runtime did not drain in time")

    @staticmethod
    def _collect(
        control: ControlPlane,
        result: AttemptOutcome,
        timeout_s: float,
        metrics_cfg: Optional[MetricsConfig] = None,
    ) -> None:
        deadline = time.monotonic() + timeout_s
        reports: List[_WorkerReport] = []
        for _ in range(result.n_workers):
            # Poll results and errors together: a fault after quiescence
            # (e.g. an unpicklable output killing the result put) must
            # surface with its traceback, not as a bare timeout.
            while True:
                try:
                    reports.append(control.results.get(timeout=0.05))
                    break
                except queue_mod.Empty:
                    try:
                        err_node, err = control.errors.get_nowait()
                    except queue_mod.Empty:
                        pass
                    else:
                        raise RuntimeFault(
                            f"worker {err_node} crashed after drain:\n{err}"
                        ) from None
                    if time.monotonic() > deadline:
                        raise RuntimeFault(
                            "worker results missing after drain; a worker "
                            "likely crashed or produced unpicklable outputs"
                        ) from None
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
            result.outputs.extend(report.outputs)
            result.keyed_outputs.extend(report.keyed_outputs)
            result.checkpoints.extend(report.checkpoints)
            result.events_processed += report.events_processed
            result.joins += report.joins
        result.checkpoints.sort(key=lambda c: c.key)
        if metrics_cfg is not None:
            rm = RunMetrics(latency_buckets=metrics_cfg.latency_buckets)
            for report in reports:
                if report.metrics is not None:
                    rm.absorb(report.metrics)
            # Drain the live feed too: workers that only ever answered
            # joins piggybacked snapshots there (absorb keeps the
            # richest copy per worker).
            try:
                while True:
                    node_id, wire = control.metrics.get_nowait()
                    rm.absorb(
                        MetricsSnapshot.from_wire(wire, metrics_cfg.latency_buckets)
                    )
            except queue_mod.Empty:
                pass
            result.metrics = rm

"""A multi-process execution of synchronization plans.

The in-process substrate (:mod:`repro.runtime.threaded`) runs every
worker of an attempt on the caller's thread.  This module runs the same
:class:`~repro.runtime.protocol.WorkerCore` state machine on **a place
per CPU** (:func:`default_placement`): the root's place on a thread of
the coordinator, the others forked, so independent events on different
leaves genuinely run in parallel — the paper's central claim
(dependency-guided synchronization lets independent events proceed
concurrently) measured on real cores — while a subtree's joins stay
inside one place.  A handler that never returns costs a drain timeout
that names its worker: a forked place is killed, and the coordinator's
thread, which cannot be, is left behind (it stops at its next receive
if the handler ever returns).

Five design points keep IPC from eating the speedup:

* **A dedicated transport layer** (:mod:`repro.runtime.transport`):
  by default, raw per-edge pipes carrying length-prefixed frames in the
  struct-packed wire format — no queue locks, no feeder threads, no
  per-message pickle on the hot path.

* **Batching.**  Every channel operation carries a *batch* of
  messages, amortizing one encode, pipe write and wakeup.  Every
  substrate flushes by one rule: what a handled batch posted leaves as
  one frame per destination at the batch's end, and join-critical
  messages leave at once, at the protocol's flush hint.

* **Fork start method.**  Places are forked, so programs — closures,
  deliberately *not* picklable — are inherited, not serialized.  Only
  protocol messages (events, order keys, states) cross processes.

* **Leaves own their input.**  The attempt's streams travel in the
  :class:`AttemptSpec` every place inherits, and each place pumps the
  streams its workers own, round by round
  (:func:`~repro.runtime.protocol.pump_producers`), serving its inbox
  between rounds.  The coordinator's control loop only starts the
  places, stamps the shared origin once all are up, waits, sends the
  stop frames and collects the reports; its own place pumps on a thread.

* **Spin, then park, at a join.**  A join that crosses places crosses
  twice, and a place that parks in its receive on each crossing pays
  a sleep and a wake-up on the join's critical path.  While one of its
  workers has a join outstanding, a place polls its inbox without
  blocking for up to :data:`JOIN_SPIN_S` before it parks (the
  two-phase waiting of Ousterhout, ICDCS 1982; Karlin et al., SOSP
  1991).  It yields the CPU between polls, so on one CPU, or on a busy
  host, the spin does not hold the CPU the answering place needs.

Termination is by frontier, as in the progress tracking of Naiad
(Murray et al., SOSP 2013): producers end with a closing heartbeat,
and frontiers are relayed down the tree over FIFO channels.  Each
worker announces *done* once, when its place's pump has finished, its
consequences are flushed and its core has drained through the
attempt's closing key (:meth:`WorkerCore.drained_through
<repro.runtime.protocol.WorkerCore.drained_through>`).  A drained
worker stays drained, so once every worker has announced, nothing is
left in flight: stop frames are delivered and each worker ships its
locally-accumulated outputs back once.  A crash or a quiesce
announced instead ends the attempt.  A drain timeout names every
worker that has not announced, with the
:meth:`~repro.runtime.protocol.WorkerCore.stall_state` its report
carries.

Control does not ride the transport: each place has one socketpair to
the coordinator (:class:`~repro.runtime.transport.ControlPlane`), on
which a dead child shows as EOF.  A child exits after its report, and
the coordinator joins every child and its own thread before returning.

Every real substrate runs the same :class:`AttemptSpec`, built once per
attempt, and drives its workers (:class:`_Worker`) as *places*:
co-located workers on one run queue (:class:`_Place`).
:mod:`repro.runtime.threaded` is one place holding every worker.
:func:`run_on_workers` runs the places of a placement over a
transport's endpoints (:class:`~repro.runtime.transport.Endpoints`:
the default placement over the chosen transport, or a node agent per
node of a ``nodes=`` deployment over ``tcp``) through one blocking
loop, :func:`_drive_place` — forked through :func:`_place_main`, the
coordinator's own through :func:`_coordinator_place` — beside
:func:`coordinate_attempt`, the coordinator's half.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from .checkpoint import CheckpointPredicate
from .cluster import NodeSpec
from .faults import CrashRecord, FaultPlan, WorkerCrash
from .metrics import MetricsConfig, MetricsSnapshot, RunMetrics, WorkerMetrics
from .quiesce import QuiesceRecord, QuiesceSignal, RootReconfigView
from .protocol import (
    AttemptOutcome,
    OutputSink,
    WorkerCore,
    end_timestamp,
    pump_producers,
)
from .transport import (
    DEFAULT_TRANSPORT,
    STOP,
    BatchingSender,
    ControlChannel,
    ControlPlane,
    Endpoints,
    SocketTransport,
    WorkerFault,
    make_transport,
    plan_edges,
)
from .wire import MAX_RUN

if TYPE_CHECKING:  # runtime.py imports this module
    from .runtime import InputStream


@dataclass(frozen=True)
class AttemptSpec:
    """What one attempt runs — the same record for every worker of it,
    handed over at start (inherited by fork, shared by threads, never
    pickled).  Built in one place,
    :meth:`RuntimeBackend._spec <repro.runtime.RuntimeBackend._spec>`."""

    program: DGSProgram
    plan: SyncPlan
    #: Leaf id -> the share of the initial state it starts from.
    leaf_states: Dict[str, Any]
    checkpoint_predicate: Optional[CheckpointPredicate]
    faults: Optional[FaultPlan]
    record_keys: bool
    #: Armed on the root only.
    reconfig: Optional[RootReconfigView]
    metrics: Optional[MetricsConfig]
    #: The attempt's input; each place pumps the streams its workers
    #: own.  Empty for an attempt opened to be posted to.
    streams: Tuple[InputStream, ...] = ()
    #: Open-loop pacing of ``streams`` (see ``RunOptions.pace``).
    pace: Optional[float] = None

    def at_origin(self, origin: float) -> "AttemptSpec":
        """This spec with ``origin`` as the metrics plane's latency
        epoch, unless the caller fixed one."""
        if self.metrics is None or self.metrics.epoch is not None:
            return self
        return dataclasses.replace(self, metrics=self.metrics.with_epoch(origin))


#: Events a leaf may hold buffered while its state is away at a join
#: before its place stops pumping and waits for the fork: eight closed
#: rounds of one stream.  Bounds how far a leaf's input runs ahead of
#: its inbox.
LEAF_LEAD = 8 * MAX_RUN

#: How long a place polls its inbox without blocking, yielding the CPU
#: between polls, before it parks in a blocking receive, while one of
#: its workers has a join outstanding: long enough to cover a join that
#: crosses places (a median round trip of about 0.1 ms on dgsbench's
#: ``kc_sync``), short enough that a place waiting on a slow join soon
#: gives its CPU back.
JOIN_SPIN_S = 1e-3


def _wait(inbox, cores: Sequence[WorkerCore], timeout: Optional[float] = None) -> Any:
    """``inbox(timeout)``, spinning first while a join is outstanding.

    When one of ``cores`` is blocked at a join and the wait may block
    (``timeout`` is not 0), poll ``inbox(0)`` for up to
    :data:`JOIN_SPIN_S` (and no longer than ``timeout``), calling
    ``os.sched_yield()`` between polls, then park in ``inbox`` for what
    is left of ``timeout``.  The yield keeps a spin from holding the CPU
    that the place it waits on needs, on one CPU or a busy host."""
    if timeout != 0 and any(c.blocked for c in cores):
        start = time.monotonic()
        until = start + (JOIN_SPIN_S if timeout is None else min(JOIN_SPIN_S, timeout))
        while True:
            got = inbox(0)
            if got is not None:
                return got
            now = time.monotonic()
            if now >= until:
                break
            os.sched_yield()
        if timeout is not None:
            timeout = start + timeout - now
            if timeout <= 0:
                return None
    return inbox(timeout)


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
    #: Its ``WorkerCore.stall_state()`` when it was stopped before it
    #: announced done (forking substrates only), else None.
    stall: Optional[str] = None


class _Worker:
    """One plan worker of an attempt, driven a batch at a time from its
    place's run queue (:class:`_Place`) — the one worker-loop body of
    the real substrates.

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
        if self.stopped:
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
        return self.stopped

    @property
    def stopped(self) -> bool:
        """The worker crashed or quiesced."""
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


class _Place:
    """Co-located workers of an attempt on one FIFO run queue of
    ``(worker, batch)`` pairs.  Each hosted worker, and the pump
    (:attr:`producers`), flushes through its own ``BatchingSender``: a
    batch for a hosted worker is appended to the run queue, any other
    goes to ``remote`` (the transport's raw send).  So a join step
    between co-located workers costs queue appends, not a wake-up.
    The senders route by the hosted ids, not through :attr:`workers`,
    which holds them: a place leaves no reference cycle behind."""

    def __init__(self, spec: AttemptSpec, hosted: Sequence[str], remote=None) -> None:
        self.spec = spec
        self.runq: Deque[Tuple[str, List[Any]]] = deque()
        enqueue = self.runq.append
        here = frozenset(hosted)

        def send(dst: str, batch: List[Any]) -> None:
            if dst in here:
                enqueue((dst, batch))
            else:
                remote(dst, batch)

        self.workers = {wid: _Worker(wid, spec, BatchingSender(send)) for wid in hosted}
        #: Events and heartbeats, posted on the coordinator's behalf.
        self.producers = BatchingSender(send)
        #: The hosted worker that crashed or quiesced: the place runs no
        #: further.
        self.stopped: Optional[_Worker] = None

    def run(self, deadline: Optional[float] = None) -> Optional[_Worker]:
        """Run the queue until it is empty, a worker stops (returned),
        or ``deadline`` (``time.monotonic``) passes.  What a handler
        raises is a :class:`WorkerFault` naming its worker."""
        if self.stopped is not None:
            return None
        runq, workers = self.runq, self.workers
        popleft, monotonic = runq.popleft, time.monotonic
        while runq:
            if deadline is not None and monotonic() > deadline:
                return None
            wid, batch = popleft()
            worker = workers[wid]
            try:
                stopped = worker.handle(batch)
            except Exception as exc:
                raise WorkerFault(wid, f"{exc!r}\n{traceback.format_exc()}") from exc
            if stopped:
                self.stopped = worker
                return worker
        return None


def _drive_place(
    spec: AttemptSpec, hosted: Sequence[str], inbox, remote, control: ControlChannel
) -> None:
    """Drive one place's workers until the stop frame, then send one
    report per worker up ``control`` — the blocking loop of a forked
    place, a node agent or the coordinator's own place.
    ``inbox(timeout=None)`` returns the next ``(worker, batch)``,
    ``STOP``, or None once ``timeout`` seconds pass (0: at once).

    The place starts at the attempt's origin and pumps the streams its
    workers own.  After each round it runs the queue, then serves its
    inbox, running the queue after each batch: without blocking on a
    closed run, until the next round is due on a paced one.  Then it
    serves its inbox until the stop frame, which also ends a pump
    early; before each wait it announces *done*, once, for each worker
    drained through the attempt's closing key.  The pump waits on the
    inbox instead only while every hosted leaf's state is away at a
    join and one of them buffers :data:`LEAF_LEAD` events: a leaf that
    still holds its state may need more input to answer the join its
    sibling waits at.  A worker that stops announces its crash or
    quiesce, and the place runs and pumps no further; a worker stopped
    before it announced anything ships its stall state.  Each wait on
    the inbox spins briefly first while a join is outstanding
    (:func:`_wait`)."""
    origin = control.wait_origin()
    spec = spec.at_origin(origin)
    place = _Place(spec, hosted, remote)
    workers = list(place.workers.values())
    cores = [w.core for w in workers]
    leaves = [c for c in cores if c.is_leaf]

    def run() -> None:
        worker = place.run()
        if worker is not None:
            control.send("crash" if worker.crash is not None else "quiesce", worker.node_id)

    got = None
    for delay in pump_producers(
        spec.plan, spec.streams, place.producers.post, owners=hosted, pace=spec.pace, origin=origin
    ):
        deadline = time.monotonic() + delay
        place.producers.flush()
        run()
        while place.stopped is None:
            held = all(c.blocked for c in leaves) and any(
                c.unprocessed() >= LEAF_LEAD for c in leaves
            )
            got = _wait(inbox, cores, None if held else max(0.0, deadline - time.monotonic()))
            if got is None or got is STOP:
                break
            place.runq.append(got)
            run()
        if got is STOP or place.stopped is not None:
            break
    closing = end_timestamp(spec.streams)
    itags = {s.itag for s in spec.streams}
    done = set()
    while got is not STOP:
        if place.stopped is None:
            for w in workers:
                if w.node_id not in done and w.core.drained_through(closing, itags):
                    done.add(w.node_id)
                    control.send("done", w.node_id)
        got = _wait(inbox, cores)
        if got is not STOP:
            place.runq.append(got)
            run()
    for w in workers:
        report = w.report()
        if not (w.node_id in done or w.stopped):
            report.stall = w.core.stall_state()
        control.send("report", w.node_id, report)


def _send_fault(exc: BaseException, control: ControlChannel) -> None:
    """Send what escaped a place, with its traceback, up ``control``: the
    coordinator raises it naming the handler's worker, else the place."""
    fault = isinstance(exc, WorkerFault)
    who, err = (exc.who, exc.err) if fault else (None, f"{exc!r}\n{traceback.format_exc()}")
    control.send("error", who, err)


def _place_main(
    place: str, hosted: Sequence[str], spec: AttemptSpec, endpoints: Endpoints,
    control: ControlChannel,
) -> None:
    """Entry point of one forked place: bind its endpoints, drive its
    workers, tear down."""
    try:
        # A transport drops the inherited endpoints this place does not
        # own, so a dead peer surfaces as EOF/EPIPE instead of silence.
        endpoints.child_setup(place)
        receiver = endpoints.receiver(place)
        # While this place waits for channel space it keeps ingesting
        # its own inbox (receiver.poll), so mutual pressure cannot
        # deadlock.
        remote = endpoints.sender(place, on_block=receiver.poll).send_batch
        _drive_place(spec, hosted, receiver.recv, remote, control)
    except BaseException as exc:
        # An exception ends here (the exit status would carry nothing
        # more); an interrupt or exit goes on.
        _send_fault(exc, control)
        if not isinstance(exc, Exception):
            raise
    finally:
        # Shared-memory rings have no EOF/EPIPE: their teardown sets the
        # closed flags peers watch, on every exit path.
        endpoints.child_teardown(place)


def _coordinator_place(
    place: str, hosted: Sequence[str], spec: AttemptSpec, endpoints: Endpoints,
    control: ControlChannel, halt: threading.Event,
) -> None:
    """The coordinator's own place, on a thread, over endpoints the
    coordinator owns.  Once ``halt`` is set, it stops at its next
    receive and sends nothing more up ``control``."""

    def inbox(timeout: Optional[float] = None) -> Any:
        if halt.is_set():
            raise RuntimeFault("the coordinator stopped its place")
        return receiver.recv(timeout)

    try:
        receiver = endpoints.receiver(place)
        remote = endpoints.sender(place, on_block=receiver.poll).send_batch
        _drive_place(spec, hosted, inbox, remote, control)
    except Exception as exc:
        if not halt.is_set():
            _send_fault(exc, control)
    finally:
        control.close()


# ---------------------------------------------------------------------------
# The coordinator's half of an attempt, the same on every real substrate
# ---------------------------------------------------------------------------

def _await_done(
    substrate: str,
    control: ControlPlane,
    workers: Sequence[str],
    stop: Callable[[], None],
    timeout_s: float,
) -> bool:
    """Wait until every worker has announced done, or one announced a
    crash or a reconfiguration quiesce (returns True for an aborted
    attempt); a child's fault raises from the wait as it arrives.  A
    drain timeout names each worker that has not announced done: every
    worker is sent its stop frame and given a second to report, and
    each named one comes with the stall state its report carries, or
    as silent — it never came back from a handler."""
    deadline = time.monotonic() + timeout_s
    waiting = set(workers)
    while waiting:
        said = control.next(deadline)
        if said is None:
            stop()
            reports = control.collect(time.monotonic() + 1.0)
            silent = sorted(set(workers) - set(reports))
            stuck = {w: r.stall for w, r in reports.items() if r.stall is not None}
            stuck.update((w, "silent: no report when stopped") for w in silent)
            lines = "".join(f"\n  worker {w}: {stuck[w]}" for w in sorted(stuck))
            raise RuntimeFault(
                f"{substrate} runtime did not drain within {timeout_s:g}s: "
                f"{len(stuck)} of {len(workers)} worker(s) not drained through "
                f"the closing key, no report from {silent}{lines}"
            )
        wid, kind = said
        if kind != "done":
            return True
        waiting.discard(wid)
    return False


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


def coordinate_attempt(
    spec: AttemptSpec,
    control: ControlPlane,
    endpoints: Endpoints,
    timeout_s: float,
    nodes: int = 0,
) -> AttemptOutcome:
    """The coordinator's half of one attempt over places that pump
    their own input, once every place is forked and ``endpoints`` are
    set up: stamp the shared origin (:meth:`ControlPlane.release`),
    wait for every worker's done announcement or the first abort, stop
    the places (one stop frame each), collect the reports, drain the
    data plane of an aborted attempt, reap.  ``wall_s`` runs from the
    origin to the last done announcement; ``nodes`` is the node count
    of a ``nodes=`` deployment.  A failed attempt terminates its
    children instead of waiting them out — nobody will send them a
    stop frame: that is the caller's ``control.finish(failed=True)``."""
    workers = [n.id for n in spec.plan.workers()]
    result = AttemptOutcome(
        events_in=sum(len(s.events) for s in spec.streams),
        n_workers=len(workers),
        transport=endpoints.name,
        nodes=nodes,
    )
    t0 = time.perf_counter()
    control.release()
    substrate = "cluster" if nodes else "process"
    aborted = _await_done(substrate, control, workers, endpoints.stop_all, timeout_s)
    result.wall_s = time.perf_counter() - t0
    endpoints.stop_all()
    reports = control.collect(time.monotonic() + timeout_s)
    missing = sorted(set(workers) - set(reports))
    if missing:
        raise RuntimeFault(f"no report from {missing} within {timeout_s:g}s of the stop frames")
    merge_reports(result, list(reports.values()), spec.metrics)
    if aborted:
        endpoints.drain()
    control.finish(failed=False)
    return result


def default_placement(plan: SyncPlan) -> Dict[str, str]:
    """Worker -> place, when the process backend has no ``nodes=``.

    The leaves, in depth-first order, split into ``min(#leaves, max(2,
    CPUs))`` contiguous blocks, a place each (CPUs: those this process
    may run on), and each internal node joins its first leaf's place:
    independent leaves run in parallel, and a subtree's joins stay in
    one place as far as the CPUs allow.  A place is named after its
    first worker in depth-first order, so the root's place is the
    root's."""
    leaves = [n.id for n in plan.leaves()]
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    cpus = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    n = min(len(leaves), max(2, cpus))
    block = {leaf: i * n // len(leaves) for i, leaf in enumerate(leaves)}
    blocks, leaf = {}, None
    for w in reversed(plan.workers()):
        leaf = w.id if w.is_leaf else leaf  # a node's first leaf is the next leaf
        blocks[w.id] = block[leaf]
    names = {b: wid for wid, b in blocks.items()}  # backwards: the first worker wins
    return {w.id: names[blocks[w.id]] for w in plan.workers()}


def _who(kind: str, place: str, hosted: Sequence[str]) -> str:
    return f"{kind} {place}" + (f" (workers {', '.join(hosted)})" if hosted != [place] else "")


def run_on_workers(
    spec: AttemptSpec,
    timeout_s: float,
    transport: str = DEFAULT_TRANSPORT,
    nodes: Sequence[NodeSpec] = (),
    placement: Optional[Dict[str, str]] = None,
) -> AttemptOutcome:
    """One attempt over the places of a placement.  Without ``nodes``,
    :func:`default_placement` places the workers over ``transport``
    (``"pipe"``, framed raw pipes, the default; ``"queue"``,
    ``multiprocessing.Queue``; ``"tcp"``, loopback stream sockets;
    ``"shm"``, shared-memory rings), the root's place on a thread
    started once every other place is forked (a one-place attempt forks
    its place).  With ``nodes``, ``placement`` maps each worker to one
    of them (:func:`~repro.runtime.cluster.resolve_placement`): a node
    agent is forked per node that hosts workers, over ``tcp``, each
    node's inbound edges listening on its host.  A crashed or quiesced
    attempt returns (see :class:`~repro.runtime.protocol.AttemptOutcome`)
    rather than raising."""
    # fork, not spawn: children inherit the program's closures; only
    # messages are ever pickled.
    if "fork" not in mp.get_all_start_methods():
        raise RuntimeFault(
            "the process backend requires the 'fork' start method (Linux/macOS); use "
            "the 'threaded' or 'sim' backend on this platform"
        )
    ctx = mp.get_context("fork")
    local = None
    if nodes:
        # A place per node that hosts workers, in node order, each
        # with its workers in sorted order.
        placement = {w: n.name for n in nodes for w in sorted(placement) if placement[w] == n.name}
        kind, hosts = "node", {n.name: n.host for n in nodes}
        endpoints = SocketTransport(ctx, plan_edges(spec.plan, placement), placement, hosts)
    else:
        kind, placement = "worker", default_placement(spec.plan)
        endpoints = make_transport(transport, ctx, plan_edges(spec.plan, placement), placement)
        if len(endpoints.places) > 1:
            local = placement[spec.plan.root.id]
    control = ControlPlane(ctx)
    halt = threading.Event()
    thread = result = None
    try:
        for place, hosted in endpoints.places.items():
            if place != local:
                control.spawn(
                    ctx, f"{kind}:{place}", _who(kind, place, hosted), len(hosted), _place_main,
                    place, hosted, spec, endpoints,
                )
        # A transport drops the parent's copies of the fds only forked
        # places use, so dead peers surface as EOF/EPIPE on the
        # survivors' channels.
        endpoints.parent_setup(local)
        if local is not None:
            hosted = endpoints.places[local]
            sock = control.open(_who(kind, local, hosted), len(hosted))
            thread = threading.Thread(
                target=_coordinator_place,
                args=(local, hosted, spec, endpoints, ControlChannel(sock), halt),
                name=f"{kind}:{local}", daemon=True,
            )
            thread.start()
        result = coordinate_attempt(spec, control, endpoints, timeout_s, len(nodes))
        return result
    finally:
        if result is None:
            halt.set()
        control.finish(failed=True)
        if thread is not None:
            if result is None:
                # Wake it from a wait on its inbox or on a peer now gone.
                endpoints.stop_all()
                endpoints.drain()
            thread.join(2.0)
        if thread is not None and thread.is_alive():
            # A handler that has not returned: the caller gets the error,
            # and the endpoints the place still holds close once it stops.
            def close_once_stopped() -> None:
                thread.join()
                endpoints.close()

            threading.Thread(target=close_once_stopped, name=f"close:{local}", daemon=True).start()
        else:
            endpoints.close()

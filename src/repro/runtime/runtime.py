"""The end-to-end Flumina-style runtime on the cluster simulator.

:class:`FluminaRuntime` instantiates a P-valid synchronization plan as
one simulated actor per worker, each driving the substrate-independent
:class:`~repro.runtime.protocol.WorkerCore` (paper §3.4: the
selective-reordering mailbox and the event-processing worker are
co-located on one host in Flumina too, so one actor carries both).  The
actor adds only what is simulation: the virtual clock that stamps
outputs, the per-message CPU cost, and the state-transfer cost of
joins and forks.  The runtime forks the initial state down the tree
(consistent by C2), injects every stream's producer traffic (events
plus periodic heartbeats, §3.4) at its timestamp, runs the simulation
to completion, and returns a :class:`RunResult`: the simulator's run
record (:class:`~repro.sim.SimRun`: outputs, latencies, throughput,
network statistics) plus the protocol's attempt record.

Timestamps double as simulated arrival times: an event with timestamp
``ts`` departs its producer at ``ts`` milliseconds of simulated time,
so event latency is ``emit_time - ts``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..core.events import Event, ImplTag
from ..core.program import DGSProgram
from ..plans.generation import assign_hosts_round_robin
from ..plans.plan import PlanNode, SyncPlan
from ..plans.validity import assert_p_valid
from ..sim.actors import Actor, ActorSystem, SimRun
from ..sim.core import Simulator
from ..sim.network import Topology
from ..sim.params import DEFAULT_PARAMS, SimParams
from .faults import FaultPlan, WorkerCrash
from .messages import ForkStateMsg, HeartbeatMsg, JoinResponse
from .metrics import LatencyHistogram, MetricsConfig, MetricsSnapshot, RunMetrics, percentiles
from .protocol import (
    AttemptOutcome,
    OutputSink,
    WorkerCore,
    end_timestamp,
    initial_leaf_states,
    message_ts,
    producer_messages,
    start_timestamp,
)
from .quiesce import QuiesceSignal

StateSizeFn = Callable[[Any], float]


def default_state_size(state: Any) -> float:
    try:
        return float(len(state))
    except TypeError:
        return 1.0


@dataclass(frozen=True)
class InputStream:
    """One input stream: a single implementation tag's events.

    ``events`` must be strictly increasing in timestamp.  ``source_host``
    is where the producer runs (events from a producer co-located with
    the owning worker are local).  ``heartbeat_interval`` is the gap (in
    timestamp units == simulated ms) between heartbeats; ``None``
    disables periodic heartbeats (a closing heartbeat is still sent so
    finite runs drain), and so does ``0``; a negative or NaN interval is
    a ``ValueError``.
    """

    itag: ImplTag
    events: Tuple[Event, ...]
    source_host: Optional[str] = None
    heartbeat_interval: Optional[float] = 10.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval is not None and not self.heartbeat_interval >= 0:
            raise ValueError(
                f"heartbeat_interval must be None or >= 0, got {self.heartbeat_interval!r}"
            )


@dataclass
class RunResult(SimRun):
    """The simulator's virtual-time measurement of one attempt.

    Protocol counters and logs (``joins``, ``checkpoints``,
    ``keyed_outputs``, ``crashes``, ``metrics``, ...) live on the
    substrate-independent ``attempt`` record and read through from
    here."""

    attempt: AttemptOutcome
    #: per-event processing latency (update time - event.ts) for every
    #: update, recorded only when track_event_latency is set (the
    #: heartbeat-sensitivity experiments of Appendix D.1 need it).
    event_latencies: List[float] = field(default_factory=list)

    def __getattr__(self, name: str) -> Any:
        if name == "attempt":  # not yet set (copy/unpickle): no recursion
            raise AttributeError(name)
        return getattr(self.attempt, name)

    def event_latency_percentiles(
        self, qs: Sequence[float] = (10, 50, 90)
    ) -> List[float]:
        """Percentiles over *every processed event's* latency — the
        Appendix D.1 metric (requires track_event_latency=True)."""
        return percentiles(self.event_latencies, qs)


class _SimSink(OutputSink):
    """The simulated cluster's sink: the plain accumulator, and every
    output with its virtual emit time and latency in the system's
    output ``log``.  ``now`` is the handling actor's clock, set at the
    door of each handler."""

    __slots__ = ("now", "log")

    def __init__(self, record_keys: bool, log: List[Tuple[Any, float, float]]) -> None:
        super().__init__(record_keys)
        self.now = 0.0
        self.log = log

    def emit(self, outs: Sequence[Any], key: Optional[tuple] = None) -> None:
        super().emit(outs, key)
        now = self.now
        self.log.extend((out, now, now - key[0]) for out in outs)


class _SimWorker(Actor):
    """One plan worker on the simulator: a :class:`WorkerCore` plus the
    cost model.  Its ``post`` is :meth:`Actor.send` (state-carrying
    messages charge their size to the receiver); an injected crash or
    a quiesce turns the actor fail-stop."""

    #: Flumina's per-event CPU multiplier relative to the bare update:
    #: the mailbox's selective-reordering bookkeeping (buffer insert,
    #: timer updates, cascade checks) runs on every event.  Calibrated
    #: so Flumina's absolute throughput sits below the record engines,
    #: as in the paper (Figures 4 vs 8 share no axis for this reason).
    MAILBOX_OVERHEAD = 1.8

    def __init__(
        self,
        node: PlanNode,
        runtime: "FluminaRuntime",
        sink: _SimSink,
        attempt: AttemptOutcome,
        event_latencies: Optional[List[float]],
    ) -> None:
        super().__init__(node.id, node.host)  # type: ignore[arg-type]
        faults = runtime.faults
        self.core = core = WorkerCore(
            node,
            runtime.plan,
            runtime.program,
            self._post,
            sink,
            checkpoint_predicate=runtime.checkpoint_predicate,
            faults=faults.view_for(node.id) if faults is not None else None,
            reconfig=runtime.reconfig if node.id == runtime.plan.root.id else None,
        )
        self.state_size = runtime.state_size
        self.attempt = attempt
        self.stopped = False
        if event_latencies is not None:
            update = core.update

            def timed_update(state: Any, event: Event) -> Any:
                event_latencies.append(self.now - event.ts)
                return update(state, event)

            core.update = timed_update

    def _post(self, dst: str, msg: Any) -> None:
        if isinstance(msg, (JoinResponse, ForkStateMsg)):
            self.send(dst, msg, state_size=self.state_size(msg.state))
        else:
            self.send(dst, msg)

    def service_time(self, msg: Any) -> float:
        p = self.system.params
        if isinstance(msg, HeartbeatMsg):
            return p.recv_overhead_ms * 0.5
        return p.cpu_per_event_ms * self.MAILBOX_OVERHEAD

    def handle(self, msg: Any, sender: Optional[str]) -> None:
        if self.stopped:
            return  # fail-stop: messages to a dead node are lost
        self.core.sink.now = self.now
        try:
            self.core.handle(msg)
        except WorkerCrash as crash:
            # Sends queued by events processed before the crash still
            # depart (they happened before the failure); the
            # triggering event did not.
            self.stopped = True
            self.attempt.crashes.append(crash.record)
        except QuiesceSignal as sig:
            # Planned stop for reconfiguration: the triggering event IS
            # fully processed (outputs recorded, snapshot captured);
            # only the fork back down was withheld.
            self.stopped = True
            self.attempt.quiesce = sig.record


class FluminaRuntime:
    """Instantiate a program + plan on a simulated cluster and run it."""

    def __init__(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        *,
        topology: Optional[Topology] = None,
        params: SimParams = DEFAULT_PARAMS,
        state_size: StateSizeFn = default_state_size,
        checkpoint_predicate: Optional[Callable[[Event, int], bool]] = None,
        track_event_latency: bool = False,
        faults: Optional[FaultPlan] = None,
        record_keys: bool = False,
        reconfig: Optional[Any] = None,
        metrics: Optional[MetricsConfig] = None,
        validate: bool = True,
    ) -> None:
        self.program = program
        if validate:
            assert_p_valid(plan, program)
        if topology is None:
            n_hosts = max(1, len(plan.leaves()))
            topology = Topology.cluster(n_hosts, params=params)
        self.topology = topology
        if any(n.host is None for n in plan.workers()):
            plan = assign_hosts_round_robin(plan, topology.host_names())
        for node in plan.workers():
            if node.host not in topology.hosts:
                raise RuntimeFault(
                    f"worker {node.id} placed on unknown host {node.host!r}"
                )
        self.plan = plan
        self.params = topology.params
        self.state_size = state_size
        self.checkpoint_predicate = checkpoint_predicate
        self.track_event_latency = track_event_latency
        self.faults = faults
        self.record_keys = record_keys
        #: RootReconfigView handed to the root worker (elastic runs).
        self.reconfig = reconfig
        #: MetricsConfig when the metrics plane is on (the simulated
        #: substrate reports a single "sim" pseudo-worker).
        self.metrics = metrics

    # -- execution ------------------------------------------------------------
    def run(
        self,
        streams: Sequence[InputStream],
        *,
        max_sim_events: int = 50_000_000,
        leaf_states: Optional[Dict[str, Any]] = None,
    ) -> RunResult:
        """Run ``streams`` in simulated time, each leaf from its share
        in ``leaf_states`` (default: the shares of ``init()``)."""
        t0 = time.perf_counter()
        system = ActorSystem(Simulator(), self.topology)
        sink = _SimSink(self.record_keys, system.outputs)
        attempt = AttemptOutcome(
            outputs=sink.outputs,
            keyed_outputs=sink.keyed_outputs,
            checkpoints=sink.checkpoints,
            events_in=sum(len(s.events) for s in streams),
        )
        event_latencies: Optional[List[float]] = (
            [] if self.track_event_latency else None
        )
        workers = {
            node.id: _SimWorker(node, self, sink, attempt, event_latencies)
            for node in self.plan.workers()
        }
        for worker in workers.values():
            system.add(worker)
        if leaf_states is None:
            leaf_states = initial_leaf_states(self.plan, self.program)
        for leaf_id, state in leaf_states.items():
            workers[leaf_id].core.state = state
            workers[leaf_id].core.has_state = True

        # Producers: every message departs at its own timestamp.
        start_ts, end_ts = start_timestamp(streams), end_timestamp(streams)
        for stream in streams:
            for e in stream.events:
                if e.itag != stream.itag:
                    raise RuntimeFault(
                        f"event {e!r} does not belong to stream {stream.itag!r}"
                    )
            owner = self.plan.owner_of(stream.itag)
            src_host = stream.source_host or owner.host
            for msg in producer_messages(stream, end_ts, start_ts):
                system.inject(owner.id, msg, at=message_ts(msg), from_host=src_host)

        system.run(max_events=max_sim_events)
        if not attempt.crashes and attempt.quiesce is None:
            # A crashed or quiesced attempt legitimately strands
            # buffered items (the stopped worker's, and its blocked
            # ancestors'); the restart driver replays them, so only
            # fail-free runs must prove they drained.
            for worker in workers.values():
                if worker.core.unprocessed():
                    raise RuntimeFault(
                        f"run ended with {worker.core.unprocessed()} unprocessed "
                        f"items at {worker.name}; "
                        "check heartbeats / dependence relation"
                    )
        attempt.events_processed = sink.events_processed
        attempt.joins = sink.joins
        if self.metrics is not None:
            # One pseudo-worker for the whole simulated cluster:
            # counters from the sink, the end-to-end histogram fed
            # from per-output latencies (simulated ms -> seconds).
            buckets = self.metrics.latency_buckets
            snap = MetricsSnapshot(
                worker="sim",
                events_processed=sink.events_processed,
                joins_completed=sink.joins,
            )
            if system.outputs:
                h = LatencyHistogram(buckets)
                for _, _, lat in system.outputs:
                    h.observe(max(lat, 0.0) / 1000.0)
                snap.event_latency = h
            attempt.metrics = RunMetrics(latency_buckets=buckets)
            attempt.metrics.absorb(snap)
        # Host wall-clock of the simulation, not simulated time.
        attempt.wall_s = time.perf_counter() - t0
        last_ts = max((e.ts for s in streams for e in s.events), default=0.0)
        return RunResult(
            **vars(system.result(attempt.events_in, start_ts, last_ts)),
            attempt=attempt,
            event_latencies=event_latencies or [],
        )


def run_sequential_reference(
    program: DGSProgram, streams: Sequence[InputStream]
) -> List[Any]:
    """The sequential specification output for the same input streams
    (the correctness oracle of Definition 3.4)."""
    return program.spec_of_streams([list(s.events) for s in streams])

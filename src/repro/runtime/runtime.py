"""The end-to-end Flumina-style runtime on the cluster simulator.

:class:`FluminaRuntime` runs a P-valid synchronization plan through the
worker loop of every real substrate: each worker is a one-worker
:class:`~repro.runtime.process._Place` (paper §3.4: the
selective-reordering mailbox and the event-processing worker are
co-located on one host in Flumina too), wrapped by one simulated actor,
and :class:`~repro.sim.ActorSystem` is the one virtual-time scheduler.
The actor adds only what is simulation: the virtual clock that stamps
outputs, the per-message CPU cost, and the state-transfer cost of
joins and forks.  A run forks the initial state down the tree
(consistent by C2), injects every stream's producer traffic (events
plus periodic heartbeats, §3.4) at its timestamp, runs the simulation
to completion, and returns a :class:`RunResult`: the simulator's run
record (:class:`~repro.sim.SimRun`: outputs, latencies, throughput,
network statistics) plus the attempt record, merged from the workers'
reports as on every real substrate.

Timestamps double as simulated arrival times: an event with timestamp
``ts`` departs its producer at ``ts`` milliseconds of simulated time,
so event latency is ``emit_time - ts``.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..core.events import Event, ImplTag
from ..core.program import DGSProgram
from ..plans.generation import assign_hosts_round_robin
from ..plans.plan import PlanNode, SyncPlan
from ..plans.validity import assert_p_valid
from ..sim.actors import Actor, ActorSystem, SimRun
from ..sim.core import Simulator
from ..sim.network import Topology
from ..sim.params import SimParams
from .checkpoint import CheckpointPredicate
from .messages import ForkStateMsg, HeartbeatMsg, JoinResponse
from .metrics import LatencyHistogram, MetricsSnapshot, RunMetrics, percentiles
from .process import AttemptSpec, _Place, merge_reports
from .protocol import (
    AttemptOutcome,
    OutputSink,
    end_timestamp,
    message_ts,
    producer_messages,
    start_timestamp,
)


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
    """A simulated worker's sink: the plain accumulator, each output also
    logged through its actor (:meth:`Actor.output`), stamped with the
    actor's virtual clock."""

    __slots__ = ("actor",)

    def __init__(self, record_keys: bool, actor: Actor) -> None:
        super().__init__(record_keys)
        self.actor = actor

    def emit(self, outs: Sequence[Any], key: Optional[tuple] = None) -> None:
        super().emit(outs, key)
        for out in outs:
            self.actor.output(out, key[0])


class _SimPlace(Actor):
    """One plan worker on the simulator: a one-worker place, the real
    substrates' worker loop, as an actor.  A delivered batch joins the
    place's run queue and runs at once; the place's outgoing batches
    leave through :meth:`Actor.send`, and the state a batch carries
    (join responses, forked states) charges its size to the receiver.
    A worker that crashed or quiesced stops the simulation: the attempt
    ends at its first crash or quiesce, as on the real substrates."""

    #: Flumina's per-event CPU multiplier relative to the bare update:
    #: the mailbox's selective-reordering bookkeeping (buffer insert,
    #: timer updates, cascade checks) runs on every event.  Calibrated
    #: so Flumina's absolute throughput sits below the record engines,
    #: as in the paper (Figures 4 vs 8 share no axis for this reason).
    MAILBOX_OVERHEAD = 1.8

    def __init__(
        self, spec: AttemptSpec, node: PlanNode, event_latencies: Optional[List[float]]
    ) -> None:
        super().__init__(node.id, node.host)  # type: ignore[arg-type]
        self.place = _Place(spec, [node.id], self._send)
        self.worker = worker = self.place.workers[node.id]
        worker.sink = worker.core.sink = _SimSink(spec.record_keys, self)
        if event_latencies is not None:
            update = worker.core.update

            def timed_update(state: Any, event: Event) -> Any:
                event_latencies.append(self.now - event.ts)
                return update(state, event)

            worker.core.update = timed_update

    def _send(self, dst: str, batch: List[Any]) -> None:
        state = sum(
            default_state_size(m.state)
            for m in batch
            if isinstance(m, (JoinResponse, ForkStateMsg))
        )
        self.send(dst, batch, units=len(batch), state_size=state)

    def service_time(self, batch: List[Any]) -> float:
        p = self.system.params
        heartbeat, other = p.recv_overhead_ms * 0.5, p.cpu_per_event_ms * self.MAILBOX_OVERHEAD
        return sum(heartbeat if isinstance(m, HeartbeatMsg) else other for m in batch)

    def handle(self, batch: List[Any], sender: Optional[str]) -> None:
        self.place.runq.append((self.name, batch))
        if self.place.run() is not None:
            self.system.sim.stop()


def _placed(plan: SyncPlan, topology: Topology) -> SyncPlan:
    """``plan`` with every worker on a host of ``topology``: placed
    round-robin when a worker has none."""
    if any(n.host is None for n in plan.workers()):
        plan = assign_hosts_round_robin(plan, topology.host_names())
    for node in plan.workers():
        if node.host not in topology.hosts:
            raise RuntimeFault(f"worker {node.id} placed on unknown host {node.host!r}")
    return plan


def _simulate(
    spec: AttemptSpec, topology: Optional[Topology] = None, track_event_latency: bool = False
) -> RunResult:
    """Run ``spec`` in simulated time on ``topology`` (default: a host
    per leaf), every message departing its producer at its timestamp —
    the one runner of :class:`FluminaRuntime` and the ``sim`` backend.
    Wall timeouts and pacing have no simulated analogue: ``spec.pace``
    is not read."""
    t0 = time.perf_counter()
    if topology is None:
        topology = Topology.cluster(max(1, len(spec.plan.leaves())))
    plan = _placed(spec.plan, topology)
    system = ActorSystem(Simulator(), topology)
    event_latencies: Optional[List[float]] = [] if track_event_latency else None
    # The metrics plane's wall-clock histograms mean nothing in virtual
    # time: the places run without it, and the run reports one
    # pseudo-worker instead (below).
    place_spec = dataclasses.replace(spec, plan=plan, metrics=None)
    actors = [
        system.add(_SimPlace(place_spec, node, event_latencies)) for node in plan.workers()
    ]
    streams = spec.streams
    start_ts, end_ts = start_timestamp(streams), end_timestamp(streams)
    for stream in streams:
        for e in stream.events:
            if e.itag != stream.itag:
                raise RuntimeFault(f"event {e!r} does not belong to stream {stream.itag!r}")
        owner = plan.owner_of(stream.itag)
        src_host = stream.source_host or owner.host
        for msg in producer_messages(stream, end_ts, start_ts):
            system.inject(owner.id, [msg], at=message_ts(msg), from_host=src_host)

    system.run()
    attempt = AttemptOutcome(events_in=sum(len(s.events) for s in streams))
    merge_reports(attempt, [a.worker.report() for a in actors], None)
    if spec.metrics is not None:
        # One pseudo-worker for the whole simulated cluster: the run's
        # counters, and the end-to-end histogram fed from per-output
        # latencies (simulated ms -> seconds).
        buckets = spec.metrics.latency_buckets
        snap = MetricsSnapshot(
            worker="sim", events_processed=attempt.events_processed, joins_completed=attempt.joins
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


class FluminaRuntime:
    """Instantiate a program + plan on a simulated cluster and run it.

    ``topology`` defaults to a host per leaf, and a worker without a
    host is placed round-robin.  Every :meth:`run` starts from fresh
    state: a copy of the topology, and the attempt that
    :meth:`RuntimeBackend._spec <repro.runtime.RuntimeBackend._spec>`
    builds (the leaves' shares of ``init()``, a private copy of
    ``checkpoint_predicate``)."""

    def __init__(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        *,
        topology: Optional[Topology] = None,
        checkpoint_predicate: Optional[CheckpointPredicate] = None,
        record_keys: bool = False,
        track_event_latency: bool = False,
    ) -> None:
        assert_p_valid(plan, program)
        self.program = program
        if topology is None:
            topology = Topology.cluster(max(1, len(plan.leaves())))
        self.topology = topology
        self.plan = _placed(plan, topology)
        self.checkpoint_predicate = checkpoint_predicate
        self.record_keys = record_keys
        self.track_event_latency = track_event_latency

    @property
    def params(self) -> SimParams:
        return self.topology.params

    def run(self, streams: Sequence[InputStream]) -> RunResult:
        """Run ``streams`` in simulated time."""
        from . import RunOptions, get_backend  # repro.runtime imports this module

        options = RunOptions(checkpoint_predicate=self.checkpoint_predicate)
        spec = get_backend("sim")._spec(
            self.program, self.plan, streams, options, record_keys=self.record_keys
        )
        return _simulate(spec, copy.deepcopy(self.topology), self.track_event_latency)


def run_sequential_reference(
    program: DGSProgram, streams: Sequence[InputStream]
) -> List[Any]:
    """The sequential specification output for the same input streams
    (the correctness oracle of Definition 3.4)."""
    return program.spec_of_streams([list(s.events) for s in streams])

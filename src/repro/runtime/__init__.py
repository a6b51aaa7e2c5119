"""The Flumina-style DGS runtime (paper §3.4) plus checkpointing, a
sequential reference oracle, and the runtime-backend registry.

Three execution substrates run the same synchronization-plan protocol
(one :class:`~repro.runtime.protocol.WorkerCore` per worker) through
the same worker loop (:class:`~repro.runtime.process._Place`):

* ``sim`` — the simulated cluster (:class:`FluminaRuntime`), used for
  the paper's figures: a one-worker place per simulated actor; models
  network cost, latency, utilization;
* ``threaded`` — the in-process substrate
  (:mod:`repro.runtime.threaded`): every worker on the caller's thread
  from one run queue, a deterministic schedule, no thread hand-off per
  message;
* ``process`` — a place per CPU with batched channels
  (:mod:`repro.runtime.process`): the root's place on a thread of the
  coordinator, the rest forked, for multi-core parallel speedup; with
  ``nodes=``, the workers placed on named nodes
  (:mod:`repro.runtime.cluster`) and one forked agent per node that
  hosts workers, over the ``tcp`` transport.

Benchmarks, examples, and tests select them uniformly through
:func:`get_backend` / :func:`run_on_backend`.  Every substrate reports
an attempt as the same :class:`AttemptOutcome`, and the one restart
loop (:class:`RestartDriver`) composes attempts into a
:class:`ReconfiguredRun`; a :class:`BackendRun` wraps either.  Execution
options — checkpointing, fault injection, and elastic reconfiguration
(``reconfig_schedule=``, see :mod:`repro.runtime.reconfigure`) —
travel as one :class:`RunOptions` through all three substrates, and
each attempt's values as one :class:`AttemptSpec`, built once by the
backend.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..core.errors import NoCheckpointError, RecoveryUnsoundError, RuntimeFault
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from ..plans.validity import assert_p_valid
from . import process, threaded
from .options import RunOptions, ServeOptions
from .protocol import INIT_STATE, AttemptOutcome, RunStatsMixin, initial_leaf_states
from .checkpoint import (
    ByTimestampInterval,
    Checkpoint,
    EveryNthJoin,
    EveryRootJoin,
    by_timestamp_interval,
    every_nth_join,
    every_root_join,
    recover,
)
from .faults import (
    CrashFault,
    CrashRecord,
    DropHeartbeats,
    FaultPlan,
    WorkerCrash,
)
from .quiesce import QuiesceRecord, QuiesceSignal, RootReconfigView
from .recovery import RecoveryStep, ReplayLog, assert_recovery_sound
from .reconfigure import (
    AttemptPerSeal,
    PhaseRecord,
    ReconfigPoint,
    ReconfigSchedule,
    ReconfigStep,
    ReconfiguredRun,
    RestartDriver,
    run_with_reconfig,
)
from .mailbox import Buffered, Mailbox
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    LatencyHistogram,
    MetricsConfig,
    MetricsExporter,
    MetricsSnapshot,
    RunMetrics,
    WorkerMetrics,
)
from .messages import (
    EventMsg,
    ForkStateMsg,
    HeartbeatMsg,
    JoinRequest,
    JoinResponse,
)
from .cluster import (
    NodeSpec,
    local_nodes,
    resolve_placement,
)
from .process import AttemptSpec
from .transport import (
    DEFAULT_TRANSPORT,
    PipeTransport,
    QueueTransport,
    SocketTransport,
    TRANSPORTS,
)
from .runtime import (
    FluminaRuntime,
    InputStream,
    RunResult,
    _simulate,
    default_state_size,
    run_sequential_reference,
)


# ---------------------------------------------------------------------------
# Runtime backends: uniform selection across sim / threaded / process
# ---------------------------------------------------------------------------

@dataclass
class BackendRun(RunStatsMixin):
    """One execution, normalized across substrates.

    ``outputs`` is the flat list of output values (no timing tuples);
    ``wall_s`` is real wall-clock time for the threaded and process
    backends but *host* wall-clock of the simulation for ``sim`` — only
    compare wall times within the same backend family.  ``raw`` is the
    record the fields were read from: the single
    :class:`AttemptOutcome` of a plain run, else the
    :class:`ReconfiguredRun`.
    """

    backend: str
    outputs: List[Any] = field(default_factory=list)
    events_in: int = 0
    events_processed: int = 0
    joins: int = 0
    wall_s: float = 0.0
    raw: Any = None
    #: The ReconfiguredRun when the execution ran with fault_plan= or
    #: reconfig_schedule= (attempt count, crash records, recovery
    #: steps); None for plain runs.
    recovery: Any = None
    #: The same ReconfiguredRun when the execution ran with
    #: reconfig_schedule= (migrations, phases, plan history).
    reconfig: Any = None
    #: The RunMetrics when the execution ran with ``metrics=True``.
    #: Plain runs carry the single attempt's metrics; recovering and
    #: elastic runs carry the merge across attempts with the
    #: recovery/elasticity counters stamped (attempts, replayed
    #: events, checkpoints restored, migration pause) — per-attempt
    #: snapshots stay accessible on ``recovery.attempt_metrics`` and
    #: ``reconfig.phases[i].metrics``.  Each attempt has its own
    #: latency epoch, so a replayed event's latency is its true
    #: recovery delay (restart to re-commit), not time-since-original-
    #: release.
    metrics: Any = None


class RuntimeBackend:
    """A named execution substrate for synchronization plans.

    Every backend takes the same :class:`RunOptions`:

    * ``checkpoint_predicate=`` arms Appendix-D.2 snapshots at root
      joins;
    * ``fault_plan=`` injects crashes/drops and drives the
      restore-and-replay loop (:mod:`repro.runtime.recovery`);
    * ``reconfig_schedule=`` arms elastic re-planning at consistent
      snapshots (:mod:`repro.runtime.reconfigure`) — composable with
      the other two: crashes recover into the then-current plan shape.

    Every attempt — a plain run's, the public :meth:`attempt`'s, the
    restart driver's and the service's — is built once, by
    :meth:`_spec`, into an :class:`AttemptSpec`.  A substrate supplies
    one hook, :meth:`_execute`, which runs a spec as one closed attempt
    with the deployment fields of the options; the in-process
    substrate also overrides :meth:`open_attempt`, to keep one attempt
    open across seals.
    """

    name: str = "?"
    default_timeout_s: float = 60.0

    def run(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        streams: Sequence[InputStream],
        *,
        options: Any = None,
    ) -> BackendRun:
        opts = options if options is not None else RunOptions()
        driven = opts.fault_plan is not None or opts.reconfig_schedule is not None
        if driven:
            rec = self._run_driven(program, plan, streams, opts)
        else:
            rec = self._execute(self._spec(program, plan, streams, opts), opts)
        return BackendRun(
            backend=self.name,
            outputs=rec.outputs,
            events_in=rec.events_in,
            events_processed=rec.events_processed,
            joins=rec.joins,
            wall_s=rec.wall_s,
            raw=rec,
            recovery=rec if driven else None,
            reconfig=rec if opts.reconfig_schedule is not None else None,
            metrics=rec.metrics,
        )

    def attempt(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        streams: Sequence[InputStream],
        *,
        options: Any = None,
        initial_state: Any = INIT_STATE,
        reconfig_view: Any = None,
    ) -> AttemptOutcome:
        """One bounded execution attempt on this substrate.

        This is the building block :class:`RestartDriver` composes: run
        the given streams from ``initial_state`` (default: the
        program's ``init()``), honoring the fault plan / checkpoint
        predicate in ``options`` and an optional per-attempt
        :class:`RootReconfigView`, and return the raw
        :class:`AttemptOutcome` — checkpoints, keyed outputs,
        crash/quiesce records — without driving any restart loop.
        Callers that sequence attempts themselves own the exactly-once
        bookkeeping; everyone else wants :meth:`run`.

        Output keys are always recorded: the whole point of an attempt
        is committing by order-key prefix.
        """
        opts = options if options is not None else RunOptions()
        spec = self._spec(program, plan, streams, opts, initial_state, reconfig_view, True)
        return self._execute(spec, opts)

    def open_attempt(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        *,
        options: Any = None,
        initial_state: Any = INIT_STATE,
        reconfig_view: Any = None,
    ) -> Any:
        """An attempt for :class:`RestartDriver` to feed and seal, step
        by step (the service tier's).  This substrate cannot ship
        outputs without ending an attempt, so what it is posted runs
        whole, as one :meth:`attempt`, at its seal: one attempt per
        seal.  The in-process substrate keeps its attempt open."""
        return AttemptPerSeal(
            functools.partial(
                self.attempt,
                program,
                plan,
                options=options,
                initial_state=initial_state,
                reconfig_view=reconfig_view,
            )
        )

    def _run_driven(self, program, plan, streams, opts: RunOptions) -> ReconfiguredRun:
        return run_with_reconfig(
            functools.partial(self.attempt, program, options=opts),
            program,
            plan,
            streams,
            opts.reconfig_schedule,
            fault_plan=opts.fault_plan,
        )

    def _spec(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        streams: Sequence[InputStream],
        opts: RunOptions,
        initial_state: Any = INIT_STATE,
        reconfig_view: Any = None,
        record_keys: bool = False,
    ) -> AttemptSpec:
        """One attempt as every substrate runs it.  Before anything
        starts, refuse a deployment field this backend never reads
        (:meth:`RunOptions.refuse_unread`), an invalid plan and a
        stream no worker owns (``PlanError``); fork the leaf states;
        and deep-copy the checkpoint predicate, so a stateful one
        (EveryNthJoin's counter) restarts with every attempt and the
        caller's is never called."""
        opts.refuse_unread(self.name)
        assert_p_valid(plan, program)
        for s in streams:
            plan.owner_of(s.itag)
        return AttemptSpec(
            program,
            plan,
            initial_leaf_states(plan, program, initial_state),
            copy.deepcopy(opts.checkpoint_predicate),
            opts.fault_plan,
            record_keys,
            reconfig_view,
            opts.metrics_config(),
            tuple(streams),
            opts.pace,
        )

    def _execute(self, spec: AttemptSpec, opts: RunOptions) -> AttemptOutcome:
        """Run ``spec`` as one closed attempt; ``opts`` carries the
        timeout and the deployment fields."""
        raise NotImplementedError


class SimBackend(RuntimeBackend):
    """The simulated cluster: protocol + network/latency model."""

    name = "sim"

    def _execute(self, spec, opts):
        # Wall timeouts have no simulated analogue: opts.timeout_s is
        # simply not consulted here.
        return _simulate(spec).attempt


class ThreadedBackend(RuntimeBackend):
    """Every plan worker on the caller's thread, driven from one run
    queue (the in-process substrate, :mod:`repro.runtime.threaded`)."""

    name = "threaded"

    def _execute(self, spec, opts):
        return threaded.run_in_process(spec, opts.with_timeout_default(self.default_timeout_s))

    def open_attempt(
        self, program, plan, *, options=None, initial_state=INIT_STATE, reconfig_view=None
    ):
        """One attempt kept open across seals: each seal posts only what
        was admitted since the last one, plus a heartbeat."""
        opts = options if options is not None else RunOptions()
        spec = self._spec(program, plan, (), opts, initial_state, reconfig_view, True)
        return threaded.open_in_process(spec, opts.with_timeout_default(self.default_timeout_s))


class ProcessBackend(RuntimeBackend):
    """A place per CPU, batched channels (multi-core): the plan's leaves
    split into contiguous blocks, each internal node with its first
    leaf (:func:`~repro.runtime.process.default_placement`); the root's
    place runs on a thread of the coordinator and the others are forked.
    With ``nodes=`` set, the workers are placed on the named nodes
    (:func:`~repro.runtime.cluster.resolve_placement`), and one agent
    per node that hosts workers is forked, over the ``tcp`` transport;
    none runs in the coordinator."""

    name = "process"
    default_timeout_s = 120.0

    def _execute(self, spec, opts):
        timeout_s = opts.with_timeout_default(self.default_timeout_s)
        if opts.nodes is None:
            return process.run_on_workers(spec, timeout_s, opts.transport or DEFAULT_TRANSPORT)
        nodes = local_nodes(opts.nodes) if isinstance(opts.nodes, int) else tuple(opts.nodes)
        placement = resolve_placement(spec.plan, nodes, opts.placement)
        return process.run_on_workers(spec, timeout_s, "tcp", nodes, placement)


BACKENDS: Dict[str, RuntimeBackend] = {
    b.name: b for b in (SimBackend(), ThreadedBackend(), ProcessBackend())
}


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(BACKENDS))


def get_backend(name: str) -> RuntimeBackend:
    try:
        return BACKENDS[name]
    except KeyError:
        raise RuntimeFault(
            f"unknown runtime backend {name!r}; available: {available_backends()}"
        ) from None


def run_on_backend(
    name: str,
    program: DGSProgram,
    plan: SyncPlan,
    streams: Sequence[InputStream],
    *,
    options: Any = None,
) -> BackendRun:
    """Run a program + plan on the named backend (uniform entry point
    for benchmarks, examples, and tests).  Run configuration travels as
    ``options=RunOptions(...)``, the only keyword."""
    return get_backend(name).run(program, plan, streams, options=options)


__all__ = [
    "BACKENDS",
    "AttemptOutcome",
    "AttemptPerSeal",
    "BackendRun",
    "Buffered",
    "ByTimestampInterval",
    "Checkpoint",
    "CrashFault",
    "CrashRecord",
    "DEFAULT_LATENCY_BUCKETS",
    "DropHeartbeats",
    "EventMsg",
    "EveryNthJoin",
    "EveryRootJoin",
    "FaultPlan",
    "FluminaRuntime",
    "ForkStateMsg",
    "HeartbeatMsg",
    "InputStream",
    "JoinRequest",
    "JoinResponse",
    "LatencyHistogram",
    "Mailbox",
    "MetricsConfig",
    "MetricsExporter",
    "MetricsSnapshot",
    "NoCheckpointError",
    "NodeSpec",
    "PhaseRecord",
    "PipeTransport",
    "ProcessBackend",
    "QueueTransport",
    "QuiesceRecord",
    "QuiesceSignal",
    "ReconfigPoint",
    "ReconfigSchedule",
    "ReconfigStep",
    "ReconfiguredRun",
    "RestartDriver",
    "RecoveryStep",
    "RecoveryUnsoundError",
    "ReplayLog",
    "RootReconfigView",
    "RunMetrics",
    "RunOptions",
    "RunResult",
    "RuntimeBackend",
    "ServeOptions",
    "SimBackend",
    "SocketTransport",
    "TRANSPORTS",
    "ThreadedBackend",
    "WorkerCrash",
    "WorkerMetrics",
    "assert_recovery_sound",
    "available_backends",
    "by_timestamp_interval",
    "default_state_size",
    "every_nth_join",
    "every_root_join",
    "get_backend",
    "local_nodes",
    "recover",
    "resolve_placement",
    "run_on_backend",
    "run_sequential_reference",
    "run_with_reconfig",
]

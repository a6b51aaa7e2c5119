"""The Flumina-style DGS runtime (paper §3.4) plus checkpointing, a
sequential reference oracle, and the runtime-backend registry.

Three execution substrates run the same synchronization-plan protocol
(one :class:`~repro.runtime.protocol.WorkerCore` per worker):

* ``sim`` — the simulated cluster (:class:`FluminaRuntime`), used for
  the paper's figures: models network cost, latency, utilization;
* ``threaded`` — the in-process substrate (:class:`ThreadedRuntime`):
  every worker on the caller's thread from one run queue, a
  deterministic schedule, no thread hand-off per message;
* ``process`` — one OS process per worker with batched channels
  (:class:`ProcessRuntime`): multi-core parallel speedup.

Benchmarks, examples, and tests select them uniformly through
:func:`get_backend` / :func:`run_on_backend`.  Every substrate reports
an attempt as the same :class:`AttemptOutcome`, and the one restart
loop (:class:`RestartDriver`) composes attempts into a
:class:`ReconfiguredRun`; a :class:`BackendRun` wraps either.  Execution
options — checkpointing, fault injection, and elastic reconfiguration
(``reconfig_schedule=``, see :mod:`repro.runtime.reconfigure`) —
travel as one :class:`RunOptions` through all three substrates.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..core.errors import NoCheckpointError, RecoveryUnsoundError, RuntimeFault
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from .options import RunOptions, ServeOptions
from .protocol import INIT_STATE, AttemptOutcome, RunStatsMixin
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
from .recovery import RecoveryStep, ReplayLog, assert_recovery_sound, suffix_streams
from .reconfigure import (
    AttemptPerSeal,
    AutoScaler,
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
    ClusterLauncher,
    NodeSpec,
    local_nodes,
    resolve_placement,
)
from .process import ProcessRuntime
from .transport import (
    BatchPolicy,
    PipeTransport,
    QueueTransport,
    SocketTransport,
    TRANSPORTS,
)
from .runtime import (
    FluminaRuntime,
    InputStream,
    RunResult,
    default_state_size,
    run_sequential_reference,
)
from .threaded import ThreadedRuntime


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

    A substrate supplies one hook, :meth:`_make_runtime` (the sim,
    whose runtime takes its configuration at construction, overrides
    :meth:`_execute` instead); plain runs, the public :meth:`attempt`
    and the restart driver all go through :meth:`_execute` — except a
    service's attempts on the in-process substrate, whose
    :meth:`open_attempt` keeps one attempt open across seals.
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
        **kwargs: Any,
    ) -> BackendRun:
        if kwargs:
            # The PR-6 deprecation grace is over: options= is the API.
            raise TypeError(
                f"backend.run()/run_on_backend() takes no loose keyword "
                f"arguments (got {sorted(kwargs)}); build a "
                f"RunOptions({', '.join(f'{k}=...' for k in sorted(kwargs))}) "
                "and pass options= (RunOptions.collect merges overrides "
                "onto a shared base)"
            )
        opts = options if options is not None else RunOptions()
        driven = opts.fault_plan is not None or opts.reconfig_schedule is not None
        if driven:
            rec = self._run_driven(program, plan, streams, opts)
        else:
            rec = self._execute(program, plan, streams, opts, INIT_STATE, None)
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

        Output keys are always recorded (the whole point of an attempt
        is committing by order-key prefix), and stateful checkpoint
        predicates (EveryNthJoin's counter, ...) are deep-copied so
        they restart per attempt on every substrate — the process
        backend forks a pristine copy anyway.
        """
        opts = _attempt_options(options)
        return self._execute(program, plan, streams, opts, initial_state, reconfig_view)

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

    def _execute(
        self, program, plan, streams, opts: RunOptions, initial_state, reconfig_view
    ) -> AttemptOutcome:
        """Build the runtime for ``plan`` and run one attempt of
        ``streams`` under ``opts`` (the threaded, process and cluster
        runtimes share one ``run()`` contract)."""
        return self._make_runtime(program, plan, opts).run(
            streams,
            pace=opts.pace,
            **self._attempt_kwargs(opts, initial_state, reconfig_view),
        )

    def _attempt_kwargs(self, opts: RunOptions, initial_state, reconfig_view) -> Dict[str, Any]:
        """One attempt's configuration, as the runtimes take it."""
        return dict(
            timeout_s=opts.with_timeout_default(self.default_timeout_s),
            initial_state=initial_state,
            checkpoint_predicate=opts.checkpoint_predicate,
            faults=opts.fault_plan,
            record_keys=opts.record_keys,
            reconfig=reconfig_view,
            metrics=opts.metrics_config(),
        )

    def _make_runtime(self, program, plan, opts: RunOptions):
        raise NotImplementedError


def _attempt_options(options: Any) -> RunOptions:
    """``options`` for one attempt: output keys recorded, and a private
    copy of a stateful checkpoint predicate."""
    opts = copy.copy(options) if options is not None else RunOptions()
    opts.checkpoint_predicate = copy.deepcopy(opts.checkpoint_predicate)
    opts.record_keys = True
    return opts


class SimBackend(RuntimeBackend):
    """The simulated cluster: protocol + network/latency model."""

    name = "sim"

    def _execute(self, program, plan, streams, opts, initial_state, reconfig_view):
        # Wall timeouts and pacing have no simulated analogue:
        # opts.timeout_s / opts.pace are simply not consulted here.
        return FluminaRuntime(
            program,
            plan,
            checkpoint_predicate=opts.checkpoint_predicate,
            faults=opts.fault_plan,
            record_keys=opts.record_keys,
            reconfig=reconfig_view,
            metrics=opts.metrics_config(),
            **opts.extra,
        ).run(streams, initial_state=initial_state).attempt


class ThreadedBackend(RuntimeBackend):
    """Every plan worker on the caller's thread, driven from one run
    queue (the in-process substrate, :mod:`repro.runtime.threaded`)."""

    name = "threaded"

    def _make_runtime(self, program, plan, opts: RunOptions):
        return ThreadedRuntime(program, plan, **opts.extra)

    def open_attempt(
        self, program, plan, *, options=None, initial_state=INIT_STATE, reconfig_view=None
    ):
        """One attempt kept open across seals: each seal posts only what
        was admitted since the last one, plus a heartbeat."""
        opts = _attempt_options(options)
        return self._make_runtime(program, plan, opts).open(
            **self._attempt_kwargs(opts, initial_state, reconfig_view)
        )


class ProcessBackend(RuntimeBackend):
    """One OS process per plan worker, batched channels (multi-core);
    with ``nodes=`` set, one agent process per named node over the TCP
    data plane (:class:`~repro.runtime.cluster.ClusterLauncher`)."""

    name = "process"
    default_timeout_s = 120.0

    def _make_runtime(self, program, plan, opts: RunOptions):
        if opts.nodes is None:
            if opts.placement is not None:
                raise RuntimeFault(
                    "placement= pins workers to cluster nodes; it needs "
                    "nodes= (a worker-placement with no nodes to place "
                    "on would be silently ignored)"
                )
            return ProcessRuntime(
                program, plan, **opts.transport_kwargs(), **opts.extra
            )
        if opts.transport not in (None, "tcp"):
            raise RuntimeFault(
                f"nodes= deploys over the TCP data plane; it cannot be "
                f"combined with transport={opts.transport!r}"
            )
        if opts.extra:
            # Loud, not silent: the single-host path would forward (or
            # TypeError on) these, and a kwarg that quietly changes
            # meaning between deployments is a debugging trap.
            raise RuntimeFault(
                f"cluster deployments accept no extra substrate kwargs: "
                f"{sorted(opts.extra)}"
            )
        return ClusterLauncher(
            program,
            plan,
            nodes=opts.nodes,
            placement=opts.placement,
            batch_size=opts.batch_size,
            flush_ms=opts.flush_ms,
            metrics_port=opts.metrics_port,
        )

    def _run_driven(self, program, plan, streams, opts):
        # Cluster attempts each construct a fresh ClusterLauncher, so a
        # per-run exporter would bind, serve one attempt, and vanish —
        # exactly when a scrape wants to watch a recovery.  Own one
        # exporter here for the whole recovering/elastic run and hand
        # the live instance down through metrics_port; the launcher
        # reuses it, opening a new attempt="N" label group per attempt,
        # and leaves stopping it to us.
        if opts.nodes is None or not opts.metrics or opts.metrics_port is None:
            return super()._run_driven(program, plan, streams, opts)
        exporter = MetricsExporter(port=int(opts.metrics_port)).start()
        opts = copy.copy(opts)
        opts.metrics_port = exporter
        try:
            return super()._run_driven(program, plan, streams, opts)
        finally:
            exporter.stop()


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
    **opts: Any,
) -> BackendRun:
    """Run a program + plan on the named backend (uniform entry point
    for benchmarks, examples, and tests).

    Run configuration travels as ``options=RunOptions(...)`` — the only
    accepted keyword.  Loose keyword arguments (deprecated in the PR-6
    release) now raise ``TypeError`` with a migration hint; use
    :meth:`RunOptions.collect` to merge per-call overrides onto a
    shared base ``RunOptions``.
    """
    return get_backend(name).run(program, plan, streams, **opts)


__all__ = [
    "BACKENDS",
    "AttemptOutcome",
    "AttemptPerSeal",
    "AutoScaler",
    "BackendRun",
    "BatchPolicy",
    "Buffered",
    "ByTimestampInterval",
    "Checkpoint",
    "ClusterLauncher",
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
    "ProcessRuntime",
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
    "ThreadedRuntime",
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
    "suffix_streams",
]

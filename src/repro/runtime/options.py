"""Uniform execution options for the runtime-backend registry.

The backend registry grew one keyword at a time — ``fault_plan=``,
``checkpoint_predicate=``, then ``reconfig_schedule=`` — each threaded
separately through every adapter and substrate.  :class:`RunOptions`
collapses that plumbing into one picklable value constructed once (at
:meth:`~repro.runtime.RuntimeBackend.run`) and passed through all
three substrates, so adding the next lifecycle feature means adding a
field here instead of widening five signatures.

Per-*attempt* values (``initial_state``, the root's
:class:`~repro.runtime.quiesce.RootReconfigView`) are deliberately not
fields: they change between recovery/reconfiguration attempts while a
``RunOptions`` describes the whole execution.

:class:`ServeOptions` is the sibling for the long-running service mode
(:mod:`repro.serve`): it wraps the ``RunOptions`` of the service's
attempts and adds the ingest-tier knobs (listener address, seal
cadence, the admission watermark, the exporter port).

Fields typed ``Any`` to keep this module a leaf of the import graph
(the registry and the substrates both import it):

* ``fault_plan`` — a :class:`~repro.runtime.faults.FaultPlan`;
* ``checkpoint_predicate`` — a callable ``(event, count) -> bool``
  (see :mod:`repro.runtime.checkpoint`);
* ``reconfig_schedule`` — a
  :class:`~repro.runtime.reconfigure.ReconfigSchedule`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.errors import RuntimeFault


def _both_str(pair: Any) -> bool:
    return all(isinstance(x, str) for x in pair)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_seq(x: Any) -> bool:
    return isinstance(x, Sequence) and not isinstance(x, str)


def _increasing_bounds(bounds: Any) -> bool:
    """``bounds`` is a non-empty, strictly increasing sequence of finite
    numbers above 0."""
    if not _is_seq(bounds) or not bounds:
        return False
    try:
        values = [float(x) for x in bounds]
    except (TypeError, ValueError):
        return False
    return all(0 < x < math.inf for x in values) and all(a < b for a, b in zip(values, values[1:]))


@dataclass
class RunOptions:
    """One execution's cross-substrate configuration.

    The lifecycle features (typed in the module docstring):
    ``fault_plan`` injects crashes and drives restore-and-replay,
    ``checkpoint_predicate`` arms snapshots at root joins, and
    ``reconfig_schedule`` arms elastic re-planning.

    ``timeout_s`` of ``None`` means "substrate default" (60 s
    threaded, 120 s process); otherwise it is finite and above 0.
    The process substrate's transport knobs:

    * ``transport`` — ``"pipe"`` (framed raw pipes, the default),
      ``"queue"`` (the original ``multiprocessing.Queue`` fabric,
      carrying the same frames; it stays because dgsbench's layer
      pass probes every name in ``transport.TRANSPORTS``, and its
      removal is ROADMAP.md item 2b), ``"tcp"`` (the same frames over
      TCP stream sockets — the single-host form of the distributed data
      plane), or ``"shm"`` (fixed-slot shared-memory rings: zero
      syscalls per message, same-host only);
    * ``nodes`` — place the workers on named nodes instead of the
      default placement, one forked agent per node that hosts workers
      (see :mod:`repro.runtime.cluster`): an int (that many loopback
      nodes) or a sequence of :class:`~repro.runtime.cluster.NodeSpec`;
      implies the TCP data plane;
    * ``placement`` — worker-id -> node-name pins for ``nodes=``
      deployments (unpinned workers are spread round-robin).

    These are the deployment fields.  A malformed one (``nodes`` a
    bool or below 1, a ``placement`` that is not a str -> str mapping)
    raises ``ValueError`` as the options are built, and a backend
    refuses one it would never read with a ``RuntimeFault``
    (:meth:`refuse_unread`): ``sim`` and ``threaded`` refuse all
    three; ``process`` refuses ``placement`` without ``nodes``, and a
    ``transport`` other than ``"tcp"`` with ``nodes``.

    The metrics plane (:mod:`repro.runtime.metrics`):

    * ``metrics`` — enable per-worker counters and latency histograms;
      the run result's ``metrics`` field carries the merged
      :class:`~repro.runtime.metrics.RunMetrics`, built from each
      worker's end-of-attempt report (its ``prometheus_text()`` renders
      it; the service tier's ``ServeOptions.metrics_port`` serves it);
    * ``latency_buckets`` — histogram upper bounds in seconds: a
      non-empty, strictly increasing sequence of finite numbers above
      0 (``None`` selects the default geometric buckets);
    * ``pace`` — open-loop producer pacing: timestamp units replayed
      per wall-clock second, finite and above 0 (timestamps are
      milliseconds, so ``pace=1000.0`` replays in real time; ``None``
      keeps the closed-loop as-fast-as-possible pump).

    No option sets batching: on every substrate a worker's messages
    leave at the protocol's flush hint or at the end of the batch that
    posted them.  The simulator's own settings are not options: they are
    arguments of its class (``FluminaRuntime(topology=,
    track_event_latency=)``)."""

    fault_plan: Any = None
    checkpoint_predicate: Any = None
    reconfig_schedule: Any = None
    timeout_s: Optional[float] = None
    transport: Optional[str] = None
    nodes: Any = None
    placement: Any = None
    metrics: bool = False
    latency_buckets: Any = None
    pace: Optional[float] = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not 0 < self.timeout_s < math.inf:
            raise ValueError(
                f"timeout_s must be None or finite and > 0, got {self.timeout_s!r}"
            )
        if self.pace is not None and not 0 < self.pace < math.inf:
            raise ValueError(f"pace must be None or finite and > 0, got {self.pace!r}")
        b = self.latency_buckets
        if b is not None and not _increasing_bounds(b):
            raise ValueError(
                "latency_buckets must be None or a non-empty, strictly increasing "
                f"sequence of finite numbers > 0, got {b!r}"
            )
        # Deferred: this module stays a leaf of the import graph.
        from .cluster import NodeSpec

        n, p = self.nodes, self.placement
        if not (
            n is None
            or (_is_int(n) and n >= 1)
            or (_is_seq(n) and n and all(isinstance(x, NodeSpec) for x in n))
        ):
            raise ValueError(f"nodes must be None, an int >= 1 or NodeSpecs, got {n!r}")
        if not (p is None or isinstance(p, Mapping) and all(map(_both_str, p.items()))):
            raise ValueError(f"placement must be None or a str -> str mapping, got {p!r}")

    def refuse_unread(self, backend: str) -> None:
        """Raise ``RuntimeFault`` for a deployment field the named
        backend never reads (the rule is in the class docstring)."""
        if backend != "process":
            unread = [
                f"{name}="
                for name in ("transport", "nodes", "placement")
                if getattr(self, name) is not None
            ]
            if unread:
                raise RuntimeFault(
                    f"the {backend!r} backend never reads {', '.join(unread)}: "
                    "they deploy the process backend"
                )
        elif self.placement is not None and self.nodes is None:
            raise RuntimeFault(
                "placement= pins workers to cluster nodes; it needs "
                "nodes= (a worker-placement with no nodes to place "
                "on would be silently ignored)"
            )
        elif self.nodes is not None and self.transport not in (None, "tcp"):
            raise RuntimeFault(
                f"nodes= deploys over the TCP data plane; it cannot be "
                f"combined with transport={self.transport!r}"
            )

    def with_timeout_default(self, default_s: float) -> float:
        return self.timeout_s if self.timeout_s is not None else default_s

    def metrics_config(self) -> Any:
        """The run's :class:`~repro.runtime.metrics.MetricsConfig`, or
        ``None`` when the metrics plane is off.  The substrate stamps
        the epoch just before releasing producers."""
        if not self.metrics:
            return None
        from .metrics import DEFAULT_LATENCY_BUCKETS, MetricsConfig

        buckets = (
            tuple(self.latency_buckets) if self.latency_buckets else DEFAULT_LATENCY_BUCKETS
        )
        return MetricsConfig(latency_buckets=buckets)


@dataclass
class ServeOptions:
    """Configuration for the long-running service mode
    (:mod:`repro.serve`) — the :class:`RunOptions` sibling for
    executions that never end.

    The service tier runs an unbounded ingest on the runtime's
    attempts, sealing what was admitted step by step (an *epoch* per
    seal); ``run`` is the :class:`RunOptions` of those attempts (fault
    plans, reconfig schedules, transport/cluster knobs, and the metrics
    plane, which reports one window per seal).  Fields:

    * ``backend`` — the substrate: ``"threaded"`` (the default: the
      in-process substrate, every worker on the thread that runs the
      seal, which keeps **one attempt open** for the service's life —
      a seal posts what was admitted plus one heartbeat per stream) or
      ``"process"`` / ``"sim"`` (a place per CPU, the root's in the
      seal's own process and the rest forked, or the simulator;
      ``nodes=`` on ``run`` deploys cluster-wide), which
      cannot ship outputs without ending an attempt and so run one
      closed attempt per seal over the whole uncommitted suffix (only
      those attempts read ``run.pace``);
    * ``host`` / ``port`` — the ingest/egress TCP listener (``0`` picks
      a free port); ``cookie`` — the shared secret every client hello
      must echo (``None`` generates a fresh one per service);
    * ``epoch_events`` / ``epoch_idle_ms`` — the seal cadence: the
      server seals once this many events are admitted, or once a
      non-empty inbox has sat this long (the latency bound under light
      load); an event at or below the last seal's floor is rejected as
      late, so the cadence also sets how far ingest may lag;
    * ``heartbeat_interval`` — the periodic heartbeat cadence of each
      stream in timestamp units, read only by the per-seal substrates
      (forwarded to each seal's ``InputStream``\\ s); a seal on the
      open attempt needs only its own heartbeat;
    * ``ingest_high_watermark`` — admission control on the count of
      admitted-but-uncommitted events: admission pauses (events are
      *rejected, reported to the client*) at the high watermark and
      resumes once the backlog drains to half of it;
    * ``metrics_port`` — serve Prometheus text on
      ``http://host:<port>/metrics``: the ``repro_serve_*`` gauges and,
      with ``run.metrics`` on, the run's merged worker metrics
      (``worker="all"``), both refreshed after each epoch — the same
      shape on every backend (``0`` picks a free port; ``None``
      disables the exporter).

    ``run``'s deployment fields must be ones ``backend`` reads
    (:meth:`RunOptions.refuse_unread`), checked here, at construction.
    """

    backend: str = "threaded"
    run: RunOptions = field(default_factory=RunOptions)
    host: str = "127.0.0.1"
    port: int = 0
    cookie: Optional[str] = None
    epoch_events: int = 512
    epoch_idle_ms: float = 50.0
    heartbeat_interval: Optional[float] = 10.0
    ingest_high_watermark: int = 4096
    metrics_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epoch_events < 1:
            raise ValueError("epoch_events must be >= 1")
        if not self.epoch_idle_ms >= 0:  # NaN fails too
            raise ValueError("epoch_idle_ms must be >= 0")
        if self.heartbeat_interval is not None and not self.heartbeat_interval >= 0:
            raise ValueError("heartbeat_interval must be None or >= 0")
        if self.ingest_high_watermark < 1:
            raise ValueError("ingest_high_watermark must be >= 1")
        self.run.refuse_unread(self.backend)

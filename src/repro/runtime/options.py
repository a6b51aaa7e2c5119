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
cadence, admission watermarks, the exporter port).

Fields typed ``Any`` to keep this module a leaf of the import graph
(the registry and the substrates both import it):

* ``fault_plan`` — a :class:`~repro.runtime.faults.FaultPlan`;
* ``checkpoint_predicate`` — a callable ``(event, count) -> bool``
  (see :mod:`repro.runtime.checkpoint`);
* ``reconfig_schedule`` — a
  :class:`~repro.runtime.reconfigure.ReconfigSchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional


@dataclass
class RunOptions:
    """One execution's cross-substrate configuration.

    ``timeout_s`` of ``None`` means "substrate default" (60 s
    threaded, 120 s process).  The process substrate's transport knobs:

    * ``transport`` — ``"pipe"`` (framed raw pipes, the default),
      ``"queue"`` (the original ``multiprocessing.Queue`` fabric, kept
      as a measurable baseline), ``"tcp"`` (the same frames over TCP
      stream sockets — the single-host form of the distributed data
      plane), or ``"shm"`` (fixed-slot shared-memory rings: zero
      syscalls per message, same-host only; ring geometry is tunable
      via ``transport_options={"slots": ..., "slot_bytes": ...}``
      forwarded through ``extra``);
    * ``batch_size`` — ``None`` (default) selects *adaptive* batching
      (flush on size or latency deadline, per-channel targets driven
      by observed backlog); an explicit integer pins the old
      fixed-size policy;
    * ``flush_ms`` — the adaptive policy's latency deadline;
    * ``nodes`` — deploy across node agents instead of one process
      per worker (see :mod:`repro.runtime.cluster`): an int (that
      many loopback nodes) or a sequence of
      :class:`~repro.runtime.cluster.NodeSpec`; implies the TCP data
      plane;
    * ``placement`` — worker-id -> node-name pins for ``nodes=``
      deployments (unpinned workers are spread round-robin).

    The metrics plane (:mod:`repro.runtime.metrics`):

    * ``metrics`` — enable per-worker counters and latency histograms;
      the run result's ``metrics`` field carries the merged
      :class:`~repro.runtime.metrics.RunMetrics`;
    * ``latency_buckets`` — histogram upper bounds in seconds
      (``None`` selects the default geometric buckets);
    * ``metrics_port`` — in cluster (``nodes=``) mode, serve live
      Prometheus text on ``http://127.0.0.1:<port>/metrics`` from the
      coordinator (``0`` picks a free port);
    * ``pace`` — open-loop producer pacing: timestamp units replayed
      per wall-clock second (timestamps are milliseconds, so
      ``pace=1000.0`` replays in real time; ``None`` keeps the
      closed-loop as-fast-as-possible pump).

    ``extra`` holds substrate-specific passthrough kwargs (e.g. the
    sim's ``track_event_latency=``)."""

    fault_plan: Any = None
    checkpoint_predicate: Any = None
    reconfig_schedule: Any = None
    timeout_s: Optional[float] = None
    batch_size: Optional[int] = None
    transport: Optional[str] = None
    flush_ms: Optional[float] = None
    nodes: Any = None
    placement: Any = None
    record_keys: bool = False
    metrics: bool = False
    latency_buckets: Any = None
    metrics_port: Any = None
    pace: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def collect(cls, options: Optional["RunOptions"] = None, **kwargs: Any) -> "RunOptions":
        """Normalize an ``options=`` object plus loose keyword
        arguments into one ``RunOptions``.

        Non-``None`` keywords override the object's fields (so call
        sites can tweak a shared options value); a ``None`` keyword
        means *inherit* — it cannot clear a field the base object set
        (build a fresh ``RunOptions`` for that).  Unknown keywords land
        in ``extra`` and are forwarded verbatim to the substrate."""
        base = options if options is not None else cls()
        known = {f.name for f in fields(cls)} - {"extra"}
        overrides = {k: v for k, v in kwargs.items() if k in known and v is not None}
        extra = {**base.extra, **{k: v for k, v in kwargs.items() if k not in known}}
        out = replace(base, **overrides)
        out.extra = extra
        return out

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

    def transport_kwargs(self) -> Dict[str, Any]:
        """The process substrate's transport configuration (compact
        form for ``ProcessRuntime(**...)``)."""
        out: Dict[str, Any] = {"batch_size": self.batch_size}
        if self.transport is not None:
            out["transport"] = self.transport
        if self.flush_ms is not None:
            out["flush_ms"] = self.flush_ms
        return out


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
      ``"process"`` / ``"sim"`` (a forked process per worker, or the
      simulator; ``nodes=`` on ``run`` deploys cluster-wide), which
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
    * ``ingest_high_watermark`` / ``ingest_resume_watermark`` —
      admission control on the count of admitted-but-uncommitted
      events: admission pauses (events are *rejected, reported to the
      client*) at the high watermark and resumes once the backlog
      drains to the resume watermark (default: half the high);
    * ``runtime_backlog_watermark`` — optional second signal from the
      metrics plane: the latest seal's cluster-wide mailbox backlog
      high-water (the same number the :class:`AutoScaler` reads from
      join responses).  Crossing it pauses admission until a seal
      completes below it.  Requires ``run.metrics=True`` (the service
      enables it automatically when this is set);
    * ``metrics_port`` — serve live Prometheus text (including the
      ``repro_serve_*`` gauges) on ``http://host:<port>/metrics``
      (``0`` picks a free port; ``None`` disables the exporter).
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
    ingest_resume_watermark: Optional[int] = None
    runtime_backlog_watermark: Optional[int] = None
    metrics_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epoch_events < 1:
            raise ValueError("epoch_events must be >= 1")
        if self.epoch_idle_ms < 0:
            raise ValueError("epoch_idle_ms must be >= 0")
        if self.ingest_high_watermark < 1:
            raise ValueError("ingest_high_watermark must be >= 1")
        resume = self.ingest_resume_watermark
        if resume is not None and not 0 <= resume < self.ingest_high_watermark:
            raise ValueError(
                "ingest_resume_watermark must be in "
                "[0, ingest_high_watermark) — resuming at or above the "
                "pause point would never resume"
            )
        if (
            self.runtime_backlog_watermark is not None
            and self.runtime_backlog_watermark < 1
        ):
            raise ValueError("runtime_backlog_watermark must be >= 1")

    def resume_watermark(self) -> int:
        if self.ingest_resume_watermark is not None:
            return self.ingest_resume_watermark
        return self.ingest_high_watermark // 2

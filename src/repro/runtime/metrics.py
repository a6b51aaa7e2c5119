"""Per-worker metrics plane.

The runtime measures itself with near-zero hot-path cost: each worker
owns a :class:`WorkerMetrics` with plain-int counters and two
fixed-bucket :class:`LatencyHistogram`\\ s (join/fork round-trip and
end-to-end event latency); events and joins are counted once, by the
worker's output sink.  A worker's :class:`MetricsSnapshot` reaches the
coordinator as itself, in the worker's end-of-run report — the one
source of ``run.metrics``.  A cluster run with a live Prometheus
endpoint also has its workers push snapshots on the control plane's
live feed (:mod:`repro.runtime.process`).  Protocol messages never
carry metrics, and a disabled plane costs a single ``is None`` check.

Latency units are **seconds** throughout.  End-to-end latency is
``wall_now - (epoch + ts_ms / 1000)``: timestamps double as arrival
offsets (milliseconds), and the substrate stamps ``epoch`` (wall-clock
``time.time()``) just before releasing producers, so under open-loop
pacing (``RunOptions.pace``) the histogram measures true source-to-commit
latency.  Without pacing it measures pipeline residency relative to the
run start — still useful for regression gating, and documented as such.

The sim substrate reports a single ``"sim"`` pseudo-worker whose
end-to-end histogram is fed from simulated-time latencies (ms / 1000);
its wall-clock meaning differs but percentile math is identical.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsConfig",
    "LatencyHistogram",
    "WorkerMetrics",
    "MetricsSnapshot",
    "RunMetrics",
    "MetricsExporter",
    "merge_attempt_metrics",
    "prometheus_render",
]


def _geometric_buckets(lo: float, hi: float, per_decade: int = 4) -> Tuple[float, ...]:
    """Geometric bucket upper bounds from ``lo`` to ``hi`` seconds."""
    out: List[float] = []
    b = lo
    ratio = 10.0 ** (1.0 / per_decade)
    while b < hi * (1.0 + 1e-9):
        out.append(b)
        b *= ratio
    return tuple(out)


# 100 us .. 100 s, four buckets per decade (24 bounds + overflow).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = _geometric_buckets(1e-4, 100.0)


@dataclass(frozen=True)
class MetricsConfig:
    """Immutable per-run metrics configuration.

    ``epoch`` is the wall-clock instant (``time.time()``) when producers
    were released; substrates stamp it just before starting workers so
    every process/node shares the same latency origin.
    """

    latency_buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    epoch: Optional[float] = None

    def with_epoch(self, epoch: float) -> "MetricsConfig":
        return MetricsConfig(latency_buckets=self.latency_buckets, epoch=epoch)


class LatencyHistogram:
    """Fixed-bucket latency histogram (seconds).

    ``bounds`` are inclusive upper bucket edges; one implicit overflow
    bucket catches everything above the last edge.  ``observe`` is a
    ``bisect`` plus two adds — cheap enough for the worker hot path.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def merge(self, other: "LatencyHistogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum

    def percentile(self, q: float) -> float:
        """Approximate percentile (0..100) by linear interpolation
        inside the bucket containing the target rank; 0.0 when empty.

        A rank landing in the overflow bucket returns ``+inf``: the
        true value is above the last edge and unbounded, and clamping
        it to ``bounds[-1]`` would let a latency gate read an
        overflowed tail as "in range"."""
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= rank:
                if i == len(self.bounds):
                    return float("inf")
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                frac = (rank - seen) / c
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            seen += c
        return float("inf") if self.counts[-1] else self.bounds[-1]

    @property
    def overflow(self) -> int:
        """Observations above the last bucket edge."""
        return self.counts[-1]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def copy(self) -> "LatencyHistogram":
        h = LatencyHistogram(self.bounds)
        h.counts = list(self.counts)
        h.count = self.count
        h.sum = self.sum
        return h


@dataclass
class MetricsSnapshot:
    """A picklable point-in-time copy of one worker's metrics: what a
    worker reports, and what the live feed carries."""

    worker: str
    events_processed: int = 0
    joins_completed: int = 0
    batches_sent: int = 0
    messages_sent: int = 0
    frames_received: int = 0
    max_backlog: int = 0
    join_rtt: Optional[LatencyHistogram] = None
    event_latency: Optional[LatencyHistogram] = None

    _COUNTERS = (
        "events_processed",
        "joins_completed",
        "batches_sent",
        "messages_sent",
        "frames_received",
    )

    def to_json(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"worker": self.worker, "max_backlog": self.max_backlog}
        for k in self._COUNTERS:
            d[k] = getattr(self, k)
        for name, h in (("join_rtt", self.join_rtt), ("event_latency", self.event_latency)):
            if h is not None and h.count:
                d[name] = {
                    "count": h.count,
                    "overflow": h.overflow,
                    "mean_s": h.mean,
                    "p50_s": h.percentile(50),
                    "p99_s": h.percentile(99),
                }
        return d

    def copy(self) -> "MetricsSnapshot":
        snap = MetricsSnapshot(worker=self.worker, max_backlog=self.max_backlog)
        for k in self._COUNTERS:
            setattr(snap, k, getattr(self, k))
        snap.join_rtt = self.join_rtt.copy() if self.join_rtt else None
        snap.event_latency = self.event_latency.copy() if self.event_latency else None
        return snap

    def add(self, other: "MetricsSnapshot") -> None:
        """Accumulate ``other`` into this snapshot: counters sum,
        backlogs take the high-water, histograms merge (bucket-checked).
        This is the cross-*attempt* combinator — unlike
        :meth:`RunMetrics.absorb`, which keeps the richest of several
        reports of the *same* attempt."""
        for k in self._COUNTERS:
            setattr(self, k, getattr(self, k) + getattr(other, k))
        self.max_backlog = max(self.max_backlog, other.max_backlog)
        for attr in ("join_rtt", "event_latency"):
            theirs: Optional[LatencyHistogram] = getattr(other, attr)
            if theirs is None:
                continue
            mine: Optional[LatencyHistogram] = getattr(self, attr)
            if mine is None:
                setattr(self, attr, theirs.copy())
            else:
                mine.merge(theirs)


class WorkerMetrics:
    """Mutable per-worker metrics; owned by exactly one worker loop.

    Hot-path hooks are attribute bumps or a single histogram observe.
    Events and joins are not counted here: the worker's output sink
    counts them, and :meth:`snapshot` reads them from it.
    """

    __slots__ = (
        "worker",
        "config",
        "batches_sent",
        "messages_sent",
        "frames_received",
        "max_backlog",
        "backlog_window",
        "join_rtt",
        "event_latency",
    )

    #: The counters kept here; :meth:`next_window` restarts them.
    _COUNTERS = ("batches_sent", "messages_sent", "frames_received")

    def __init__(self, worker: str, config: Optional[MetricsConfig] = None):
        self.worker = worker
        self.config = config or MetricsConfig()
        self.batches_sent = 0
        self.messages_sent = 0
        self.frames_received = 0
        self.max_backlog = 0
        self.backlog_window = 0
        self.join_rtt = LatencyHistogram(self.config.latency_buckets)
        self.event_latency = LatencyHistogram(self.config.latency_buckets)

    # -- hot-path hooks -------------------------------------------------
    def note_backlog(self, depth: int) -> None:
        if depth > self.max_backlog:
            self.max_backlog = depth
        if depth > self.backlog_window:
            self.backlog_window = depth

    def take_backlog_window(self) -> int:
        """High-water backlog since the last call, then reset — the
        windowed load signal the root feeds the auto-scaler (a spike
        between two joins is visible even if the queue drained by the
        instant of the join itself)."""
        hw = self.backlog_window
        self.backlog_window = 0
        return hw

    def observe_event_latency(self, now_wall: float, ts_ms: float) -> None:
        epoch = self.config.epoch
        if epoch is None:
            return
        lat = now_wall - (epoch + ts_ms / 1000.0)
        self.event_latency.observe(lat if lat > 0.0 else 0.0)

    def observe_run_latency(self, now_wall: float, ts_col: Sequence[float]) -> None:
        """The event latencies of a whole columnar run, applied at one
        instant.  Timestamps ascend, so latencies descend from the
        first event to the last: when both fall into one bucket the
        run is counted once, with its length (every closed-loop run:
        ahead of real time, all clamped to zero); a run that straddles
        buckets is observed event by event."""
        epoch = self.config.epoch
        if epoch is None:
            return
        oldest = max(0.0, now_wall - (epoch + ts_col[0] / 1000.0))
        newest = max(0.0, now_wall - (epoch + ts_col[-1] / 1000.0))
        h = self.event_latency
        bucket = bisect_left(h.bounds, oldest)
        if bucket != bisect_left(h.bounds, newest) or newest == 0.0 < oldest:
            for t in ts_col:
                self.observe_event_latency(now_wall, t)
            return
        n = len(ts_col)
        h.counts[bucket] += n
        h.count += n
        if newest > 0.0:
            h.sum += n * (now_wall - epoch) - sum(ts_col) / 1000.0

    def next_window(self) -> None:
        """Start a new reporting window (a long-lived attempt reports
        one per seal): the counters, the backlog high-water and both
        histograms restart at zero."""
        for k in self._COUNTERS:
            setattr(self, k, 0)
        self.max_backlog = 0
        self.join_rtt = LatencyHistogram(self.config.latency_buckets)
        self.event_latency = LatencyHistogram(self.config.latency_buckets)

    def snapshot(self, sink: Any) -> MetricsSnapshot:
        """A copy of this worker's metrics as of now, with the events
        and joins its output ``sink`` counted.  The histograms are
        copied too: a snapshot may be pickled later (a
        ``multiprocessing`` queue pickles in its feeder thread) while
        the worker keeps observing."""
        return MetricsSnapshot(
            self.worker,
            sink.events_processed,
            sink.joins,
            self.batches_sent,
            self.messages_sent,
            self.frames_received,
            self.max_backlog,
            self.join_rtt.copy() if self.join_rtt.count else None,
            self.event_latency.copy() if self.event_latency.count else None,
        )


@dataclass
class RunMetrics:
    """Cross-worker metrics for one run, attached to run results.

    For a plain run the recovery/elasticity counters below stay zero.
    For a recovering or elastic run the drivers build one
    ``RunMetrics`` per *attempt* (each with its own latency epoch,
    stamped when that attempt's producers were released — so a
    replayed event's latency measures its true recovery delay, from
    restart to re-commit) and fold them into a whole-run total with
    :func:`merge_attempt_metrics`, stamping ``attempts``,
    ``replayed_events``, ``checkpoints_restored``,
    ``reconfigurations``, and ``migration_pause_s``."""

    per_worker: Dict[str, MetricsSnapshot] = field(default_factory=dict)
    latency_buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    #: Execution attempts the metrics cover (0 = single plain run).
    attempts: int = 0
    #: Events re-fed through the protocol by crash recoveries.
    replayed_events: int = 0
    #: Checkpoint restores performed (one per recovery step).
    checkpoints_restored: int = 0
    #: Completed plan migrations (elastic runs).
    reconfigurations: int = 0
    #: Total driver-side migration pause across all reconfigurations.
    migration_pause_s: float = 0.0

    _RECOVERY_COUNTERS = (
        "attempts",
        "replayed_events",
        "checkpoints_restored",
        "reconfigurations",
        "migration_pause_s",
    )

    def absorb(self, snap: MetricsSnapshot) -> None:
        """Keep the richer snapshot when a worker reports twice (an
        exporter sees the live feed, then the end-of-run report)."""
        prev = self.per_worker.get(snap.worker)
        if prev is None or snap.events_processed >= prev.events_processed:
            self.per_worker[snap.worker] = snap

    def accumulate(self, other: "RunMetrics") -> None:
        """Fold another attempt's metrics into this one as totals:
        per-worker counters sum and histograms merge
        (:meth:`MetricsSnapshot.add`); ``other`` is left untouched, so
        per-attempt snapshots stay inspectable after the merge."""
        for w, snap in other.per_worker.items():
            mine = self.per_worker.get(w)
            if mine is None:
                self.per_worker[w] = snap.copy()
            else:
                mine.add(snap)

    def merged(self) -> MetricsSnapshot:
        """Every worker's snapshot added into one (``worker="all"``)."""
        total = MetricsSnapshot(worker="all")
        for snap in self.per_worker.values():
            total.add(snap)
        return total

    # Convenience accessors for bench records and chaos artifacts.
    def latency_percentile(self, q: float) -> float:
        m = self.merged()
        return m.event_latency.percentile(q) if m.event_latency else 0.0

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99)

    def to_json(self) -> Dict[str, Any]:
        out = {
            "merged": self.merged().to_json(),
            "per_worker": {w: s.to_json() for w, s in sorted(self.per_worker.items())},
        }
        if self.attempts:
            out["recovery"] = {k: getattr(self, k) for k in self._RECOVERY_COUNTERS}
        return out

    def prometheus_text(self, extra_labels: str = "") -> str:
        """Render in Prometheus text exposition format.

        ``extra_labels`` (e.g. ``attempt="2"``) is prefixed to every
        sample's label set — how the cluster exporter distinguishes
        attempts of a recovering/elastic run on one endpoint."""
        return prometheus_render([(extra_labels, self)])


def prometheus_render(groups: Sequence[Tuple[str, RunMetrics]]) -> str:
    """Prometheus text for one or more label-prefixed metric groups.

    Each group is ``(extra_labels, metrics)``; ``extra_labels`` (e.g.
    ``attempt="1"``) is prefixed to every sample from that group.  HELP
    and TYPE headers are emitted once per metric name even when several
    groups carry it, keeping multi-attempt exposition valid."""
    lines: List[str] = []

    def lbl(extra: str, labels: str) -> str:
        if extra and labels:
            return f"{extra},{labels}"
        return extra or labels

    for counter, help_ in (
        ("events_processed", "Events processed by the worker loop"),
        ("joins_completed", "Join/fork rounds completed"),
        ("batches_sent", "Transport batches flushed"),
        ("messages_sent", "Messages sent inside batches"),
        ("frames_received", "Wire frames received"),
        ("max_backlog", "High-water mailbox/backlog depth"),
    ):
        name = f"repro_worker_{counter}"
        lines.append(f"# HELP {name} {help_}")
        lines.append(f"# TYPE {name} gauge")
        for extra, rm in groups:
            for w, s in sorted(rm.per_worker.items()):
                labels = lbl(extra, f'worker="{w}"')
                lines.append(f"{name}{{{labels}}} {float(getattr(s, counter))}")
    for hname, attr in (("join_rtt", "join_rtt"), ("event_latency", "event_latency")):
        base = f"repro_{hname}_seconds"
        lines.append(f"# HELP {base} Latency histogram ({hname})")
        lines.append(f"# TYPE {base} histogram")
        for extra, rm in groups:
            for w, s in sorted(rm.per_worker.items()):
                h: Optional[LatencyHistogram] = getattr(s, attr)
                if h is None:
                    continue
                cum = 0
                wl = lbl(extra, f'worker="{w}"')
                for i, bound in enumerate(h.bounds):
                    cum += h.counts[i]
                    bl = lbl(wl, f'le="{bound:g}"')
                    lines.append(f"{base}_bucket{{{bl}}} {cum}")
                bl = lbl(wl, 'le="+Inf"')
                lines.append(f"{base}_bucket{{{bl}}} {h.count}")
                lines.append(f"{base}_sum{{{wl}}} {h.sum}")
                lines.append(f"{base}_count{{{wl}}} {h.count}")
    for counter, help_ in (
        ("attempts", "Execution attempts the metrics cover"),
        ("replayed_events", "Events replayed by crash recoveries"),
        ("checkpoints_restored", "Checkpoint restores performed"),
        ("reconfigurations", "Completed plan migrations"),
        ("migration_pause_s", "Total driver-side migration pause (s)"),
    ):
        rows = [
            (extra, rm) for extra, rm in groups if rm.attempts
        ]
        if not rows:
            continue
        name = f"repro_run_{counter}"
        lines.append(f"# HELP {name} {help_}")
        lines.append(f"# TYPE {name} gauge")
        for extra, rm in rows:
            labels = f"{{{extra}}}" if extra else ""
            lines.append(f"{name}{labels} {float(getattr(rm, counter))}")
    return "\n".join(lines) + "\n"


def merge_attempt_metrics(
    per_attempt: Sequence[Optional[RunMetrics]],
) -> Optional[RunMetrics]:
    """Whole-run totals from per-attempt :class:`RunMetrics`: counters
    sum, backlogs take the high-water, and latency histograms merge
    across attempts (each attempt's epoch is its own producer-release
    instant, so replayed events contribute their true recovery delay).
    ``None`` entries (attempts that reported no metrics) are skipped;
    all-``None`` input — the metrics plane was off — yields ``None``."""
    real = [m for m in per_attempt if m is not None]
    if not real:
        return None
    total = RunMetrics(latency_buckets=real[0].latency_buckets)
    for m in real:
        total.accumulate(m)
    total.attempts = len(real)
    return total


class MetricsExporter:
    """Tiny stdlib HTTP server publishing Prometheus text on /metrics.

    The coordinator updates the store with whatever snapshots have
    arrived; scrapes never block the data plane.  A plain run uses the
    default attempt bucket (no ``attempt`` label); the recovering and
    elastic cluster paths call :meth:`begin_attempt` before each
    attempt, which keeps every prior attempt's final state scrapeable
    under its ``attempt="n"`` label while the live attempt updates —
    the exporter stays up across the whole multi-attempt run instead
    of going dark at every crash or migration.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        import http.server

        exporter = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib API name)
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_response(404)
                    self.end_headers()
                    return
                body = exporter.render().encode()
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; version=0.0.4")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-request stderr spam
                pass

        self._lock = threading.Lock()
        #: attempt index -> that attempt's live/final RunMetrics; key 0
        #: is the unlabeled bucket plain (single-attempt) runs use.
        self._attempt = 0
        self._by_attempt: Dict[int, RunMetrics] = {0: RunMetrics()}
        #: Service-tier gauges (repro.serve): name suffix -> value,
        #: rendered as ``repro_serve_<name>``.  Empty outside service
        #: mode, so closed runs expose nothing extra.
        self._service: Dict[str, float] = {}
        self._server = http.server.ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="metrics-exporter", daemon=True
        )

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "MetricsExporter":
        self._thread.start()
        return self

    def begin_attempt(self) -> int:
        """Open a new ``attempt="n"`` bucket (1-based) for subsequent
        updates; earlier attempts' final state stays scrapeable."""
        with self._lock:
            self._attempt += 1
            self._by_attempt[self._attempt] = RunMetrics()
            return self._attempt

    def update(self, snap: MetricsSnapshot) -> None:
        with self._lock:
            self._by_attempt[self._attempt].absorb(snap)

    def set_service_gauges(self, gauges: Dict[str, float]) -> None:
        """Publish service-tier gauges: each ``{name: value}`` renders
        as ``repro_serve_<name> <value>`` on /metrics.  The whole set is
        replaced atomically (the service loop pushes a consistent
        snapshot of its counters after every epoch)."""
        with self._lock:
            self._service = dict(gauges)

    _SERVE_HELP = {
        "admitted_total": "Events admitted by the service ingest tier",
        "rejected_total": "Events rejected by admission control",
        "committed_total": "Outputs committed to the egress log",
        "backlog": "Admitted-but-uncommitted events buffered",
        "epochs_total": "Ingest epochs executed",
        "attempts_total": "Backend attempts run across all epochs",
        "crashes_recovered_total": "Worker crashes recovered across epochs",
        "reconfigurations_total": "Plan migrations completed across epochs",
        "admission_paused": "1 while admission control is rejecting",
    }

    def _render_service(self) -> str:
        # Caller holds self._lock.
        if not self._service:
            return ""
        lines: List[str] = []
        for name, value in sorted(self._service.items()):
            full = f"repro_serve_{name}"
            help_ = self._SERVE_HELP.get(name, "Service-tier gauge")
            lines.append(f"# HELP {full} {help_}")
            lines.append(f"# TYPE {full} gauge")
            lines.append(f"{full} {float(value)}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        with self._lock:
            service = self._render_service()
            if self._attempt == 0:
                return service + self._by_attempt[0].prometheus_text()
            groups = [
                (f'attempt="{a}"', rm)
                for a, rm in sorted(self._by_attempt.items())
                if a > 0
            ]
        return service + prometheus_render(groups)

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()

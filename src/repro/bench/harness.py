"""Measurement harness (paper §4 methodology).

The paper measures *maximum throughput* by "increasing the input rate
until throughput stabilizes or the system crashes", and latency as
percentiles at a fixed offered rate.  The harness mirrors that:

* :func:`max_throughput` — geometric rate sweep; a configuration is
  saturated when achieved throughput falls below ``efficiency`` of the
  offered rate; the reported maximum is the best achieved rate.
* :func:`latency_profile` — percentiles of output latency across a
  ramp of offered rates (Figure 6's axes).

``run_at_rate`` callbacks receive an events-per-millisecond *per
input stream* rate and return the run's :class:`repro.sim.SimRun`
(every simulated engine's ``run()`` does).
"""

from __future__ import annotations

import math
import os
import platform
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..runtime.options import RunOptions  # leaf module; no import cycle


@dataclass(frozen=True)
class RatePoint:
    """One measured point on an offered-rate sweep."""

    offered_per_ms: float
    achieved_per_ms: float
    latency_p10: float
    latency_p50: float
    latency_p90: float

    @property
    def efficiency(self) -> float:
        return (
            self.achieved_per_ms / self.offered_per_ms
            if self.offered_per_ms > 0
            else 0.0
        )


@dataclass
class SweepResult:
    points: List[RatePoint] = field(default_factory=list)

    @property
    def max_throughput(self) -> float:
        return max((p.achieved_per_ms for p in self.points), default=0.0)

    def saturation_point(self, efficiency: float = 0.9) -> Optional[RatePoint]:
        for p in self.points:
            if p.efficiency < efficiency:
                return p
        return None


def _measure(run_at_rate: Callable[[float], Any], rate: float) -> RatePoint:
    res = run_at_rate(rate)
    p10, p50, p90 = res.latency_percentiles((10, 50, 90))
    # Offered load = total events over the injection window, so
    # efficiency is scale-free (duration converging to the input span
    # means "keeping up").
    return RatePoint(
        offered_per_ms=res.events_in / res.input_span_ms,
        achieved_per_ms=res.throughput_events_per_ms,
        latency_p10=p10,
        latency_p50=p50,
        latency_p90=p90,
    )


def max_throughput(
    run_at_rate: Callable[[float], Any],
    *,
    start_rate: float = 50.0,
    growth: float = 2.0,
    max_steps: int = 7,
    efficiency: float = 0.9,
) -> SweepResult:
    """Geometric offered-rate sweep until saturation.

    The sweep stops one step after the first rate whose achieved
    throughput drops below ``efficiency * offered`` (by then the
    system is clearly saturated; pushing further only slows the
    simulation)."""
    sweep = SweepResult()
    rate = start_rate
    saturated_steps = 0
    for _ in range(max_steps):
        point = _measure(run_at_rate, rate)
        sweep.points.append(point)
        if point.efficiency < efficiency:
            saturated_steps += 1
            if saturated_steps >= 2:
                break
        rate *= growth
    return sweep


def latency_profile(
    run_at_rate: Callable[[float], Any],
    rates: Sequence[float],
) -> List[RatePoint]:
    """Latency percentiles across a fixed ramp of offered rates
    (the x/y data of Figure 6)."""
    return [_measure(run_at_rate, r) for r in rates]


@dataclass(frozen=True)
class ScalingPoint:
    parallelism: int
    max_throughput_per_ms: float


# ---------------------------------------------------------------------------
# Open-loop arrival processes (latency measurement under offered load)
# ---------------------------------------------------------------------------
#
# Closed-loop pumps (push the next event as soon as the channel takes
# it) measure throughput but hide queueing delay: the producer slows
# down with the system, so latency looks flat right up to collapse.
# An *open-loop* process fixes arrival timestamps in advance; replayed
# with RunOptions(pace=1000.0) they arrive on the wall clock at the
# offered rate regardless of how the system keeps up — the latency
# distribution then reflects genuine queueing (coordinated omission
# avoided by construction).

def fixed_rate_arrivals(
    n: int, rate_per_s: float, *, start_ms: float = 0.0
) -> List[float]:
    """Timestamps (ms) of ``n`` arrivals at a constant offered rate."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be > 0")
    period_ms = 1000.0 / rate_per_s
    return [start_ms + i * period_ms for i in range(n)]


def bursty_arrivals(
    n: int,
    rate_per_s: float,
    *,
    burst: int = 10,
    compression: float = 10.0,
    start_ms: float = 0.0,
) -> List[float]:
    """Timestamps (ms) of ``n`` arrivals in bursts of ``burst`` events.

    The long-run mean rate is still ``rate_per_s``: each burst's
    events are squeezed ``compression``× closer together than the
    fixed-rate spacing, followed by an idle gap until the next burst's
    scheduled start.  ``compression`` must be > 1 (at 1.0 this
    degenerates to :func:`fixed_rate_arrivals`)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be > 0")
    if burst < 1:
        raise ValueError("burst must be >= 1")
    if compression < 1.0:
        raise ValueError("compression must be >= 1.0")
    period_ms = 1000.0 / rate_per_s
    intra_ms = period_ms / compression
    out: List[float] = []
    for i in range(n):
        k, j = divmod(i, burst)
        out.append(start_ms + k * burst * period_ms + j * intra_ms)
    return out


# ---------------------------------------------------------------------------
# Wall-clock measurements on the real substrates
# ---------------------------------------------------------------------------

def available_cores() -> int:
    """CPU cores this process may use (portable: sched_getaffinity
    where it exists — Linux —, cpu_count elsewhere)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class WallClockPoint:
    """One backend's wall-clock measurement on a fixed workload."""

    backend: str
    events: int
    wall_s: float

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class BenchConfig:
    """Shared configuration for the wall-clock measurement functions
    (:func:`measure_recovery_overhead`, :func:`measure_reconfig_pause`).

    ``options`` is the :class:`~repro.runtime.RunOptions` every run is
    launched with — set ``metrics=True`` there and each measured run's
    latency summary lands in :attr:`BenchResult.metrics`.  ``repeats``
    selects best-of-N wall clock per measured label."""

    options: RunOptions = field(default_factory=RunOptions)
    repeats: int = 1


@dataclass
class BenchResult:
    """Common result shape of the wall-clock measurement functions.

    ``points`` maps each measured label (``"clean"``/``"faulty"``/
    ``"elastic"``) to its best :class:`WallClockPoint`.
    ``outputs_equal`` records the differential check across labels.
    ``metrics`` maps labels to a
    flat latency/counter summary when the runs carried the metrics
    plane (see :meth:`BenchConfig.options`).  ``detail`` keeps the
    measurement-specific record (:class:`RecoveryOverheadPoint`,
    :class:`ReconfigPausePoint`) for fields the common shape cannot
    hold."""

    kind: str
    points: Dict[str, WallClockPoint]
    outputs_equal: bool
    detail: Any = None
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def events_per_s(self, label: str) -> float:
        return self.points[label].events_per_s


def _metrics_summary(run: Any) -> Optional[Dict[str, float]]:
    """Flatten a run's RunMetrics into the numbers benchmarks record
    (None when the run carried no metrics plane)."""
    m = getattr(run, "metrics", None)
    if m is None:
        return None
    merged = m.merged()
    return {
        "events_processed": float(merged.events_processed),
        "joins_completed": float(merged.joins_completed),
        "max_backlog": float(merged.max_backlog),
        "p50_latency_s": float(m.latency_percentile(50)),
        "p99_latency_s": float(m.latency_percentile(99)),
    }


# ---------------------------------------------------------------------------
# Machine-readable benchmark records
# ---------------------------------------------------------------------------

#: Schema identifier written into every record; bump on breaking
#: changes so a reader can tell record shapes apart (``/2`` dropped
#: the ``gate`` field).
BENCH_SCHEMA = "repro-bench/2"


def bench_record(
    name: str,
    *,
    config: Mapping[str, Any],
    metrics: Mapping[str, Any],
) -> Dict[str, Any]:
    """Build one ``BENCH_<name>.json`` record (see
    :func:`repro.bench.tables.publish_json`).

    ``metrics`` holds the measured numbers (throughput, latency
    percentiles, speedups — nesting allowed).  Records are reports,
    not a gate: the end-to-end benchmark with bounds is ``dgsbench``
    (``BENCHMARK.json``)."""
    return {
        "schema": BENCH_SCHEMA,
        "name": name,
        "created_unix": round(time.time(), 3),
        "host": {
            "cores": available_cores(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "config": dict(config),
        "metrics": dict(metrics),
    }


def _best_run(
    backend: Any,
    program: Any,
    plan: Any,
    streams: Sequence[Any],
    opts: RunOptions,
    repeats: int,
    *,
    fresh_options: Optional[Callable[[], RunOptions]] = None,
) -> Any:
    """Best-of-``repeats`` wall clock on one backend; ``fresh_options``
    rebuilds the RunOptions per repeat when it carries stateful values
    (fault plans record fired crashes, checkpoint predicates count)."""
    best: Optional[Any] = None
    for _ in range(max(1, repeats)):
        run = backend.run(
            program, plan, streams,
            options=fresh_options() if fresh_options is not None else opts,
        )
        if best is None or run.wall_s < best.wall_s:
            best = run
    return best


# ---------------------------------------------------------------------------
# Recovery overhead (fault injection + checkpoint restore + replay)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryOverheadPoint:
    """Wall-clock cost of surviving injected crashes on one backend.

    ``overhead_ratio`` is faulty/clean wall time: 1.0 means recovery
    was free, 2.0 means the crashes doubled the run.  ``outputs_equal``
    records the differential check — an overhead number for a run that
    dropped or duplicated outputs would be meaningless."""

    backend: str
    clean_wall_s: float
    faulty_wall_s: float
    attempts: int
    crashes: int
    replayed_events: int
    checkpoints_taken: int
    outputs_equal: bool

    @property
    def overhead_ratio(self) -> float:
        return (
            self.faulty_wall_s / self.clean_wall_s
            if self.clean_wall_s > 0
            else math.nan
        )


def measure_recovery_overhead(
    program: Any,
    plan: Any,
    streams: Sequence[Any],
    *,
    backend: str = "threaded",
    fault_plan_factory: Callable[[], Any],
    checkpoint_predicate_factory: Optional[Callable[[], Any]] = None,
    config: Optional[BenchConfig] = None,
) -> BenchResult:
    """Measure the wall-clock cost of checkpoint-based crash recovery.

    Runs the workload fault-free and with the injected fault plan on
    the same backend, best-of-``config.repeats`` each, and reports the
    ratio (in ``detail``, a :class:`RecoveryOverheadPoint`).  The clean
    baseline runs with the *same* checkpoint predicate armed, so the
    ratio isolates the crash + restore + replay cost rather than
    folding the snapshotting itself into "overhead" (the paper's claim
    is precisely that the snapshots are free).
    ``fault_plan_factory`` (rather than a plan instance) because fault
    plans record which crashes fired — each repeat needs a fresh one;
    same for stateful checkpoint predicates.
    """
    from ..runtime import get_backend  # runtime does not import bench; no cycle
    from ..runtime.checkpoint import every_root_join

    cfg = config if config is not None else BenchConfig()
    predicate_factory = checkpoint_predicate_factory or every_root_join
    be = get_backend(backend)

    clean_best = _best_run(
        be, program, plan, streams, cfg.options, cfg.repeats,
        fresh_options=lambda: replace(
            cfg.options, checkpoint_predicate=predicate_factory()
        ),
    )
    faulty_best = _best_run(
        be, program, plan, streams, cfg.options, cfg.repeats,
        fresh_options=lambda: replace(
            cfg.options,
            checkpoint_predicate=predicate_factory(),
            fault_plan=fault_plan_factory(),
        ),
    )

    rec = faulty_best.recovery
    detail = RecoveryOverheadPoint(
        backend=backend,
        clean_wall_s=clean_best.wall_s,
        faulty_wall_s=faulty_best.wall_s,
        attempts=rec.attempts,
        crashes=len(rec.crashes),
        replayed_events=rec.replayed_events,
        checkpoints_taken=rec.checkpoints_taken,
        outputs_equal=faulty_best.output_multiset() == clean_best.output_multiset(),
    )
    points = {
        "clean": WallClockPoint("clean", clean_best.events_in, clean_best.wall_s),
        "faulty": WallClockPoint("faulty", faulty_best.events_in, faulty_best.wall_s),
    }
    metrics: Dict[str, Dict[str, float]] = {}
    clean_summary = _metrics_summary(clean_best)
    if clean_summary is not None:
        # Faulty runs go through the recovery driver, which keeps
        # metrics off (per-attempt metrics are a later extension).
        metrics["clean"] = clean_summary
    return BenchResult(
        kind="recovery",
        points=points,
        outputs_equal=detail.outputs_equal,
        detail=detail,
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# Elastic reconfiguration: pause + post-scale throughput
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconfigPausePoint:
    """Wall-clock cost of live re-planning on one backend.

    ``migration_pause_s`` is the driver-side stop-the-world slice per
    migration (suffix computation + target-plan construction +
    compatibility checks); ``overhead_ratio`` (elastic/clean wall time)
    additionally folds in worker restart and suffix replay.  The
    per-phase throughputs are events processed over that phase's wall
    time, so scale-out gains are measured, not asserted.
    ``outputs_equal`` records the differential check — a pause number
    for a run that dropped or duplicated outputs would be meaningless.
    """

    backend: str
    clean_wall_s: float
    elastic_wall_s: float
    reconfigs: int
    attempts: int
    migration_pause_s: float
    phase_widths: Tuple[int, ...]
    phase_throughputs_eps: Tuple[float, ...]
    outputs_equal: bool

    @property
    def overhead_ratio(self) -> float:
        return (
            self.elastic_wall_s / self.clean_wall_s
            if self.clean_wall_s > 0
            else math.nan
        )

    @property
    def pre_scale_throughput_eps(self) -> float:
        return self.phase_throughputs_eps[0] if self.phase_throughputs_eps else math.nan

    @property
    def post_scale_throughput_eps(self) -> float:
        return self.phase_throughputs_eps[-1] if self.phase_throughputs_eps else math.nan


def measure_reconfig_pause(
    program: Any,
    plan: Any,
    streams: Sequence[Any],
    *,
    backend: str = "threaded",
    schedule: Any,
    config: Optional[BenchConfig] = None,
) -> BenchResult:
    """Measure the cost of elastic reconfiguration against a clean run
    of the *initial* plan on the same backend (best-of-
    ``config.repeats`` each; the :class:`ReconfigPausePoint` lands in
    ``detail``).

    Schedules are pure data (firing state lives in the driver), so one
    ``schedule`` instance serves every repeat.  The elastic run's
    outputs are multiset-verified against the clean run's, so neither
    the pause nor a throughput gain can come from dropping work."""
    from ..runtime import get_backend  # runtime does not import bench; no cycle

    cfg = config if config is not None else BenchConfig()
    be = get_backend(backend)

    clean_best = _best_run(be, program, plan, streams, cfg.options, cfg.repeats)
    elastic_best = _best_run(
        be, program, plan, streams,
        replace(cfg.options, reconfig_schedule=schedule),
        cfg.repeats,
    )

    rec = elastic_best.reconfig
    detail = ReconfigPausePoint(
        backend=backend,
        clean_wall_s=clean_best.wall_s,
        elastic_wall_s=elastic_best.wall_s,
        reconfigs=len(rec.reconfigurations),
        attempts=rec.attempts,
        migration_pause_s=sum(s.pause_s for s in rec.reconfigurations),
        phase_widths=tuple(p.leaves for p in rec.phases),
        phase_throughputs_eps=tuple(p.throughput_events_per_s for p in rec.phases),
        outputs_equal=elastic_best.output_multiset() == clean_best.output_multiset(),
    )
    points = {
        "clean": WallClockPoint("clean", clean_best.events_in, clean_best.wall_s),
        "elastic": WallClockPoint(
            "elastic", elastic_best.events_in, elastic_best.wall_s
        ),
    }
    metrics: Dict[str, Dict[str, float]] = {}
    clean_summary = _metrics_summary(clean_best)
    if clean_summary is not None:
        # Elastic runs go through the reconfiguration driver, which
        # keeps metrics off (per-attempt metrics are a later extension).
        metrics["clean"] = clean_summary
    return BenchResult(
        kind="reconfig",
        points=points,
        outputs_equal=detail.outputs_equal,
        detail=detail,
        metrics=metrics,
    )


def scaling_curve(
    run_factory: Callable[[int], Callable[[float], Any]],
    parallelism_levels: Sequence[int],
    *,
    start_rate: float = 50.0,
    growth: float = 2.0,
    max_steps: int = 7,
    efficiency: float = 0.9,
) -> List[ScalingPoint]:
    """Max throughput as a function of parallelism (Figures 4 and 8).

    ``run_factory(p)`` returns the ``run_at_rate`` callback for
    parallelism ``p``."""
    out: List[ScalingPoint] = []
    for p in parallelism_levels:
        sweep = max_throughput(
            run_factory(p),
            start_rate=start_rate,
            growth=growth,
            max_steps=max_steps,
            efficiency=efficiency,
        )
        out.append(ScalingPoint(p, sweep.max_throughput))
    return out


def speedup(points: Sequence[ScalingPoint]) -> List[Tuple[int, float]]:
    """Normalize a scaling curve by its first point."""
    if not points:
        return []
    base = points[0].max_throughput_per_ms
    if base <= 0 or math.isnan(base):
        return [(p.parallelism, math.nan) for p in points]
    return [(p.parallelism, p.max_throughput_per_ms / base) for p in points]

"""Per-attempt metrics under faults and reconfiguration.

The paper's headline claims are about staying correct *through*
crashes and re-planning, so the metrics plane must not go dark exactly
there: every substrate's execution attempt reports its own RunMetrics
(`AttemptOutcome.metrics`), the drivers keep one snapshot per attempt
(`ReconfiguredRun.attempt_metrics`, `PhaseRecord.metrics`) and merge them
— with the recovery/elasticity counters stamped — into
``BackendRun.metrics``.

Also here: the cross-attempt merge primitives
(`MetricsSnapshot.add`, `RunMetrics.accumulate`,
`merge_attempt_metrics`), the overflow-aware percentile (+inf, never a
silent clamp), the exporter's one unlabelled store, and the open-loop pacing
anchor regression (offset timestamps must not stall the producer).
"""

import dataclasses
import math
import time
import urllib.request

import pytest

from test_differential import ALL_APPS, _elastic_app_case

from repro.apps import value_barrier as vb
from repro.core.semantics import output_multiset
from repro.plans.morph import plan_width
from repro.runtime import (
    DEFAULT_LATENCY_BUCKETS,
    CrashFault,
    FaultPlan,
    InputStream,
    LatencyHistogram,
    MetricsExporter,
    MetricsSnapshot,
    ReconfigPoint,
    ReconfigSchedule,
    RunMetrics,
    RunOptions,
    every_root_join,
    local_nodes,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime.metrics import merge_attempt_metrics


def _fault_options(plan, streams, **kw):
    """A fault plan whose crash reliably fires mid-run with at least
    one checkpoint behind it: trigger just past the *second* root-owned
    (globally-synchronizing) event — the first root join has
    checkpointed by then — and pick a victim leaf whose own stream
    still has events at or after the trigger, so the crash actually
    fires on every app's workload shape."""
    root = plan.root.id
    sync = next(s for s in streams if plan.owner_of(s.itag).id == root)
    for idx in (1, 0):
        # Prefer the second sync event; fall back to the first for
        # workloads whose leaf events all precede it (a leaf is only
        # released past sync event k after that join's checkpoint, so
        # the crash always has a snapshot to recover from).
        at_ts = sync.events[idx].ts + 0.01
        victims = [
            plan.owner_of(s.itag).id
            for s in streams
            if plan.owner_of(s.itag).id != root
            and any(e.ts >= at_ts for e in s.events)
        ]
        if victims:
            break
    assert victims, "no leaf stream extends past the first sync event"
    kw.setdefault("timeout_s", 60.0)
    return RunOptions(
        fault_plan=FaultPlan(CrashFault(victims[0], at_ts=at_ts)),
        checkpoint_predicate=every_root_join(),
        metrics=True,
        **kw,
    )


def _check_recovering(run):
    rec = run.recovery
    assert rec is not None and rec.attempts >= 2
    assert run.metrics is not None
    # One snapshot per attempt, crashed attempts included.
    assert len(rec.attempt_metrics) == rec.attempts
    # The merged RunMetrics carries the recovery ledger...
    assert run.metrics.attempts == rec.attempts
    assert run.metrics.replayed_events == rec.replayed_events
    assert run.metrics.checkpoints_restored == len(rec.recoveries)
    # ...and totals consistent with the per-attempt sum.
    merged = run.metrics.merged()
    assert merged.events_processed == sum(
        m.merged().events_processed for m in rec.attempt_metrics
    )
    assert merged.joins_completed == sum(
        m.merged().joins_completed for m in rec.attempt_metrics
    )
    if merged.event_latency is not None:
        assert merged.event_latency.count == sum(
            m.merged().event_latency.count
            for m in rec.attempt_metrics
            if m.merged().event_latency is not None
        )


def _reconfig_options(plan, **kw):
    mid = max(1, plan_width(plan) // 2)
    kw.setdefault("timeout_s", 60.0)
    return RunOptions(
        reconfig_schedule=ReconfigSchedule(
            ReconfigPoint(after_joins=1, to_leaves=mid)
        ),
        checkpoint_predicate=every_root_join(),
        metrics=True,
        **kw,
    )


def _check_elastic(run):
    rec = run.reconfig
    assert rec is not None and rec.attempts >= 2
    assert run.metrics is not None
    assert len(rec.attempt_metrics) == rec.attempts
    # Every phase keeps its own snapshot — the per-shape load signal.
    assert all(p.metrics is not None for p in rec.phases)
    assert run.metrics.attempts == rec.attempts
    assert run.metrics.reconfigurations == len(rec.reconfigurations) >= 1
    assert run.metrics.migration_pause_s == pytest.approx(
        sum(s.pause_s for s in rec.reconfigurations)
    )
    merged = run.metrics.merged()
    assert merged.events_processed == sum(
        m.merged().events_processed for m in rec.attempt_metrics
    )


class TestFaultMatrix:
    """metrics=True + fault_plan= is never dark: every app, every
    substrate, snapshot counts match attempts, totals add up."""

    @pytest.mark.parametrize("app", ALL_APPS)
    def test_all_apps_threaded(self, app):
        prog, streams, plan = _elastic_app_case(app)
        run = run_on_backend(
            "threaded", prog, plan, streams, options=_fault_options(plan, streams)
        )
        _check_recovering(run)
        # Instrumented recovery is still spec-identical.
        ref = run_sequential_reference(prog, streams)
        assert output_multiset(run.outputs) == output_multiset(ref)

    @pytest.mark.parametrize("backend", ("sim", "process"))
    def test_other_substrates(self, backend):
        prog, streams, plan = _elastic_app_case("value_barrier")
        run = run_on_backend(
            backend, prog, plan, streams, options=_fault_options(plan, streams)
        )
        _check_recovering(run)

    def test_tcp_cluster(self):
        prog, streams, plan = _elastic_app_case("value_barrier")
        run = run_on_backend(
            "process",
            prog,
            plan,
            streams,
            options=_fault_options(
                plan, streams, nodes=local_nodes(2), timeout_s=120.0
            ),
        )
        _check_recovering(run)
        # The cluster assembles the whole tree's snapshots per attempt.
        workers = {n.id for n in plan.workers()}
        assert set(run.metrics.per_worker) == workers


class TestReconfigMatrix:
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_all_apps_threaded(self, app):
        prog, streams, plan = _elastic_app_case(app)
        run = run_on_backend(
            "threaded", prog, plan, streams, options=_reconfig_options(plan)
        )
        _check_elastic(run)

    @pytest.mark.parametrize("backend", ("sim", "process"))
    def test_other_substrates(self, backend):
        prog, streams, plan = _elastic_app_case("pageview")
        run = run_on_backend(
            backend, prog, plan, streams, options=_reconfig_options(plan)
        )
        _check_elastic(run)

    def test_tcp_cluster(self):
        prog, streams, plan = _elastic_app_case("pageview")
        run = run_on_backend(
            "process",
            prog,
            plan,
            streams,
            options=_reconfig_options(
                plan, nodes=local_nodes(2), timeout_s=120.0
            ),
        )
        _check_elastic(run)


class TestMergePrimitives:
    def _snap(self, worker, events, lat=None):
        s = MetricsSnapshot(worker=worker, events_processed=events)
        if lat is not None:
            h = LatencyHistogram(DEFAULT_LATENCY_BUCKETS)
            h.observe(lat)
            s.event_latency = h
        return s

    def test_snapshot_add_sums_counters_and_merges_histograms(self):
        a = self._snap("w1", 10, lat=0.01)
        a.max_backlog = 3
        b = self._snap("w1", 7, lat=0.02)
        b.max_backlog = 9
        a.add(b)
        assert a.events_processed == 17
        assert a.max_backlog == 9  # high-water, not a sum
        assert a.event_latency.count == 2
        assert b.events_processed == 7  # other untouched

    def test_accumulate_vs_absorb(self):
        """absorb stores a worker's one report of an attempt;
        accumulate sums (across attempts)."""
        rm1, rm2 = RunMetrics(), RunMetrics()
        rm1.absorb(self._snap("w1", 10))
        rm2.absorb(self._snap("w1", 5))
        rm1.accumulate(rm2)
        assert rm1.per_worker["w1"].events_processed == 15
        assert rm2.per_worker["w1"].events_processed == 5

    def test_merge_attempt_metrics(self):
        rm1, rm2 = RunMetrics(), RunMetrics()
        rm1.absorb(self._snap("w1", 10))
        rm2.absorb(self._snap("w1", 5))
        total = merge_attempt_metrics([rm1, rm2])
        assert total.attempts == 2
        assert total.per_worker["w1"].events_processed == 15
        # Inputs are left untouched.
        assert rm1.per_worker["w1"].events_processed == 10
        assert merge_attempt_metrics([]) is None
        assert merge_attempt_metrics([None, None]) is None

    def test_recovery_counters_in_json_and_prometheus(self):
        rm = RunMetrics()
        rm.absorb(self._snap("w1", 10))
        assert "recovery" not in rm.to_json()  # plain run: no section
        rm.attempts = 3
        rm.replayed_events = 12
        js = rm.to_json()["recovery"]
        assert js["attempts"] == 3 and js["replayed_events"] == 12
        text = rm.prometheus_text()
        assert "repro_run_attempts 3.0" in text
        assert "repro_run_replayed_events 12.0" in text


class TestOverflowPercentile:
    def test_percentile_in_overflow_bucket_is_inf(self):
        h = LatencyHistogram((0.001, 0.01))
        h.observe(5.0)  # everything overflows
        assert math.isinf(h.percentile(50))
        assert h.overflow == 1

    def test_mixed_mass_clamps_only_below_overflow_rank(self):
        h = LatencyHistogram((0.001, 0.01))
        for _ in range(99):
            h.observe(0.005)
        h.observe(5.0)
        assert math.isfinite(h.percentile(50))  # within bounds
        assert h.percentile(50) <= 0.01
        assert math.isinf(h.percentile(100))  # the overflowed tail

    def test_overflow_exposed_in_json(self):
        h = LatencyHistogram(DEFAULT_LATENCY_BUCKETS)
        h.observe(1e9)
        s = MetricsSnapshot(worker="w1", event_latency=h)
        assert s.to_json()["event_latency"]["overflow"] == 1


class TestExporter:
    def test_an_update_replaces_the_workers_sample(self):
        """The service refreshes its exporter after each epoch: the
        scrape carries the latest snapshot per worker, once."""
        exp = MetricsExporter(port=0).start()
        try:
            exp.update(MetricsSnapshot(worker="all", events_processed=3))
            exp.update(MetricsSnapshot(worker="all", events_processed=7))
            body = urllib.request.urlopen(
                f"http://127.0.0.1:{exp.port}/metrics", timeout=2
            ).read().decode()
        finally:
            exp.stop()
        samples = [x for x in body.splitlines() if x.startswith("repro_worker_events_processed")]
        assert samples == ['repro_worker_events_processed{worker="all"} 7.0']
        assert body.count("# TYPE repro_worker_events_processed gauge") == 1

    def test_plain_runs_stay_unlabelled(self):
        exp = MetricsExporter(port=0)
        exp.update(MetricsSnapshot(worker="w1", events_processed=3))
        assert 'repro_worker_events_processed{worker="w1"} 3.0' in exp.render()
        assert "attempt=" not in exp.render()


class TestOpenLoopPacingAnchor:
    """Regression: ``due = start + ts/pace`` stalled ts0/pace seconds
    when the workload's timestamps do not start near 0.  The producers
    anchor at the schedule's first timestamp now."""

    def _offset_case(self, offset):
        prog = vb.make_program()
        wl = vb.make_workload(
            n_value_streams=2, values_per_barrier=10, n_barriers=2
        )
        streams = [
            InputStream(
                s.itag,
                tuple(
                    dataclasses.replace(e, ts=e.ts + offset) for e in s.events
                ),
                s.source_host,
                s.heartbeat_interval,
            )
            for s in vb.make_streams(wl)
        ]
        return prog, streams, vb.make_plan(prog, wl)

    @pytest.mark.parametrize("backend", ("threaded", "process"))
    def test_offset_timestamps_do_not_stall(self, backend):
        # Timestamps start at 10_000 units.  At pace=1000 the old
        # anchor would sleep 10s before the first event; the whole
        # paced span after anchoring is well under a second.
        prog, streams, plan = self._offset_case(10_000.0)
        t0 = time.monotonic()
        run = run_on_backend(
            backend,
            prog,
            plan,
            streams,
            options=RunOptions(pace=1000.0, timeout_s=30.0),
        )
        elapsed = time.monotonic() - t0
        assert len(run.outputs) == 2
        assert elapsed < 8.0, (
            f"paced producer stalled {elapsed:.1f}s — pacing is anchored "
            "at ts=0 instead of the schedule's first timestamp"
        )

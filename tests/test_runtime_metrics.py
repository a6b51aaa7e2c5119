"""The per-worker metrics plane: histogram math, snapshots and
cross-worker merging, the one path from a worker's report to the run's
metrics, the RunOptions entry points, and the cluster coordinator's
Prometheus endpoint.

The differential class is the plane's most important property: turning
metrics **on changes nothing** — every app produces the same output
multiset with and without instrumentation, on every backend.
"""

import multiprocessing
import queue
import socket
import threading
import time
import urllib.request
import warnings

import pytest

from test_differential import ALL_APPS, _app_case

from repro.apps import keycounter as kc
from repro.apps import value_barrier as vb
from repro.core import Event, ImplTag
from repro.core.events import Heartbeat
from repro.core.semantics import output_multiset
from repro.plans import root_and_leaves_plan, sequential_plan
from repro.runtime import (
    DEFAULT_LATENCY_BUCKETS,
    CrashFault,
    FaultPlan,
    InputStream,
    LatencyHistogram,
    MetricsConfig,
    MetricsSnapshot,
    RunMetrics,
    RunOptions,
    WorkerMetrics,
    every_root_join,
    get_backend,
    local_nodes,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime.messages import EventMsg, HeartbeatMsg
from repro.runtime.process import AttemptSpec, _collect, _drive_worker
from repro.runtime.protocol import AttemptOutcome, OutputSink, initial_leaf_states
from repro.runtime.transport import STOP, ControlPlane

BACKENDS = ("sim", "threaded", "process")


def _small_case(values_per_barrier=40, n_barriers=3, n_value_streams=2):
    prog = vb.make_program()
    wl = vb.make_workload(
        n_value_streams=n_value_streams,
        values_per_barrier=values_per_barrier,
        n_barriers=n_barriers,
    )
    return prog, vb.make_streams(wl), vb.make_plan(prog, wl)


class TestLatencyHistogram:
    def test_bucket_placement_and_overflow(self):
        h = LatencyHistogram((0.001, 0.01, 0.1))
        for v in (0.0005, 0.001):  # inclusive upper edges
            h.observe(v)
        h.observe(0.05)
        h.observe(99.0)  # overflow bucket
        assert h.counts == [2, 0, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(0.0005 + 0.001 + 0.05 + 99.0)

    def test_bounds_must_be_sorted_and_non_empty(self):
        with pytest.raises(ValueError):
            LatencyHistogram(())
        with pytest.raises(ValueError):
            LatencyHistogram((0.1, 0.01))

    def test_percentiles_are_monotone_and_bracketed(self):
        h = LatencyHistogram(DEFAULT_LATENCY_BUCKETS)
        for i in range(1, 1001):
            h.observe(i / 1000.0)  # 1ms .. 1s
        qs = [h.percentile(q) for q in (10, 50, 90, 99, 100)]
        assert qs == sorted(qs)
        assert 0.0 < h.percentile(50) < h.percentile(99)
        # p50 of a uniform 1ms..1s sample sits near .5s, within the
        # coarse-bucket quantization (4 buckets/decade).
        assert 0.2 < h.percentile(50) < 0.9
        assert h.mean == pytest.approx(0.5005, rel=1e-6)

    def test_empty_histogram_is_all_zero(self):
        h = LatencyHistogram()
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0

    def test_merge_requires_same_bounds_and_adds_counts(self):
        a, b = LatencyHistogram((1.0, 2.0)), LatencyHistogram((1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.counts == [1, 1, 1] and a.count == 3
        with pytest.raises(ValueError):
            a.merge(LatencyHistogram((1.0, 3.0)))


class TestSnapshotsAndMerge:
    def _snap(self, worker, events, backlog=0, with_hist=True):
        s = MetricsSnapshot(worker=worker, events_processed=events, max_backlog=backlog)
        if with_hist:
            h = LatencyHistogram(DEFAULT_LATENCY_BUCKETS)
            h.observe(0.01 * (1 + events % 3))
            s.event_latency = h
        return s

    def test_absorb_keeps_the_richer_snapshot(self):
        rm = RunMetrics()
        rm.absorb(self._snap("w1", 100))
        rm.absorb(self._snap("w1", 40))  # a stale live snapshot: ignored
        assert rm.per_worker["w1"].events_processed == 100
        rm.absorb(self._snap("w1", 250))  # end-of-run report: wins
        assert rm.per_worker["w1"].events_processed == 250

    def test_merged_totals_counters_and_histograms(self):
        rm = RunMetrics()
        rm.absorb(self._snap("w1", 10, backlog=3))
        rm.absorb(self._snap("w2", 20, backlog=7))
        m = rm.merged()
        assert m.events_processed == 30
        assert m.max_backlog == 7  # high-water, not a sum
        assert m.event_latency.count == 2
        assert rm.p50_latency_s <= rm.p99_latency_s

    def test_prometheus_text_shape(self):
        rm = RunMetrics()
        rm.absorb(self._snap("w1", 10))
        text = rm.prometheus_text()
        assert '# TYPE repro_worker_events_processed gauge' in text
        assert 'repro_worker_events_processed{worker="w1"} 10.0' in text
        assert '# TYPE repro_event_latency_seconds histogram' in text
        assert 'le="+Inf"' in text
        # Cumulative bucket counts end at the total count.
        inf_line = [
            ln for ln in text.splitlines()
            if ln.startswith('repro_event_latency_seconds_bucket{worker="w1",le="+Inf"')
        ]
        assert inf_line and inf_line[0].endswith(" 1")


class TestWorkerMetrics:
    def test_event_latency_needs_an_epoch_and_clamps_negative(self):
        m = WorkerMetrics("w1", MetricsConfig())
        m.observe_event_latency(time.time(), 5.0)  # no epoch: dropped
        assert m.event_latency.count == 0
        cfg = MetricsConfig().with_epoch(100.0)
        m = WorkerMetrics("w1", cfg)
        m.observe_event_latency(100.25, 50.0)  # 0.25s - 0.05s = 0.2s
        m.observe_event_latency(100.0, 900.0)  # arrived "early": clamp to 0
        assert m.event_latency.count == 2
        assert m.event_latency.sum == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "now, ts_col",
        [
            (100.0, (500.0, 600.0, 700.0)),  # all ahead of real time: clamped
            (100.3, (10.0, 10.5, 11.0, 11.5)),  # one bucket, counted once
            (100.3, (1.0, 120.0, 250.0, 299.0)),  # straddles buckets
            (100.2, (150.0, 199.0, 200.0, 260.0)),  # straddles the clamp
            (100.2, (150.0,)),
        ],
    )
    def test_run_latency_equals_per_event_observation(self, now, ts_col):
        """A run counted once with its length lands where observing its
        events one by one would have."""
        cfg = MetricsConfig().with_epoch(100.0)
        by_run, by_event = WorkerMetrics("w1", cfg), WorkerMetrics("w1", cfg)
        by_run.observe_run_latency(now, ts_col)
        for t in ts_col:
            by_event.observe_event_latency(now, t)
        assert by_run.event_latency.counts == by_event.event_latency.counts
        assert by_run.event_latency.count == len(ts_col)
        assert by_run.event_latency.sum == pytest.approx(by_event.event_latency.sum)
        WorkerMetrics("w1", MetricsConfig()).observe_run_latency(now, ts_col)  # no epoch

    def test_a_snapshot_reads_events_and_joins_from_the_sink(self):
        """Events and joins are counted once, by the sink; a snapshot
        is a copy that later observations leave alone."""
        m, sink = WorkerMetrics("w1"), OutputSink()
        sink.count_events(3)
        sink.count_join()
        m.frames_received = 2
        m.join_rtt.observe(0.01)
        snap = m.snapshot(sink)
        assert (snap.events_processed, snap.joins_completed, snap.frames_received) == (3, 1, 2)
        m.join_rtt.observe(0.02)
        assert snap.join_rtt.count == 1 and snap.event_latency is None


class _Inbox:
    """A receiver stub: the given batches, then the stop frame."""

    def __init__(self, batches):
        self._batches = iter([*batches, STOP])

    def recv(self):
        return next(self._batches)


class _Sender:
    """A sender stub for a one-worker plan, which posts nothing; the
    worker hands it its WorkerMetrics."""

    metrics = None

    def post(self, dst, msg):
        raise AssertionError(f"a lone worker posted {msg!r} to {dst}")

    def flush(self):
        pass


class TestOneMetricsPath:
    """A worker's metrics reach the attempt in its end-of-run report,
    and only there; the live feed is the exporter's."""

    def _drive(self, monkeypatch):
        """One leaf driven through two frames: the first brings two
        events and releases both, the second only moves the timers.
        The clock lets only the first frame push a live snapshot."""
        prog = kc.make_program(1)
        inc, reset = ImplTag(kc.inc_tag(0), "i"), ImplTag(kc.reset_tag(0), "r")
        plan = sequential_plan(prog, [inc, reset])
        spec = AttemptSpec(
            prog, plan, None, initial_leaf_states(plan, prog), None, None, False, None,
            MetricsConfig().with_epoch(time.time()),
        )

        def heartbeats(ts):
            return [HeartbeatMsg(t, Heartbeat(t.tag, t.stream, ts).order_key) for t in (inc, reset)]

        events = [EventMsg(Event(inc.tag, inc.stream, ts)) for ts in (1.0, 2.0)]
        control = ControlPlane(multiprocessing.get_context("fork"))
        control.metrics = queue.Queue()  # the live feed, read in-process
        sender = _Sender()
        clock = iter([0.0, 1.0])
        with monkeypatch.context() as m:
            m.setattr(time, "monotonic", lambda: next(clock, 1.1))
            _drive_worker(
                "w1", spec, _Inbox([events + heartbeats(3.0), heartbeats(4.0)]), sender, control
            )
        return spec, control, sender.metrics

    def test_a_stale_live_snapshot_does_not_replace_the_report(self, monkeypatch):
        """The live feed saw the worker after its first frame, the
        report after both; the attempt's metrics are the report's."""
        spec, control, _wm = self._drive(monkeypatch)
        result = AttemptOutcome()
        _collect(control, [], result, ["w1"], 5.0, spec.metrics)
        snap = result.metrics.per_worker["w1"]
        assert (snap.frames_received, snap.events_processed) == (2, 2)
        assert result.events_processed == 2

    def test_the_live_feed_carries_a_copy(self, monkeypatch):
        """A multiprocessing queue pickles after ``put_nowait`` returns,
        while the worker goes on observing: what the feed carries
        shares no histogram with the live WorkerMetrics."""
        _spec, control, wm = self._drive(monkeypatch)
        live = control.metrics.get_nowait()
        assert (live.frames_received, live.events_processed) == (1, 2)
        assert live.event_latency.count == 2
        assert live.event_latency is not wm.event_latency
        assert live.event_latency.counts is not wm.event_latency.counts


class TestRunEntryPoints:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metrics_off_by_default(self, backend):
        prog, streams, plan = _small_case()
        run = run_on_backend(backend, prog, plan, streams)
        assert run.metrics is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metrics_on_reports_every_worker(self, backend):
        prog, streams, plan = _small_case()
        run = run_on_backend(
            backend, prog, plan, streams, options=RunOptions(metrics=True)
        )
        m = run.metrics
        assert m is not None
        merged = m.merged()
        assert merged.events_processed > 0
        assert merged.event_latency is not None and merged.event_latency.count > 0
        if backend == "sim":
            assert set(m.per_worker) == {"sim"}
        else:
            # The real substrates report the whole tree (root + leaves),
            # one end-of-run snapshot per worker.
            assert set(m.per_worker) == {n.id for n in plan.workers()}
            assert merged.joins_completed > 0

    @pytest.mark.parametrize("backend", ["threaded", "process"])
    def test_a_join_step_costs_the_root_one_frame_per_child(self, backend):
        """Counted, not timed: the fork that ends one join and the
        request that opens the next leave the root in one frame per
        child (``flush_hint`` once per ``handle``), so the root flushes
        at most twice per join plus twice per frame the coordinator
        sent it — not four times per join, waking every child twice.
        The same sender and the same loop count on threads: a "frame"
        there is the batch one flush put on the receiver's queue."""
        prog = kc.make_program(2)
        leaves = [[ImplTag(kc.inc_tag(k), f"i{s}") for k in range(2)] for s in range(2)]
        resets = [ImplTag(kc.reset_tag(k), "r") for k in range(2)]
        plan = root_and_leaves_plan(prog, resets, leaves)
        events = {t: [] for t in resets + leaves[0] + leaves[1]}
        for i in range(1, 601):
            if i % 6 == 0:
                itag = resets[i // 6 % 2]
            else:
                itag = leaves[i % 2][i // 2 % 2]
            events[itag].append(Event(itag.tag, itag.stream, float(i), i))
        streams = [
            InputStream(t, tuple(evs), heartbeat_interval=10.0)
            for t, evs in events.items()
        ]
        run = run_on_backend(
            backend, prog, plan, streams, options=RunOptions(metrics=True)
        )
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        workers = run.metrics.per_worker
        root = workers[plan.root.id]
        joins = root.joins_completed
        assert joins == 100
        assert all(w.messages_sent >= w.batches_sent > 0 for w in workers.values())
        # The leaves send the root nothing but join responses, one
        # frame each; the rest of what it received is the coordinator's.
        from_leaves = sum(workers[n.id].batches_sent for n in plan.leaves())
        assert from_leaves == 2 * joins
        from_coordinator = root.frames_received - from_leaves
        assert from_coordinator >= 1
        assert root.batches_sent <= 2 * joins + 2 * from_coordinator < 4 * joins

    def test_recovering_run_merges_per_attempt_metrics(self):
        """A fault run with ``metrics=True`` reports a merged
        RunMetrics with the recovery counters stamped, and keeps one
        snapshot per attempt on ``recovery.attempt_metrics``."""
        prog, streams, plan = _small_case()
        victim = plan.leaves()[0].id
        fp = FaultPlan(CrashFault(victim, at_ts=streams[-1].events[1].ts + 0.01))
        run = run_on_backend(
            "threaded",
            prog,
            plan,
            streams,
            options=RunOptions(
                metrics=True,
                fault_plan=fp,
                checkpoint_predicate=every_root_join(),
            ),
        )
        rec = run.recovery
        assert rec is not None and rec.attempts == 2
        assert run.metrics is not None and run.metrics is rec.metrics
        assert len(rec.attempt_metrics) == rec.attempts
        assert run.metrics.attempts == 2
        assert run.metrics.checkpoints_restored == len(rec.recoveries) == 1
        assert run.metrics.replayed_events == rec.replayed_events > 0
        assert run.metrics.to_json()["recovery"]["attempts"] == 2

    def test_loose_kwargs_raise_and_options_do_not(self):
        prog, streams, plan = _small_case(values_per_barrier=10, n_barriers=2)
        # The PR-6 deprecation grace is over: loose kwargs are a
        # TypeError carrying the migration hint.
        with pytest.raises(TypeError, match=r"RunOptions\(timeout_s=\.\.\.\)"):
            run_on_backend("threaded", prog, plan, streams, timeout_s=60.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_on_backend(
                "threaded", prog, plan, streams, options=RunOptions(timeout_s=60.0)
            )
            get_backend("threaded").run(prog, plan, streams)  # no kwargs: silent


class TestMetricsChangeNothing:
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_outputs_identical_with_metrics_on(self, app):
        prog, streams, plan = _app_case(app)
        plain = run_on_backend("threaded", prog, plan, streams)
        metered = run_on_backend(
            "threaded", prog, plan, streams, options=RunOptions(metrics=True)
        )
        assert output_multiset(metered.outputs) == output_multiset(plain.outputs)
        assert metered.metrics is not None

    def test_process_backend_differential(self):
        prog, streams, plan = _app_case("value_barrier")
        plain = run_on_backend("process", prog, plan, streams)
        metered = run_on_backend(
            "process", prog, plan, streams, options=RunOptions(metrics=True)
        )
        assert output_multiset(metered.outputs) == output_multiset(plain.outputs)


class TestClusterPrometheusEndpoint:
    def test_coordinator_serves_live_scrapes(self):
        """A cluster-mode run with ``metrics_port=`` serves Prometheus
        text from the coordinator *while the run is live*: a background
        poller must see per-worker counters before the run finishes."""
        prog, streams, plan = _small_case(
            values_per_barrier=30, n_barriers=5, n_value_streams=2
        )
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()

        scrapes = []
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                try:
                    body = urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/metrics", timeout=1
                    ).read().decode()
                    scrapes.append(body)
                except Exception:
                    pass
                time.sleep(0.05)

        t = threading.Thread(target=poll, daemon=True)
        t.start()
        try:
            # pace=20 stretches the ~150ms-of-timestamps input to a few
            # wall seconds so the poller reliably lands mid-run.
            run = run_on_backend(
                "process",
                prog,
                plan,
                streams,
                options=RunOptions(
                    metrics=True,
                    nodes=local_nodes(2),
                    metrics_port=port,
                    pace=20.0,
                    timeout_s=120.0,
                ),
            )
        finally:
            stop.set()
            t.join(timeout=2)

        assert len(run.outputs) == 5
        assert run.metrics is not None
        good = [b for b in scrapes if "repro_worker_events_processed" in b]
        assert good, f"no live scrape carried worker counters ({len(scrapes)} scrapes)"
        assert 'le="+Inf"' in good[-1]  # histograms exported too

"""Tests for the Flink-like engine and its application implementations
(§4.2-4.3): output correctness vs the sequential spec, sharding
semantics, watermark merging, and the manual fork/join service."""

from collections import Counter

import pytest

from repro.apps import fraud, pageview as pv, value_barrier as vb
from repro.flinklike import (
    FlinkJob,
    JobGraph,
    OperatorInstance,
    Rec,
    TimestampMerger,
    build_event_window_job,
    build_fraud_job,
    build_fraud_splan_job,
    build_pageview_job,
    build_pageview_splan_job,
)
from repro.runtime import run_sequential_reference


def _spec(mod, wl):
    prog = mod.make_program() if mod is not pv else mod.make_program(2)
    streams = mod.make_streams(wl)
    return Counter(map(repr, run_sequential_reference(prog, streams)))


class TestTimestampMerger:
    def test_releases_in_global_order(self):
        m = TimestampMerger([0, 1])
        assert m.add(0, Rec(5.0, "a")) == []
        out = m.add(1, Rec(7.0, "b"))
        assert [r.value for r in out] == ["a"]
        out = m.watermark(0, 10.0)
        assert [r.value for r in out] == ["b"]

    def test_interleaves_across_channels(self):
        m = TimestampMerger([0, 1])
        out = []
        out += m.add(0, Rec(1.0, "a1"))
        out += m.add(0, Rec(3.0, "a3"))
        out += m.add(1, Rec(2.0, "b2"))  # low=2.0: releases a1, b2
        out += m.watermark(1, 5.0)  # low=3.0: releases a3
        assert [r.value for r in out] == ["a1", "b2", "a3"]

    def test_channel_order_breaks_timestamp_ties(self):
        m = TimestampMerger([0, 1])
        out = []
        out += m.add(1, Rec(1.0, "b"))
        out += m.add(0, Rec(1.0, "a"))  # low=1.0: both release, ch 0 first
        assert [r.value for r in out] == ["a", "b"]

    def test_last_released_channels(self):
        m = TimestampMerger([0, 1])
        m.add(0, Rec(1.0, "a"))
        m.watermark(1, 2.0)
        assert m.last_released_channels == [0]


class TestEngineBasics:
    def test_forward_requires_equal_parallelism(self):
        g = JobGraph("t")
        a = g.add("a", 2, lambda i: OperatorInstance())
        b = g.add("b", 3, lambda i: OperatorInstance())
        from repro.core import RuntimeFault

        with pytest.raises(RuntimeFault):
            g.connect(a, b, mode="forward")

    def test_hash_requires_key_fn(self):
        g = JobGraph("t")
        a = g.add("a", 1, lambda i: OperatorInstance())
        b = g.add("b", 2, lambda i: OperatorInstance())
        from repro.core import RuntimeFault

        with pytest.raises(RuntimeFault):
            g.connect(a, b, mode="hash")

    def test_duplicate_operator_rejected(self):
        g = JobGraph("t")
        g.add("a", 1, lambda i: OperatorInstance())
        from repro.core import RuntimeFault

        with pytest.raises(RuntimeFault):
            g.add("a", 1, lambda i: OperatorInstance())

    def test_hash_routes_by_key(self):
        received = []

        class Source(OperatorInstance):
            def process(self, rec, input_id, channel):
                self.emit(rec)

        class Sink(OperatorInstance):
            def process(self, rec, input_id, channel):
                received.append((self.index, rec.value))

        g = JobGraph("t")
        src = g.add("src", 1, lambda i: Source())
        snk = g.add("snk", 4, lambda i: Sink())
        g.connect(src, snk, mode="hash", key_fn=lambda v: v)
        job = FlinkJob(g, n_hosts=2)
        job.feed("src", [[Rec(float(t + 1), t % 8) for t in range(16)]])
        job.run()
        for idx, val in received:
            assert idx == val % 4

    def test_broadcast_reaches_all_instances(self):
        received = []

        class Source(OperatorInstance):
            def process(self, rec, input_id, channel):
                self.emit(rec)

        class Sink(OperatorInstance):
            def process(self, rec, input_id, channel):
                received.append(self.index)

        g = JobGraph("t")
        src = g.add("src", 1, lambda i: Source())
        snk = g.add("snk", 3, lambda i: Sink())
        g.connect(src, snk, mode="broadcast")
        job = FlinkJob(g, n_hosts=2)
        job.feed("src", [[Rec(1.0, "x")]])
        job.run()
        assert sorted(received) == [0, 1, 2]


class TestEventWindowJobs:
    @pytest.mark.parametrize("mode", ["parallel", "sequential"])
    def test_matches_spec(self, mode):
        wl = vb.make_workload(n_value_streams=4, values_per_barrier=40, n_barriers=4)
        want = _spec(vb, wl)
        res = build_event_window_job(wl, parallelism=4, mode=mode).run()
        assert Counter(map(repr, res.output_values())) == want

    def test_parallelism_mismatch_rejected(self):
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=10, n_barriers=2)
        with pytest.raises(ValueError):
            build_event_window_job(wl, parallelism=3)


class TestPageViewJobs:
    def test_keyed_matches_spec(self):
        wl = pv.make_workload(
            n_pages=2, n_view_streams=4, views_per_update=40, n_updates_per_page=4
        )
        want = _spec(pv, wl)
        res = build_pageview_job(wl, parallelism=4).run()
        assert Counter(map(repr, res.output_values())) == want

    def test_splan_matches_spec(self):
        wl = pv.make_workload(
            n_pages=2, n_view_streams=4, views_per_update=40, n_updates_per_page=4
        )
        want = _spec(pv, wl)
        res = build_pageview_splan_job(wl).run()
        assert Counter(map(repr, res.output_values())) == want

    def test_splan_handles_childless_page(self):
        # parallelism 1 -> page 1 has updates but no view shard.
        wl = pv.make_workload(
            n_pages=2, n_view_streams=1, views_per_update=20, n_updates_per_page=3
        )
        want = _spec(pv, wl)
        res = build_pageview_splan_job(wl).run()
        assert Counter(map(repr, res.output_values())) == want


class TestFraudJobs:
    def test_sequential_matches_spec(self):
        wl = fraud.make_workload(n_txn_streams=4, txns_per_rule=40, n_rules=4)
        want = _spec(fraud, wl)
        res = build_fraud_job(wl, parallelism=4).run()
        assert Counter(map(repr, res.output_values())) == want

    def test_splan_matches_spec(self):
        wl = fraud.make_workload(n_txn_streams=4, txns_per_rule=40, n_rules=4)
        want = _spec(fraud, wl)
        res = build_fraud_splan_job(wl, parallelism=4).run()
        assert Counter(map(repr, res.output_values())) == want

    def test_splan_scales_where_sequential_cannot(self):
        # At a saturating rate the manual plan clearly beats sequential.
        wl = fraud.make_workload(
            n_txn_streams=8, txns_per_rule=300, n_rules=3, txn_rate_per_ms=400.0
        )
        seq = build_fraud_job(wl, parallelism=8).run()
        man = build_fraud_splan_job(wl, parallelism=8).run()
        assert man.throughput_events_per_ms > 1.5 * seq.throughput_events_per_ms

    def test_result_metrics(self):
        wl = fraud.make_workload(n_txn_streams=2, txns_per_rule=20, n_rules=2)
        job = build_fraud_job(wl, parallelism=2)
        res = job.run()
        assert res.events_in == wl.total_events
        assert job.records_processed > 0
        assert res.input_span_ms > 0
        assert len(res.latency_percentiles()) == 3

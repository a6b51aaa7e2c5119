"""Tests for the measurement harness (§4 methodology) using synthetic
result objects — no simulation needed."""

import json
import math
import os
from dataclasses import dataclass
from typing import List, Sequence

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    RatePoint,
    bench_record,
    latency_profile,
    max_throughput,
    publish_json,
    render_matrix,
    render_table,
    scaling_curve,
    speedup,
)
from repro.bench.harness import ScalingPoint


@dataclass
class FakeResult:
    """A system with a hard capacity: achieves min(offered, capacity);
    latency blows up past capacity."""

    offered: float
    capacity: float
    events_in: int = 1000

    @property
    def input_span_ms(self) -> float:
        return self.events_in / self.offered

    @property
    def throughput_events_per_ms(self) -> float:
        return min(self.offered, self.capacity)

    def latency_percentiles(self, qs: Sequence[float] = (10, 50, 90)) -> List[float]:
        base = 1.0 if self.offered <= self.capacity else 50.0
        return [base * (q / 50.0) for q in qs]


def capacity_system(capacity: float):
    return lambda rate: FakeResult(rate, capacity)


class TestMaxThroughput:
    def test_finds_capacity(self):
        sweep = max_throughput(
            capacity_system(500.0), start_rate=50.0, growth=2.0, max_steps=8
        )
        assert sweep.max_throughput == pytest.approx(500.0)

    def test_stops_after_saturation(self):
        sweep = max_throughput(
            capacity_system(100.0), start_rate=50.0, growth=2.0, max_steps=10
        )
        # 50, 100, 200 (sat), 400 (sat) -> stop: at most 5 points.
        assert len(sweep.points) <= 5

    def test_efficiency_and_saturation_point(self):
        sweep = max_throughput(
            capacity_system(100.0), start_rate=50.0, growth=2.0, max_steps=10
        )
        sat = sweep.saturation_point(efficiency=0.9)
        assert sat is not None
        assert sat.offered_per_ms > 100.0

    def test_unsaturated_sweep_returns_last(self):
        sweep = max_throughput(
            capacity_system(1e9), start_rate=10.0, growth=2.0, max_steps=3
        )
        assert len(sweep.points) == 3
        assert sweep.saturation_point() is None


class TestLatencyProfile:
    def test_profiles_each_rate(self):
        pts = latency_profile(capacity_system(100.0), [50.0, 200.0])
        assert len(pts) == 2
        assert pts[0].latency_p50 == pytest.approx(1.0)
        assert pts[1].latency_p50 == pytest.approx(50.0)

    def test_rate_point_efficiency(self):
        p = RatePoint(100.0, 90.0, 0.1, 0.2, 0.3)
        assert p.efficiency == pytest.approx(0.9)
        assert RatePoint(0.0, 0.0, 0, 0, 0).efficiency == 0.0


class TestScalingCurve:
    def test_linear_system(self):
        curve = scaling_curve(
            lambda p: capacity_system(100.0 * p),
            [1, 2, 4],
            start_rate=25.0,
            growth=2.0,
            max_steps=8,
        )
        sp = dict(speedup(curve))
        assert sp[1] == pytest.approx(1.0)
        assert sp[4] == pytest.approx(4.0, rel=0.01)

    def test_speedup_empty_and_zero(self):
        assert speedup([]) == []
        pts = [ScalingPoint(1, 0.0), ScalingPoint(2, 10.0)]
        assert all(math.isnan(s) for _, s in speedup(pts))


class TestRenderers:
    def test_render_table_contains_all_series(self):
        text = render_table(
            "T", "x", [1, 2], {"a": [1.0, 2.0], "b": [3.0, 4.0]}, note="n"
        )
        for token in ("T", "x", "a", "b", "n", "1.00", "4.00"):
            assert token in text

    def test_render_table_handles_short_series_and_nan(self):
        text = render_table("T", "x", [1, 2], {"a": [1.0]})
        assert "-" in text  # missing cell rendered as dash

    def test_render_table_large_numbers_commas(self):
        text = render_table("T", "x", [1], {"a": [123456.0]})
        assert "123,456" in text

    def test_render_matrix(self):
        text = render_matrix(
            "M",
            ["row1", "row2"],
            ["c1", "c2"],
            {"row1": {"c1": "Y", "c2": "N"}, "row2": {"c1": "1.0x"}},
        )
        assert "row1" in text and "c2" in text and "1.0x" in text

    def test_publish_writes_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.bench import publish

        publish("unit_test_artifact", "hello table")
        assert (tmp_path / "unit_test_artifact.txt").read_text() == "hello table\n"
        assert "hello table" in capsys.readouterr().out


class TestBenchRecord:
    def test_record_shape(self):
        r = bench_record("x", config={"case": "x"}, metrics={"eps": 100})
        assert r["schema"] == BENCH_SCHEMA
        assert r["name"] == "x"
        assert r["config"] == {"case": "x"}
        assert r["metrics"] == {"eps": 100}
        assert r["host"]["cores"] >= 1
        assert "python" in r["host"]
        assert "gate" not in r

    def test_publish_json_writes_bench_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = publish_json("unit", bench_record("unit", config={}, metrics={"eps": 5}))
        assert os.path.basename(path) == "BENCH_unit.json"
        with open(path) as f:
            assert json.load(f)["metrics"] == {"eps": 5}

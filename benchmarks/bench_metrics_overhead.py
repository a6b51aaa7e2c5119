"""Metrics-plane overhead guard: the per-worker counters and latency
histograms must be close to free on the hot path.

The metrics plane samples inside ``WorkerCore`` (every event, every
join) and inside the transport flush path — places where a careless
implementation would tax the paper's throughput claims.  A run's
metrics come from each worker's end-of-run report, the one metrics
record on the control socket, and a join response carries its request
id, side and state, nothing more.  This bench runs
the communication-bound value-barrier workload (trivial updates, so
wall clock is dominated by message passing — the worst case for
instrumentation overhead) with metrics off and on, and asserts the
metrics-on throughput stays within 5% of metrics-off on multi-core
full-size runs.

Writes ``BENCH_metrics_overhead.json`` as a report; the in-bench
assertion is the guard.
"""

from conftest import quick

from repro import RunOptions, run_on_backend
from repro.apps import value_barrier as vb
from repro.bench import (
    available_cores,
    bench_record,
    publish,
    publish_json,
    render_table,
)


def _workload(QUICK: bool):
    prog = vb.make_program()
    wl = vb.make_workload(
        n_value_streams=2 if QUICK else 4,
        values_per_barrier=250 if QUICK else 15_000,
        n_barriers=2 if QUICK else 4,
    )
    return prog, vb.make_streams(wl), vb.make_plan(prog, wl)


def test_metrics_overhead(benchmark):
    QUICK = quick()
    prog, streams, plan = _workload(QUICK)
    repeats = 2 if QUICK else 8

    def eps(metrics: bool) -> float:
        run = run_on_backend(
            "process",
            prog,
            plan,
            streams,
            options=RunOptions(metrics=metrics, timeout_s=60.0),
        )
        if metrics:
            assert run.metrics is not None
            assert run.metrics.merged().events_processed > 0
        return run.events_in / run.wall_s if run.wall_s > 0 else 0.0

    def run():
        # Off/on pairs, alternating which side goes first: this host's
        # speed drifts by more than 5% between a block of "off" runs
        # and a later block of "on" runs.
        best = {False: 0.0, True: 0.0}
        for i in range(repeats):
            for metrics in (False, True) if i % 2 == 0 else (True, False):
                best[metrics] = max(best[metrics], eps(metrics))
        return {"off": best[False], "on": best[True]}

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = data["on"] / data["off"] if data["off"] > 0 else float("nan")
    text = render_table(
        "Metrics-plane overhead (process backend, communication-bound)",
        "metrics",
        ["off", "on"],
        {"events/s": [data["off"], data["on"]]},
        note=(
            f"cores={available_cores()}, best-of-{repeats}; "
            f"on/off ratio {ratio:.3f}"
        ),
    )
    publish("metrics_overhead", text)
    publish_json(
        "metrics_overhead",
        bench_record(
            "metrics_overhead",
            config={"quick": QUICK, "repeats": repeats},
            metrics={
                "off_events_per_s": round(data["off"]),
                "on_events_per_s": round(data["on"]),
                "on_off_ratio": round(ratio, 4),
            },
        ),
    )

    cores = available_cores()
    if cores >= 2 and not QUICK:
        # The acceptance bar: metrics-on within 5% of metrics-off.
        # Only asserted where the measurement is signal — full-size
        # workloads on multi-core hosts (smoke sizes are a few ms of
        # compute, where process startup noise swamps a 5% band).
        assert ratio >= 0.95, (
            f"metrics plane cost {100 * (1 - ratio):.1f}% throughput "
            f"(allowed: 5%) on {cores} cores"
        )

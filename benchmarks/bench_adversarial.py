"""Adversarial-workload benchmark: Zipf key skew vs uniform traffic on
the process runtime.

Not a paper figure — the paper's evaluation drives every app with
uniform arrival processes.  This bench measures the question the
adversarial layer (:mod:`repro.data.adversarial`) exists to ask: what
does realistic skew cost?  A Zipf(alpha) draw concentrates the shared
arrival process onto few streams, so one worker's mailbox carries most
of the traffic while the plan still pays full fork/join coordination
width.  Throughput should degrade gracefully — skew shifts load, it
must not collapse the runtime or corrupt outputs.

Every configuration replays the same aggregate arrival lattice (same
total events, same rate, same barrier schedule); only the stream
assignment changes, so the sweep isolates skew.  Outputs are
multiset-verified against the sequential spec on every point — a
configuration cannot look fast by dropping events.

Writes ``BENCH_adversarial.json`` as a report.  The sanity floor
below fails the bench when heavy skew collapses throughput (a
hot-stream backlog pile-up, a starved-join stall) — a regression that
only bites under imbalance, which the uniform workloads never see.
"""

import time

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
from repro.core.events import Event, ImplTag
from repro.data.adversarial import assert_collision_free, zipf_streams
from repro.data.generators import ValueBarrierWorkload
from repro.runtime.runtime import run_sequential_reference
from repro.testing import compare_outputs

RATE_PER_MS = 10.0  # aggregate offered lattice; period = 0.1 ms
SEED = 20260807


def _skewed_workload(alpha: float, n_streams: int, n_events: int, n_barriers: int):
    """A value-barrier workload whose value events come from one shared
    Zipf(``alpha``) arrival process (``alpha=0`` is exactly uniform).

    Barriers sit on half-period phases of the same lattice — collision
    free against every value slot by construction — and the last one
    lands past the final value, so all ``n_events`` values are barriered
    and every configuration does identical logical work."""
    itags = tuple(ImplTag(vb.VALUE_TAG, f"v{s}") for s in range(n_streams))
    values = zipf_streams(
        itags,
        n_events=n_events,
        alpha=alpha,
        rate_per_ms=RATE_PER_MS,
        seed=SEED,
        payload_fn=lambda i: 1 + (i % 7),
    )
    period = 1.0 / RATE_PER_MS
    slots = sorted({(k + 1) * n_events // n_barriers for k in range(n_barriers)})
    barriers = tuple(
        Event(vb.BARRIER_TAG, "b", 1.0 + j * period + period / 2, k)
        for k, j in enumerate(slots)
    )
    family = dict(values)
    family[ImplTag(vb.BARRIER_TAG, "b")] = barriers
    assert_collision_free(family)
    wl = ValueBarrierWorkload(values, barriers, ImplTag(vb.BARRIER_TAG, "b"))
    prog = vb.make_program()
    return prog, vb.make_plan(prog, wl), vb.make_streams(wl)


def _measure(prog, plan, streams, *, repeats: int, timeout_s: float):
    """Best-of-``repeats`` wall-clock throughput; p50/p99 come from the
    winning run's metrics plane.  Outputs are spec-checked once."""
    spec = run_sequential_reference(prog, streams)
    best = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        run = run_on_backend(
            "process",
            prog,
            plan,
            streams,
            options=RunOptions(metrics=True, transport="pipe", timeout_s=timeout_s),
        )
        wall_s = time.perf_counter() - t0
        mismatch = compare_outputs(spec, run.outputs)
        assert mismatch is None, f"skewed run diverged from spec: {mismatch}"
        m = run.metrics
        assert m is not None
        cand = {
            "events_per_s": run.events_in / wall_s if wall_s > 0 else 0.0,
            "p50_latency_s": m.latency_percentile(50),
            "p99_latency_s": m.latency_percentile(99),
            "outputs": len(run.outputs),
        }
        if best is None or cand["events_per_s"] > best["events_per_s"]:
            best = cand
    return best


def test_zipf_skew_sweep(benchmark):
    QUICK = quick()
    n_streams = 2 if QUICK else 4
    n_events = 1200 if QUICK else 12000
    n_barriers = 3 if QUICK else 6
    # alpha=0 is the uniform control; 1.4 puts ~2/3 of all traffic on
    # the head stream of a 4-stream family (the worst case).
    alphas = (0.0, 0.8, 1.4)

    workloads = {a: _skewed_workload(a, n_streams, n_events, n_barriers) for a in alphas}

    def run():
        repeats = 2 if QUICK else 3
        return {a: _measure(*workloads[a], repeats=repeats, timeout_s=60.0) for a in alphas}

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    labels = [("uniform" if a == 0.0 else f"zipf({a})") for a in alphas]
    base = data[0.0]["events_per_s"]
    text = render_table(
        "Zipf key skew: wall-clock throughput and latency (process backend)",
        "workload",
        labels,
        {
            "events/s": [data[a]["events_per_s"] for a in alphas],
            "vs uniform": [data[a]["events_per_s"] / base if base > 0 else 0.0 for a in alphas],
            "p99 ms": [data[a]["p99_latency_s"] * 1e3 for a in alphas],
        },
        note=(
            f"cores={available_cores()}, value-barrier, {n_streams} streams, "
            f"{n_events} events on one shared lattice; outputs spec-verified"
        ),
    )
    publish("adversarial", text)
    worst = max(alphas)
    publish_json(
        "adversarial",
        bench_record(
            "adversarial",
            config={
                "quick": QUICK,
                "streams": n_streams,
                "events": n_events,
                "barriers": n_barriers,
                "alphas": list(alphas),
                "rate_per_ms": RATE_PER_MS,
                "seed": SEED,
            },
            metrics={
                "uniform_events_per_s": round(base),
                "zipf_events_per_s": round(data[worst]["events_per_s"]),
                "skew_throughput_ratio": round(
                    data[worst]["events_per_s"] / base if base > 0 else 0.0, 3
                ),
                "uniform_p99_latency_s": round(data[0.0]["p99_latency_s"], 5),
                "zipf_p99_latency_s": round(data[worst]["p99_latency_s"], 5),
            },
        ),
    )

    for a in alphas:
        assert data[a]["outputs"] == n_barriers
        assert 0.0 <= data[a]["p50_latency_s"] <= data[a]["p99_latency_s"]
    # Graceful degradation floor: heavy skew halves the usable
    # parallelism, it must not collapse throughput by an order of
    # magnitude (that would mean the hot worker's backlog stalls joins).
    assert data[worst]["events_per_s"] > 0.2 * base, (
        f"Zipf(alpha={worst}) throughput fell to "
        f"{data[worst]['events_per_s'] / base:.2f}x of uniform (floor: 0.2x)"
    )

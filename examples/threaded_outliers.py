#!/usr/bin/env python3
"""Case study A.1 on the in-process runtime: Reloaded-style outlier
detection executed by the ``threaded`` backend (every plan worker on
the caller's thread, driven from one run queue), cross-checked against
both the sequential spec and the simulated runtime.

Run:  python examples/threaded_outliers.py
"""

from collections import Counter

from repro.apps import outlier as ol
from repro.runtime import FluminaRuntime, run_sequential_reference
from repro.runtime.threaded import ThreadedRuntime

N_STREAMS = 4


def main() -> None:
    program = ol.make_program()
    conns, queries, q_itag = ol.synthetic_connections(
        n_streams=N_STREAMS, conns_per_query=150, n_queries=3, rate_per_ms=20.0,
        outlier_fraction=0.02, seed=7,
    )
    streams = ol.make_streams(conns, queries, q_itag, heartbeat_interval=1.0)
    plan = ol.make_plan(program, conns, q_itag)
    print(plan.pretty())

    spec = run_sequential_reference(program, streams)
    want = Counter(map(repr, spec))

    threaded = ThreadedRuntime(program, plan).run(streams)
    threaded_ok = threaded.output_multiset() == want
    print(f"\nthreaded runtime ({plan.size()} workers on one thread):")
    print(f"  outputs match spec: {threaded_ok}")
    print(f"  events processed: {threaded.events_processed}, joins: {threaded.joins}")

    simulated = FluminaRuntime(program, plan).run(streams)
    simulated_ok = Counter(map(repr, simulated.output_values())) == want
    print("simulated runtime:")
    print(f"  outputs match spec: {simulated_ok}")

    outliers = sorted(v for v in spec if v[0] == "outlier")
    print(f"\n{len(outliers)} definitive outliers flagged; first five:")
    for v in outliers[:5]:
        print(f"  id={v[1]} z-score={v[2]}")
    if not (threaded_ok and simulated_ok):
        raise SystemExit(1)  # checked, not asserted — and honest to $?


if __name__ == "__main__":
    main()

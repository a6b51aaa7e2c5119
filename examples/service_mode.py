#!/usr/bin/env python3
"""Service mode: a long-running ingest/egress tier over any backend.

Every other example drives a *closed* run — build the streams, call
the backend, read the outputs.  This one runs the runtime as a
*service*: a TCP front door accepts externally produced events,
executes them epoch-by-epoch on the chosen substrate (crash recovery
included, see ``--crash``), and streams committed outputs to a
subscriber with exactly-once sequence numbers.  The subscriber's view
is verified against the sequential specification over exactly the
events the service *admitted* — the service's correctness contract.

Run:  python examples/service_mode.py
      python examples/service_mode.py --nodes 2          # cluster epochs
      python examples/service_mode.py --crash            # + worker crash
      python examples/service_mode.py --events 10000 --shards 4
"""

import argparse
import threading
import urllib.request
from collections import Counter

from repro.runtime import RunOptions
from repro.runtime.faults import CrashFault, FaultPlan
from repro.serve import ServeOptions, connect, keycounter_app, spec_outputs, start_service


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=4000)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--backend", default="threaded")
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="deploy each epoch across this many cluster nodes",
    )
    parser.add_argument(
        "--crash", action="store_true",
        help="crash a leaf worker mid-stream and recover from the "
        "latest root-join checkpoint",
    )
    args = parser.parse_args()

    app = keycounter_app(shards=args.shards)
    fault_plan = None
    if args.crash:
        leaf = app.plan.root.children[0].id
        fault_plan = FaultPlan(CrashFault(leaf, after_events=40))
    options = ServeOptions(
        backend="process" if args.nodes else args.backend,
        run=RunOptions(nodes=args.nodes, metrics=True, fault_plan=fault_plan),
        epoch_events=1500,
        epoch_idle_ms=100.0,
        metrics_port=0,
    )
    events = app.make_events(args.events)

    with start_service(app.program, app.plan, options=options) as handle:
        print(
            f"service up: {app.name} on :{handle.port} "
            f"(metrics on :{handle.metrics_port})"
        )
        received = []
        subscriber = threading.Thread(
            target=lambda: received.extend(
                connect(handle.port, handle.cookie, mode="subscribe").outputs()
            )
        )
        subscriber.start()

        with connect(handle.port, handle.cookie) as ingest:
            ack = ingest.send_events(events, batch=250)
            print(
                f"streamed {len(events)} events over TCP: "
                f"{ack.admitted} admitted, {ack.rejected} rejected {ack.reasons}"
            )
            total = ingest.finish()
        subscriber.join(timeout=60)

        counters = handle.runtime.counters
        print(
            f"epochs={counters.epochs} attempts={counters.attempts} "
            f"crashes_recovered={counters.crashes_recovered} "
            f"committed={total}"
        )
        scrape = urllib.request.urlopen(
            f"http://127.0.0.1:{handle.metrics_port}/metrics", timeout=10
        ).read().decode()
        lines = scrape.splitlines()
        gauges = [l for l in lines if l.startswith("repro_serve_")]
        print("prometheus gauges:\n  " + "\n  ".join(sorted(gauges)))
        # The one scrape shape on every backend: the service's gauges
        # and the run's merged worker counters, refreshed per epoch.
        workers = [l for l in lines if l.startswith("repro_worker_events_processed{")]
        scraped = f"repro_serve_committed_total {float(total)}" in lines and bool(workers)
        print(f"scrape carries the committed total and worker counters: {scraped}")

        # The exactly-once contract: the subscriber's (seq, value) log
        # is gapless and its values match the sequential spec over the
        # admitted events, crash or no crash.
        seqs = [seq for seq, _value in received]
        gapless = seqs == list(range(len(seqs)))
        want = Counter(map(repr, spec_outputs(app.program, events)))
        got = Counter(repr(value) for _seq, value in received)
        ok = scraped and gapless and got == want and not subscriber.is_alive()
        print(f"subscriber log gapless: {gapless}")
        print(f"committed outputs match sequential spec: {got == want}")
        if args.crash:
            recovered = counters.crashes_recovered >= 1
            ok = ok and recovered
            print(f"worker crash recovered mid-service: {recovered}")
    if not ok:
        raise SystemExit(1)  # checked, not asserted — and honest to $?


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runtime-backend selection: the same value-barrier program on the
simulated, threaded, and process substrates.

All three backends execute the identical synchronization-plan protocol
(selective-reordering mailboxes, join/fork state machine, heartbeat
relay); this example runs one workload through each via the uniform
backend registry, verifies the output multisets against the sequential
specification, and reports wall-clock throughput.  The process backend
runs a place per CPU with batched channels — the root's place on a
thread of this process, the others forked — and on a multi-core
machine it is the only one that escapes the GIL.

Run:  python examples/process_parallel.py
      python examples/process_parallel.py --backend process --workers 8 \\
          --transport shm --spin 600
"""

import argparse

from repro.apps import value_barrier as vb
from repro.bench import available_cores
from repro.core.semantics import output_multiset
from repro.runtime import (
    RunOptions,
    available_backends,
    run_on_backend,
    run_sequential_reference,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=(*available_backends(), "all"),
        default="all",
        help="runtime backend to execute on (default: all of them)",
    )
    parser.add_argument("--workers", type=int, default=3, help="value streams / leaves")
    parser.add_argument(
        "--transport",
        choices=("pipe", "queue", "tcp", "shm"),
        default="pipe",
        help="process-backend data plane: framed raw pipes (default), the "
        "legacy multiprocessing.Queue fabric, loopback TCP stream "
        "sockets, or shared-memory rings",
    )
    parser.add_argument(
        "--spin",
        type=int,
        default=100,
        help="CPU work units per value event (0 = the plain program)",
    )
    parser.add_argument("--values", type=int, default=150, help="values per barrier")
    parser.add_argument("--barriers", type=int, default=3)
    args = parser.parse_args()

    program = vb.make_cpu_program(args.spin) if args.spin else vb.make_program()
    workload = vb.make_workload(
        n_value_streams=args.workers,
        values_per_barrier=args.values,
        n_barriers=args.barriers,
    )
    plan = vb.make_plan(program, workload)
    streams = vb.make_streams(workload, heartbeat_interval=5.0)
    print(f"plan ({plan.size()} workers):\n{plan.pretty()}\n")

    want = output_multiset(run_sequential_reference(program, streams))
    backends = available_backends() if args.backend == "all" else (args.backend,)
    cores = available_cores()
    print(f"host cores: {cores}; per-event spin: {args.spin}\n")
    all_ok = True
    for name in backends:
        opts = RunOptions(transport=args.transport) if name == "process" else RunOptions()
        run = run_on_backend(name, program, plan, streams, options=opts)
        ok = output_multiset(run.outputs) == want
        all_ok = all_ok and ok
        print(
            f"{name:9s} outputs match spec: {ok}   "
            f"events={run.events_in}  joins={run.joins}  "
            f"wall={run.wall_s * 1e3:8.1f} ms  "
            f"throughput={run.throughput_events_per_s:10.0f} ev/s"
        )
    if not all_ok:
        raise SystemExit(1)  # checked, not asserted — and honest to $?


if __name__ == "__main__":
    main()

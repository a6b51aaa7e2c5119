"""Benchmark-owned service host: ``repro.serve`` services, one at a
time, in a process of their own.

Every line on stdin stops the current service (printing its epoch
record as one JSON line) and starts a fresh one, announced as
``{"port", "cookie"}``; end of stdin stops the last one and exits.
A fresh service per repeat keeps repeats alike: a finished service
cannot be reused.  ``python -m repro.serve`` cannot be used here; see
"Known product bugs" in dgsbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import _env  # noqa: F401  (sys.path)
from repro import ServeOptions, start_service

import workloads


def epoch_record(runtime) -> dict:
    return {
        "epoch_events": [e.sealed_events for e in runtime.epochs],
        "epoch_wall_ms": [e.wall_s * 1e3 for e in runtime.epochs],
        "admitted": runtime.counters.admitted,
        "rejected": runtime.counters.rejected_total,
        "committed": runtime.counters.committed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--cpu", type=int, required=True,
                        help="the CPU this host and its load generator share")
    args = parser.parse_args()
    # Before any thread starts, so that every thread inherits it.
    os.sched_setaffinity(0, {args.cpu})
    workload = workloads.WORKLOADS[args.workload]
    program, plan = workloads.build(workload)
    options = ServeOptions(
        backend="threaded",
        heartbeat_interval=workload.heartbeat_interval,
        # Admission must never reject: the closed loop measures capacity,
        # not the backpressure policy.
        ingest_high_watermark=1 << 30,
    )
    handle = None
    try:
        while sys.stdin.readline():
            if handle is not None:
                print(json.dumps(epoch_record(handle.runtime)), flush=True)
                handle.stop()
            handle = start_service(program, plan, options=options)
            print(json.dumps({"port": handle.port, "cookie": handle.cookie}), flush=True)
    finally:
        if handle is not None:
            print(json.dumps(epoch_record(handle.runtime)), flush=True)
            handle.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set up, say "ready", measure, report.

run.py starts this script in a session of its own and reads two JSON
lines from it: ``{"ready": ...}`` when set-up is done (run.py's clock
for ``setup_s`` stops there) and ``{"result": ...}`` at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from typing import Any, Dict, List

import _env  # noqa: F401  (sys.path)

import endtoend
import workloads


def summary(samples: List[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count of one metric's repeats."""
    if len(samples) >= 2:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def end_to_end_metrics(res: endtoend.Result) -> Dict[str, Dict[str, Any]]:
    """The end-to-end numbers of one run, except ``setup_s`` (run.py's
    clock) and ``peak_rss_mb`` (known once every child is reaped).
    BENCHMARK.json bounds ``spec_ratio``; the raw speeds are recorded
    next to it.  Empty when any repeat failed verification: a failed
    workload has no speed."""
    if res.failed or not res.samples.get("spec_ratio"):
        return {}
    out = {
        "spec_ratio": {**summary(res.samples["spec_ratio"]), "unit": "ratio"},
        "events_per_s": {**summary(res.samples["events_per_s"]), "unit": "1/s"},
        "spec_events_per_s": {**summary(res.samples["spec_events_per_s"]), "unit": "1/s"},
    }
    if "latency_ms" in res.values:  # serve: pooled barrier-output latencies
        n = res.notes["latency_samples"]
        for name, key in (("latency_p50_ms", "latency_ms"), ("latency_p95_ms", "latency_p95_ms")):
            out[name] = {"median": res.values[key], "n": n, "unit": "ms"}
    else:  # closed: the call's duration, one sample per repeat
        out["latency_p50_ms"] = {**summary(res.samples["latency_ms"]), "unit": "ms"}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt the output multiset before the check")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    # The traced pass spends a third of its time end to end (the serve
    # section), the rest inside single layers.
    seconds = args.seconds / 3 if args.trace else args.seconds
    prep = endtoend.set_up(workload, args.seed, args.scale, seconds)
    try:
        print(json.dumps({"ready": True, "parts": prep.parts,
                          "input_sha256": prep.inputs.sha256}), flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            import layers  # the layer pass imports every layer's module

            report = layers.run(prep, seconds)
        else:
            res = endtoend.measure(prep, seconds, corrupt=args.corrupt)
            report = {
                "attempted": res.attempted, "failed": res.failed,
                "errors": res.errors[:5], "metrics": end_to_end_metrics(res),
                "notes": res.notes,
            }
    finally:
        host = prep.close()
    report["host_epochs"] = host
    if not args.trace and report["metrics"]:
        # Children are all reaped by now (workers by the runtime, the
        # service host by prep.close), so this is the largest of them.
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        report["metrics"]["peak_rss_mb"] = {"median": rss_kb / 1024.0, "n": 1, "unit": "MB"}
    print(json.dumps({"result": report}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

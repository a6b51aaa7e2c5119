"""dgsbench: one command for the end-to-end and the per-layer numbers.

    python3 dgsbench/run.py --workload vb_bulk --seed 1 --seconds 15 --trace 0

runs one workload (``all`` runs the five in turn), prints every metric
by name with its unit, writes the record under ``dgsbench/results/``
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer ones with ``--trace 1``.

Each workload runs in a child process in a session of its own under a
hard timeout; whatever happens, the session is killed and reaped, and a
process that survives that makes this command fail and is named.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import _env

#: Set-up is timed on this many fresh children per run (median reported).
SETUP_SAMPLES = 3
#: Hard limit for one workload, first set-up to result.
WORKLOAD_TIMEOUT_S = 150.0

with open(os.path.join(_env.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
#: The workloads BENCHMARK.json declares: what ``--workload all`` runs.
DECLARED = [w["name"] for w in SPEC["workloads"]]
#: Runnable by name as well, but not declared: its throughput is pinned
#: by its schedule, so the one bounded timed metric would be host noise.
WORKLOADS = DECLARED + ["serve_open"]


# ---------------------------------------------------------------------------
# Process hygiene
# ---------------------------------------------------------------------------

def session_members(sid: int) -> List[Tuple[int, str]]:
    """(pid, cmdline) of every live process in session ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            # pid (comm) state ppid pgrp session ...; comm may hold spaces.
            fields = stat[stat.rindex(")") + 2 :].split()
            if int(fields[3]) != sid or fields[0] == "Z":
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except (OSError, ValueError):
            continue  # gone while we looked
        found.append((int(entry), cmdline.strip()))
    return found


class Child:
    """One workload child in its own session; ``close`` always leaves
    the session empty or reports who is left."""

    def __init__(self, argv: List[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(_env.BENCH_DIR, "child.py"), *argv],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, start_new_session=True,
        )
        self.started = time.perf_counter()
        self._buf = b""

    def read_json(self, deadline: float) -> Tuple[Optional[dict], float]:
        """The next JSON line of the child's stdout and when it arrived;
        ``None`` on end of output or when ``deadline`` passes."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None, time.perf_counter()
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None, time.perf_counter()
            self._buf += chunk
        stamp = time.perf_counter()
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line), stamp

    def close(self) -> List[Tuple[int, str]]:
        sid = self.proc.pid
        try:
            os.killpg(sid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        # Killed orphans are reaped by init; give it a moment.
        for _ in range(50):
            survivors = session_members(sid)
            if not survivors:
                break
            time.sleep(0.02)
        return survivors


class Survivors(Exception):
    pass


def _raise_interrupt(signum: int, _frame: Any) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_child(argv: List[str], deadline: float) -> Tuple[float, Optional[dict], Optional[dict]]:
    """(seconds from start to "ready", ready line, result line); the
    lines are ``None`` when the child died or ``deadline`` passed."""
    child = Child(argv)
    try:
        ready, stamp = child.read_json(deadline)
        result = None
        if ready is not None and "--setup-only" not in argv:
            result, _ = child.read_json(deadline)
        return stamp - child.started, ready, result
    finally:
        survivors = child.close()
        if survivors:
            raise Survivors("; ".join(f"pid {p}: {c}" for p, c in survivors))


def cpu_jiffies() -> Tuple[int, int]:
    """(stolen, total) jiffies of the whole host so far."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: float,
                 extra: List[str], timeout_s: float) -> dict:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--scale", str(scale), "--trace", str(trace), *extra]
    setups, ready, result = [], None, None
    stolen0, total0 = cpu_jiffies()
    deadline = time.perf_counter() + timeout_s
    # Set-up is timed on fresh children that stop once they are ready;
    # the last one goes on to measure.  The layer pass reports no
    # setup_s, so it needs only that one.
    for extra_setups in reversed(range(1 if trace else SETUP_SAMPLES)):
        setup_s, ready, result = run_child(
            argv + ["--setup-only"] if extra_setups else argv, deadline)
        if ready is None:
            break
        setups.append(setup_s)
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "setup_parts": ready["parts"] if ready else None,
        "input_sha256": ready["input_sha256"] if ready else None,
    }
    # What the hypervisor took away while the workload ran: the first
    # thing to look at when a run disagrees with its neighbours.
    stolen1, total1 = cpu_jiffies()
    record["host_steal_share"] = (stolen1 - stolen0) / max(1, total1 - total0)
    report = result["result"] if result else {
        "attempted": 1, "failed": 1, "metrics": {},
        "errors": ["workload child gave no result (timeout, crash or kill)"],
    }
    record.update(report)
    if not trace and report["metrics"]:
        q = statistics.quantiles(setups, n=4)
        record["metrics"]["setup_s"] = {
            "median": statistics.median(setups), "q1": q[0], "q3": q[2],
            "n": len(setups), "unit": "s",
        }
    return record


def contract_line(record: dict) -> dict:
    """The one-line result the benchmark contract asks for."""
    names = [m["name"] for m in SPEC["per_layer" if record["trace"] else "end_to_end"]]
    metrics = record["metrics"]
    complete = all(n in metrics for n in names)
    return {
        "correct": bool(complete and record["failed"] == 0),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {
            n: {"value": metrics[n]["median"], "unit": metrics[n]["unit"]}
            for n in names if n in metrics
        },
    }


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, m in sorted(record["metrics"].items()):
        spread = f"  q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
        print(f"{name:13s} {metric:42s} {m['median']:>14.6g} {m['unit']:6s} n={m['n']}{spread}")
    for err in record.get("errors", []):
        print(f"{name:13s} ERROR {err}")
    failed_share = record["failed"] / max(1, record["attempted"])
    print(f"{name:13s} failed_share = {failed_share:.6g} "
          f"({record['failed']} of {record['attempted']} events)")


def provenance(seed: int) -> dict:
    return {
        "seed": seed, "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(), "argv": sys.argv[1:],
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="one workload name, a comma list, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 scale for a quick self-test")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat with seeds seed, seed+1, ... (a set for compare.py)")
    parser.add_argument("--out", default=None, help="record file (default: results/)")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--timeout", type=float, default=WORKLOAD_TIMEOUT_S,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    names = DECLARED if args.workload == "all" else args.workload.split(",")
    for n in names:
        if n not in WORKLOADS:
            parser.error(f"unknown workload {n!r}; choose from {WORKLOADS}")
    scale, seconds = (1 / 20, min(args.seconds, 2.0)) if args.smoke else (1.0, args.seconds)
    extra = ["--corrupt"] if args.corrupt else []

    signal.signal(signal.SIGTERM, _raise_interrupt)
    signal.signal(signal.SIGINT, _raise_interrupt)
    os.makedirs(_env.RESULTS, exist_ok=True)
    out = {"provenance": provenance(args.seed), "benchmark": SPEC, "runs": []}
    line = None
    try:
        for seed in range(args.seed, args.seed + args.runs):
            for name in names:
                record = run_workload(name, seed, seconds, args.trace, scale, extra,
                                      args.timeout)
                out["runs"].append(record)
                print_record(record)
                line = contract_line(record)
                print(json.dumps(line), flush=True)
    except Survivors as exc:
        print(f"dgsbench: processes left running: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt as exc:
        print(f"dgsbench: interrupted ({exc}); children killed", file=sys.stderr)
        return 130
    finally:
        kind = "layers" if args.trace else "e2e"
        label = args.workload.replace(",", "-")
        path = args.out or os.path.join(_env.RESULTS, f"{kind}-{label}.json")
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1)
    # A run with nothing to report must not look like a result.
    return 0 if line and line["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())

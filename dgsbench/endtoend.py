"""End-to-end drivers: set a workload up, drive it through the public
entry points only, and check every run against the sequential spec.

Closed workloads call ``run_on_backend("process", ...)`` with default
``RunOptions`` (so the default ``pipe`` transport); serve workloads talk
to a ``serve_host.py`` child through ``repro.connect``.  Timed sections
never run with the span recorder on.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import RunOptions, connect, run_on_backend
from repro.runtime import run_sequential_reference
from repro.serve import spec_outputs

import _env
import workloads
from workloads import Inputs, Workload

#: Warm-up runs use this share of a repeat's events (and --smoke too).
SMALL = 1 / 20
#: The sequential spec is timed for at least this long at a time.
SPEC_MIN_S = 0.2
#: No ``eof`` from a finished service within this long: outputs are lost.
OUTPUT_WAIT_S = 20.0
#: The one CPU a service host, its load generator and the spec timed
#: next to them share.  The threaded service cannot use a second core
#: (its speed is the same on one), but spread over two it pays a
#: cross-core wake-up per GIL hand-over and per ack, and on this host
#: the price of those moves by 1.5x for minutes after any multi-process
#: load, while the single-threaded spec is untouched.
SERVE_CPU = max(os.sched_getaffinity(0))


def multiset(outputs: List[Any]) -> Counter:
    return Counter(map(repr, outputs))


@dataclass
class Result:
    """What one measured run hands back to run.py."""

    attempted: int = 0  # events offered
    failed: int = 0  # events in runs that raised or mismatched the spec
    errors: List[str] = field(default_factory=list)
    #: name -> samples; run.py reports the median of each.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: name -> single value computed from pooled samples.
    values: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

class ServeHost:
    """The ``serve_host.py`` child: fresh services on request."""

    def __init__(self, workload: Workload) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(_env.BENCH_DIR, "serve_host.py"),
             "--workload", workload.name, "--cpu", str(SERVE_CPU)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        #: One epoch record per service the host has stopped.
        self.records: List[dict] = []

    def next_service(self) -> "ServeSession":
        """Stop the current service, start a fresh one, connect to it."""
        try:
            self.proc.stdin.write("next\n")
            self.proc.stdin.flush()
            while True:
                line = json.loads(self.proc.stdout.readline())
                if "port" in line:
                    return ServeSession(line["port"], line["cookie"])
                self.records.append(line)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def close(self) -> dict:
        """Stop the host (stdin EOF), reap it, return the epoch records
        of all its services as one."""
        try:
            out, _ = self.proc.communicate(timeout=40.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        self.records += [json.loads(line) for line in out.strip().splitlines()]
        if not self.records:
            return {}
        return {key: [r[key] for r in self.records] for key in self.records[0]}


class ServeSession:
    """One ingest and one subscribe connection to one service; the
    subscriber thread stamps every committed output on receipt."""

    def __init__(self, port: int, cookie: str) -> None:
        self.ingest = connect(port, cookie, mode="ingest")
        self.egress = connect(port, cookie, mode="subscribe")
        #: (receipt time, value) per committed output, in sequence order.
        self.received: List[tuple] = []
        self.egress_error: Optional[str] = None
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        try:
            # outputs() raises on a sequence gap: a lost committed output.
            for _seq, value in self.egress.outputs():
                self.received.append((time.perf_counter(), value))
        except Exception as exc:  # reported as a failed run, never a speed
            self.egress_error = repr(exc)

    def finish(self) -> float:
        """``finish`` the service and wait for the subscriber's ``eof``;
        returns when the ``finished`` reply arrived."""
        self.ingest.finish()
        stamp = time.perf_counter()
        self._thread.join(timeout=OUTPUT_WAIT_S)
        if self._thread.is_alive():
            self.egress_error = self.egress_error or "no eof from the service"
        self.close()
        return stamp

    def close(self) -> None:
        for client in (self.ingest, self.egress):
            client.close()


@dataclass
class Prepared:
    workload: Workload
    seed: int
    scale: float
    program: Any
    plan: Any
    inputs: Inputs
    warm: Inputs
    parts: Dict[str, float]  # set-up stages, seconds
    #: Serve workloads: the host, and a connected fresh service.
    host: Optional[ServeHost] = None
    session: Optional[ServeSession] = None

    def close(self) -> dict:
        """Stop what set-up started; returns the host's epoch records."""
        if self.host is None:
            return {}
        if self.session is not None:
            self.session.close()
        host, self.host = self.host, None
        return host.close()


def set_up(workload: Workload, seed: int, scale: float, seconds: float) -> Prepared:
    """Everything between process start and "ready for the first
    event": input generation, program + plan build and validation, and
    for serve workloads the host start, a first service and both
    connections."""
    t0 = time.perf_counter()
    warm = workloads.generate(workload, seed, scale=scale * SMALL)
    # serve_open offers rate x seconds events in its one repeat.
    repeats = max(1.0, seconds) if workload.drive == "serve_open" else 1.0
    inputs = workloads.generate(workload, seed, scale=scale * repeats)
    t1 = time.perf_counter()
    program, plan = workloads.build(workload)
    t2 = time.perf_counter()
    host = session = None
    if workload.drive != "closed":
        host = ServeHost(workload)
        session = host.next_service()
    t3 = time.perf_counter()
    # Take the benchmark's own input lists out of the collector's sight
    # (and the forked workers' copy-on-write path).  Otherwise every
    # full collection the program triggers walks them, and a 0.1 s run
    # is 1.8x slower whenever one lands in it.
    gc.freeze()
    parts = {"generate_s": t1 - t0, "build_validate_s": t2 - t1, "service_s": t3 - t2}
    return Prepared(workload, seed, scale, program, plan, inputs, warm, parts, host, session)


# ---------------------------------------------------------------------------
# Closed loop: run_on_backend next to the sequential spec
# ---------------------------------------------------------------------------

#: How long ``prime_cores`` keeps the cores busy.
PRIME_S = 2.0
_SPIN = "import time\nend = time.perf_counter() + {}\nwhile time.perf_counter() < end: pass"


def prime_cores() -> None:
    """Keep as many cores busy as the process backend will use (one
    coordinator + ``LEAVES`` + 1 workers, or all there are) for
    ``PRIME_S``, then return.

    This host has two states for multi-process work and stays in
    whichever it is in for as long as the load lasts: after some 20 s of
    idling or single-core work ``vb_bulk`` runs at 0.17 of the spec for
    a minute on end, after 1 s of every core spinning at 0.23, while the
    spec itself is the same in both.  Which one a run would start in
    depends on what ran before it, so every run puts the host in the
    second state first."""
    spinners = min(len(os.sched_getaffinity(0)), workloads.LEAVES + 2)
    procs = [subprocess.Popen([sys.executable, "-c", _SPIN.format(PRIME_S)])
             for _ in range(spinners)]
    for proc in procs:
        proc.wait()

def timed_spec(spec: Callable[[], List[Any]], min_s: float = SPEC_MIN_S) -> tuple:
    """Call the sequential spec back to back for at least ``min_s``:
    (its outputs, seconds per call).  A single call of 0.05 s would
    catch the host in one of its two speeds; the run next to it sees
    both."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        outputs = spec()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return outputs, elapsed / calls


def closed_run(prep: Prepared, streams: List[Any], options: RunOptions) -> tuple:
    """One ``run_on_backend`` call: (BackendRun, call seconds)."""
    t0 = time.perf_counter()
    run = run_on_backend("process", prep.program, prep.plan, streams, options=options)
    return run, time.perf_counter() - t0


def measure_closed(prep: Prepared, seconds: float, *, corrupt: bool = False) -> Result:
    wl, res = prep.workload, Result()
    streams = workloads.streams_of(prep.plan, prep.inputs.events, wl.heartbeat_interval)
    n = len(prep.inputs.events)
    # Untimed warm-up, outside both clocks.
    prime_cores()
    warm = workloads.streams_of(prep.plan, prep.warm.events, wl.heartbeat_interval)
    closed_run(prep, warm, RunOptions())

    def spec() -> List[Any]:
        return run_sequential_reference(prep.program, streams)

    start = time.perf_counter()
    repeat_s = 0.0
    runs = 0
    # The spec is timed before and after every run and the run is set
    # against the mean of its two neighbours: the host's speed changes
    # every few seconds, and neighbours share it.
    outputs, spec_s = timed_spec(spec)
    expected = multiset(outputs)
    while True:
        res.attempted += n
        try:
            run, repeat_s = closed_run(prep, streams, RunOptions())
            got = run.output_multiset()
            if corrupt:
                got = got + Counter({"corrupted": 1})
            if got != expected:
                raise AssertionError("output multiset differs from the sequential spec")
            _, next_spec_s = timed_spec(spec)
            res.add("events_per_s", n / repeat_s)
            res.add("spec_events_per_s", n / next_spec_s)
            res.add("spec_ratio", (spec_s + next_spec_s) / 2 / repeat_s)
            res.add("latency_ms", repeat_s * 1e3)
            spec_s = next_spec_s
        except Exception as exc:
            res.failed += n
            res.errors.append(repr(exc))
        runs += 1
        elapsed = time.perf_counter() - start
        if runs >= 3 and elapsed + repeat_s + SPEC_MIN_S > seconds:
            break
        if elapsed > 4 * seconds:  # every run failing slowly
            break
    res.notes["repeats"] = runs
    return res


# ---------------------------------------------------------------------------
# Service: closed loop (capacity) and open loop (latency)
# ---------------------------------------------------------------------------

def offer(session: ServeSession, events: List[Any], wl: Workload, res: Result, *,
          open_loop: bool) -> tuple:
    """Send ``events`` in frames, closed loop (the next frame when the
    ack is back) or open loop (one frame every frame/rate seconds on a
    fixed schedule), then ``finish``.  Returns (first frame due,
    ``finished`` reply, barrier timestamp -> when its frame was due)."""
    frames = [events[i : i + wl.frame] for i in range(0, len(events), wl.frame)]
    gap = wl.frame / wl.rate if open_loop else 0.0
    t0 = time.perf_counter()
    due_of: Dict[float, float] = {}
    for k, frame in enumerate(frames):
        due = t0 + k * gap
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        if open_loop:
            res.add("generator_lag_ms", (sent - due) * 1e3)
        else:
            due = sent  # a closed loop has no schedule to be late on
        ack = session.ingest.send_events(frame, batch=wl.frame)
        res.add("ack_roundtrip_ms", (time.perf_counter() - sent) * 1e3)
        if ack.rejected:
            raise RuntimeError(f"admission rejected events: {ack.reasons}")
        for e in frame:
            if e.stream == "b":
                due_of[e.ts] = due
    return t0, session.finish(), due_of


def serve_repeat(prep: Prepared, session: ServeSession, events: List[Any], res: Result, *,
                 open_loop: bool = False, corrupt: bool = False) -> float:
    """One fresh service, offered ``events`` and finished; its committed
    log checked against the sequential spec.  Returns the seconds from
    first send to the ``finished`` reply."""
    def spec() -> List[Any]:
        return spec_outputs(prep.program, events)

    res.attempted += len(events)
    try:
        # The spec timed on both sides of the repeat, while the service
        # idles, as the closed workloads do.
        # (An open-loop repeat is long, so its neighbours are too.)
        min_s = max(SPEC_MIN_S, len(events) / prep.workload.rate / 10) if open_loop else SPEC_MIN_S
        expected, spec_before = timed_spec(spec, min_s)
        t0, t1, due_of = offer(session, events, prep.workload, res, open_loop=open_loop)
        _, spec_after = timed_spec(spec, min_s)
        got = multiset([v for _t, v in session.received])
        if corrupt:
            got = got + Counter({"corrupted": 1})
        # outputs() has already raised on a gap in the sequence numbers.
        if session.egress_error or got != multiset(expected):
            raise AssertionError(
                session.egress_error
                or f"committed log differs from the spec ({len(session.received)} "
                f"of {len(expected)} outputs)"
            )
    except Exception as exc:
        session.close()
        res.failed += len(events)
        res.errors.append(repr(exc))
        return 0.0
    res.add("events_per_s", len(events) / (t1 - t0))
    res.add("spec_events_per_s", len(events) / spec_after)
    res.add("spec_ratio", (spec_before + spec_after) / 2 / (t1 - t0))
    # A window_sum carries its barrier's timestamp: match it to the frame.
    res.samples.setdefault("barrier_latency_ms", []).extend(
        (t - due_of[v[1]]) * 1e3 for t, v in session.received
    )
    return t1 - t0


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def measure_serve(prep: Prepared, seconds: float, *, corrupt: bool = False) -> Result:
    # This process joins the host on SERVE_CPU while it measures (the
    # layer pass goes on to other sections afterwards).
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {SERVE_CPU})
    try:
        return _measure_serve(prep, seconds, corrupt)
    finally:
        os.sched_setaffinity(0, allowed)


def _measure_serve(prep: Prepared, seconds: float, corrupt: bool) -> Result:
    wl, res, host = prep.workload, Result(), prep.host
    assert host is not None and prep.session is not None
    # Untimed warm-up on the service set-up connected, outside both
    # clocks; every timed repeat then gets a fresh service.
    session, prep.session = prep.session, None
    serve_repeat(prep, session, prep.warm.events, Result())
    open_loop = wl.drive == "serve_open"
    start = time.perf_counter()
    repeats = 0
    while True:
        took = serve_repeat(prep, host.next_service(), prep.inputs.events, res,
                            open_loop=open_loop, corrupt=corrupt)
        repeats += 1
        elapsed = time.perf_counter() - start
        if open_loop or (repeats >= 3 and elapsed + took > seconds) or elapsed > 4 * seconds:
            break
    res.notes["repeats"] = repeats
    lat = sorted(res.samples.pop("barrier_latency_ms", []))
    if lat:
        res.notes["latency_samples"] = len(lat)
        res.values["latency_ms"] = statistics.median(lat)
        res.values["latency_p95_ms"] = percentile(lat, 95)
        res.values["latency_p99_ms"] = percentile(lat, 99)
    return res


def measure(prep: Prepared, seconds: float, *, corrupt: bool = False) -> Result:
    if prep.workload.drive == "closed":
        return measure_closed(prep, seconds, corrupt=corrupt)
    return measure_serve(prep, seconds, corrupt=corrupt)

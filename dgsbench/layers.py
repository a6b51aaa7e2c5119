"""The layer pass (``--trace 1``): the same input timed through each
layer in isolation, from outside, through the layers' own functions.

Stream-level probes push the events of the workload's first leaf
through one layer at a time and report ns per event; the coordinator path (producer pump) and the worker path
are summed separately and the larger is set against the measured
end-to-end cost, the rest being ``layers.residual_ns_per_event``.
Every probe runs three times inside a recorded span and three times
with the recorder off; reported times are the fastest recorder-off ones
and the ratio of the two sums is ``trace.overhead_ratio``.

``serve.*`` metrics always come from the ``serve_open`` definition: a
value-barrier service, probed in-process and then driven open loop at
1 000 events/s for a third of the run.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import statistics
import time
from collections import deque
from typing import Any, Callable, Dict, List, Tuple

from repro import RunOptions, ServeOptions, run_on_backend
from repro.runtime import run_sequential_reference
from repro.runtime.mailbox import Mailbox
from repro.runtime.messages import (
    EventMsg, EventRun, ForkStateMsg, HeartbeatMsg, JoinRequest, JoinResponse,
)
from repro.runtime.protocol import (
    OutputSink, WorkerCore, end_timestamp, initial_leaf_states, producer_messages,
)
from repro.runtime.transport import (
    COORDINATOR, STOP, TRANSPORTS, BatchingSender, ControlPlane, make_transport,
    resolve_policy,
)
from repro.runtime.wire import coalesce_event_runs, pack_frame, unpack_frame
from repro.serve import ServiceRuntime
from repro.serve.protocol import ingest_events_frame

import _env
import endtoend
import workloads
from spans import Recorder

#: Each probe is timed this often recorded and this often unrecorded.
PROBE_REPEATS = 3
#: The in-process epoch fit: a small and a large epoch, in events.
EPOCH_SIZES = (50, 2_000)
#: 100 us .. 10 s, 20 buckets per decade, for the paced-latency probe.
FINE_BUCKETS = tuple(1e-4 * 10 ** (i / 20) for i in range(101))


class LayerPass:
    def __init__(self, prep: endtoend.Prepared, seconds: float) -> None:
        self.prep = prep
        self.seconds = seconds  # of the end-to-end serve section
        self.rec = Recorder(f"{prep.workload.name}:{prep.seed}")
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._on_ns = 0
        self._off_ns = 0

    def put(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = {"median": value, "n": n, "unit": unit}

    def probe(self, name: str, setup: Callable[[], Any], body: Callable[[Any], Any]) -> Tuple[Any, int]:
        """Time ``body(setup())`` PROBE_REPEATS times under a span and
        as often with the recorder off, in turn.  Returns the last
        result and the fastest unrecorded time: a probe is pure CPU, so
        everything above its fastest run is the host, not the layer."""
        out = None
        best = {True: None, False: None}
        for _ in range(PROBE_REPEATS):
            for enabled in (True, False):
                arg = setup()
                self.rec.enabled = enabled
                with self.rec.span(name):
                    t0 = time.perf_counter_ns()
                    out = body(arg)
                    ns = time.perf_counter_ns() - t0
                if best[enabled] is None or ns < best[enabled]:
                    best[enabled] = ns
        self.rec.enabled = True
        self._on_ns += best[True]
        self._off_ns += best[False]
        return out, best[False]

    def guarded(self, section: Callable[[], None]) -> None:
        """A failing section costs its metrics, not the whole pass."""
        self.attempted += 1
        try:
            with self.rec.span(f"section.{section.__name__}"):
                section()
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{section.__name__}: {exc!r}")

    # -- the workload's first leaf ---------------------------------------
    def leaf_inputs(self) -> None:
        prep, wl = self.prep, self.prep.workload
        self.leaf = prep.plan.leaves()[0]
        self.streams = workloads.streams_of(
            prep.plan, prep.inputs.events, wl.heartbeat_interval
        )
        self.end_ts = end_timestamp(self.streams)
        self.leaf_streams = [s for s in self.streams if s.itag in self.leaf.itags]
        self.root_streams = [s for s in self.streams if s.itag in prep.plan.root.itags]
        self.n = sum(len(s.events) for s in self.leaf_streams)

    def per_event(self, name: str, ns: int) -> float:
        value = ns / self.n
        self.put(name, value, "ns", self.n)
        return value

    # -- set-up and operator ---------------------------------------------
    def setup_and_core(self) -> None:
        prep = self.prep
        self.put("data.generate_s", prep.parts["generate_s"], "s")
        self.put("plans.build_validate_s", prep.parts["build_validate_s"], "s")
        st = prep.program.state_type(self.leaf.state_type)
        state0 = initial_leaf_states(prep.plan, prep.program)[self.leaf.id]

        _, ns = self.probe(
            "core.run_sequential_reference", lambda: None,
            lambda _: run_sequential_reference(prep.program, self.leaf_streams),
        )
        self.per_event("core.spec_ns_per_event", ns)

        events = [e for s in self.leaf_streams for e in s.events]

        def fold_update(_: Any) -> Any:
            state, update = state0, st.update
            for e in events:
                state, _outs = update(state, e)
            return state

        _, ns = self.probe("core.update", lambda: None, fold_update)
        self.per_event("core.update_ns_per_event", ns)

        # The operator as the runtime calls it on this stream: one
        # update_batch per columnar run (WorkerCore._process_run folds
        # update over the run when the program has none), one update per
        # event that travels alone.
        carriers = [
            m for s in self.leaf_streams
            for m in coalesce_event_runs(producer_messages(s, self.end_ts))
            if type(m) is not HeartbeatMsg
        ]
        batch = getattr(st, "update_batch", None)

        def fold_carriers(_: Any) -> Any:
            state, update = state0, st.update
            for m in carriers:
                if type(m) is EventMsg:
                    state, _outs = update(state, m.event)
                elif batch is not None:
                    state, _outs = batch(state, m)
                else:
                    for e in m.events():
                        state, _outs = update(state, e)
            return state

        _, ns = self.probe("core.update_batch", lambda: None, fold_carriers)
        self.operator_ns = self.per_event("core.update_batch_ns_per_event", ns)

    # -- coordinator path: the producer pump -------------------------------
    def pump(self) -> None:
        owner = self.leaf.id
        msgs, ns_pm = self.probe(
            "protocol.producer_messages", lambda: None,
            lambda _: [producer_messages(s, self.end_ts) for s in self.leaf_streams],
        )
        heartbeats = sum(type(m) is HeartbeatMsg for ms in msgs for m in ms)
        self.put("protocol.heartbeats_per_event", heartbeats / self.n, "count", self.n)
        coalesced, ns_co = self.probe(
            "wire.coalesce_event_runs", lambda: None,
            lambda _: [coalesce_event_runs(ms) for ms in msgs],
        )
        self.posted = [m for ms in coalesced for m in ms]
        carriers = sum(type(m) is not HeartbeatMsg for m in self.posted)
        self.put("wire.mean_run_len", self.n / carriers, "count", carriers)

        batches: List[List[Any]] = []

        def null_sender() -> BatchingSender:
            batches.clear()
            control = ControlPlane(mp.get_context("fork"))
            return BatchingSender(
                lambda _dst, batch: batches.append(batch), control, resolve_policy(None, None)
            )

        def post_all(sender: BatchingSender) -> None:
            for m in self.posted:
                sender.post(owner, m)
            sender.flush()

        _, ns_post = self.probe("transport.BatchingSender.post", null_sender, post_all)
        frames, ns_pack = self.probe(
            "wire.pack_frame", lambda: None, lambda _: [pack_frame(b) for b in batches]
        )
        self.frames = frames
        self.put("wire.bytes_per_event", sum(map(len, frames)) / self.n, "B", len(frames))
        total = sum(
            self.per_event(name, ns)
            for name, ns in (
                ("protocol.producer_messages_ns_per_event", ns_pm),
                ("wire.coalesce_ns_per_event", ns_co),
                ("transport.sender_post_ns_per_event", ns_post),
                ("wire.pack_ns_per_event", ns_pack),
            )
        )
        self.put("process.pump_ns_per_event", total, "ns", self.n)
        self.pump_ns = total

    # -- one transport edge with a null consumer ---------------------------
    def edges(self) -> None:
        ctx = mp.get_context("fork")
        policy = resolve_policy(None, None)
        for name in TRANSPORTS:

            def open_edge(name: str = name) -> tuple:
                transport = make_transport(name, ctx, {"w": [COORDINATOR]})
                consumer = ctx.Process(target=_null_consumer, args=(transport,), daemon=True)
                consumer.start()
                transport.parent_setup()
                control = ControlPlane(ctx)
                return transport, consumer, transport.sender(COORDINATOR, control, policy)

            def push(edge: tuple) -> None:
                transport, consumer, sender = edge
                try:
                    for m in self.posted:
                        sender.post("w", m)
                    sender.flush()
                    transport.stop_all()
                    consumer.join(60.0)
                    if consumer.exitcode != 0:
                        raise RuntimeError(f"{name} null consumer exit {consumer.exitcode}")
                finally:
                    if consumer.is_alive():
                        consumer.kill()
                        consumer.join()
                    transport.close()  # unlinks shm segments

            _, ns = self.probe(f"transport.edge.{name}", open_edge, push)
            self.per_event(f"transport.edge_ns_per_event.{name}", ns)

    # -- worker path: codec in, mailbox, protocol --------------------------
    def worker(self) -> None:
        prep = self.prep
        _, ns_unpack = self.probe(
            "wire.unpack_frame", lambda: None,
            lambda _: [unpack_frame(f, runs=True) for f in self.frames],
        )
        unpack_ns = self.per_event("wire.unpack_ns_per_event", ns_unpack)

        # What the leaf sees: its own traffic merged, in key order, with
        # the frontier heartbeats the root would relay for its tags.
        relayed = [
            HeartbeatMsg(s.itag, m.event.order_key if type(m) is EventMsg else m.key)
            for s in self.root_streams
            for m in producer_messages(s, self.end_ts)
        ]
        arrivals = sorted(self.posted + relayed, key=_arrival_key)
        known = set(self.leaf.itags) | set(prep.plan.root.itags)

        def through_mailbox(box: Mailbox) -> int:
            peak = 0
            for m in arrivals:
                if type(m) is EventRun:
                    box.insert_run(m)
                elif type(m) is EventMsg:
                    box.insert(m.event.itag, m.event.order_key, m)
                else:
                    box.advance(m.itag, m.key)
                if box.buffered_count() > peak:
                    peak = box.buffered_count()
            return peak

        peak, ns_box = self.probe(
            "mailbox.insert_release", lambda: Mailbox(known, prep.program.depends),
            through_mailbox,
        )
        mailbox_ns = self.per_event("mailbox.insert_release_ns_per_event", ns_box)
        self.put("mailbox.peak_buffered", peak, "count", len(arrivals))

        def leaf_core() -> WorkerCore:
            core = WorkerCore(self.leaf, prep.plan, prep.program, _drop, OutputSink())
            core.state = initial_leaf_states(prep.plan, prep.program)[self.leaf.id]
            core.has_state = True
            return core

        def handle_all(core: WorkerCore) -> None:
            for m in arrivals:
                core.handle(m)
            if core.unprocessed():
                raise RuntimeError(f"leaf probe left {core.unprocessed()} events buffered")

        _, ns_handle = self.probe("protocol.WorkerCore.handle", leaf_core, handle_all)
        handle_ns = self.per_event("protocol.handle_ns_per_event", ns_handle)
        self.put("protocol.handle_self_ns_per_event",
                 handle_ns - mailbox_ns - self.operator_ns, "ns", self.n)
        self.worker_ns = unpack_ns + handle_ns
        self.put("layers.worker_ns_per_event", self.worker_ns, "ns", self.n)

    # -- joins: root + 2 leaves wired in-process ---------------------------
    def joins(self) -> None:
        prep = self.prep
        traffic = sorted(
            (
                (_arrival_key(m), prep.plan.owner_of(s.itag).id, m)
                for s in self.streams
                for m in coalesce_event_runs(producer_messages(s, self.end_ts))
            ),
            key=lambda t: t[0],
        )
        root_id = prep.plan.root.id
        syncs = sum(len(s.events) for s in self.root_streams)

        def wire_up() -> tuple:
            wire: deque = deque()
            sink = OutputSink()
            cores = {
                n.id: WorkerCore(n, prep.plan, prep.program,
                                 lambda dst, m: wire.append((dst, m)), sink)
                for n in prep.plan.workers()
            }
            for leaf_id, state in initial_leaf_states(prep.plan, prep.program).items():
                cores[leaf_id].state = state
                cores[leaf_id].has_state = True
            return wire, sink, cores

        def drive(wired: tuple) -> tuple:
            wire, sink, cores = wired
            clock = time.perf_counter_ns
            join_ns = 0
            for _key, owner, msg in traffic:
                wire.append((owner, msg))
                while wire:
                    dst, m = wire.popleft()
                    if type(m) in _JOIN_TRAFFIC or (dst == root_id and type(m) is EventMsg):
                        t0 = clock()
                        cores[dst].handle(m)
                        join_ns += clock() - t0
                    else:
                        cores[dst].handle(m)
            if sink.joins != syncs:
                raise RuntimeError(f"{sink.joins} joins for {syncs} synchronizing events")
            return sink.joins, join_ns

        (joins, join_ns), _ = self.probe("protocol.join_round", wire_up, drive)
        self.put("protocol.join_cpu_us", join_ns / max(1, joins) / 1e3, "us", joins)

    # -- the process backend, timed from outside ---------------------------
    def process_backend(self) -> None:
        prep, wl = self.prep, self.prep.workload
        # (serve_open's one repeat is as long as the run: a part will do)
        events = prep.inputs.events[: workloads.WORKLOADS["vb_bulk"].n_events]
        streams = workloads.streams_of(prep.plan, events, wl.heartbeat_interval)
        n = len(events)
        expected = endtoend.multiset(run_sequential_reference(prep.program, streams))

        def cpu_run(options: RunOptions) -> tuple:
            before = os.times()
            with self.rec.span("runtime.run_on_backend"):
                run, call_s = endtoend.closed_run(prep, streams, options)
            after = os.times()
            if run.output_multiset() != expected:
                raise RuntimeError("process run differs from the sequential spec")
            own = (after.user - before.user) + (after.system - before.system)
            kids = (after.children_user - before.children_user) + (
                after.children_system - before.children_system)
            return run, call_s, own, kids

        endtoend.prime_cores()  # the state the end-to-end runs are timed in
        plain, metered = [], []
        for _ in range(2):
            plain.append(cpu_run(RunOptions()))
            metered.append(cpu_run(RunOptions(metrics=True)))
        run, call_s, own, kids = min(plain, key=lambda r: r[1])
        self.put("protocol.joins_per_kevent", run.joins * 1e3 / n, "count", n)
        self.put("process.spawn_teardown_ms", (call_s - run.wall_s) * 1e3, "ms")
        self.put("process.cpu_us_per_event", (own + kids) * 1e6 / n, "us", n)
        self.put("process.coordinator_cpu_share", own / (own + kids), "ratio")
        self.e2e_ns = call_s * 1e9 / n
        mrun, mcall_s, _, _ = min(metered, key=lambda r: r[1])
        self.put("metrics.overhead_ratio", mcall_s / call_s, "ratio", 2)
        merged = mrun.metrics.merged()
        self.put("metrics.max_backlog", merged.max_backlog, "count")
        rtt = merged.join_rtt.percentile(50) if merged.join_rtt else 0.0
        self.put("metrics.join_rtt_p50_ms", rtt * 1e3, "ms", mrun.joins)

        # Open loop at 10% of the capacity just measured, for about two
        # seconds.  The metrics plane reads timestamps as milliseconds
        # since the start, so the slice is re-timed to that rate.
        rate = 0.1 * n / call_s
        count = max(wl.sync_every, int(2.0 * rate) // wl.sync_every * wl.sync_every)
        factor = 1e3 / rate / wl.period
        t_first = events[0].ts
        slice_ = [
            type(e)(e.tag, e.stream, (e.ts - t_first) * factor + 1e-3, e.payload)
            for e in events[:count]
        ]
        paced = workloads.streams_of(prep.plan, slice_, wl.heartbeat_interval * factor)
        want = endtoend.multiset(run_sequential_reference(prep.program, paced))
        with self.rec.span("runtime.run_on_backend.paced"):
            prun, _ = endtoend.closed_run(
                prep, paced,
                RunOptions(metrics=True, pace=1000.0, latency_buckets=FINE_BUCKETS),
            )
        if prun.output_multiset() != want:
            raise RuntimeError("paced run differs from the sequential spec")
        self.put("metrics.paced_latency_p50_ms", prun.metrics.latency_percentile(50) * 1e3,
                 "ms", len(slice_))
        self.put("metrics.paced_latency_p99_ms", prun.metrics.latency_percentile(99) * 1e3,
                 "ms", len(slice_))

        warm = workloads.streams_of(prep.plan, prep.warm.events, wl.heartbeat_interval)
        want = endtoend.multiset(run_sequential_reference(prep.program, warm))
        with self.rec.span("runtime.run_on_backend.threaded"):
            t0 = time.perf_counter()
            trun = run_on_backend("threaded", prep.program, prep.plan, warm, options=RunOptions())
            took = time.perf_counter() - t0
        if trun.output_multiset() != want:
            raise RuntimeError("threaded run differs from the sequential spec")
        self.put("threaded.events_per_s", len(prep.warm.events) / took, "1/s",
                 len(prep.warm.events))

    # -- the service tier ---------------------------------------------------
    def serve_in_process(self) -> None:
        prep = self.serve_prep
        wl = prep.workload
        events = prep.inputs.events[: max(EPOCH_SIZES) * 4]
        frames = [events[i : i + wl.frame] for i in range(0, len(events), wl.frame)]
        _, ns = self.probe(
            "serve.protocol.ingest_events_frame", lambda: None,
            lambda _: [ingest_events_frame(f) for f in frames],
        )
        self.put("serve.frame_encode_ns_per_event", ns / len(events), "ns", len(events))

        def service() -> ServiceRuntime:
            return ServiceRuntime(
                prep.program, prep.plan,
                options=ServeOptions(backend="threaded", ingest_high_watermark=1 << 30,
                                     heartbeat_interval=wl.heartbeat_interval),
            )

        def offer(runtime: ServiceRuntime) -> None:
            counts = runtime.offer_batch(events)
            if counts.get("admitted") != len(events):
                raise RuntimeError(f"offer_batch rejected events: {counts}")

        _, ns = self.probe("serve.ServiceRuntime.offer_batch", service, offer)
        self.put("serve.offer_ns_per_event", ns / len(events), "ns", len(events))

        # Two-point fit of run_epoch() time against epoch size, a fresh
        # runtime per epoch so that every epoch starts at timestamp 0.
        medians = []
        for size in EPOCH_SIZES:
            chunk = workloads.generate(wl, prep.seed, scale=size / wl.n_events).events
            times = []
            for _ in range(5):
                runtime = service()
                runtime.offer_batch(chunk)
                with self.rec.span(f"serve.ServiceRuntime.run_epoch[{size}]"):
                    t0 = time.perf_counter()
                    report = runtime.run_epoch()
                    times.append(time.perf_counter() - t0)
                if report.backlog_after:
                    raise RuntimeError("epoch left events uncommitted")
                runtime.finish()
            medians.append(statistics.median(times))
        slope = (medians[1] - medians[0]) / (EPOCH_SIZES[1] - EPOCH_SIZES[0])
        self.put("serve.epoch_ns_per_event", slope * 1e9, "ns", 5)
        self.put("serve.epoch_fixed_ms", (medians[0] - slope * EPOCH_SIZES[0]) * 1e3, "ms", 5)

    def serve_end_to_end(self) -> None:
        res = endtoend.measure(self.serve_prep, self.seconds)
        if res.failed:
            raise RuntimeError(f"serve run failed: {res.errors[:2]}")
        self.put("serve.ack_roundtrip_ms_p50", statistics.median(res.samples["ack_roundtrip_ms"]),
                 "ms", len(res.samples["ack_roundtrip_ms"]))
        lag = res.samples["generator_lag_ms"]
        self.put("serve.generator_lag_ms_max", max(lag), "ms", len(lag))
        n = res.notes["latency_samples"]
        self.put("serve.latency_p50_ms", res.values["latency_ms"], "ms", n)
        self.put("serve.latency_p95_ms", res.values["latency_p95_ms"], "ms", n)
        self.put("serve.latency_p99_ms_pooled", res.values["latency_p99_ms"], "ms", n)

    def serve_epochs(self) -> None:
        sealed = [n for service in self.host["epoch_events"] for n in service if n]
        self.put("serve.events_per_epoch", statistics.median(sealed), "count", len(sealed))

    # -- totals -------------------------------------------------------------
    def totals(self) -> None:
        blocking = max(self.pump_ns, self.worker_ns)
        self.put("layers.sum_ns_per_event", blocking, "ns")
        self.put("layers.e2e_ns_per_event", self.e2e_ns, "ns")
        self.put("layers.residual_ns_per_event", self.e2e_ns - blocking, "ns")
        self.put("trace.overhead_ratio", self._on_ns / self._off_ns, "ratio")


_JOIN_TRAFFIC = (JoinRequest, JoinResponse, ForkStateMsg)


def _drop(_dst: str, _msg: Any) -> None:
    """The no-op ``post`` of the leaf probe."""


def _arrival_key(msg: Any) -> tuple:
    if type(msg) is EventRun:
        return msg.first_key
    return msg.event.order_key if type(msg) is EventMsg else msg.key


def _null_consumer(transport: Any) -> None:
    """Forked end of one edge: receive (and so decode) until STOP."""
    transport.child_setup("w")
    receiver = transport.receiver("w")
    try:
        while receiver.recv() is not STOP:
            pass
    finally:
        transport.child_teardown("w")
    os._exit(0)


def run(prep: endtoend.Prepared, seconds: float) -> dict:
    """The whole pass for one workload; spans go to
    ``results/trace-<workload>.json`` when it ends."""
    lp = LayerPass(prep, seconds)
    # The serve section is always the open loop at 1 000 events/s.
    lp.serve_prep = endtoend.set_up(
        workloads.WORKLOADS["serve_open"], prep.seed, prep.scale, seconds
    )
    try:
        lp.leaf_inputs()
        for section in (lp.setup_and_core, lp.pump, lp.edges, lp.worker, lp.joins,
                        lp.process_backend, lp.serve_in_process, lp.serve_end_to_end):
            lp.guarded(section)
    finally:
        # The host's epoch record is complete only once it has stopped.
        lp.host = lp.serve_prep.close()
    lp.guarded(lp.serve_epochs)
    lp.guarded(lp.totals)
    lp.rec.dump(os.path.join(_env.RESULTS, f"trace-{prep.workload.name}.json"))
    return {
        "attempted": lp.attempted, "failed": lp.failed, "errors": lp.errors[:5],
        "metrics": lp.metrics,
    }

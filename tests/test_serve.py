"""Service-mode tests: the epoch engine (admission, commit ledger,
crash recovery, reconfiguration), the wire protocol, the TCP
ingest/egress tier, and the end-to-end acceptance scenario (10k+
events over TCP with a mid-stream worker crash and an induced
admission-pressure spike, differential against the sequential spec)."""

import json
import logging
import math
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import keycounter
from repro.core.errors import RuntimeFault
from repro.core.events import Event, ImplTag
from repro.plans.generation import root_and_leaves_plan
from repro.plans.morph import plan_width
from repro.runtime import (
    CrashFault,
    FaultPlan,
    ReconfigPoint,
    ReconfigSchedule,
    RunOptions,
    every_root_join,
    get_backend,
    run_on_backend,
)
from repro.runtime import threaded as runtime_threaded
from repro.runtime.messages import EventMsg, EventRun
from repro.runtime.options import ServeOptions
from repro.runtime.wire import FRAME_LEN
from repro.serve import (
    ADMITTED,
    REJECT_BACKPRESSURE,
    REJECT_CLOSED,
    REJECT_INVALID_TS,
    REJECT_LATE,
    REJECT_ORDER,
    REJECT_UNKNOWN,
    AdmissionGate,
    ServiceRuntime,
    connect,
    keycounter_app,
    spec_outputs,
    start_service,
    value_barrier_app,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    control_frame,
    decode_outputs,
    events_frame,
    ingest_events_frame,
    outputs_frame,
    parse_frame,
)


def _multiset(values):
    return Counter(map(repr, values))


def _forbid_closed_attempts(monkeypatch):
    """Fail any closed in-process attempt: a service's seals must run on
    the attempt it keeps open, never on one attempt per seal."""

    def closed(*_args, **_kwargs):
        raise AssertionError("a closed attempt ran")

    monkeypatch.setattr(runtime_threaded, "run_in_process", closed)


def _drain(svc, events, *, every=40):
    """Offer all events, running an epoch every ``every`` admissions."""
    for i, event in enumerate(events):
        assert svc.offer(event) == ADMITTED
        if i % every == every - 1:
            svc.run_epoch()
    return svc.finish()


class TestAdmissionGate:
    def test_trips_at_high_watermark_with_hysteresis(self):
        gate = AdmissionGate(10, 5)
        assert not gate.decide(9)
        assert gate.decide(10)
        # Paused until the backlog drains to the resume watermark.
        assert gate.decide(9)
        assert gate.decide(6)
        assert not gate.decide(5)
        assert not gate.decide(9)  # hysteresis: no flap below high

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(10, 10)
        with pytest.raises(ValueError):
            AdmissionGate(0, 0)


class TestServeOptions:
    def test_resume_watermark_defaults_to_half(self):
        app = keycounter_app(shards=2)
        for high, resume in ((100, 50), (7, 3), (1, 0)):
            svc = ServiceRuntime(
                app.program, app.plan, options=ServeOptions(ingest_high_watermark=high)
            )
            assert (svc.gate.high, svc.gate.resume) == (high, resume)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeOptions(epoch_events=0)
        with pytest.raises(ValueError):
            ServeOptions(epoch_idle_ms=-1.0)
        with pytest.raises(ValueError):
            ServeOptions(epoch_idle_ms=math.nan)
        with pytest.raises(ValueError):
            ServeOptions(ingest_high_watermark=0)
        for interval in (-1.0, math.nan):
            with pytest.raises(ValueError, match="heartbeat_interval"):
                ServeOptions(heartbeat_interval=interval)
        ServeOptions(heartbeat_interval=None)
        ServeOptions(heartbeat_interval=0.0)


class TestRunEntryFinalized:
    """``options=`` is the run entry's one keyword: a loose one is a
    ``TypeError``."""

    def _case(self):
        app = keycounter_app(shards=2)
        events = app.make_events(100)
        by_itag = {}
        for e in events:
            by_itag.setdefault(e.itag, []).append(e)
        from repro.runtime.runtime import InputStream

        streams = [InputStream(t, tuple(v)) for t, v in by_itag.items()]
        return app, streams

    def test_loose_kwargs_raise_with_hint(self):
        app, streams = self._case()
        with pytest.raises(TypeError, match="unexpected keyword argument 'timeout_s'"):
            run_on_backend("threaded", app.program, app.plan, streams, timeout_s=30.0)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            get_backend("threaded").run(
                app.program, app.plan, streams, fault_plan=None, metrics=True
            )

    def test_attempt_is_public_and_bounded(self):
        app, streams = self._case()
        out = get_backend("threaded").attempt(
            app.program,
            app.plan,
            streams,
            options=RunOptions(checkpoint_predicate=every_root_join()),
        )
        spec = spec_outputs(app.program, [e for s in streams for e in s.events])
        assert _multiset(out.outputs) == _multiset(spec)
        assert out.checkpoints and out.keyed_outputs
        assert out.crashes == [] and out.quiesce is None


class TestServiceRuntimeEpochs:
    def test_epoch_ledger_matches_spec(self):
        app = keycounter_app(shards=2, reset_every=10)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        events = app.make_events(400)
        _drain(svc, events, every=37)
        assert _multiset(svc.committed) == _multiset(spec_outputs(app.program, events))
        assert svc.counters.admitted == 400
        assert svc.counters.committed == len(svc.committed)
        assert svc.backlog == 0

    def test_committed_since_cursors(self):
        app = keycounter_app(shards=2, reset_every=5)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        _drain(svc, app.make_events(50), every=25)
        tail, nxt = svc.committed_since(0)
        assert nxt == len(svc.committed) and tail == svc.committed
        mid, nxt2 = svc.committed_since(4)
        assert mid == svc.committed[4:] and nxt2 == nxt
        assert svc.committed_since(nxt) == ([], nxt)

    def test_empty_epoch_is_noop(self):
        app = keycounter_app()
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        report = svc.run_epoch()
        assert report.sealed_events == 0 and report.attempts == 0
        assert svc.counters.epochs == 0  # a no-op seal is not an epoch

    def test_epoch_without_root_traffic_commits_nothing_yet(self):
        app = keycounter_app(shards=2)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        incs = [
            Event(keycounter.inc_tag(0), f"i{i % 2}", float(i + 1), 1)
            for i in range(20)
        ]
        for e in incs:
            assert svc.offer(e) == ADMITTED
        report = svc.run_epoch()
        # No root join in the batch -> no snapshot -> nothing commits;
        # the whole sealed set stays pending for the next epoch.
        assert report.committed == 0 and svc.backlog == 20
        # Sealed alone, the reset raises the floor to its own timestamp:
        # the seal heartbeat must sort above the reset's join key, or
        # the join never runs and nothing ever commits.
        assert svc.offer(Event(keycounter.reset_tag(0), "r", 100.0, None)) == ADMITTED
        report = svc.run_epoch()
        assert report.committed == 1  # at its own seal
        assert [v for v in svc.committed] == [(0, 20)]
        assert svc.backlog == 0  # commit key is the reset: all drained
        assert svc.counters.attempts == 1

    def test_admission_rejection_reasons(self):
        app = keycounter_app(shards=2, reset_every=5)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        assert svc.offer(Event(("i", 99), "i0", 1.0, 1)) == REJECT_UNKNOWN
        assert svc.offer(Event(keycounter.inc_tag(0), "i0", 5.0, 1)) == ADMITTED
        assert svc.offer(Event(keycounter.inc_tag(0), "i0", 5.0, 1)) == REJECT_ORDER
        # Seal: the floor rises to the highest sealed ts.
        svc.run_epoch()
        assert svc.offer(Event(keycounter.inc_tag(0), "i1", 4.0, 1)) == REJECT_LATE
        assert svc.offer(Event(keycounter.inc_tag(0), "i1", 6.0, 1)) == ADMITTED
        svc.finish()
        assert svc.offer(Event(keycounter.inc_tag(0), "i0", 99.0, 1)) == REJECT_CLOSED
        assert set(svc.counters.rejected) == {
            REJECT_UNKNOWN,
            REJECT_ORDER,
            REJECT_LATE,
            REJECT_CLOSED,
        }

    def test_backpressure_flips_and_recovers(self):
        app = keycounter_app(shards=2, reset_every=5)
        svc = ServiceRuntime(
            app.program,
            app.plan,
            options=ServeOptions(ingest_high_watermark=10),
        )
        events = app.make_events(30)
        admitted = [e for e in events[:10] if svc.offer(e) == ADMITTED]
        assert len(admitted) == 10
        # Watermark reached: admission pauses and reports it.
        assert svc.offer(events[10]) == REJECT_BACKPRESSURE
        assert svc.admission_paused()
        assert svc.counters.rejected[REJECT_BACKPRESSURE] >= 1
        # An epoch commits through the sealed resets and drains the
        # backlog to half the high watermark: admission resumes.
        assert svc.gate.resume == 5
        svc.run_epoch()
        assert svc.backlog <= 5
        assert not svc.admission_paused()
        assert svc.offer(events[11]) == ADMITTED
        svc.finish()
        final = admitted + [events[11]]
        assert _multiset(svc.committed) == _multiset(spec_outputs(app.program, final))

    def test_crash_before_first_checkpoint_replays_epoch(self):
        app = keycounter_app(shards=2, reset_every=10)
        leaf = app.plan.root.children[0].id
        svc = ServiceRuntime(
            app.program,
            app.plan,
            options=ServeOptions(
                run=RunOptions(fault_plan=FaultPlan(CrashFault(leaf, after_events=1)))
            ),
        )
        events = app.make_events(40)
        _drain(svc, events, every=40)
        assert svc.counters.crashes_recovered == 1
        assert _multiset(svc.committed) == _multiset(spec_outputs(app.program, events))

    def test_crash_mid_service_exactly_once(self, monkeypatch):
        _forbid_closed_attempts(monkeypatch)
        app = keycounter_app(shards=2, reset_every=10)
        leaf = app.plan.root.children[1].id
        svc = ServiceRuntime(
            app.program,
            app.plan,
            options=ServeOptions(
                run=RunOptions(
                    # The counter spans the open attempt's seals; each
                    # 60-event epoch routes ~27 events to this leaf.
                    fault_plan=FaultPlan(CrashFault(leaf, after_events=20)),
                    metrics=True,
                )
            ),
        )
        events = app.make_events(300)
        _drain(svc, events, every=60)
        assert svc.counters.crashes_recovered == 1
        # One attempt, kept open across the epochs, plus one per recovery.
        assert svc.counters.epochs == 6
        assert svc.counters.attempts == 1 + svc.counters.crashes_recovered
        assert _multiset(svc.committed) == _multiset(spec_outputs(app.program, events))
        assert svc.metrics is not None and svc.metrics.attempts == svc.counters.attempts

    def test_planned_reconfiguration_across_epochs(self, monkeypatch):
        _forbid_closed_attempts(monkeypatch)
        prog = keycounter.make_program(1)
        inc, reset = keycounter.inc_tag(0), keycounter.reset_tag(0)
        plan = root_and_leaves_plan(
            prog,
            [ImplTag(reset, "r")],
            [
                [ImplTag(inc, "i0"), ImplTag(inc, "i1")],
                [ImplTag(inc, "i2"), ImplTag(inc, "i3")],
            ],
        )
        svc = ServiceRuntime(
            prog,
            plan,
            options=ServeOptions(
                run=RunOptions(
                    reconfig_schedule=ReconfigSchedule(
                        ReconfigPoint(at_ts=100.0, to_leaves=4)
                    )
                )
            ),
        )
        events = []
        ts = 0.0
        for i in range(300):
            ts += 1.0
            if (i + 1) % 10 == 0:
                events.append(Event(reset, "r", ts, None))
            else:
                events.append(Event(inc, f"i{i % 4}", ts, 1))
        _drain(svc, events, every=60)
        assert svc.counters.reconfigurations == 1
        assert [plan_width(p) for p in svc.plan_history] == [2, 4]
        # The migrated plan persists across later epochs, on the one
        # attempt opened on it.
        assert plan_width(svc.plan) == 4
        assert svc.counters.attempts == 1 + svc.counters.reconfigurations
        assert _multiset(svc.committed) == _multiset(spec_outputs(prog, events))

    def test_closed_from_the_final_seal_finished_after_the_commit(self):
        """While the final epoch runs, offers are already rejected as
        closed but the service is not yet ``finished`` — a poller must
        not tear the listener down under the epoch."""
        app = keycounter_app(shards=2, reset_every=10)
        during = []

        def predicate(event, _count):  # runs inside the final epoch
            late = Event(keycounter.inc_tag(0), "i0", 1e6, 1)
            during.append((svc.finished, svc.offer(late)))
            return True

        svc = ServiceRuntime(
            app.program,
            app.plan,
            options=ServeOptions(run=RunOptions(checkpoint_predicate=predicate)),
        )
        events = app.make_events(40)
        for e in events:
            assert svc.offer(e) == ADMITTED
        assert not svc.finished
        svc.finish()
        assert during and set(during) == {(False, REJECT_CLOSED)}
        assert svc.finished
        assert _multiset(svc.committed) == _multiset(spec_outputs(app.program, events))

    def test_per_epoch_producer_traffic_is_flat(self, monkeypatch):
        """A long-lived service must not pay for its age: seal k's
        producer traffic (events + heartbeats, counted where the seal
        posts them to the open attempt, a run at its length) is what
        seal 1's was, not k times the heartbeats of the dead time since
        timestamp 0, nor a replay of what is already in the attempt
        (counted, not timed)."""
        produced = []
        opened = []
        real_init = runtime_threaded._Attempt.__init__

        def counting_init(attempt, *args, **kwargs):
            real_init(attempt, *args, **kwargs)
            opened.append(attempt)
            producers = attempt.producers

            def counted(dst, msg):
                produced.append(len(msg) if type(msg) is EventRun else 1)
                producers.post(dst, msg)

            attempt.producers = SimpleNamespace(post=counted, flush=producers.flush)

        monkeypatch.setattr(runtime_threaded._Attempt, "__init__", counting_init)
        app = keycounter_app(shards=2, reset_every=10)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        events = app.make_events(20 * 50)
        per_epoch = []
        for k in range(20):
            for e in events[k * 50 : (k + 1) * 50]:
                assert svc.offer(e) == ADMITTED
            before = sum(produced)
            svc.run_epoch(final=k == 19)
            per_epoch.append(sum(produced) - before)
        assert _multiset(svc.committed) == _multiset(spec_outputs(app.program, events))
        assert len(opened) == 1  # every seal fed the one open attempt
        # Same 50 events each seal: equal up to one heartbeat per stream.
        assert min(per_epoch) >= 50
        assert max(per_epoch) - min(per_epoch) <= len(svc.itags), per_epoch
        # A seal posts what was admitted since the last one, then one
        # heartbeat per stream (the final seal: the closing one).
        n_streams = len(svc.itags)
        assert max(per_epoch) <= 50 + n_streams * (n_streams + 1), per_epoch
        assert per_epoch == [50 + n_streams] * 20

    def test_service_gauges_snapshot(self):
        app = keycounter_app(reset_every=5)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        _drain(svc, app.make_events(20), every=10)
        gauges = svc.service_gauges()
        assert gauges["admitted_total"] == 20.0
        assert gauges["committed_total"] == float(len(svc.committed))
        assert gauges["epochs_total"] == float(svc.counters.epochs)
        assert gauges["admission_paused"] == 0.0
        assert set(gauges) == {
            "admitted_total",
            "rejected_total",
            "committed_total",
            "backlog",
            "epochs_total",
            "attempts_total",
            "crashes_recovered_total",
            "reconfigurations_total",
            "admission_paused",
        }


class TestOpenAttempt:
    """The default (in-process) backend keeps one attempt open across
    seals: a seal posts what was admitted, then a heartbeat."""

    def test_event_just_above_the_floor_on_another_itag(self):
        """The seal heartbeat vouches for the floor's timestamp and
        nothing above it: an event at the next float on another stream
        is admitted, and the open attempt takes it."""
        app = keycounter_app(shards=2)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        inc = keycounter.inc_tag(0)
        events = [Event(inc, "i0", float(t), 1) for t in range(1, 21)]
        for e in events:
            assert svc.offer(e) == ADMITTED
        svc.run_epoch()
        tie = math.nextafter(20.0, math.inf)
        later = [Event(inc, "i1", tie, 1), Event(keycounter.reset_tag(0), "r", tie, None)]
        for e in later:
            assert svc.offer(e) == ADMITTED
        report = svc.run_epoch()
        assert report.committed == 1 and svc.backlog == 0
        assert svc.committed == spec_outputs(app.program, events + later) == [(0, 21)]
        assert svc.counters.attempts == 1

    def test_live_state_stays_bounded(self):
        """After every one of 50 seals, the open attempt's sinks hold no
        output at or below the commit key and at most one checkpoint,
        and the replay log holds exactly the backlog."""
        app = keycounter_app(shards=2, reset_every=7)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        events = app.make_events(50 * 23)
        backlogs = []
        for k in range(50):
            for e in events[k * 23 : (k + 1) * 23]:
                assert svc.offer(e) == ADMITTED
            svc.run_epoch()
            driver = svc._driver
            key = driver.restore.key
            for worker in driver._live.workers.values():
                sink = worker.sink
                assert all(k > key for k, _ in sink.keyed_outputs)
                assert len(sink.outputs) == len(sink.keyed_outputs)
                assert len(sink.checkpoints) <= 1
            assert len(driver.pending) == svc.backlog
            backlogs.append(svc.backlog)
        assert svc.counters.attempts == 1 and max(backlogs) > 0
        svc.finish()
        assert _multiset(svc.committed) == _multiset(spec_outputs(app.program, events))

    def test_offer_batch_keeps_the_decoded_runs(self, monkeypatch):
        app = value_barrier_app()
        items = _decoded(app.make_events(250))
        assert [type(m) for m in items] == [EventRun] * 3

        def no_events(_run):
            raise AssertionError("EventRun.events() called")

        monkeypatch.setattr(EventRun, "events", no_events)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        assert svc.offer_batch(items) == {ADMITTED: 250}
        for run in items:
            assert any(kept is run for kept in svc._inbox[run.itag])

    def test_non_finite_timestamps_are_rejected(self):
        """An infinite timestamp once made the next seal spin forever,
        and a NaN passed both the floor and the order check."""
        app = keycounter_app(shards=2)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        inc = keycounter.inc_tag(0)
        for ts in (math.inf, -math.inf, math.nan):
            assert svc.offer(Event(inc, "i0", ts, 1)) == REJECT_INVALID_TS
        good = [Event(inc, "i0", 3.0, 1)]
        assert svc.offer(good[0]) == ADMITTED
        # A run ending at inf and one holding a NaN fall back to the
        # per-event checks: only the bad events are rejected.
        tail_inf = [Event(inc, "i1", float(t), 1) for t in (4, 5, 6)]
        tail_inf.append(Event(inc, "i1", math.inf, 1))
        nan_mid = [Event(inc, "i0", 4.0, 1), Event(inc, "i0", math.nan, 1)]
        nan_mid.append(Event(inc, "i0", 5.0, 1))
        for frame in (tail_inf, nan_mid):
            assert svc.offer_batch(_decoded(frame)) == {
                ADMITTED: len(frame) - 1,
                REJECT_INVALID_TS: 1,
            }
            good += [e for e in frame if math.isfinite(e.ts)]
        good.append(Event(keycounter.reset_tag(0), "r", 10.0, None))
        assert svc.offer(good[-1]) == ADMITTED
        assert svc.counters.rejected == {REJECT_INVALID_TS: 5}
        sealer = threading.Thread(target=svc.finish, daemon=True)
        sealer.start()
        sealer.join(timeout=60)
        assert not sealer.is_alive()
        assert svc.committed == spec_outputs(app.program, good) == [(0, 6)]


def _decoded(events):
    """What the TCP tier hands ``offer_batch`` for one ingest frame."""
    _kind, msgs = parse_frame(ingest_events_frame(events)[4:])
    return [m if type(m) is EventRun else m.event for m in msgs]


def _expanded(items):
    return [e for m in items for e in (m.events() if type(m) is EventRun else [m])]


def _admission_state(svc):
    return (
        {t: [repr(e) for e in _expanded(items)] for t, items in svc._inbox.items()},
        svc._inbox_count,
        svc._pending_count,
        dict(svc._last_ts),
        svc._seal_floor,
        svc.counters,
        svc.gate.paused,
        len(svc.committed),
    )


# keycounter's itags plus two it does not know; ("i", False) == ("i", 0)
# is the same itag to the service but a different route to the codec.
_ADMIT_ROUTES = [
    (keycounter.inc_tag(0), "i0", 1),
    (keycounter.inc_tag(0), "i1", 1),
    (("i", False), "i0", 2),
    (keycounter.reset_tag(0), "r", None),
    (("i", 99), "i0", 1),
    (keycounter.inc_tag(0), "i9", 1),
]


@st.composite
def _admission_script(draw):
    """Frames of events on a mostly-rising clock (repeats, steps back
    and jumps below an earlier seal included), each followed by an
    optional seal; a service closed at some frame."""
    frames = []
    clock = 12
    for _ in range(draw(st.integers(1, 6))):
        clock = max(1, clock + draw(st.integers(-12, 6)))  # the sim's clock starts at 0
        events = []
        for _ in range(draw(st.integers(0, 40))):
            clock = max(1, clock + draw(st.sampled_from([1, 1, 1, 2, 0, -1, -3])))
            tag, stream, payload = draw(st.sampled_from(_ADMIT_ROUTES))
            ts = float(clock) if draw(st.integers(0, 4)) else clock
            events.append(Event(tag, stream, ts, payload))
        frames.append((events, draw(st.booleans())))
    close_at = draw(st.one_of(st.none(), st.integers(0, len(frames) - 1)))
    high = draw(st.integers(2, 60))
    return frames, close_at, high


class TestRunAdmission:
    """``offer_batch`` over the decoded runs of an ingest frame gives
    the verdicts of offering the same events one by one."""

    @settings(max_examples=60, deadline=None)
    @given(_admission_script())
    def test_offer_batch_of_runs_equals_offer_per_event(self, script):
        frames, close_at, high = script
        app = keycounter_app(shards=2, reset_every=5)
        opts = ServeOptions(backend="sim", ingest_high_watermark=high)
        by_run, by_event = (
            ServiceRuntime(app.program, app.plan, options=opts) for _ in range(2)
        )
        for k, (events, seal) in enumerate(frames):
            items = _decoded(events)
            got = by_run.offer_batch(items)
            verdicts = [by_event.offer(e) for e in _expanded(items)]
            assert got == dict(Counter(verdicts))
            assert _admission_state(by_run) == _admission_state(by_event)
            # Once the gate shuts within a frame it stays shut: what
            # one batch admits is a prefix of what passes the other
            # checks — per itag, and in the grouped wire order too.
            gated = [v for v in verdicts if v in (ADMITTED, REJECT_BACKPRESSURE)]
            assert gated == sorted(gated, key=lambda v: v != ADMITTED)
            if k == close_at:
                for svc in (by_run, by_event):
                    svc.finish()
            elif seal and not by_run.finished:
                for svc in (by_run, by_event):
                    svc.run_epoch()
            assert _admission_state(by_run) == _admission_state(by_event)
        assert by_run.committed == by_event.committed

    def test_concurrent_batches_lose_nothing(self):
        """One lock per batch: four producers (more than cores), each
        on its own itag, offering runs and plain events at once under a
        tiny switch interval, lose no admission."""
        app = keycounter_app(shards=4)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        streams = [
            [Event(keycounter.inc_tag(0), f"i{s}", float(4 * k + s + 1), 1) for k in range(300)]
            for s in range(4)
        ]

        def produce(events):
            for i in range(0, len(events), 25):
                frame = events[i : i + 25]
                svc.offer_batch(_decoded(frame) if i % 50 else frame)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=produce, args=(s,)) for s in streams]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert svc.counters.admitted == svc.inbox_size() == 1200
        for events in streams:
            itag = events[0].itag
            assert _expanded(svc._inbox[itag]) == events
            assert svc._last_ts[itag] == events[-1].ts
        assert svc.offer(Event(keycounter.reset_tag(0), "r", 2000.0, None)) == ADMITTED
        svc.finish()
        assert svc.committed == [(0, 1200)]

    def test_plain_events_keep_their_result(self):
        app = keycounter_app(shards=2, reset_every=5)
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        events = app.make_events(20)
        stale = Event(keycounter.inc_tag(0), "i0", 0.5, 1)
        unknown = Event(("i", 99), "i0", 99.0, 1)
        assert svc.offer_batch(events + [stale, unknown]) == {
            ADMITTED: 20,
            REJECT_ORDER: 1,
            REJECT_UNKNOWN: 1,
        }


class TestProtocol:
    def test_control_frame_round_trip(self):
        frame = control_frame({"type": "hello", "v": 1})
        (length,) = FRAME_LEN.unpack(frame[:4])
        kind, blob = parse_frame(frame[4 : 4 + length])
        assert kind == "control" and blob == {"type": "hello", "v": 1}

    def test_events_frame_round_trip(self):
        events = [Event(keycounter.inc_tag(0), "i0", float(i), i) for i in range(5)]
        frame = ingest_events_frame(events)
        kind, msgs = parse_frame(frame[4:])
        assert kind == "events"
        assert _expanded(m if type(m) is EventRun else m.event for m in msgs) == events

    def test_value_barrier_frame_is_three_runs(self):
        """Golden: a 250-event value-barrier frame groups into one run
        per itag (two value streams and the barriers)."""
        events = value_barrier_app().make_events(250)
        frame = ingest_events_frame(events)
        _kind, msgs = parse_frame(frame[4:])
        assert [type(m) for m in msgs] == [EventRun] * 3
        assert sorted(repr(m.itag) for m in msgs) == sorted(
            repr(t) for t in {e.itag for e in events}
        )
        assert len(frame) / len(events) <= 17
        # Per itag, the decoded stream is the given one.
        decoded = _expanded(msgs)
        for itag in {e.itag for e in events}:
            assert [e for e in decoded if e.itag == itag] == [
                e for e in events if e.itag == itag
            ]

    def test_equal_itags_of_different_types_keep_their_order(self):
        """("k", 1) and ("k", True) are one itag to the service: the
        grouping must not pull them apart, though the codec gives each
        its own type-exact run."""
        events = []
        for i in range(12):
            tag = ("k", True) if i % 3 == 1 else ("k", 1)
            events.append(Event(tag, "s", float(i), i))
            events.append(Event("other", "s", i + 0.5, i))
        got = _expanded(_decoded(events))
        assert [repr(e) for e in got if e.tag == ("k", 1)] == [
            repr(e) for e in events if e.tag == ("k", 1)
        ]
        assert [repr(e) for e in got] == [
            repr(e) for e in events if e.tag != "other"
        ] + [repr(e) for e in events if e.tag == "other"]

    def test_unhashable_tags_go_out_in_arrival_order(self):
        events = [
            Event("a", "s", 1.0, 1),
            Event(["x"], "s", 2.0, 1),
            Event("a", "s", 3.0, 1),
        ]
        frame = ingest_events_frame(events)
        assert frame == events_frame([EventMsg(e) for e in events])
        _kind, msgs = parse_frame(frame[4:])
        assert [m.event for m in msgs] == events
        # No plan routes such a tag: the service rejects it, by reason.
        app = keycounter_app()
        svc = ServiceRuntime(app.program, app.plan, options=ServeOptions())
        assert svc.offer(events[1]) == REJECT_UNKNOWN

    def test_outputs_frame_round_trip(self):
        frame = outputs_frame([(0, 7), (1, 9)], start_seq=41)
        _kind, msgs = parse_frame(frame[4:])
        assert decode_outputs(msgs) == [(41, (0, 7)), (42, (1, 9))]

    def test_rejects_garbage(self):
        with pytest.raises(RuntimeFault):
            parse_frame(b"")
        with pytest.raises(RuntimeFault):
            parse_frame(b"\x00junk")
        with pytest.raises(RuntimeFault):
            parse_frame(b"C not json")
        with pytest.raises(RuntimeFault):
            parse_frame(b"C[1, 2]")  # JSON but not an object
        with pytest.raises(RuntimeFault):
            decode_outputs(parse_frame(events_frame([]))[1] + ["nonsense"])


class TestServiceTCP:
    @pytest.mark.parametrize("make_app", [keycounter_app, value_barrier_app])
    def test_end_to_end_matches_spec(self, make_app):
        app = make_app()
        events = app.make_events(1200)
        opts = ServeOptions(epoch_events=200, epoch_idle_ms=20.0)
        with start_service(app.program, app.plan, options=opts) as handle:
            received = []
            sub = connect(handle.port, handle.cookie, mode="subscribe")
            consumer = threading.Thread(
                target=lambda: received.extend(sub.outputs())
            )
            consumer.start()
            with connect(handle.port, handle.cookie) as ingest:
                ack = ingest.send_events(events, batch=100)
                assert ack.admitted == len(events) and ack.rejected == 0
                total = ingest.finish()
            consumer.join(timeout=60)
            assert not consumer.is_alive()
        seqs = [seq for seq, _ in received]
        assert seqs == list(range(len(seqs)))  # gapless, duplicate-free
        assert total == len(received)
        want = _multiset(spec_outputs(app.program, events))
        assert _multiset([v for _, v in received]) == want

    def test_stop_with_open_connections_logs_no_error(self, caplog):
        """Stopping while an ingest and a subscribe connection are open
        lets both handlers return on their own: no CancelledError
        traceback on the asyncio logger, and the stop is prompt."""
        app = keycounter_app()
        handle = start_service(app.program, app.plan, options=ServeOptions())
        ingest = connect(handle.port, handle.cookie)
        sub = connect(handle.port, handle.cookie, mode="subscribe")
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                t0 = time.monotonic()
                handle.stop(timeout=10.0)
                elapsed = time.monotonic() - t0
        finally:
            ingest.close()
            sub.close()
        assert elapsed < 10.0
        errors = [r for r in caplog.records if r.name == "asyncio"]
        assert not errors, [r.getMessage() for r in errors]

    def test_flush_and_late_subscriber_from_seq(self):
        app = keycounter_app(reset_every=5)
        opts = ServeOptions(epoch_events=10**9, epoch_idle_ms=10_000.0)
        with start_service(app.program, app.plan, options=opts) as handle:
            with connect(handle.port, handle.cookie) as ingest:
                ingest.send_events(app.make_events(50))
                committed = ingest.flush()
                assert committed == 10
                # A late subscriber catches up from its cursor.
                with connect(
                    handle.port, handle.cookie, mode="subscribe", from_seq=4
                ) as sub:
                    assert sub.server_seq == 10
                ingest.finish()
            with connect(
                handle.port, handle.cookie, mode="subscribe", from_seq=4
            ) as sub:
                got = list(sub.outputs())
            assert [seq for seq, _ in got] == list(range(4, 10))
            assert [v for _, v in got] == handle.runtime.committed[4:]

    def test_rejections_reported_in_ack(self):
        app = keycounter_app()
        opts = ServeOptions(epoch_events=10**9, epoch_idle_ms=10_000.0)
        with start_service(app.program, app.plan, options=opts) as handle:
            with connect(handle.port, handle.cookie) as ingest:
                good = Event(keycounter.inc_tag(0), "i0", 10.0, 1)
                stale = Event(keycounter.inc_tag(0), "i0", 10.0, 1)  # not increasing
                unknown = Event(("i", 99), "i0", 11.0, 1)
                ack = ingest.send_events([good, stale, unknown])
                assert ack.admitted == 1 and ack.rejected == 2
                assert ack.reasons == {REJECT_ORDER: 1, REJECT_UNKNOWN: 1}

    def test_non_finite_timestamps_rejected_in_the_ack(self):
        app = keycounter_app()
        opts = ServeOptions(epoch_events=10**9, epoch_idle_ms=10_000.0)
        inc = keycounter.inc_tag(0)
        with start_service(app.program, app.plan, options=opts) as handle:
            with connect(handle.port, handle.cookie) as ingest:
                first = Event(inc, "i0", 1.0, 1)
                bad = [Event(inc, "i0", math.inf, 1), Event(inc, "i1", math.nan, 1)]
                ack = ingest.send_events([first, *bad])
                assert ack.admitted == 1 and ack.reasons == {REJECT_INVALID_TS: 2}
                # The service keeps serving.
                later = [Event(inc, "i1", 2.0, 1), Event(keycounter.reset_tag(0), "r", 3.0, None)]
                assert ingest.send_events(later).admitted == 2
                assert ingest.finish() == 1
            assert handle.runtime.committed == spec_outputs(app.program, [first, *later])

    def test_per_event_frame_gets_the_per_event_ack(self):
        """An old client's frame — one EventMsg per event, arrival
        order — is the same codec and admits event by event."""
        app = keycounter_app(shards=2, reset_every=5)
        events = app.make_events(30)
        events[7] = Event(events[7].tag, events[7].stream, 0.5, 1)  # out of order
        events.insert(12, Event(("i", 99), "i0", 12.5, 1))  # unknown
        opts = ServeOptions(
            epoch_events=10**9, epoch_idle_ms=10_000.0, ingest_high_watermark=20
        )
        twin = ServiceRuntime(app.program, app.plan, options=opts)
        want = Counter(twin.offer(e) for e in events)
        with start_service(app.program, app.plan, options=opts) as handle:
            with connect(handle.port, handle.cookie) as ingest:
                ingest._sock.sendall(events_frame([EventMsg(e) for e in events]))
                ack = ingest._read_control("ack")
        assert ack["admitted"] == want[ADMITTED]
        assert ack["reasons"] == {k: v for k, v in want.items() if k != ADMITTED}
        assert ack["paused"] is twin.gate.paused is True

    def test_mixed_eligibility_frame_commits_the_spec(self):
        """Runs and the events no run can carry — str payloads, an int
        beyond i64, a tuple tag holding a bool — in one frame."""
        app = keycounter_app(shards=2, reset_every=7)
        events = app.make_events(140)
        for i, e in enumerate(events):
            if e.tag[0] != "i":
                continue
            if i % 5 == 1:
                events[i] = Event(e.tag, e.stream, e.ts, str(e.payload + i))
            elif i % 5 == 2:
                events[i] = Event(("i", False), e.stream, e.ts, e.payload)
            elif i == 3:
                events[i] = Event(e.tag, e.stream, e.ts, 2**70)
        opts = ServeOptions(epoch_events=10**9, epoch_idle_ms=10_000.0)
        with start_service(app.program, app.plan, options=opts) as handle:
            with connect(handle.port, handle.cookie) as ingest:
                ack = ingest.send_events(events, batch=len(events))
                assert ack.admitted == len(events) and ack.rejected == 0
                ingest.finish()
            got = _multiset(handle.runtime.committed)
        assert got == _multiset(spec_outputs(app.program, events))

    def test_bad_cookie_and_garbage_are_strays(self):
        app = keycounter_app(reset_every=5)
        opts = ServeOptions(epoch_events=10**9, epoch_idle_ms=10_000.0)
        with start_service(app.program, app.plan, options=opts) as handle:
            # Wrong cookie: dropped before any state is touched.
            with pytest.raises(RuntimeFault, match="closed while waiting"):
                connect(handle.port, "not-the-cookie")
            # Raw garbage: framed nonsense, then a dead socket.
            sock = socket.create_connection(("127.0.0.1", handle.port), timeout=10)
            sock.sendall(FRAME_LEN.pack(7) + b"Znoise!")
            assert sock.recv(1024) == b""  # server hung up, no crash
            sock.close()
            # A version-1 hello, right cookie and all: version 2 dropped
            # three event-record kinds a v1 peer may send.
            assert PROTOCOL_VERSION == 2
            sock = socket.create_connection(("127.0.0.1", handle.port), timeout=10)
            hello = {"type": "hello", "v": 1, "cookie": handle.cookie, "mode": "ingest"}
            sock.sendall(control_frame(hello))
            assert sock.recv(1024) == b""  # no welcome
            sock.close()
            # The service still works for authenticated clients.
            with connect(handle.port, handle.cookie) as ingest:
                events = app.make_events(20)
                assert ingest.send_events(events).admitted == 20
                assert ingest.finish() == 4
            assert handle.server.strays == 3

    def test_process_backend_epochs(self):
        app = keycounter_app(reset_every=10)
        opts = ServeOptions(
            backend="process",
            epoch_events=10**9,
            epoch_idle_ms=30_000.0,
        )
        events = app.make_events(120)
        with start_service(app.program, app.plan, options=opts) as handle:
            with connect(handle.port, handle.cookie) as ingest:
                assert ingest.send_events(events[:60]).admitted == 60
                ingest.flush()
                assert ingest.send_events(events[60:]).admitted == 60
                ingest.finish()
            got = _multiset(handle.runtime.committed)
        assert got == _multiset(spec_outputs(app.program, events))

    @pytest.mark.parametrize(
        "backend, run",
        [
            ("threaded", RunOptions(metrics=True)),
            ("process", RunOptions(metrics=True)),
            ("process", RunOptions(nodes=2, metrics=True)),
        ],
        ids=["threaded", "process", "process-nodes=2"],
    )
    def test_one_scrape_shape_on_every_backend(self, backend, run):
        """The service's exporter is the one scrape endpoint, refreshed
        after each epoch from the attempts' end-of-attempt reports: the
        same samples, and no attempt label, on every backend."""
        app = keycounter_app(reset_every=10)
        opts = ServeOptions(
            backend=backend, run=run, epoch_events=10**9, epoch_idle_ms=30_000.0, metrics_port=0
        )
        events = app.make_events(120)
        with start_service(app.program, app.plan, options=opts) as handle:
            with connect(handle.port, handle.cookie) as ingest:
                assert ingest.send_events(events[:60]).admitted == 60
                ingest.flush()
                assert ingest.send_events(events[60:]).admitted == 60
                total = ingest.finish()
            scrape = urllib.request.urlopen(
                f"http://127.0.0.1:{handle.metrics_port}/metrics", timeout=10
            ).read().decode()
            merged = handle.runtime.metrics.merged()
        assert total == len(handle.runtime.committed) > 0
        assert f"repro_serve_committed_total {float(total)}" in scrape
        assert merged.events_processed >= len(events)
        want = f'repro_worker_events_processed{{worker="all"}} {float(merged.events_processed)}'
        assert want in scrape.splitlines()
        assert "attempt=" not in scrape

    @pytest.mark.parametrize("host", [None, "0.0.0.0"], ids=["default", "any"])
    def test_the_exporter_binds_the_service_host(self, host):
        """``metrics_port`` serves on ``http://host:<port>/metrics``:
        the exporter binds the listener's host, loopback by default."""
        app = keycounter_app()
        opts = ServeOptions(metrics_port=0, **({} if host is None else {"host": host}))
        with start_service(app.program, app.plan, options=opts) as handle:
            bound = handle.server.exporter._server.server_address[0]
        assert bound == (host or "127.0.0.1")


class TestServiceCLI:
    def test_cli_refuses_nodes_on_the_in_process_backend(self, capsys):
        """A deployment field the backend never reads is a usage error
        at start, not a fault at the first seal."""
        from repro.serve.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["--backend", "threaded", "--nodes", "2"])
        assert exc.value.code == 2
        assert "nodes=" in capsys.readouterr().err

    def test_cli_serves_finish_and_exits_on_its_own(self):
        """``python -m repro.serve`` end to end: a client ingests,
        sends ``finish``, gets its ``finished`` reply and a subscriber
        every spec output plus ``eof`` — the listener must outlive the
        final epoch — and then the process exits 0 without being told."""
        app = keycounter_app(shards=2)
        events = app.make_events(300)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--app", "keycounter",
             "--shards", "2", "--epoch-events", "64"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            hello = json.loads(proc.stdout.readline())
            received = []
            sub = connect(hello["port"], hello["cookie"], mode="subscribe")
            consumer = threading.Thread(
                target=lambda: received.extend(sub.output_values())
            )
            consumer.start()
            with connect(hello["port"], hello["cookie"]) as ingest:
                assert ingest.send_events(events, batch=50).admitted == len(events)
                total = ingest.finish()
            consumer.join(timeout=60)
            sub.close()
            assert not consumer.is_alive()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            err = proc.stderr.read()
            proc.stdout.close()
            proc.stderr.close()
        assert total == len(received)
        assert _multiset(received) == _multiset(spec_outputs(app.program, events))
        assert "service finished: 300 admitted" in err


class TestServiceAcceptance:
    def test_10k_events_crash_and_backpressure_over_tcp(self):
        """The PR's acceptance scenario: an external client streams
        10k+ events over TCP while a worker crash fault is armed and
        the ingest watermark is low enough that sustained sending
        trips admission control.  The subscriber must receive exactly
        the sequential-spec outputs of the *admitted* events — no
        duplicates, no loss — and the rejections must have been
        observed and reported to the client."""
        app = keycounter_app(shards=2, reset_every=25)
        leaf = app.plan.root.children[0].id
        opts = ServeOptions(
            epoch_events=10**9,  # epochs driven by flush below
            epoch_idle_ms=60_000.0,
            ingest_high_watermark=600,
            run=RunOptions(
                fault_plan=FaultPlan(CrashFault(leaf, after_events=150)),
                metrics=True,
            ),
            metrics_port=0,
        )
        events = app.make_events(13_000)
        admitted, rejected_total = [], 0
        reasons = Counter()
        with start_service(app.program, app.plan, options=opts) as handle:
            received = []
            sub = connect(
                handle.port, handle.cookie, mode="subscribe", timeout=120.0
            )
            consumer = threading.Thread(target=lambda: received.extend(sub.outputs()))
            consumer.start()
            with connect(handle.port, handle.cookie, timeout=120.0) as ingest:
                for event in events:
                    ack = ingest.send_events([event])
                    if ack.admitted:
                        admitted.append(event)
                    rejected_total += ack.rejected
                    reasons.update(ack.reasons)
                    if ack.paused or ack.rejected:
                        ingest.flush()  # drain: admission must resume
                ingest.finish()
            consumer.join(timeout=120)
            assert not consumer.is_alive()

            counters = handle.runtime.counters
            assert counters.crashes_recovered == 1
            # Every flush sealed onto the attempt kept open.
            assert counters.epochs > 2 and counters.attempts == 2
            scrape = urllib.request.urlopen(
                f"http://127.0.0.1:{handle.metrics_port}/metrics", timeout=10
            ).read().decode()
            assert "repro_serve_crashes_recovered_total 1.0" in scrape
            assert f"repro_serve_admitted_total {float(len(admitted))}" in scrape

        # Admission pressure was really induced, and reported.
        assert rejected_total > 0
        assert reasons[REJECT_BACKPRESSURE] == rejected_total
        assert counters.rejected[REJECT_BACKPRESSURE] == rejected_total
        # And the service still admitted the acceptance floor.
        assert len(admitted) >= 10_000

        # Exactly-once: gapless sequence numbers, spec-identical values.
        seqs = [seq for seq, _ in received]
        assert seqs == list(range(len(seqs)))
        want = _multiset(spec_outputs(app.program, admitted))
        assert _multiset([v for _, v in received]) == want

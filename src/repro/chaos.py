"""Deterministic chaos-testing harness: seeded fault-injection sweeps
differentially verified against the sequential specification.

The DiffStream methodology (the authors' companion work, already used
by :mod:`repro.testing`) says the strongest practical check for a
parallel streaming system is *differential multiset equality*.  This
module extends that check to executions with injected faults: each
:class:`ChaosCase` is derived **entirely from one integer seed** — the
application, the workload, the synchronization plan, and the fault
schedule (worker crashes keyed by event count or timestamp, heartbeat
drops) — so every failure reproduces exactly from its case id.

A case passes when the faulty execution, after checkpoint-based crash
recovery (:mod:`repro.runtime.recovery`), produces an output multiset
equal to ``run_sequential_reference`` on the same input.  Cases are
generated so that crash triggers sit *after* the first synchronizing
event: by then the root has snapshotted at least once (with
``every_root_join``), so every generated crash is recoverable — a
crash that would fire earlier is a different, negative scenario and is
tested separately (``NoCheckpointError``).

Beyond fault schedules, cases come in four *modes* (:data:`MODES`):
``faults`` (crash/drop injection, the PR-2 sweep), ``reconfig``
(seeded elastic reconfiguration schedules: the plan widens/narrows
mid-stream at consistent snapshots, see
:mod:`repro.runtime.reconfigure`), ``reconfig-crash`` (both armed
— crashes must recover into the then-current plan shape), and
``service``: the workload ingested by a :mod:`repro.serve` service
through the TCP tier's own codec, frame by frame, sealed at seeded
points, with one crash or reconfiguration firing between two seals
(:func:`build_service_script`); the committed log must equal the
spec of the admitted events.

Run it three ways:

* ``pytest tests/test_chaos.py`` — the tier-1 sweep (>= 50 fault cases
  plus the reconfiguration matrix);
* ``python -m repro.chaos --cases 50 --seed 0`` — standalone CLI
  (``--modes reconfig,reconfig-crash`` for the elastic families);
* ``python -m repro.chaos --smoke`` — the CI-sized sweep.

Orthogonal to the mode, each case carries a *workload* shape
(:data:`WORKLOADS`): ``uniform`` (the PR-2 traffic), or one of the
adversarial families from :mod:`repro.data.adversarial` — ``zipf``
(hot-stream skew), ``flash`` (a rate spike hitting every source),
``straggler`` (one source pauses and trails its peers), ``late``
(bounded out-of-order delivery).  The workload *is* part of the case
derivation (non-uniform workloads get a case-id suffix); every shape
still preserves the collision-free total-order invariant, so the
sequential reference stays the ground truth.  The extra ``sessionize``
app (``--apps sessionize``) runs per-key sessionization with
timeout-triggered flushes through the same machinery.

The *data plane* is a sweep-level axis, not part of the seed:
``--transport tcp`` runs every process-backend case over TCP stream
sockets, and ``--transport tcp --nodes 2`` deploys each case across
two local node agents (:mod:`repro.runtime.cluster`) — the
``distributed-smoke`` CI lane's configuration.  Case derivations (and
therefore case ids) are transport-independent: the same seed must
produce the same scenario on every data plane.

Reproduce one failure with ``python -m repro.chaos --only <case_id>``
(the case id encodes app, backend, seed, and — when not ``faults`` —
the mode; pass the same ``--seed``/``--cases``/``--modes`` — and the
same ``--transport``/``--nodes`` — as the sweep that produced it).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from .apps import keycounter as kc
from .apps import sessionize as sz
from .apps import value_barrier as vb
from .core.dependence import DependenceRelation
from .core.events import Event, ImplTag
from .core.program import DGSProgram, single_state_program
from .data.adversarial import (
    assert_collision_free,
    flash_crowd_stream,
    late_stream,
    straggler_stream,
    zipf_streams,
)
from .data.generators import uniform_stream
from .plans.generation import root_and_leaves_plan
from .plans.morph import max_width, plan_width
from .plans.plan import SyncPlan
from .runtime import (
    CrashFault,
    DropHeartbeats,
    FaultPlan,
    InputStream,
    ReconfigPoint,
    ReconfigSchedule,
    RunOptions,
    every_root_join,
    run_on_backend,
    run_sequential_reference,
)
from .runtime.messages import EventRun
from .serve import ADMITTED, ServeOptions, ServiceRuntime, spec_outputs
from .serve.protocol import ingest_events_frame, parse_frame
from .testing import Mismatch, compare_outputs

APPS = ("value-barrier", "keycounter", "value-barrier-echo")

#: Every app the harness can derive, including the sessionize family
#: (kept out of :data:`APPS` so the default sweep's case ids stay
#: byte-stable against PR 2).
CHAOS_APPS = APPS + ("sessionize",)

#: Scenario families: pure fault injection (the PR-2 sweep), pure
#: elastic reconfiguration, crash-during-reconfiguration (both
#: schedules armed; recovery must restore into the then-current plan),
#: and a live service ingesting the workload frame by frame with one
#: crash or re-plan between its seals.
MODES = ("faults", "reconfig", "reconfig-crash", "service")

#: Traffic shapes a case can carry: the PR-2 uniform workload plus the
#: four adversarial families of :mod:`repro.data.adversarial`.
WORKLOADS = ("uniform", "zipf", "flash", "straggler", "late")


def make_echo_program() -> DGSProgram:
    """Value-barrier variant whose *values also emit* — every leaf
    produces outputs, so the commit-prefix/discard-suffix logic of the
    recovery driver is exercised on leaf-emitted outputs, not only on
    the root's window aggregates."""

    def update(state, event):
        if event.tag == vb.VALUE_TAG:
            return state + int(event.payload), [("v", event.ts, int(event.payload))]
        return 0, [("window_sum", event.ts, state)]

    def fork(state, pred1, pred2):
        if vb.BARRIER_TAG in pred2 and vb.BARRIER_TAG not in pred1:
            return 0, state
        return state, 0

    return single_state_program(
        name="value-barrier-echo",
        tags=vb.TAGS,
        depends=DependenceRelation.from_function(vb.TAGS, vb.depends_fn),
        init=lambda: 0,
        update=update,
        fork=fork,
        join=lambda a, b: a + b,
    )


@dataclass(frozen=True)
class ChaosCase:
    """One seeded scenario; everything else derives from ``seed``.

    ``mode`` selects the scenario family (see :data:`MODES`) and
    ``workload`` the traffic shape (see :data:`WORKLOADS`); the
    defaults keep PR-2 case ids — and their derivations — unchanged."""

    app: str
    backend: str
    seed: int
    mode: str = "faults"
    workload: str = "uniform"

    @property
    def case_id(self) -> str:
        base = f"{self.app}-{self.backend}-s{self.seed}"
        if self.mode != "faults":
            base = f"{base}-{self.mode}"
        if self.workload != "uniform":
            base = f"{base}-{self.workload}"
        return base


@dataclass
class ChaosOutcome:
    case: ChaosCase
    ok: bool
    mismatch: Optional[Mismatch]
    attempts: int
    crashes: int
    drops_scheduled: int
    checkpoints_taken: int
    replayed_events: int
    #: Completed plan migrations and the leaf widths the execution ran
    #: through (reconfig modes only; () / 0 for pure-fault cases).
    reconfigs: int = 0
    plan_widths: tuple = ()
    #: The run's merged RunMetrics when the sweep ran with the metrics
    #: plane on (``--metrics-out``); None otherwise.
    metrics: Any = None

    @property
    def recovered(self) -> bool:
        return self.crashes > 0

    @property
    def reconfigured(self) -> bool:
        return self.reconfigs > 0


# ---------------------------------------------------------------------------
# Seeded workload + plan + fault-schedule derivation
# ---------------------------------------------------------------------------

def _monotone_ts(rng: random.Random, n: int, start: float, mean_gap: float) -> List[float]:
    ts: List[float] = []
    t = start
    for _ in range(n):
        t += rng.uniform(0.4, 1.6) * mean_gap
        ts.append(round(t, 3))
    return ts


def build_workload(case: ChaosCase):
    """(program, streams, plan, sync_ts) for a case — the plan has the
    globally-synchronizing tag at the root (the Appendix D.2 shape
    checkpoint recovery requires) and one leaf per parallel stream.

    ``case.workload`` selects the leaf traffic shape; the uniform path
    is byte-identical to the PR-2 derivation."""
    rng = random.Random(case.seed * 2654435761 % (2**31))
    if case.app == "sessionize":
        return _sessionize_workload(case, rng)
    n_streams = rng.randint(2, 4)
    events_per_stream = rng.randint(8, 30)
    n_sync = rng.randint(3, 5)
    shape = rng.choice(("balanced", "chain"))

    if case.app in ("value-barrier", "value-barrier-echo"):
        prog = vb.make_program() if case.app == "value-barrier" else make_echo_program()
        leaf_itags = [ImplTag(vb.VALUE_TAG, f"v{s}") for s in range(n_streams)]
        sync_itag = ImplTag(vb.BARRIER_TAG, "b")
        payload = lambda: rng.randint(1, 9)  # noqa: E731
    elif case.app == "keycounter":
        # One key: the read-reset depends on every tag, so the rooted
        # plan is recovery-sound.
        prog = kc.make_program(1)
        leaf_itags = [ImplTag(kc.inc_tag(0), f"i{s}") for s in range(n_streams)]
        sync_itag = ImplTag(kc.reset_tag(0), "r")
        payload = lambda: rng.randint(1, 3)  # noqa: E731
    else:
        raise ValueError(f"unknown chaos app {case.app!r}")

    if case.workload == "uniform":
        span = events_per_stream * 1.0
        streams = []
        for itag in leaf_itags:
            ts = _monotone_ts(rng, events_per_stream, rng.uniform(0.0, 0.5), 1.0)
            events = tuple(Event(itag.tag, itag.stream, t, payload()) for t in ts)
            streams.append(
                InputStream(itag, events, heartbeat_interval=rng.choice((1.0, 2.0, 5.0)))
            )
        sync_gap = span / (n_sync + 1)
        sync_ts = _monotone_ts(rng, n_sync, sync_gap * 0.5, sync_gap)
        sync_events = tuple(Event(sync_itag.tag, sync_itag.stream, t) for t in sync_ts)
        streams.append(InputStream(sync_itag, sync_events, heartbeat_interval=2.0))
    else:
        streams, sync_ts = _adversarial_streams(
            case.workload,
            rng,
            leaf_itags,
            sync_itag,
            events_per_stream=events_per_stream,
            n_sync=n_sync,
            payload=payload,
        )

    plan = root_and_leaves_plan(
        prog, [sync_itag], [[t] for t in leaf_itags], shape=shape
    )
    return prog, streams, plan, sync_ts


def _sync_slots(
    n_sync: int, lo: float, hi: float, period: float, phase: float
) -> List[float]:
    """``n_sync`` synchronizing timestamps spread evenly over ``(lo,
    hi)``, snapped to the lattice ``{k * period + phase}`` so they can
    never collide with leaf events whose fractional phases differ."""
    gap = (hi - lo) / (n_sync + 1)
    out: List[float] = []
    for j in range(1, n_sync + 1):
        k = max(1, round((lo + j * gap - phase) / period))
        t = k * period + phase
        if out and t <= out[-1]:
            t = out[-1] + period
        out.append(t)
    return out


def _adversarial_streams(
    workload: str,
    rng: random.Random,
    leaf_itags: Sequence[ImplTag],
    sync_itag: ImplTag,
    *,
    events_per_stream: int,
    n_sync: int,
    payload,
):
    """Leaf + synchronizing streams for one adversarial traffic shape,
    all parameters drawn from the case's seed stream.

    Each family keeps its leaves on a lattice with nonzero fractional
    phases (or, for zipf, on whole periods) and puts the synchronizing
    events on a disjoint phase, so the collision-free total order holds
    by construction — asserted before returning."""
    period = 1.0
    n_streams = len(leaf_itags)
    payload_fn = lambda i: payload()  # noqa: E731
    if workload == "zipf":
        # One arrival process dealt across streams: head streams carry
        # most of the traffic.  Leaves occupy whole-period slots, so
        # the sync stream takes the half-period phase.
        total = events_per_stream * n_streams
        leafs = zipf_streams(
            leaf_itags,
            n_events=total,
            alpha=rng.choice((0.8, 1.1, 1.4)),
            rate_per_ms=1.0 / period,
            seed=rng.randrange(10**6),
            payload_fn=payload_fn,
        )
        sync_phase = period / 2
    elif workload == "flash":
        # The spike hits every source over the same wall-clock window.
        spike_factor = rng.choice((3, 4, 6))
        quantum = period / spike_factor
        span = events_per_stream * period
        spike_start = 1.0 + rng.uniform(0.2, 0.5) * span
        spike_width = rng.uniform(0.1, 0.3) * span
        leafs = {
            itag: flash_crowd_stream(
                itag,
                n_events=events_per_stream,
                base_rate_per_ms=1.0 / period,
                spike_factor=spike_factor,
                spike_start_ms=spike_start,
                spike_width_ms=spike_width,
                offset=(s + 1) * quantum / (n_streams + 2),
                payload_fn=payload_fn,
            )
            for s, itag in enumerate(leaf_itags)
        }
        sync_phase = 0.0
    elif workload == "straggler":
        # One seeded victim pauses mid-stream and trails its peers.
        span = events_per_stream * period
        victim = rng.randrange(n_streams)
        pause_after = rng.randint(1, events_per_stream - 1)
        lag_ms = rng.uniform(0.2, 0.9) * span
        leafs = {}
        for s, itag in enumerate(leaf_itags):
            off = (s + 1) * period / (n_streams + 2)
            if s == victim:
                leafs[itag] = straggler_stream(
                    itag,
                    n_events=events_per_stream,
                    rate_per_ms=1.0 / period,
                    pause_after=pause_after,
                    lag_ms=lag_ms,
                    offset=off,
                    payload_fn=payload_fn,
                )
            else:
                leafs[itag] = uniform_stream(
                    itag,
                    rate_per_ms=1.0 / period,
                    n_events=events_per_stream,
                    offset=off,
                    payload_fn=payload_fn,
                )
        sync_phase = 0.0
    elif workload == "late":
        grid = 8
        quantum = period / grid
        leafs = {
            itag: late_stream(
                itag,
                n_events=events_per_stream,
                rate_per_ms=1.0 / period,
                max_disorder_ms=rng.uniform(1.0, 3.0) * period,
                seed=rng.randrange(10**6),
                grid=grid,
                offset=(s + 1) * quantum / (n_streams + 2),
                payload_fn=payload_fn,
            )
            for s, itag in enumerate(leaf_itags)
        }
        sync_phase = 0.0
    else:
        raise ValueError(
            f"unknown workload {workload!r} (expected one of {WORKLOADS})"
        )
    assert_collision_free(leafs)
    lo = min(e.ts for evs in leafs.values() for e in evs)
    hi = max(e.ts for evs in leafs.values() for e in evs)
    sync_ts = _sync_slots(n_sync, lo, hi, period, sync_phase)
    streams = [
        InputStream(itag, evs, heartbeat_interval=rng.choice((1.0, 2.0, 5.0)))
        for itag, evs in leafs.items()
    ]
    sync_events = tuple(
        Event(sync_itag.tag, sync_itag.stream, t) for t in sync_ts
    )
    streams.append(InputStream(sync_itag, sync_events, heartbeat_interval=2.0))
    return streams, sync_ts


def _sessionize_workload(case: ChaosCase, rng: random.Random):
    """The sessionize app's chaos derivation: a seeded per-key
    activity/flush workload, a rooted plan re-sharded to a seeded
    width.  The flush ticks are the synchronizing events; ``zipf``
    skews the per-key traffic, other adversarial shapes would change
    the app's own semantics (gaps *are* the sessions) and are
    rejected."""
    if case.workload not in ("uniform", "zipf"):
        raise ValueError(
            f"workload {case.workload!r} is not defined for sessionize "
            "(activity gaps are the app's semantics; use uniform or zipf)"
        )
    n_keys = rng.randint(2, 4)
    wl = sz.make_workload(
        n_keys=n_keys,
        events_per_key=rng.randint(8, 24),
        timeout_units=rng.randint(2, 5),
        n_flushes=rng.randint(3, 5),
        seed=rng.randrange(10**6),
        skew_alpha=1.2 if case.workload == "zipf" else None,
    )
    prog = sz.make_program(n_keys, timeout_ms=wl.timeout_ms)
    plan = sz.make_plan(
        prog,
        wl,
        n_shards=rng.randint(2, n_keys),
        shape=rng.choice(("balanced", "chain")),
    )
    streams = sz.make_streams(wl)
    sync_ts = [e.ts for e in wl.flush_stream]
    return prog, streams, plan, sync_ts


def build_fault_schedule(
    case: ChaosCase, streams: Sequence[InputStream], plan: SyncPlan, sync_ts: List[float]
) -> FaultPlan:
    """Derive the case's fault schedule from its seed.

    Crash triggers are placed strictly after the first synchronizing
    event, which guarantees (see module docstring) a checkpoint exists
    whenever the crash fires; drop windows stay below the last event
    timestamp so the closing heartbeat always gets through.
    """
    rng = random.Random(case.seed * 1103515245 % (2**31) + 12345)
    first_sync = sync_ts[0]
    last_ts = max(e.ts for s in streams for e in s.events)
    owners = {s.itag: plan.owner_of(s.itag).id for s in streams}
    leaf_streams = [s for s in streams[:-1]]
    faults: List[Any] = []

    n_crashes = rng.choice((1, 1, 1, 2))
    for _ in range(n_crashes):
        kind = rng.random()
        if kind < 0.4:
            # Timestamp-keyed crash at a random leaf.
            s = rng.choice(leaf_streams)
            t = rng.uniform(first_sync + 0.05, last_ts)
            faults.append(CrashFault(owners[s.itag], at_ts=round(t, 3)))
        elif kind < 0.7:
            # Count-keyed crash at a leaf: fire on one of its events
            # that lies after the first synchronizing event.
            s = rng.choice(leaf_streams)
            late = [i for i, e in enumerate(s.events) if e.ts > first_sync]
            if not late:
                continue
            nth = rng.choice(late) + 1
            faults.append(CrashFault(owners[s.itag], after_events=nth))
        else:
            # Root crash on a synchronizing event after the first.
            nth = rng.randint(2, len(sync_ts))
            faults.append(CrashFault(plan.root.id, after_events=nth))

    n_drops = rng.choice((0, 1, 1, 2))
    workers = [n.id for n in plan.workers()]
    for _ in range(n_drops):
        faults.append(
            DropHeartbeats(
                rng.choice(workers),
                before_ts=round(rng.uniform(0.3, 0.95) * last_ts, 3),
                count=rng.choice((None, 1, 3, 8)),
            )
        )
    return FaultPlan(*faults)


def build_reconfig_schedule(
    case: ChaosCase, streams: Sequence[InputStream], plan: SyncPlan,
    sync_ts: List[float], prog: DGSProgram,
) -> ReconfigSchedule:
    """Derive the case's reconfiguration schedule from its seed.

    One or two planned points; triggers sit on root joins between the
    first and last synchronizing events (timestamp- or join-count
    keyed, mirroring the crash triggers), and each target repartitions
    to a seeded leaf width in ``[1, max useful width]``.  A point that
    narrows to width 1 leaves any later point inert (a single worker
    never joins) — the sweep keeps such schedules: the execution must
    still be spec-identical."""
    rng = random.Random(case.seed * 69069 % (2**31) + 7)
    n_points = rng.choice((1, 1, 2))
    ceiling = max_width(prog, plan)
    points = []
    # Trigger anchors are strictly increasing so two points cannot aim
    # at the same root join.
    joins_used = 0
    for p in range(n_points):
        widths = [w for w in range(1, ceiling + 1) if w != plan_width(plan)] or [1]
        to_leaves = rng.choice(widths)
        shape = rng.choice(("balanced", "chain"))
        if rng.random() < 0.5 and len(sync_ts) >= 2:
            lo = sync_ts[0] if p == 0 else sync_ts[len(sync_ts) // 2]
            t = rng.uniform(lo + 0.01, sync_ts[-1])
            points.append(
                ReconfigPoint(at_ts=round(t, 3), to_leaves=to_leaves, shape=shape)
            )
        else:
            joins_used = rng.randint(joins_used + 1, joins_used + 2)
            points.append(
                ReconfigPoint(
                    after_joins=joins_used, to_leaves=to_leaves, shape=shape
                )
            )
    return ReconfigSchedule(*points)


@dataclass(frozen=True)
class ServiceScript:
    """A ``service`` case's ingest: the frames in arrival order, the
    frame indices the service seals before (the final seal follows the
    last frame), and the one fault or reconfiguration point armed."""

    frames: List[List[Event]]
    seal_before: List[int]
    fault_plan: Optional[FaultPlan]
    schedule: Optional[ReconfigSchedule]


def build_service_script(
    case: ChaosCase, streams: Sequence[InputStream], plan: SyncPlan, prog: DGSProgram
) -> ServiceScript:
    """Derive a ``service`` case's ingest from its seed.

    The workload arrives in its order (every stream stays monotone, so
    admission rejects nothing), cut into frames where the timestamp
    rises — a seal there leaves no later event at or below the floor.
    Seals go before seeded frames.  Then one seal other than the final
    one is picked, and the trigger is armed on an event it seals: a
    crash of that event's owner at its timestamp, or — when the window
    holds a root event — a re-plan at that root join.  Both are
    timestamp-keyed, so the trigger fires during that seal's step on
    every substrate, open attempt or one per seal."""
    rng = random.Random(case.seed * 40503 % (2**31) + 11)
    events = sorted((e for s in streams for e in s.events), key=lambda e: e.order_key)
    rises = [i for i in range(1, len(events)) if events[i].ts > events[i - 1].ts]
    cuts = sorted(rng.sample(rises, min(len(rises), rng.randint(4, 10))))
    bounds = [0, *cuts, len(events)]
    frames = [events[a:b] for a, b in zip(bounds, bounds[1:])]
    seal_before = sorted(rng.sample(range(1, len(frames)), rng.randint(1, min(4, len(frames) - 1))))

    # The frames a non-final seal takes: those before it, after the last one.
    k = rng.randrange(len(seal_before))
    lo = seal_before[k - 1] if k else 0
    window = [e for f in frames[lo : seal_before[k]] for e in f]
    roots = [e for e in window if e.itag in plan.root.itags]
    if roots and rng.random() < 0.5:
        widths = [w for w in range(1, max_width(prog, plan) + 1) if w != plan_width(plan)] or [1]
        point = ReconfigPoint(
            at_ts=rng.choice(roots).ts,
            to_leaves=rng.choice(widths),
            shape=rng.choice(("balanced", "chain")),
        )
        return ServiceScript(frames, seal_before, None, ReconfigSchedule(point))
    victim = rng.choice(window)
    crash = CrashFault(plan.owner_of(victim.itag).id, at_ts=victim.ts)
    return ServiceScript(frames, seal_before, FaultPlan(crash), None)


def _run_service_case(case: ChaosCase, options: RunOptions) -> ChaosOutcome:
    """Drive a ``service`` case through the TCP tier's codec:
    ``ingest_events_frame`` → ``parse_frame(runs=True)`` →
    ``offer_batch``, one frame at a time, sealing where the script
    says; the committed log must be the spec of the admitted events,
    and the script admits them all."""
    prog, streams, plan, _sync_ts = build_workload(case)
    script = build_service_script(case, streams, plan, prog)
    options.fault_plan = script.fault_plan
    options.reconfig_schedule = script.schedule
    svc = ServiceRuntime(
        prog,
        plan,
        options=ServeOptions(backend=case.backend, run=options, ingest_high_watermark=1 << 30),
    )
    admitted: List[Event] = []
    for i, frame in enumerate(script.frames):
        if i in script.seal_before:
            svc.run_epoch()
        _kind, msgs = parse_frame(ingest_events_frame(frame)[4:], runs=True)
        if svc.offer_batch([m if type(m) is EventRun else m.event for m in msgs]) == {
            ADMITTED: len(frame)
        }:
            admitted.extend(frame)
    svc.finish()
    counters = svc.counters
    mismatch = compare_outputs(spec_outputs(prog, admitted), svc.committed, case.case_id)
    if mismatch is None and counters.rejected:
        mismatch = Mismatch(f"{case.case_id} admission", Counter(counters.rejected), Counter())
    # A service counts its recoveries and migrations, not the
    # checkpoints and replays behind them: those two read 0 here.
    return ChaosOutcome(
        case=case,
        ok=mismatch is None,
        mismatch=mismatch,
        attempts=counters.attempts,
        crashes=counters.crashes_recovered,
        drops_scheduled=0,
        checkpoints_taken=0,
        replayed_events=0,
        reconfigs=counters.reconfigurations,
        plan_widths=tuple(plan_width(p) for p in svc.plan_history),
        metrics=svc.metrics,
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _metrics_mismatch(case: ChaosCase, run: Any) -> Optional[Mismatch]:
    """The metrics plane against the protocol's own counts: summed over
    workers, and merged across attempts (crashed ones included), the
    workers' ``events_processed`` and ``joins_completed`` must be the
    run's events processed and joins."""
    merged = run.metrics.merged()
    have = Counter(events=merged.events_processed, joins=merged.joins_completed)
    want = Counter(events=run.events_processed, joins=run.joins)
    if have == want:
        return None
    return Mismatch(f"{case.case_id} metrics", want - have, have - want)


def run_chaos_case(
    case: ChaosCase,
    *,
    timeout_s: float = 60.0,
    transport: Optional[str] = None,
    nodes: Optional[int] = None,
    metrics: bool = False,
) -> ChaosOutcome:
    """Run one case; ``transport``/``nodes`` select the process
    backend's data plane (ignored by the threaded backend) without
    entering the case derivation — see the module docstring.
    ``metrics=True`` arms the per-worker metrics plane: the outcome
    then carries the run's merged per-attempt :class:`RunMetrics`, and
    metrics that disagree with the run's event and join counts are a
    mismatch (:func:`_metrics_mismatch`)."""
    options = RunOptions(
        checkpoint_predicate=every_root_join(),
        timeout_s=timeout_s,
        transport=transport,
        nodes=nodes,
        metrics=metrics,
    )
    if case.mode == "service":
        return _run_service_case(case, options)
    prog, streams, plan, sync_ts = build_workload(case)
    if case.mode in ("faults", "reconfig-crash"):
        options.fault_plan = build_fault_schedule(case, streams, plan, sync_ts)
    if case.mode in ("reconfig", "reconfig-crash"):
        options.reconfig_schedule = build_reconfig_schedule(
            case, streams, plan, sync_ts, prog
        )
    n_drops = sum(
        1
        for f in (options.fault_plan.faults if options.fault_plan is not None else ())
        if isinstance(f, DropHeartbeats)
    )
    run = run_on_backend(case.backend, prog, plan, streams, options=options)
    reference = run_sequential_reference(prog, streams)
    mismatch = compare_outputs(reference, run.outputs, case.case_id)
    if mismatch is None and metrics:
        mismatch = _metrics_mismatch(case, run)
    rec = run.reconfig if run.reconfig is not None else run.recovery
    widths = ()
    if run.reconfig is not None:
        widths = tuple(plan_width(p) for p in run.reconfig.plan_history)
    return ChaosOutcome(
        case=case,
        ok=mismatch is None,
        mismatch=mismatch,
        attempts=rec.attempts,
        crashes=len(rec.crashes),
        drops_scheduled=n_drops,
        checkpoints_taken=rec.checkpoints_taken,
        replayed_events=rec.replayed_events,
        reconfigs=(
            len(run.reconfig.reconfigurations) if run.reconfig is not None else 0
        ),
        plan_widths=widths,
        metrics=run.metrics,
    )


def generate_cases(
    *,
    seed: int = 0,
    n_cases: int = 50,
    backends: Sequence[str] = ("threaded", "process"),
    apps: Sequence[str] = APPS,
    modes: Sequence[str] = ("faults",),
    workloads: Sequence[str] = ("uniform",),
) -> List[ChaosCase]:
    """``n_cases`` seeded scenarios, spread round-robin over backends,
    apps, modes, and workloads; the per-case seed stream is itself
    derived from ``seed`` so the whole sweep reproduces from one
    integer.  The default single-mode uniform sweep generates exactly
    the PR-2 case ids."""
    rng = random.Random(seed)
    cases = []
    stride = len(apps) * len(backends)
    for i in range(n_cases):
        cases.append(
            ChaosCase(
                app=apps[i % len(apps)],
                backend=backends[(i // len(apps)) % len(backends)],
                seed=rng.randrange(10**6),
                mode=modes[(i // stride) % len(modes)],
                workload=workloads[(i // (stride * len(modes))) % len(workloads)],
            )
        )
    return cases


@dataclass
class ChaosSummary:
    outcomes: List[ChaosOutcome]
    #: The sweep-level data plane ("pipe"/"queue"/"tcp"; None = the
    #: backend default) and node-agent count (None = per-worker
    #: processes) the process-backend cases ran on.
    transport: Optional[str] = None
    nodes: Optional[int] = None

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> List[ChaosOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def describe(self) -> str:
        n = len(self.outcomes)
        plane = ""
        if self.transport is not None or self.nodes is not None:
            plane = (
                f", data plane: transport={self.transport or 'default'}"
                + (f" x {self.nodes} node agent(s)" if self.nodes else "")
            )
        recovered = sum(1 for o in self.outcomes if o.recovered)
        crashes = sum(o.crashes for o in self.outcomes)
        replayed = sum(o.replayed_events for o in self.outcomes)
        reconfigured = sum(1 for o in self.outcomes if o.reconfigured)
        migrations = sum(o.reconfigs for o in self.outcomes)
        by_backend: Dict[str, int] = {}
        for o in self.outcomes:
            by_backend[o.case.backend] = by_backend.get(o.case.backend, 0) + 1
        lines = [
            f"chaos sweep: {n} cases "
            f"({', '.join(f'{b}: {c}' for b, c in sorted(by_backend.items()))})"
            f"{plane}",
            f"  crashed+recovered: {recovered} cases, {crashes} injected crashes, "
            f"{replayed} events replayed",
            f"  reconfigured: {reconfigured} cases, {migrations} plan migrations",
            f"  checkpoints taken: {sum(o.checkpoints_taken for o in self.outcomes)}",
            f"  result: {'OK' if self.ok else f'{len(self.failures)} FAILURES'}",
        ]
        for o in self.failures:
            lines.append(f"  FAIL {o.case.case_id}: {o.mismatch}")
        return "\n".join(lines)

    def metrics_record(self) -> Dict[str, Any]:
        """Machine-readable sweep metrics, one snapshot per case plus
        sweep-level totals — what the nightly CI job uploads as an
        artifact so fault/recovery behaviour is trendable over time.

        Each case's entry pairs the recovery/reconfig ledger with the
        run's merged per-attempt :class:`RunMetrics` (``"metrics"``,
        via ``to_json()``) when the sweep ran with the metrics plane
        armed — ``--metrics-out`` arms it — so latency/backlog under
        injected faults and migrations is trendable, not just the
        attempt counts."""
        return {
            "schema": 1,
            "kind": "chaos_metrics",
            "transport": self.transport,
            "nodes": self.nodes,
            "totals": {
                "cases": len(self.outcomes),
                "failures": len(self.failures),
                "crashes": sum(o.crashes for o in self.outcomes),
                "replayed_events": sum(
                    o.replayed_events for o in self.outcomes
                ),
                "checkpoints_taken": sum(
                    o.checkpoints_taken for o in self.outcomes
                ),
                "reconfigs": sum(o.reconfigs for o in self.outcomes),
            },
            "cases": [
                {
                    "case_id": o.case.case_id,
                    "backend": o.case.backend,
                    "app": o.case.app,
                    "mode": o.case.mode,
                    "workload": o.case.workload,
                    "ok": o.ok,
                    "attempts": o.attempts,
                    "crashes": o.crashes,
                    "drops_scheduled": o.drops_scheduled,
                    "checkpoints_taken": o.checkpoints_taken,
                    "replayed_events": o.replayed_events,
                    "reconfigs": o.reconfigs,
                    "plan_widths": list(o.plan_widths),
                    "metrics": (
                        o.metrics.to_json() if o.metrics is not None else None
                    ),
                }
                for o in self.outcomes
            ],
        }

    def write_metrics(self, directory: str) -> str:
        """Write :meth:`metrics_record` as JSON under ``directory``;
        returns the written path."""
        import json
        import os

        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "chaos_metrics.json")
        with open(path, "w") as f:
            json.dump(self.metrics_record(), f, indent=2, sort_keys=True)
            f.write("\n")
        return path


def run_chaos_suite(
    *,
    seed: int = 0,
    n_cases: int = 50,
    backends: Sequence[str] = ("threaded", "process"),
    apps: Sequence[str] = APPS,
    modes: Sequence[str] = ("faults",),
    workloads: Sequence[str] = ("uniform",),
    only: Optional[str] = None,
    timeout_s: float = 60.0,
    transport: Optional[str] = None,
    nodes: Optional[int] = None,
    metrics: bool = False,
) -> ChaosSummary:
    cases = generate_cases(
        seed=seed,
        n_cases=n_cases,
        backends=backends,
        apps=apps,
        modes=modes,
        workloads=workloads,
    )
    if only is not None:
        cases = [c for c in cases if c.case_id == only]
        if not cases:
            raise SystemExit(f"no case {only!r} in this sweep (seed={seed})")
    return ChaosSummary(
        [
            run_chaos_case(
                c,
                timeout_s=timeout_s,
                transport=transport,
                nodes=nodes,
                metrics=metrics,
            )
            for c in cases
        ],
        transport=transport,
        nodes=nodes,
    )


def _main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="seeded fault-injection sweep, verified against the sequential spec",
    )
    ap.add_argument("--seed", type=int, default=0, help="sweep seed (default 0)")
    ap.add_argument(
        "--cases", type=int, default=None,
        help="number of cases (default 50, or 12 under --smoke)",
    )
    ap.add_argument(
        "--backends",
        default="threaded,process",
        help="comma-separated runtime backends (default threaded,process)",
    )
    ap.add_argument(
        "--apps",
        default=",".join(APPS),
        help=(
            "comma-separated applications from "
            f"{','.join(CHAOS_APPS)} (default {','.join(APPS)})"
        ),
    )
    ap.add_argument(
        "--modes",
        default="faults",
        help=(
            "comma-separated scenario families from "
            f"{','.join(MODES)} (default faults)"
        ),
    )
    ap.add_argument(
        "--workloads",
        "--workload",
        default="uniform",
        help=(
            "comma-separated traffic shapes from "
            f"{','.join(WORKLOADS)} (default uniform)"
        ),
    )
    ap.add_argument(
        "--only", default=None, metavar="CASE_ID",
        help="re-run a single case id from the sweep (reproduces a failure)",
    )
    ap.add_argument(
        "--transport", default=None, choices=("pipe", "queue", "tcp", "shm"),
        help="process-backend data plane (default: the backend default, pipe)",
    )
    ap.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="deploy process-backend cases across N local node agents "
        "over TCP (implies --transport tcp semantics; see "
        "repro.runtime.cluster)",
    )
    ap.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweep (12 cases) unless --cases is given explicitly",
    )
    ap.add_argument(
        "--metrics-out", default=None, metavar="DIR",
        help="arm the per-worker metrics plane and write a "
        "machine-readable chaos_metrics.json snapshot of the sweep "
        "(per-case recovery/reconfig counters plus each case's merged "
        "per-attempt RunMetrics) under DIR — uploaded as an artifact "
        "by the nightly CI job",
    )
    args = ap.parse_args(argv)
    n_cases = args.cases
    if n_cases is None:
        n_cases = 12 if args.smoke else 50
    if args.nodes is not None and args.transport not in (None, "tcp"):
        ap.error("--nodes deploys over TCP; drop --transport or use tcp")
    summary = run_chaos_suite(
        seed=args.seed,
        n_cases=n_cases,
        backends=tuple(args.backends.split(",")),
        apps=tuple(args.apps.split(",")),
        modes=tuple(args.modes.split(",")),
        workloads=tuple(args.workloads.split(",")),
        only=args.only,
        transport=args.transport,
        nodes=args.nodes,
        metrics=args.metrics_out is not None,
    )
    print(summary.describe())
    if args.metrics_out is not None:
        print(f"metrics snapshot: {summary.write_metrics(args.metrics_out)}")
    return 0 if summary.ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(_main())

"""The restart driver, and elastic reconfiguration: live re-planning
at consistent snapshots.

:class:`RestartDriver` is the one restore-and-replay loop: closed runs
(:func:`run_with_reconfig`) take one final step of it, the service
tier (:mod:`repro.serve`) one step per seal, on an attempt the driver
keeps open between clean steps where the substrate can.

Crash recovery (:mod:`repro.runtime.recovery`) restores a *past* root
snapshot into the *same* plan; reconfiguration uses the same mechanism
forward: quiesce the runtime at the next root join — where the joined
state **is** a consistent snapshot of the whole computation (Appendix
D.2) — commit the sequential prefix of the output log, migrate the
snapshot into a **different** plan by forking it down the new tree
with the program's own declared fork primitives, and replay the input
suffix there.  Output across the transition is exactly-once and
multiset-equal to the sequential specification, by the same Theorem
2.4 argument the recovery driver leans on (the snapshot must be a
timestamp-prefix state: :func:`assert_recovery_sound` on every plan in
the sequence).

A :class:`ReconfigSchedule` mirrors :class:`~repro.runtime.faults
.FaultPlan`: a seeded, declarative list of :class:`ReconfigPoint`\\ s
(trigger + target shape), honored identically by the sim, threaded,
and process substrates because the quiesce trigger lives inside the
worker state machines (:mod:`repro.runtime.quiesce`).  Optionally an
:class:`AutoScaler` adds load-driven elasticity: leaves piggyback
their queue depth on join responses, and the root quiesces when the
cluster-wide backlog crosses a watermark; the policy then widens or
narrows the plan by its scaling factor.

Reconfiguration composes with fault injection: a crash during a
reconfigured execution recovers *into the current plan shape* — the
driver restores the latest checkpoint taken since the last migration
(falling back to the migration boundary snapshot itself, which is a
checkpoint by construction) and replays on the plan that was active
when the crash hit.  A planned point interrupted by a crash is not
marked fired and triggers again during the replay.

Worked end-to-end by ``examples/elastic_scaling.py``; measured by
:func:`repro.bench.harness.measure_reconfig_pause`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..core.program import DGSProgram
from ..plans.morph import max_width, plan_width, repartition_plan
from ..plans.plan import SyncPlan
from ..plans.validity import assert_reconfig_compatible
from .checkpoint import Checkpoint
from .faults import CrashRecord, FaultPlan
from .protocol import INIT_STATE, AttemptOutcome, RunStatsMixin
from .quiesce import (
    PointTrigger,
    QuiesceRecord,
    RootReconfigView,
    SCALE_IN,
    SCALE_OUT,
    WatermarkTrigger,
)
from .recovery import (
    RecoveryStep,
    ReplayLog,
    _stamp_run_metrics,
    assert_recovery_sound,
    restart_from_crash,
)
from .runtime import InputStream


@dataclass(frozen=True)
class ReconfigPoint:
    """One planned reconfiguration: when to quiesce, what to become.

    Exactly one trigger must be set — ``at_ts`` (fire at the first
    root join whose triggering event has timestamp ``>= at_ts``; stable
    across crash-recovery replays) or ``after_joins`` (fire at the
    attempt's n-th root join, 1-based) — and exactly one target:
    ``to_leaves`` (repartition to that leaf width via
    :func:`~repro.plans.morph.repartition_plan`) or ``to_plan`` (an
    explicit target plan, checked for compatibility at migration
    time).

    Note a plan narrowed to ``to_leaves=1`` is a single worker with no
    root joins — it cannot quiesce again, so later points are inert.
    """

    at_ts: Optional[float] = None
    after_joins: Optional[int] = None
    to_leaves: Optional[int] = None
    to_plan: Optional[SyncPlan] = None
    shape: str = "balanced"

    def __post_init__(self) -> None:
        if (self.at_ts is None) == (self.after_joins is None):
            raise ValueError(
                "ReconfigPoint needs exactly one of at_ts= / after_joins="
            )
        if self.after_joins is not None and self.after_joins < 1:
            raise ValueError("after_joins must be >= 1")
        if (self.to_leaves is None) == (self.to_plan is None):
            raise ValueError(
                "ReconfigPoint needs exactly one of to_leaves= / to_plan="
            )
        if self.to_leaves is not None and self.to_leaves < 1:
            raise ValueError("to_leaves must be >= 1")


@dataclass(frozen=True)
class AutoScaler:
    """Queue-depth-threshold elasticity policy.

    At every root join the root observes the cluster-wide queue depth
    (summed leaf backlogs piggybacked on join responses, see
    :mod:`repro.runtime.quiesce`).  Depth ``>= high_watermark`` scales
    *out* (leaf width × ``factor``); depth ``<= low_watermark`` scales
    *in* (width ÷ ``factor``).  Width is clamped to ``[min_leaves,
    min(max_leaves, program's max useful width)]`` — a decision that
    would not change the width is suppressed (no quiesce, no pause).

    ``cooldown_joins`` root joins must complete after each migration
    before the next decision, and at most ``max_reconfigs`` scaling
    steps fire per execution (both keep a bursty workload from
    thrashing the cluster through plan churn)."""

    high_watermark: Optional[int] = None
    low_watermark: Optional[int] = None
    factor: int = 2
    min_leaves: int = 1
    max_leaves: Optional[int] = None
    cooldown_joins: int = 1
    max_reconfigs: int = 4
    shape: str = "balanced"

    def __post_init__(self) -> None:
        if self.high_watermark is None and self.low_watermark is None:
            raise ValueError("AutoScaler needs high_watermark= or low_watermark=")
        if self.factor < 2:
            raise ValueError("factor must be >= 2")
        if self.min_leaves < 1:
            raise ValueError("min_leaves must be >= 1")
        if self.max_reconfigs < 1:
            raise ValueError("max_reconfigs must be >= 1")

    def target_width(self, reason: str, current: int, ceiling: int) -> int:
        hi = min(self.max_leaves, ceiling) if self.max_leaves else ceiling
        hi = max(hi, self.min_leaves)
        if reason == SCALE_OUT:
            return min(current * self.factor, hi)
        if reason == SCALE_IN:
            return max(current // self.factor, self.min_leaves)
        raise ValueError(f"unknown scaling reason {reason!r}")


class ReconfigSchedule:
    """A schedule of planned reconfiguration points, optionally plus an
    auto-scaler — the elastic analogue of a
    :class:`~repro.runtime.faults.FaultPlan`.

    Pure declarative data: which points have fired (each fires exactly
    once per execution; the auto-scaler up to its ``max_reconfigs``)
    is tracked by the driver, so one schedule can be reused across
    runs and backends."""

    def __init__(
        self, *points: ReconfigPoint, autoscaler: Optional[AutoScaler] = None
    ) -> None:
        self.points: Tuple[ReconfigPoint, ...] = tuple(points)
        self.autoscaler = autoscaler
        if not self.points and autoscaler is None:
            raise ValueError(
                "ReconfigSchedule needs at least one ReconfigPoint or an autoscaler="
            )

    def root_view(
        self,
        worker: str,
        *,
        width: int = 0,
        ceiling: int = 0,
        fired: frozenset = frozenset(),
        autoscale_spent: int = 0,
    ) -> Optional[RootReconfigView]:
        """A fresh per-attempt view for the current plan's root: the
        planned triggers not in ``fired`` plus the watermarks while the
        auto-scaler has budget left after ``autoscale_spent`` firings.
        A watermark whose decision could not move the current ``width``
        in its own direction (already at the ``ceiling``/floor, or a
        clamp inversion) is disarmed, so the run never pauses for a
        no-op or wrong-way migration.  None once everything is spent
        (the final attempt then runs with no quiesce hook at all)."""
        triggers = [
            PointTrigger(i, p.at_ts, p.after_joins)
            for i, p in enumerate(self.points)
            if i not in fired
        ]
        watermarks = None
        auto = self.autoscaler
        if auto is not None and autoscale_spent < auto.max_reconfigs:
            high = auto.high_watermark
            low = auto.low_watermark
            if width:
                # Disarm any decision that would not move the width in
                # its own direction — including clamp inversions (e.g.
                # already above max_leaves: "scale out" must not fire a
                # migration that *shrinks* the plan).
                if high is not None and auto.target_width(SCALE_OUT, width, ceiling) <= width:
                    high = None
                if low is not None and auto.target_width(SCALE_IN, width, ceiling) >= width:
                    low = None
            if high is not None or low is not None:
                watermarks = WatermarkTrigger(high, low, auto.cooldown_joins)
        if not triggers and watermarks is None:
            return None
        return RootReconfigView(worker, triggers, watermarks)

    def target_plan(
        self, record: QuiesceRecord, current: SyncPlan, program: DGSProgram
    ) -> SyncPlan:
        """The plan to migrate into for a quiesce that just fired."""
        if record.point_index >= 0:
            point = self.points[record.point_index]
            if point.to_plan is not None:
                return point.to_plan
            return repartition_plan(
                program,
                current,
                point.to_leaves,
                shape=point.shape,
                # Preserve a custom root state type across the
                # migration (R2: the snapshot is a value of it).
                state_type=current.root.state_type,
            )
        assert self.autoscaler is not None
        width = self.autoscaler.target_width(
            record.reason, plan_width(current), max_width(program, current)
        )
        return repartition_plan(
            program,
            current,
            width,
            shape=self.autoscaler.shape,
            state_type=current.root.state_type,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        auto = f", autoscaler={self.autoscaler!r}" if self.autoscaler else ""
        return f"ReconfigSchedule({len(self.points)} points{auto})"


@dataclass(frozen=True)
class ReconfigStep:
    """One completed migration between plans."""

    attempt: int
    reason: str
    key: tuple
    ts: float
    from_leaves: int
    to_leaves: int
    queue_depth: int
    #: Driver-side migration pause: suffix computation + target-plan
    #: construction + compatibility checks.  Worker restart and suffix
    #: replay are part of the next attempt's wall time — see
    #: measure_reconfig_pause for the end-to-end cost.
    pause_s: float


@dataclass(frozen=True)
class PhaseRecord:
    """One attempt's worth of processing on a fixed plan shape (only
    attempts ending in a quiesce or in completion — crashed attempts
    are recorded as recoveries instead)."""

    attempt: int
    leaves: int
    events_processed: int
    joins: int
    wall_s: float
    #: The phase's RunMetrics when the metrics plane was on — the
    #: per-shape load/latency signal metrics-driven scaling reads
    #: (each phase has its own latency epoch); None otherwise.
    metrics: Any = None

    @property
    def throughput_events_per_s(self) -> float:
        return self.events_processed / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class ReconfiguredRun(RunStatsMixin):
    """The one multi-attempt report: what a :class:`RestartDriver`
    step ran — one or more plan phases, possibly interleaved with
    crash recoveries (a fault-free, schedule-free run is one phase)."""

    #: Every output the step committed, in commit order.
    outputs: List[Any] = field(default_factory=list)
    events_in: int = 0
    events_processed: int = 0
    joins: int = 0
    wall_s: float = 0.0
    attempts: int = 0
    crashes: List[CrashRecord] = field(default_factory=list)
    recoveries: List[RecoveryStep] = field(default_factory=list)
    checkpoints_taken: int = 0
    reconfigurations: List[ReconfigStep] = field(default_factory=list)
    phases: List[PhaseRecord] = field(default_factory=list)
    #: Every plan shape the step ran through, its first one first.
    plan_history: List[SyncPlan] = field(default_factory=list)
    #: One RunMetrics per attempt that reported metrics — crashed
    #: attempts included (phases cover only clean attempts), in attempt
    #: order; empty when the metrics plane was off.
    attempt_metrics: List[Any] = field(default_factory=list)
    #: Whole-run merge of attempt_metrics with the recovery and
    #: elasticity counters stamped; None when the plane was off.
    metrics: Any = None

    @property
    def recovered(self) -> bool:
        return bool(self.recoveries)

    @property
    def reconfigured(self) -> bool:
        return bool(self.reconfigurations)

    @property
    def replayed_events(self) -> int:
        return sum(r.replayed_events for r in self.recoveries)

    @property
    def final_plan(self) -> SyncPlan:
        return self.plan_history[-1]


#: (plan, streams, *, initial_state, reconfig_view) -> AttemptOutcome:
#: :meth:`~repro.runtime.RuntimeBackend.attempt` with the program and
#: the options (fault plan, checkpoint predicate) already bound.
AttemptFn = Callable[..., AttemptOutcome]

#: (plan, *, initial_state, reconfig_view) -> an attempt to feed and
#: seal (see :class:`RestartDriver`):
#: :meth:`~repro.runtime.RuntimeBackend.open_attempt` with the program
#: and the options already bound.
OpenAttemptFn = Callable[..., Any]

#: (values, checkpoint) -> None: receives each committed output prefix
#: with the snapshot it is the prefix of (None: a final step's
#: commit-everything).
CommitFn = Callable[[List[Any], Optional[Checkpoint]], None]


class AttemptPerSeal:
    """An attempt on a substrate that cannot ship outputs without ending
    it: what it was posted runs whole, as one closed attempt (``run``,
    taking the input streams), at the seal — and then it is over."""

    #: Never kept open across steps.
    live = False

    def __init__(self, run: Callable[[List[InputStream]], AttemptOutcome]) -> None:
        self._run = run
        self._streams: List[InputStream] = []

    def post(self, log: ReplayLog) -> None:
        self._streams = log.streams()

    def seal(self, *, final: bool) -> AttemptOutcome:
        return self._run(self._streams)


class RestartDriver:
    """The restore-and-replay loop, once, for closed runs and the
    service tier alike.

    Owns what survives between attempts: the current ``plan``, the
    ``restore`` point (a :class:`Checkpoint` — a root-join snapshot or a
    migration boundary; None before the first one), the ``pending``
    input suffix above it (a :class:`ReplayLog`), the attempt a clean
    step left open, and the schedule's firing bookkeeping (each planned
    point fires once, the auto-scaler up to its budget; crash faults are
    marked fired on the fault plan itself).

    Attempts come from ``open_attempt(plan, *, initial_state,
    reconfig_view)`` and take three calls: ``post(log)`` hands one
    events, ``seal(final=...)`` runs what it holds — to full drain when
    ``final`` — and returns the :class:`AttemptOutcome` of what it has
    not reported or committed yet, and ``commit(key)`` tells it that its
    outputs at or below ``key`` are committed.  An attempt whose
    ``live`` is still true after a clean, non-final seal stays open for
    the next step, which posts it only the newly sealed events (the
    in-process substrate's); any other ends with its seal
    (:class:`AttemptPerSeal`).

    Its one operation is :meth:`step`.  A caller that always has a
    sound restore point — the service's empty prefix — seeds
    ``restore``; without one, a crash before the first snapshot raises
    :class:`~repro.core.errors.NoCheckpointError`.
    """

    def __init__(
        self,
        open_attempt: OpenAttemptFn,
        program: DGSProgram,
        plan: SyncPlan,
        *,
        schedule: Optional[ReconfigSchedule] = None,
        fault_plan: Optional[FaultPlan] = None,
        restore: Optional[Checkpoint] = None,
    ) -> None:
        self._open_attempt = open_attempt
        self.program = program
        self.plan = plan
        self.schedule = schedule
        self.fault_plan = fault_plan
        self.restore = restore
        self.pending: Optional[ReplayLog] = None
        self._live: Any = None
        # Firing bookkeeping is driver-local so the schedule itself
        # stays reusable pure data (one schedule, many runs/backends).
        self._fired: set = set()
        self._autoscale_spent = 0
        self._assert_sound(plan)

    def _assert_sound(self, plan: SyncPlan) -> None:
        """Committing by snapshot prefix needs every multi-worker
        plan's root snapshots to be timestamp-prefix states; a single
        worker takes no snapshots at all (it replays its whole phase
        from the boundary), so any program is safe on it.  Executions
        that can never restore — no schedule, no seed, no crash faults
        — run unchecked."""
        fp = self.fault_plan
        if (
            self.schedule is not None
            or self.restore is not None
            or (fp is not None and fp.has_crash_faults())
        ) and len(plan.workers()) > 1:
            assert_recovery_sound(plan, self.program)

    def _attempt_budget(self) -> int:
        # Every unfired crash fault and planned point fires at most
        # once and the auto-scaler is budgeted, so attempts per step
        # are bounded by construction; the cap is a backstop.
        budget = 2
        if self.fault_plan is not None:
            budget += len(set(self.fault_plan.crash_indices()) - self.fault_plan.fired)
        if self.schedule is not None:
            budget += len(self.schedule.points) - len(self._fired)
            if self.schedule.autoscaler is not None:
                budget += self.schedule.autoscaler.max_reconfigs - self._autoscale_spent
        return budget

    def _root_view(self) -> Optional[RootReconfigView]:
        """The next attempt's quiesce hook: what of the schedule has
        not fired yet."""
        if self.schedule is None:
            return None
        return self.schedule.root_view(
            self.plan.root.id,
            width=plan_width(self.plan),
            ceiling=max_width(self.program, self.plan),
            fired=self._fired,
            autoscale_spent=self._autoscale_spent,
        )

    def _advance(self, out: AttemptOutcome, ckpt: Checkpoint, commit: CommitFn) -> None:
        """Make ``ckpt`` the restore point: keep the input suffix above
        its key pending and commit the attempt's outputs at or below it
        (the sequential prefix's, see :mod:`repro.runtime.recovery`)."""
        self.restore = ckpt
        self.pending.drop_through(ckpt.key)
        commit([v for k, v in out.keyed_outputs if k <= ckpt.key], ckpt)

    def step(self, sealed: ReplayLog, commit: CommitFn, *, final: bool) -> ReconfiguredRun:
        """Run the pending suffix extended by ``sealed`` to the next
        commit boundary, recovering crashes (into the then-current plan
        shape) and applying migrations on the way; every committed
        prefix goes to ``commit`` as it is established.  A ``final``
        step runs to full drain and commits everything; any other
        commits up to the newest snapshot and leaves the rest pending
        for the next step.

        The attempt left open by the previous step is posted only
        ``sealed``; a crash or a quiesce ends it, and the next attempt
        — opened from the restore point, on the migrated plan after a
        quiesce — is posted the whole pending suffix first.
        ``attempts`` on the result counts the attempts this step
        opened."""
        if self.pending is None:
            self.pending = ReplayLog(sealed.heads, [[] for _ in sealed.heads])
        self.pending.extend(sealed)
        run = ReconfiguredRun(plan_history=[self.plan], events_in=len(self.pending))

        def committing(values: List[Any], ckpt: Optional[Checkpoint]) -> None:
            run.outputs.extend(values)
            commit(values, ckpt)

        budget = self._attempt_budget()
        fresh = sealed
        while True:
            attempt, self._live = self._live, None
            if attempt is None:
                if run.attempts == budget:
                    raise RuntimeFault(
                        f"execution did not converge after {run.attempts} attempts "
                        "(each crash fault and planned point fires once and the "
                        "auto-scaler is budgeted, so this indicates a driver bug)"
                    )
                attempt = self._open_attempt(
                    self.plan,
                    initial_state=(
                        self.restore.state if self.restore is not None else INIT_STATE
                    ),
                    reconfig_view=self._root_view(),
                )
                run.attempts += 1
                fresh = self.pending
            attempt.post(fresh)
            out = attempt.seal(final=final)
            run.checkpoints_taken += len(out.checkpoints)
            run.events_processed += out.events_processed
            run.joins += out.joins
            run.wall_s += out.wall_s
            if out.metrics is not None:
                run.attempt_metrics.append(out.metrics)

            if out.crashes:
                # Crash wins over a racing quiesce: the interrupted
                # point is not marked fired and triggers again on the
                # replay.
                run.crashes.extend(out.crashes)
                if self.fault_plan is not None:
                    for crash in out.crashes:
                        self.fault_plan.mark_fired(crash.fault_index)
                ckpt = restart_from_crash(out, self.restore)
                if ckpt is not self.restore:
                    self._advance(out, ckpt, committing)
                run.recoveries.append(
                    RecoveryStep(
                        attempt=run.attempts,
                        crashed_workers=tuple(sorted({c.worker for c in out.crashes})),
                        resumed_from_ts=ckpt.ts,
                        replayed_events=len(self.pending),
                    )
                )
                continue

            run.phases.append(
                PhaseRecord(
                    attempt=run.attempts,
                    leaves=plan_width(self.plan),
                    events_processed=out.events_processed,
                    joins=out.joins,
                    wall_s=out.wall_s,
                    metrics=out.metrics,
                )
            )
            if out.quiesce is not None:
                q = out.quiesce
                t0 = time.perf_counter()
                if q.point_index < 0:
                    self._autoscale_spent += 1
                elif q.point_index in self._fired:
                    raise RuntimeFault(
                        f"reconfiguration point #{q.point_index} fired twice"
                    )
                else:
                    self._fired.add(q.point_index)
                new_plan = self.schedule.target_plan(q, self.plan, self.program)
                assert_reconfig_compatible(self.plan, new_plan, self.program)
                self._assert_sound(new_plan)
                # The migration snapshot is a checkpoint by
                # construction: crashes in the next phase before its
                # first own checkpoint restore from here, into the new
                # plan.
                self._advance(out, Checkpoint(q.key, q.ts, q.state), committing)
                run.reconfigurations.append(
                    ReconfigStep(
                        attempt=run.attempts,
                        reason=q.reason,
                        key=q.key,
                        ts=q.ts,
                        from_leaves=plan_width(self.plan),
                        to_leaves=plan_width(new_plan),
                        queue_depth=q.queue_depth,
                        pause_s=time.perf_counter() - t0,
                    )
                )
                run.plan_history.append(new_plan)
                self.plan = new_plan
                continue

            if final:
                for items in self.pending.items:
                    items.clear()
                committing(out.outputs, None)
            else:
                ckpt = max(out.checkpoints, key=lambda c: c.key, default=None)
                if ckpt is not None:
                    self._advance(out, ckpt, committing)
                # No new snapshot: nothing commits, the whole sealed
                # set stays pending (progress resumes once
                # root-synchronizing traffic arrives).
                if attempt.live:
                    if ckpt is not None:
                        attempt.commit(ckpt.key)
                    self._live = attempt
            _stamp_run_metrics(run)
            return run


def run_with_reconfig(
    attempt_fn: AttemptFn,
    program: DGSProgram,
    plan: SyncPlan,
    streams: Sequence[InputStream],
    schedule: Optional[ReconfigSchedule] = None,
    *,
    fault_plan: Optional[FaultPlan] = None,
) -> ReconfiguredRun:
    """A closed run: one final :class:`RestartDriver` step over the
    whole input — attempts until one completes, migrating plans at
    quiesces and recovering crashes into the then-current plan shape.
    With no ``schedule`` this is plain crash recovery."""
    driver = RestartDriver(
        lambda plan, **kw: AttemptPerSeal(functools.partial(attempt_fn, plan, **kw)),
        program,
        plan,
        schedule=schedule,
        fault_plan=fault_plan,
    )
    return driver.step(ReplayLog(streams), lambda _values, _ckpt: None, final=True)

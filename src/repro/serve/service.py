"""The service core: unbounded ingest on the runtime's attempts.

The paper's runtime runs continuously and takes its checkpoints when
the root joins.  :class:`ServiceRuntime` runs a live ingest that way,
in three steps that repeat for the life of the service:

1. **Admit** — :meth:`offer` buffers externally produced events,
   subject to admission control (below).  The TCP tier hands each
   ingest frame to :meth:`offer_batch` as decoded — per-itag columnar
   :class:`~repro.runtime.messages.EventRun`\\ s — under one lock: a
   run every event of which would pass is admitted whole (one floor,
   order and gate check for the run) and kept as the run it is, any
   other is walked through the per-event checks :meth:`offer` makes,
   so the verdicts never depend on the path.  Rejected events are
   counted by reason and reported to the caller, never silently
   dropped.
2. **Seal** — :meth:`run_epoch` raises the seal floor (below) to the
   highest timestamp admitted and hands everything admitted since the
   last seal to the service's
   :class:`~repro.runtime.reconfigure.RestartDriver` as one step.  On
   the in-process substrate (the default backend) the driver keeps
   **one attempt open** for the life of the service: the step posts the
   admitted runs straight to their owners, then **a seal is a
   heartbeat** — one per implementation tag, just above the floor — and
   the attempt's run queue runs to idle.  Substrates that cannot ship
   outputs without ending an attempt (``process``, ``sim``, ``nodes=``)
   run the whole replay suffix as one closed attempt per seal instead.
3. **Commit** — outputs at or below the newest root-join checkpoint
   key are appended to the committed log (the egress channel's
   exactly-once source of truth), and the events at or below it leave
   the replay log.  The open attempt forgets those outputs and the
   checkpoints consumed; per-seal substrates carry the checkpoint
   state into the next seal's attempt and replay the suffix above the
   key there.

Crashes and reconfigurations keep working under live ingest because
the service runs on the same driver closed runs use, kept for the
service's lifetime: a crash or a quiesce ends the attempt, the driver
restores the newest checkpoint (committing the prefix, and migrating
the plan after a quiesce), opens the next attempt and posts it the
pending suffix first; the morphed plan persists.  Fault-plan and
schedule firing bookkeeping lives on the driver, so each crash fault
and each planned reconfiguration point fires at most once per service.
A fault's ``after_events`` counter and a stateful checkpoint predicate
count over an attempt, which on the in-process substrate spans seals;
they still fire once.  Unlike a closed run, the service always has a
sound restore point — the empty prefix before any commit — so a crash
before the first root join simply replays everything admitted.

**Why commit-at-checkpoint is sound.**  The recovery theorem (paper
Thm. 2.4 / Appendix D.2) needs two things: root snapshots must be
timestamp-prefix states
(:func:`~repro.runtime.recovery.assert_recovery_sound`, checked for
every plan the service runs), and no event at or below a committed key
may reach the attempt afterwards.  The second is enforced by
admission: the service tracks a **seal floor** — the highest event
timestamp ever sealed — and rejects (reason ``"late"``) any offer at
or below it; within one implementation tag, timestamps must also be
strictly increasing (reason ``"out-of-order"``), the input-validity
contract every closed run already has, and NaN or infinite ones are
rejected (reason ``"invalid-ts"``).  So what a seal posts to an open
attempt continues every tag's stream strictly above everything posted
before, and above the previous seal's heartbeat, whose key sorts after
every order key at the floor's timestamp and before every key above
it: each mailbox sees one monotone stream per tag, exactly as in a
closed run, and the heartbeat releases everything at or below the
floor.  A checkpoint the root takes during a seal therefore covers
every posted event at or below its key and no other, every commit key
comes from a sealed event, and every later event is strictly above it.

**Backpressure.**  Admission pauses on either of two signals with
pause/resume hysteresis (:class:`AdmissionGate`): the count of
admitted-but-uncommitted events crossing ``ingest_high_watermark``,
and — when ``runtime_backlog_watermark`` is set — the latest seal's
cluster-wide mailbox-backlog high-water crossing it.  The
latter is the same piggybacked queue-depth signal the
:class:`~repro.runtime.reconfigure.AutoScaler` reads, surfaced here
from the metrics plane.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.errors import RuntimeFault
from ..core.events import Event, ImplTag
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from ..runtime import get_backend
from ..runtime.checkpoint import Checkpoint, every_root_join
from ..runtime.faults import CrashRecord
from ..runtime.messages import EventRun
from ..runtime.metrics import RunMetrics
from ..runtime.options import ServeOptions
from ..runtime.protocol import INIT_STATE
from ..runtime.reconfigure import ReconfigStep, RestartDriver
from ..runtime.recovery import ReplayLog
from ..runtime.runtime import InputStream

#: Admission outcomes returned by :meth:`ServiceRuntime.offer`.
ADMITTED = "admitted"
REJECT_BACKPRESSURE = "backpressure"
REJECT_UNKNOWN = "unknown-itag"
REJECT_INVALID_TS = "invalid-ts"
REJECT_ORDER = "out-of-order"
REJECT_LATE = "late"
REJECT_CLOSED = "closed"

REJECT_REASONS = (
    REJECT_BACKPRESSURE,
    REJECT_UNKNOWN,
    REJECT_INVALID_TS,
    REJECT_ORDER,
    REJECT_LATE,
    REJECT_CLOSED,
)

_INF = math.inf


class AdmissionGate:
    """Two-signal pause/resume hysteresis for ingest admission.

    Trips when either the ingest backlog reaches ``high`` or the
    runtime backlog high-water reaches ``runtime_watermark`` (when
    configured); clears only when the ingest backlog has drained to
    ``resume`` *and* the runtime signal is back under its watermark.
    Hysteresis (``resume < high``) keeps admission from flapping
    per-event at the boundary.
    """

    def __init__(
        self, high: int, resume: int, runtime_watermark: Optional[int] = None
    ) -> None:
        if not 0 <= resume < high:
            raise ValueError("need 0 <= resume < high")
        self.high = high
        self.resume = resume
        self.runtime_watermark = runtime_watermark
        self.paused = False

    def decide(self, backlog: int, runtime_hw: int = 0) -> bool:
        """Update and return the paused state for the current signals."""
        rw = self.runtime_watermark
        runtime_trip = rw is not None and runtime_hw >= rw
        if self.paused:
            if backlog <= self.resume and not runtime_trip:
                self.paused = False
        elif backlog >= self.high or runtime_trip:
            self.paused = True
        return self.paused


@dataclass
class ServiceCounters:
    """Service-lifetime ingest/egress accounting."""

    admitted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    committed: int = 0
    epochs: int = 0
    #: Attempts opened: one per seal on the per-seal substrates, else
    #: one plus one per recovery and per migration.
    attempts: int = 0
    crashes_recovered: int = 0
    reconfigurations: int = 0

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def note_rejected(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1


@dataclass
class EpochReport:
    """One sealed-and-run ingest epoch."""

    index: int
    final: bool
    sealed_events: int
    #: Attempts this epoch opened (0: it ran on the attempt left open).
    attempts: int = 0
    #: Outputs committed by this epoch; their egress sequence numbers
    #: are ``[first_seq, first_seq + committed)``.
    committed: int = 0
    first_seq: int = 0
    crashes: List[CrashRecord] = field(default_factory=list)
    reconfigurations: List[ReconfigStep] = field(default_factory=list)
    backlog_after: int = 0
    wall_s: float = 0.0
    #: Merge of the epoch's metrics windows, one per attempt it ran on
    #: (metrics plane on).
    metrics: Optional[RunMetrics] = None


class ServiceRuntime:
    """Long-running execution of one program over a live ingest.

    Thread-safe by construction: :meth:`offer` (called from the ingest
    tier, possibly concurrently with a running epoch) only touches the
    buffer under a lock, and :meth:`run_epoch` is internally
    serialized.  The committed log only ever grows; egress readers
    follow it by sequence number (:meth:`committed_since`).
    """

    def __init__(
        self,
        program: DGSProgram,
        plan: SyncPlan,
        *,
        options: Optional[ServeOptions] = None,
    ) -> None:
        self.program = program
        self.options = options if options is not None else ServeOptions()
        run = self.options.run
        if run.checkpoint_predicate is None:
            # The service cannot make progress without commit points.
            run = replace(run, checkpoint_predicate=every_root_join())
        if self.options.runtime_backlog_watermark is not None and not run.metrics:
            run = replace(run, metrics=True)
        backend = get_backend(self.options.backend)
        # Single-worker plans take no root-join snapshots, so nothing
        # would ever commit before finish(); that is a degenerate
        # service.  Multi-worker plans must have prefix-state roots
        # (the driver checks every plan it runs).
        self._driver = RestartDriver(
            functools.partial(backend.open_attempt, program, options=run),
            program,
            plan,
            schedule=run.reconfig_schedule,
            fault_plan=run.fault_plan,
            restore=Checkpoint(key=(-_INF,), ts=-_INF, state=INIT_STATE),
        )

        # The itag universe is fixed at construction: every seal must
        # cover all of them (a missing stream would stall dependent
        # frontiers at -inf and hang the drain).
        itags = sorted(
            {t for w in plan.workers() for t in w.itags}, key=repr
        )
        self._itags: Tuple[ImplTag, ...] = tuple(itags)
        self._known = frozenset(itags)
        #: Every itag's stream in the replay log: its heartbeat cadence
        #: (read by the per-seal substrates only).
        self._heads = tuple(
            InputStream(t, (), heartbeat_interval=self.options.heartbeat_interval)
            for t in itags
        )

        self._lock = threading.Lock()
        self._epoch_mutex = threading.Lock()
        #: itag -> what was admitted since the last seal: runs as they
        #: were admitted whole, and single events.
        self._inbox: Dict[ImplTag, List[Union[Event, EventRun]]] = {t: [] for t in itags}
        self._inbox_count = 0
        #: Sealed-but-uncommitted events (the driver's replay log).
        self._pending_count = 0
        #: Per-itag last admitted timestamp (strict monotonicity).
        self._last_ts: Dict[ImplTag, float] = {}
        #: Highest timestamp ever sealed; admission at or below it is
        #: "late" (see module docstring for why this is the
        #: exactly-once linchpin).
        self._seal_floor = -_INF

        self._runtime_backlog_hw = 0
        #: Offers are rejected as "closed" from the moment the final
        #: epoch is sealed; ``finished`` only once it has committed.
        self._closed = False
        self._finished = False

        self.gate = AdmissionGate(
            self.options.ingest_high_watermark,
            self.options.resume_watermark(),
            self.options.runtime_backlog_watermark,
        )
        self.counters = ServiceCounters()
        #: The committed output log; index == egress sequence number.
        self.committed: List[Any] = []
        self.epochs: List[EpochReport] = []
        self.plan_history: List[SyncPlan] = [plan]
        #: Service-lifetime accumulated RunMetrics (None: plane off).
        self.metrics: Optional[RunMetrics] = None

    @property
    def plan(self) -> SyncPlan:
        """The plan the next epoch runs on (migrations persist)."""
        return self._driver.plan

    # -- admission -------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Admitted-but-uncommitted events (inbox + replay suffix)."""
        with self._lock:
            return self._inbox_count + self._pending_count

    @property
    def finished(self) -> bool:
        """True once the final epoch has committed (offers are rejected
        as ``"closed"`` already from its seal on)."""
        return self._finished

    @property
    def itags(self) -> Tuple[ImplTag, ...]:
        return self._itags

    def offer(self, event: Event) -> str:
        """Admit one external event, or reject it with a reason.

        Returns :data:`ADMITTED` or one of the ``REJECT_*`` reasons;
        every rejection is counted so the ingest tier can report it."""
        with self._lock:
            return self._admit(event)

    def offer_batch(self, events: Sequence[Union[Event, EventRun]]) -> Dict[str, int]:
        """Admit a batch of events and columnar runs under one lock, in
        the order given; returns ``{outcome: count}`` including
        ``"admitted"`` (the ingest tier's ack payload).

        A run is admitted whole when every per-event check would admit
        each of its events in turn; any other run is walked event by
        event through the same checks :meth:`offer` makes, so the
        verdicts are those of offering the expanded batch one event at
        a time."""
        out: Dict[str, int] = {}
        with self._lock:
            for item in events:
                if type(item) is not EventRun:
                    r = self._admit(item)
                    out[r] = out.get(r, 0) + 1
                elif self._admit_run(item):
                    out[ADMITTED] = out.get(ADMITTED, 0) + len(item)
                else:
                    for e in item.events():
                        r = self._admit(e)
                        out[r] = out.get(r, 0) + 1
        return out

    def _admit(self, event: Event) -> str:
        """The per-event admission checks (caller holds the lock)."""
        itag = event.itag
        try:
            known = itag in self._known
        except TypeError:  # an unhashable tag or stream: no plan routes it
            known = False
        if self._closed:
            reason = REJECT_CLOSED
        elif not known:
            reason = REJECT_UNKNOWN
        elif not -_INF < event.ts < _INF:  # NaN would defeat both checks below
            reason = REJECT_INVALID_TS
        elif event.ts <= self._seal_floor:
            reason = REJECT_LATE
        elif event.ts <= self._last_ts.get(itag, -_INF):
            reason = REJECT_ORDER
        elif self.gate.decide(
            self._inbox_count + self._pending_count, self._runtime_backlog_hw
        ):
            reason = REJECT_BACKPRESSURE
        else:
            self._inbox[itag].append(event)
            self._inbox_count += 1
            self._last_ts[itag] = event.ts
            self.counters.admitted += 1
            return ADMITTED
        self.counters.note_rejected(reason)
        return reason

    def _admit_run(self, run: EventRun) -> bool:
        """Admit ``run`` whole if :meth:`_admit` would admit each of its
        events in turn, else touch nothing and return False (caller
        holds the lock).  Per event that means: open, known, the first
        timestamp above the floor and the itag's last one, the column
        strictly increasing and finite (a NaN fails the comparisons, so
        only the last can be infinite), and the gate open for every
        event — it is not paused now and the run's last event still sees
        a backlog below the high watermark.  The gate is asked last: on a
        trip the per-event fallback repeats the very same call, which
        leaves the gate where this one put it.  The run is kept as it is,
        for the seal to post."""
        ts = run.ts
        itag = run.itag
        backlog = self._inbox_count + self._pending_count
        if (
            self._closed
            or itag not in self._known
            or not ts[0] > self._seal_floor
            or not ts[0] > self._last_ts.get(itag, -_INF)
            or not all(map(operator.lt, ts, ts[1:]))
            or not ts[-1] < _INF
            or backlog + len(ts) > self.gate.high
            or self.gate.decide(backlog, self._runtime_backlog_hw)
        ):
            return False
        self._inbox[itag].append(run)
        self._inbox_count += len(ts)
        self._last_ts[itag] = ts[-1]
        self.counters.admitted += len(ts)
        return True

    def admission_paused(self) -> bool:
        """Re-evaluate and return the gate state (without an offer)."""
        with self._lock:
            return self.gate.decide(
                self._inbox_count + self._pending_count, self._runtime_backlog_hw
            )

    # -- epochs ----------------------------------------------------------
    def inbox_size(self) -> int:
        with self._lock:
            return self._inbox_count

    def run_epoch(self, *, final: bool = False) -> EpochReport:
        """Seal what was admitted and run it as one (recoverable,
        elastic) step, committing outputs up to the newest consistent
        snapshot.  With ``final=True`` the service closes: further
        offers are rejected as ``"closed"`` from the seal on, the step
        runs to full drain, *everything* commits (closed-run semantics),
        and only then does :attr:`finished` turn true.
        """
        with self._epoch_mutex:
            if self._closed:
                raise RuntimeFault("service already finished")
            with self._lock:
                # Every admitted event is sealed now: the floor is the
                # highest timestamp admitted.
                self._seal_floor = max(self._last_ts.values(), default=-_INF)
                sealed = ReplayLog(self._heads, [self._inbox[t] for t in self._itags])
                self._inbox = {t: [] for t in self._itags}
                self._pending_count += self._inbox_count
                self._inbox_count = 0
                report = EpochReport(
                    index=len(self.epochs),
                    final=final,
                    sealed_events=self._pending_count,
                    first_seq=len(self.committed),
                )
                if report.sealed_events == 0 and not final:
                    return report
                self._closed = final
            t0 = time.perf_counter()
            try:
                run = self._driver.step(sealed, self._commit, final=final)
                report.attempts = run.attempts
                report.committed = len(run.outputs)
                report.crashes = run.crashes
                report.reconfigurations = run.reconfigurations
                self.plan_history.extend(run.plan_history[1:])
                self._note_epoch_metrics(run.metrics, report)
            finally:
                report.wall_s = time.perf_counter() - t0
                with self._lock:
                    report.backlog_after = self._inbox_count + self._pending_count
                    self.counters.epochs += 1
                    self.counters.attempts += report.attempts
                    self.counters.crashes_recovered += len(report.crashes)
                    self.counters.reconfigurations += len(report.reconfigurations)
                    self.epochs.append(report)
                    self._finished = final
            return report

    def finish(self) -> EpochReport:
        """Close the service: one final epoch that commits everything."""
        return self.run_epoch(final=True)

    def _commit(self, values: List[Any], ckpt: Optional[Checkpoint]) -> None:
        """The driver's commit callback: append newly committed
        outputs; the replay log strictly above the commit key stays
        pending on the driver."""
        with self._lock:
            self.committed.extend(values)
            self.counters.committed += len(values)
            self._pending_count = len(self._driver.pending)

    def _note_epoch_metrics(
        self, merged: Optional[RunMetrics], report: EpochReport
    ) -> None:
        report.metrics = merged
        if merged is None:
            return
        hw = merged.merged().max_backlog
        with self._lock:
            # The runtime-backlog signal is windowed per epoch: the
            # *latest* epoch's high-water, so a drained service recovers.
            self._runtime_backlog_hw = hw
            if self.metrics is None:
                self.metrics = RunMetrics(latency_buckets=merged.latency_buckets)
            self.metrics.accumulate(merged)
            self.metrics.attempts += report.attempts
            self.metrics.reconfigurations += len(report.reconfigurations)

    # -- egress ----------------------------------------------------------
    def committed_since(self, seq: int) -> Tuple[List[Any], int]:
        """The committed log's tail from sequence ``seq`` on, plus the
        next sequence number (the subscriber's resume cursor)."""
        with self._lock:
            tail = self.committed[seq:]
            return tail, len(self.committed)

    # -- observability ---------------------------------------------------
    def service_gauges(self) -> Dict[str, float]:
        """A consistent snapshot of the ``repro_serve_*`` gauge set."""
        with self._lock:
            return {
                "admitted_total": float(self.counters.admitted),
                "rejected_total": float(self.counters.rejected_total),
                "committed_total": float(self.counters.committed),
                "backlog": float(self._inbox_count + self._pending_count),
                "epochs_total": float(self.counters.epochs),
                "attempts_total": float(self.counters.attempts),
                "crashes_recovered_total": float(self.counters.crashes_recovered),
                "reconfigurations_total": float(self.counters.reconfigurations),
                "admission_paused": 1.0 if self.gate.paused else 0.0,
            }

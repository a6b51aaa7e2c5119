"""Crash recovery: restore the last root-join checkpoint, replay the
input suffix (paper Appendix D.2, made executable).

The restart driver (:class:`~repro.runtime.reconfigure.RestartDriver`)
is substrate-independent and lives *above* the runtimes: an execution
attempt runs on any backend with fault injection armed; if a worker
fail-stops, the driver

1. commits every logged output at or below the latest checkpoint's
   order key (those are exactly the sequential prefix's outputs, see
   below) and discards the rest,
2. restores the checkpoint state by forking it down a **fresh** set of
   workers (the same C2 fork used for ``init()``), and
3. replays the buffered input suffix — every event strictly after the
   checkpoint key — through the full protocol, until an attempt
   finishes without crashing.

Theorem 2.4's determinism-up-to-reordering is what makes this sound:
the recovered execution's outputs are, as a multiset, exactly the
fail-free execution's.  The argument needs the snapshot to be a
*timestamp-prefix* state, which holds when every tag handled at the
root depends on every tag in the universe (then each leaf answers the
root's join request only after processing all its events below the
join key, so the joined state — and the output log at or below that
key — is the sequential prefix).  :func:`assert_recovery_sound` checks
exactly this and rejects plans where restore-and-replay could double-
or under-apply independent events.

Crash faults fire once: the driver marks them fired so the replay does
not re-kill the restarted worker.  A crash with no checkpoint to
restore raises :class:`~repro.core.errors.NoCheckpointError` — a clean
error, never a hang (attempts are wall-clock bounded by the
substrates' own timeouts).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, List, Optional, Sequence, Tuple

from ..core.errors import NoCheckpointError, RecoveryUnsoundError
from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from .checkpoint import Checkpoint
from .metrics import merge_attempt_metrics
from .protocol import AttemptOutcome
from .runtime import InputStream

_ORDER_KEY = attrgetter("order_key")


@dataclass(frozen=True)
class RecoveryStep:
    """One restore-and-replay transition between attempts."""

    attempt: int
    crashed_workers: Tuple[str, ...]
    resumed_from_ts: float
    replayed_events: int


def suffix_streams(
    streams: Sequence[InputStream], key: tuple
) -> List[InputStream]:
    """The input log's suffix: every event strictly after ``key``.

    Each stream is strictly increasing under the order (the
    :class:`InputStream` contract), so its suffix starts at one
    bisection point: ``log n`` order keys per stream, not one per
    pending event at every commit.

    Streams whose events are all committed stay present with an empty
    event tuple — their closing heartbeat is still needed for the
    replay to drain."""
    return [
        InputStream(
            s.itag,
            tuple(s.events[bisect_right(s.events, key, key=_ORDER_KEY) :]),
            s.source_host,
            s.heartbeat_interval,
        )
        for s in streams
    ]


def assert_recovery_sound(plan: SyncPlan, program: DGSProgram) -> None:
    """Reject plans whose root snapshots are not timestamp-prefix
    states (see module docstring).  Vacuously sound for roots with no
    tags — such plans never checkpoint, so a crash surfaces as
    :class:`NoCheckpointError` instead of silent corruption."""
    universe = program.depends.universe
    for itag in plan.root.itags:
        deps = program.depends.dependents_of(itag.tag)
        missing = universe - deps
        if missing:
            raise RecoveryUnsoundError(
                f"root tag {itag.tag!r} is independent of "
                f"{sorted(map(repr, missing))}; its root-join snapshots are "
                "not timestamp-prefix states, so checkpoint recovery would "
                "be unsound for this plan (choose a plan whose root tags "
                "depend on every tag)"
            )


def restart_from_crash(
    out: AttemptOutcome, restore: Optional[Checkpoint]
) -> Checkpoint:
    """The restore point after a crashed attempt: the attempt's newest
    snapshot, else the previous restore point (crashing again before
    any *new* snapshot retries the same suffix).  The caller commits
    the sequential prefix of the attempt's output log — everything at
    or below the snapshot key; all later outputs are discarded and
    regenerated by the replay: exactly-once delivery.  A crash with no
    snapshot at all raises :class:`NoCheckpointError`.

    Aborting on crash detection cannot lose a needed snapshot: a
    worker's crash trigger only fires while processing an event, and
    (for sound plans) an event past root join k is released to a
    worker only after that join's fork reached it — by which time the
    root recorded checkpoint k in its synchronous log.
    """
    ckpt = max(out.checkpoints, key=lambda c: c.key, default=restore)
    if ckpt is None:
        who = ", ".join(sorted({c.worker for c in out.crashes}))
        raise NoCheckpointError(
            f"worker(s) {who} crashed but no checkpoint or migration "
            "snapshot exists to recover from; configure "
            "checkpoint_predicate= (e.g. every_root_join()) to enable "
            "crash recovery"
        )
    return ckpt


def _stamp_run_metrics(run: Any) -> None:
    """Merge ``run.attempt_metrics`` into a whole-run
    :class:`~repro.runtime.metrics.RunMetrics` and stamp the
    recovery/elasticity counters onto it.  No-op when the metrics
    plane was off."""
    merged = merge_attempt_metrics(run.attempt_metrics)
    if merged is None:
        return
    merged.attempts = run.attempts
    merged.replayed_events = run.replayed_events
    merged.checkpoints_restored = len(run.recoveries)
    merged.reconfigurations = len(run.reconfigurations)
    merged.migration_pause_s = sum(s.pause_s for s in run.reconfigurations)
    run.metrics = merged

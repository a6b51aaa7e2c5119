"""Fault injection and crash recovery across the three runtimes.

The scenarios here are the hand-written counterparts of the randomized
chaos suite (tests/test_chaos.py): one precise crash or drop per test,
with the recovery bookkeeping (attempts, commits, replays) asserted
exactly rather than just the end-to-end output equivalence.
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import keycounter as kc
from repro.apps import value_barrier as vb
from repro.core import Event, ImplTag
from repro.core.errors import NoCheckpointError, RecoveryUnsoundError
from repro.core.semantics import output_multiset
from repro.plans import root_and_leaves_plan
from repro.runtime import (
    CrashFault,
    DropHeartbeats,
    FaultPlan,
    InputStream,
    RunOptions,
    assert_recovery_sound,
    every_root_join,
    run_on_backend,
    run_sequential_reference,
    suffix_streams,
)
from repro.runtime.faults import WorkerCrash


def vb_case(n_value_streams=3, values_per_barrier=20, n_barriers=4):
    """A value-barrier workload with the natural plan: barriers at the
    root, one leaf per value stream."""
    prog = vb.make_program()
    wl = vb.make_workload(
        n_value_streams=n_value_streams,
        values_per_barrier=values_per_barrier,
        n_barriers=n_barriers,
    )
    streams = vb.make_streams(wl)
    plan = vb.make_plan(prog, wl)
    return prog, streams, plan


class TestFaultPlan:
    def test_crash_fault_needs_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            CrashFault("w1")
        with pytest.raises(ValueError):
            CrashFault("w1", after_events=3, at_ts=4.0)
        with pytest.raises(ValueError):
            CrashFault("w1", after_events=0)

    def test_view_raises_worker_crash_at_count(self):
        plan = FaultPlan(CrashFault("w2", after_events=3))
        view = plan.view_for("w2")
        view.note_event(1.0)
        view.note_event(2.0)
        with pytest.raises(WorkerCrash) as exc:
            view.note_event(3.0)
        assert exc.value.record.worker == "w2"
        assert exc.value.record.fault_index == 0
        assert exc.value.record.events_seen == 3

    def test_view_raises_worker_crash_at_ts(self):
        plan = FaultPlan(CrashFault("w2", at_ts=10.0))
        view = plan.view_for("w2")
        view.note_event(9.9)
        with pytest.raises(WorkerCrash):
            view.note_event(10.0)

    def test_fired_faults_excluded_from_views(self):
        plan = FaultPlan(CrashFault("w2", after_events=1))
        plan.mark_fired(0)
        assert plan.view_for("w2") is None

    def test_other_workers_get_no_view(self):
        plan = FaultPlan(CrashFault("w2", after_events=1))
        assert plan.view_for("w1") is None

    def test_drop_windows_respect_before_ts_and_count(self):
        plan = FaultPlan(DropHeartbeats("w1", before_ts=50.0, count=2))
        view = plan.view_for("w1")
        assert view.should_drop_heartbeat((10.0,))
        assert not view.should_drop_heartbeat((60.0,))  # past before_ts
        assert view.should_drop_heartbeat((20.0,))
        assert not view.should_drop_heartbeat((30.0,))  # budget exhausted

    def test_plan_and_views_picklable(self):
        plan = FaultPlan(
            CrashFault("w2", after_events=3), DropHeartbeats("w1", before_ts=9.0)
        )
        plan.mark_fired(0)
        copy = pickle.loads(pickle.dumps(plan))
        assert copy.fired == {0}
        assert copy.view_for("w2") is None
        assert pickle.loads(pickle.dumps(plan.view_for("w1"))) is not None


@pytest.mark.parametrize("backend", ["sim", "threaded", "process"])
class TestCrashRecoveryAcrossBackends:
    def test_leaf_crash_recovers_and_matches_spec(self, backend):
        prog, streams, plan = vb_case()
        leaf = plan.leaves()[0].id
        # Fires on the leaf's first value event after the second
        # barrier; by then the root has snapshotted at least twice.
        crash_ts = streams[-1].events[1].ts + 0.01
        faults = FaultPlan(CrashFault(leaf, at_ts=crash_ts))
        run = run_on_backend(
            backend,
            prog,
            plan,
            streams,
            options=RunOptions(
                fault_plan=faults,
                checkpoint_predicate=every_root_join(),
            ),
        )
        ref = run_sequential_reference(prog, streams)
        assert output_multiset(run.outputs) == output_multiset(ref)
        rec = run.recovery
        assert rec.attempts == 2
        assert [c.worker for c in rec.crashes] == [leaf]
        assert rec.recovered
        assert rec.recoveries[0].resumed_from_ts >= streams[-1].events[0].ts
        assert 0 < rec.recoveries[0].replayed_events < sum(
            len(s.events) for s in streams
        )

    def test_root_crash_recovers(self, backend):
        prog, streams, plan = vb_case()
        # The root only processes barrier events; crash on its third.
        faults = FaultPlan(CrashFault(plan.root.id, after_events=3))
        run = run_on_backend(
            backend,
            prog,
            plan,
            streams,
            options=RunOptions(
                fault_plan=faults,
                checkpoint_predicate=every_root_join(),
            ),
        )
        ref = run_sequential_reference(prog, streams)
        assert output_multiset(run.outputs) == output_multiset(ref)
        assert run.recovery.attempts == 2

    def test_two_crashes_two_recoveries(self, backend):
        prog, streams, plan = vb_case(n_barriers=5)
        leaves = [n.id for n in plan.leaves()]
        barrier_ts = [e.ts for e in streams[-1].events]
        faults = FaultPlan(
            CrashFault(leaves[0], at_ts=barrier_ts[1] + 0.01),
            CrashFault(leaves[1], at_ts=barrier_ts[3] + 0.01),
        )
        run = run_on_backend(
            backend,
            prog,
            plan,
            streams,
            options=RunOptions(
                fault_plan=faults,
                checkpoint_predicate=every_root_join(),
            ),
        )
        ref = run_sequential_reference(prog, streams)
        assert output_multiset(run.outputs) == output_multiset(ref)
        assert run.recovery.attempts == 3
        assert len(run.recovery.crashes) == 2

    def test_crash_without_checkpoint_is_clean_error(self, backend):
        """A crash with no snapshot to restore must surface as
        NoCheckpointError — promptly, never as a hang."""
        prog, streams, plan = vb_case()
        leaf = plan.leaves()[0].id
        faults = FaultPlan(CrashFault(leaf, after_events=2))
        with pytest.raises(NoCheckpointError, match="no checkpoint"):
            run_on_backend(
                backend,
                prog,
                plan,
                streams,
                options=RunOptions(
                    fault_plan=faults,
                    timeout_s=30.0,
                ),
            )

    def test_crash_before_first_snapshot_is_clean_error(self, backend):
        prog, streams, plan = vb_case()
        leaf = plan.leaves()[0].id
        # Fires before the first barrier: the predicate is armed but
        # nothing has been snapshotted yet.
        faults = FaultPlan(CrashFault(leaf, after_events=1))
        with pytest.raises(NoCheckpointError):
            run_on_backend(
                backend,
                prog,
                plan,
                streams,
                options=RunOptions(
                    fault_plan=faults,
                    checkpoint_predicate=every_root_join(),
                    timeout_s=30.0,
                ),
            )

    def test_heartbeat_drops_are_masked(self, backend):
        """Lossy progress signaling: dropped heartbeats delay releases
        but later (and closing) heartbeats mask them completely."""
        prog, streams, plan = vb_case()
        last_ts = max(e.ts for s in streams for e in s.events)
        faults = FaultPlan(
            DropHeartbeats(plan.root.id, before_ts=last_ts * 0.8),
            DropHeartbeats(plan.leaves()[0].id, before_ts=last_ts * 0.5, count=3),
        )
        run = run_on_backend(
            backend, prog, plan, streams, options=RunOptions(fault_plan=faults)
        )
        ref = run_sequential_reference(prog, streams)
        assert output_multiset(run.outputs) == output_multiset(ref)
        assert run.recovery.attempts == 1
        assert not run.recovery.recovered

    def test_crash_plus_drops_together(self, backend):
        prog, streams, plan = vb_case()
        leaf0, leaf1 = plan.leaves()[0].id, plan.leaves()[1].id
        barrier_ts = [e.ts for e in streams[-1].events]
        last_ts = max(e.ts for s in streams for e in s.events)
        faults = FaultPlan(
            CrashFault(leaf0, at_ts=barrier_ts[1] + 0.01),
            DropHeartbeats(leaf1, before_ts=last_ts * 0.7, count=4),
        )
        run = run_on_backend(
            backend,
            prog,
            plan,
            streams,
            options=RunOptions(
                fault_plan=faults,
                checkpoint_predicate=every_root_join(),
            ),
        )
        ref = run_sequential_reference(prog, streams)
        assert output_multiset(run.outputs) == output_multiset(ref)
        assert run.recovery.attempts == 2


class TestPacedRecovery:
    def test_pace_reaches_recovery_attempts(self):
        """``RunOptions(pace=..., fault_plan=...)``: the open-loop pump
        paces every attempt, replays included.  Attempt 1 is paced from
        the first event to the crash, attempt 2 from the restored
        checkpoint (at or before the crash) to the end — together at
        least the whole span."""
        prog, streams, plan = vb_case(n_value_streams=2, values_per_barrier=10)
        ts = [e.ts for s in streams for e in s.events]
        span = max(ts) - min(ts)
        pace = span / 0.4  # timestamp units per second: >= 0.4 s paced
        barrier_ts = [e.ts for e in streams[-1].events]
        run = run_on_backend(
            "threaded",
            prog,
            plan,
            streams,
            options=RunOptions(
                pace=pace,
                fault_plan=FaultPlan(
                    CrashFault(plan.leaves()[0].id, at_ts=barrier_ts[1] + 0.01)
                ),
                checkpoint_predicate=every_root_join(),
            ),
        )
        assert run.recovery.attempts == 2
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        assert run.wall_s >= span / pace


class TestStatefulPredicates:
    def test_caller_predicate_not_mutated_by_fault_runs(self):
        """Backends deep-copy the checkpoint predicate per attempt, so
        stateful policies restart their cadence on every attempt (same
        semantics as the process backend's fork) and the caller's
        instance stays pristine."""
        from repro.runtime import every_nth_join

        pred = every_nth_join(2)
        prog, streams, plan = vb_case(n_barriers=5)
        faults = FaultPlan(CrashFault(plan.root.id, after_events=4))
        run = run_on_backend(
            "threaded",
            prog,
            plan,
            streams,
            options=RunOptions(
                fault_plan=faults,
                checkpoint_predicate=pred,
            ),
        )
        ref = run_sequential_reference(prog, streams)
        assert output_multiset(run.outputs) == output_multiset(ref)
        assert run.recovery.attempts == 2
        assert run.recovery.checkpoints_taken > 0
        assert pred.seen == 0  # never called directly, only copies


class TestRecoverySoundness:
    def test_sound_plan_accepted(self):
        prog, streams, plan = vb_case()
        assert_recovery_sound(plan, prog)  # barriers depend on everything

    def test_unsound_root_rejected(self):
        """keycounter with 2 keys: reset(0) is independent of key 1's
        tags, so a plan with reset(0) at the root must be rejected."""
        prog = kc.make_program(2)
        itags = [
            ImplTag(kc.inc_tag(0), "i0"),
            ImplTag(kc.inc_tag(1), "i1"),
            ImplTag(kc.reset_tag(1), "r1"),
        ]
        plan = root_and_leaves_plan(
            prog, [ImplTag(kc.reset_tag(0), "r0")], [[t] for t in itags]
        )
        with pytest.raises(RecoveryUnsoundError, match="independent"):
            assert_recovery_sound(plan, prog)

    def test_unsound_plan_rejected_before_running(self):
        prog = kc.make_program(2)
        itags = [
            ImplTag(kc.inc_tag(0), "i0"),
            ImplTag(kc.inc_tag(1), "i1"),
            ImplTag(kc.reset_tag(1), "r1"),
        ]
        rit = ImplTag(kc.reset_tag(0), "r0")
        plan = root_and_leaves_plan(prog, [rit], [[t] for t in itags])
        streams = [
            InputStream(t, (Event(t.tag, t.stream, float(i + 1)),))
            for i, t in enumerate(itags + [rit])
        ]
        faults = FaultPlan(CrashFault(plan.leaves()[0].id, after_events=1))
        with pytest.raises(RecoveryUnsoundError):
            run_on_backend(
                "threaded",
                prog,
                plan,
                streams,
                options=RunOptions(
                    fault_plan=faults,
                    checkpoint_predicate=every_root_join(),
                ),
            )


_SUFFIX_ITAGS = (
    ImplTag("b", "b"),
    ImplTag("v", "v0"),
    ImplTag("v", "v1"),
    ImplTag(("i", 0), "i0"),
    ImplTag(7, 3),
)


def _filtered_suffix(streams, key):
    """suffix_streams before the bisect: one order key per event."""
    return [
        InputStream(
            s.itag,
            tuple(e for e in s.events if e.order_key > key),
            s.source_host,
            s.heartbeat_interval,
        )
        for s in streams
    ]


class TestSuffixStreams:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bisect_cut_equals_the_filter(self, data):
        """The commit cut bisects each stream (strictly increasing under
        the order) instead of filtering it; on every key the service and
        the restart driver can hand it, the suffix is tuple-equal."""
        as_float = data.draw(st.booleans())
        streams = []
        for itag in _SUFFIX_ITAGS:
            stamps = data.draw(
                st.lists(st.integers(0, 30), unique=True, max_size=12).map(sorted)
            )
            events = tuple(
                Event(itag.tag, itag.stream, float(t) if as_float else t, t)
                for t in stamps
            )
            streams.append(InputStream(itag, events, heartbeat_interval=5.0))
        events = [e for s in streams for e in s.events]
        keys = [(float("-inf"),), (float("inf"),), (31,), (-1, "x")]
        if events:
            e = data.draw(st.sampled_from(events))
            other = data.draw(st.sampled_from(_SUFFIX_ITAGS))
            probe = Event(other.tag, other.stream, e.ts)
            keys += [e.order_key, probe.order_key, (e.ts,), (e.ts + 0.5,)]
        key = data.draw(st.sampled_from(keys))
        got = suffix_streams(streams, key)
        assert got == _filtered_suffix(streams, key)
        assert all(type(s.events) is tuple for s in got)


class TestDeterminism:
    def test_sim_fault_runs_are_reproducible(self):
        """The simulated substrate is deterministic even under faults:
        two identical runs produce identical output *sequences* and
        identical recovery traces."""

        def once():
            prog, streams, plan = vb_case()
            barrier_ts = [e.ts for e in streams[-1].events]
            faults = FaultPlan(
                CrashFault(plan.leaves()[1].id, at_ts=barrier_ts[1] + 0.01)
            )
            run = run_on_backend(
                "sim",
                prog,
                plan,
                streams,
                options=RunOptions(
                    fault_plan=faults,
                    checkpoint_predicate=every_root_join(),
                ),
            )
            rec = run.recovery
            return run.outputs, rec.attempts, [
                (c.worker, c.fault_index, c.events_seen, c.ts) for c in rec.crashes
            ]

        assert once() == once()

    def test_keycounter_single_key_recovery(self):
        """Single-key keycounter: reset depends on every tag, so a
        random-ish plan rooted at the reset is recoverable."""
        rng = random.Random(7)
        prog = kc.make_program(1)
        itags = [ImplTag(kc.inc_tag(0), f"i{s}") for s in range(3)]
        rit = ImplTag(kc.reset_tag(0), "r")
        plan = root_and_leaves_plan(prog, [rit], [[t] for t in itags])
        events = {t: [] for t in itags}
        for t in range(1, 60):
            it = itags[rng.randrange(len(itags))]
            events[it].append(Event(it.tag, it.stream, float(t) + 0.1))
        streams = [
            InputStream(t, tuple(events[t]), heartbeat_interval=5.0) for t in itags
        ]
        resets = tuple(Event(rit.tag, rit.stream, ts) for ts in (15.0, 30.0, 45.0))
        streams.append(InputStream(rit, resets, heartbeat_interval=5.0))
        faults = FaultPlan(CrashFault(plan.leaves()[0].id, at_ts=31.0))
        run = run_on_backend(
            "threaded",
            prog,
            plan,
            streams,
            options=RunOptions(
                fault_plan=faults,
                checkpoint_predicate=every_root_join(),
            ),
        )
        ref = run_sequential_reference(prog, streams)
        assert output_multiset(run.outputs) == output_multiset(ref)
        assert run.recovery.attempts == 2

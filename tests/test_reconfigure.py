"""Unit tests for the elastic-reconfiguration subsystem: plan
morphing, migration compatibility, schedules/views, the driver's
lifecycle bookkeeping, and the RunOptions plumbing."""

import pickle
import random

import pytest

from repro.apps import pageview, value_barrier as vb
from repro.core.errors import (
    NoCheckpointError,
    PlanError,
    ValidityError,
)
from repro.core.semantics import output_multiset
from repro.plans import (
    assert_reconfig_compatible,
    is_p_valid,
    max_width,
    plan_width,
    reconfig_violations,
    repartition_plan,
    narrow_plan,
    widen_plan,
)
from repro.runtime import (
    AutoScaler,
    CrashFault,
    FaultPlan,
    ReconfigPoint,
    ReconfigSchedule,
    RunOptions,
    every_root_join,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime.quiesce import (
    PointTrigger,
    QuiesceSignal,
    RootReconfigView,
    SCALE_IN,
    SCALE_OUT,
    WatermarkTrigger,
)


def vb_case(n_value_streams=4, values_per_barrier=20, n_barriers=4):
    prog = vb.make_program()
    wl = vb.make_workload(
        n_value_streams=n_value_streams,
        values_per_barrier=values_per_barrier,
        n_barriers=n_barriers,
    )
    return prog, vb.make_streams(wl), vb.make_plan(prog, wl)


class TestMorph:
    def test_widths(self):
        prog, _, plan = vb_case(n_value_streams=4)
        assert plan_width(plan) == 4
        assert max_width(prog, plan) == 4  # one component per value stream

    def test_repartition_is_valid_and_covers_same_itags(self):
        prog, _, plan = vb_case(n_value_streams=4)
        for n in (1, 2, 3, 4, 9):
            target = repartition_plan(prog, plan, n)
            assert is_p_valid(target, prog)
            assert target.all_itags() == plan.all_itags()
            assert plan_width(target) == min(max(n, 1), 4)

    def test_narrow_to_one_is_single_worker(self):
        prog, _, plan = vb_case(n_value_streams=3)
        seq = repartition_plan(prog, plan, 1)
        assert seq.size() == 1
        assert seq.all_itags() == plan.all_itags()

    def test_widen_and_narrow_clamp(self):
        prog, _, plan = vb_case(n_value_streams=4)
        narrow = narrow_plan(prog, plan)
        assert plan_width(narrow) == 2
        rewiden = widen_plan(prog, narrow, factor=4)
        assert plan_width(rewiden) == 4  # clamped at max useful width

    def test_morph_is_deterministic(self):
        prog, _, plan = vb_case(n_value_streams=4)
        a = repartition_plan(prog, plan, 2)
        b = repartition_plan(prog, plan, 2)
        assert a.pretty() == b.pretty()

    def test_no_synchronizing_root_is_rejected(self):
        # Two independent pages: no tag depends on the whole universe,
        # so there is no sound migration point to morph around.
        prog = pageview.make_program(2)
        wl = pageview.make_workload(
            n_pages=2, n_view_streams=2, views_per_update=5, n_updates_per_page=2
        )
        plan = pageview.make_plan(prog, wl)
        with pytest.raises(PlanError, match="synchronizing"):
            repartition_plan(prog, plan, 2)


class TestReconfigCompatibility:
    def test_morphed_plans_compatible(self):
        prog, _, plan = vb_case()
        assert reconfig_violations(plan, repartition_plan(prog, plan, 2), prog) == []

    def test_dropped_itags_flagged(self):
        prog, _, plan = vb_case(n_value_streams=4)
        smaller_prog, _, smaller = vb_case(n_value_streams=2)
        viol = reconfig_violations(plan, smaller, prog)
        assert any(v.rule == "R1" for v in viol)
        with pytest.raises(ValidityError, match="R1"):
            assert_reconfig_compatible(plan, smaller, prog)


class TestSchedulesAndTriggers:
    def test_point_validation(self):
        with pytest.raises(ValueError):
            ReconfigPoint(to_leaves=2)  # no trigger
        with pytest.raises(ValueError):
            ReconfigPoint(at_ts=1.0, after_joins=2, to_leaves=2)
        with pytest.raises(ValueError):
            ReconfigPoint(at_ts=1.0)  # no target
        with pytest.raises(ValueError):
            ReconfigPoint(after_joins=0, to_leaves=2)

    def test_a_nan_trigger_timestamp_is_rejected(self):
        """No timestamp is >= NaN: the point would never fire."""
        with pytest.raises(ValueError, match="at_ts"):
            ReconfigPoint(at_ts=float("nan"), to_leaves=2)

    @pytest.mark.parametrize("min_leaves, max_leaves", [(1, 0), (2, 1)])
    def test_a_cap_below_the_floor_is_rejected(self, min_leaves, max_leaves):
        """A cap of 0 must not read as "no cap" (a scale-out from 2 to
        4), and a cap below min_leaves must not be ignored."""
        with pytest.raises(ValueError, match="max_leaves"):
            AutoScaler(high_watermark=10, min_leaves=min_leaves, max_leaves=max_leaves)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            ReconfigSchedule()

    def test_autoscaler_validation_and_targets(self):
        with pytest.raises(ValueError):
            AutoScaler()
        auto = AutoScaler(high_watermark=10, low_watermark=2, factor=2, max_leaves=8)
        assert auto.target_width(SCALE_OUT, 3, ceiling=16) == 6
        assert auto.target_width(SCALE_OUT, 6, ceiling=16) == 8  # max_leaves
        assert auto.target_width(SCALE_OUT, 4, ceiling=5) == 5  # program ceiling
        assert auto.target_width(SCALE_IN, 6, ceiling=16) == 3
        assert auto.target_width(SCALE_IN, 1, ceiling=16) == 1

    def test_view_excludes_fired_points_and_disarms_noop_watermarks(self):
        sched = ReconfigSchedule(
            ReconfigPoint(after_joins=1, to_leaves=2),
            autoscaler=AutoScaler(high_watermark=5, factor=2),
        )
        view = sched.root_view("w1", width=4, ceiling=4)
        # Point armed; watermark disarmed (already at ceiling).
        assert view is not None and view._watermarks is None
        ev = type("E", (), {"ts": 1.0, "order_key": (1.0, 0, 0)})()
        with pytest.raises(QuiesceSignal) as exc:
            view.maybe_quiesce(ev, queue_depth=0, state=42)
        assert exc.value.record.point_index == 0
        # The driver tracks firings; a spent schedule yields no view.
        assert (
            sched.root_view("w1", width=4, ceiling=4, fired=frozenset({0}))
            is None
        )

    def test_wrong_direction_watermarks_disarmed(self):
        """A clamp inversion must not fire: already above max_leaves,
        a high-watermark 'scale-out' would *shrink* the plan — the
        view disarms it instead of quiescing."""
        sched = ReconfigSchedule(
            autoscaler=AutoScaler(high_watermark=1, low_watermark=0, max_leaves=4)
        )
        # width 8 > max_leaves 4: scale-out target (4) is narrower ->
        # high disarmed; scale-in (4 < 8) stays armed.
        view = sched.root_view("w1", width=8, ceiling=16)
        assert view._watermarks.high_watermark is None
        assert view._watermarks.low_watermark == 0
        # width at the floor: scale-in disarmed, scale-out armed.
        view = sched.root_view("w1", width=1, ceiling=16)
        assert view._watermarks.high_watermark == 1
        assert view._watermarks.low_watermark is None

    def test_schedules_are_reusable_pure_data(self):
        """Firing state lives in the driver, not the schedule: the same
        instance drives migrations on two different backends."""
        prog, streams, plan = vb_case(n_value_streams=4, values_per_barrier=15)
        sched = ReconfigSchedule(ReconfigPoint(after_joins=1, to_leaves=2))
        for backend in ("threaded", "sim"):
            run = run_on_backend(
                backend, prog, plan, streams,
                options=RunOptions(reconfig_schedule=sched),
            )
            assert run.reconfig.reconfigured, f"{backend}: schedule was consumed"
            assert output_multiset(run.outputs) == output_multiset(
                run_sequential_reference(prog, streams)
            )

    def test_watermark_cooldown(self):
        trig = WatermarkTrigger(high_watermark=1, cooldown_joins=3)
        assert trig.reason_for(queue_depth=100, joins_seen=2) is None
        assert trig.reason_for(queue_depth=100, joins_seen=3) == SCALE_OUT

    def test_views_and_records_are_picklable(self):
        view = RootReconfigView(
            "w1",
            [PointTrigger(0, at_ts=3.0)],
            WatermarkTrigger(high_watermark=10, low_watermark=1),
        )
        clone = pickle.loads(pickle.dumps(view))
        assert clone.worker == "w1"
        ev = type("Ev", (), {"ts": 5.0, "order_key": (5.0, 0, 0)})
        with pytest.raises(QuiesceSignal) as exc:
            clone.maybe_quiesce(ev(), queue_depth=0, state={"s": 1})
        rec = pickle.loads(pickle.dumps(exc.value.record))
        assert rec.point_index == 0 and rec.state == {"s": 1}


class TestElasticDriver:
    @pytest.mark.parametrize("backend", ["sim", "threaded", "process"])
    def test_planned_scale_out_matches_spec(self, backend):
        prog, streams, plan = vb_case(n_value_streams=4)
        narrow = repartition_plan(prog, plan, 2)
        sched = ReconfigSchedule(ReconfigPoint(after_joins=2, to_leaves=4))
        run = run_on_backend(
            backend, prog, narrow, streams,
            options=RunOptions(reconfig_schedule=sched, timeout_s=60.0),
        )
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        rec = run.reconfig
        assert rec.attempts == 2
        assert [s.from_leaves for s in rec.reconfigurations] == [2]
        assert [s.to_leaves for s in rec.reconfigurations] == [4]
        assert [p.leaves for p in rec.phases] == [2, 4]
        assert [plan_width(p) for p in rec.plan_history] == [2, 4]
        assert rec.reconfigurations[0].reason == "planned"

    def test_narrow_to_single_worker_completes(self):
        prog, streams, plan = vb_case(n_value_streams=3)
        sched = ReconfigSchedule(
            ReconfigPoint(after_joins=2, to_leaves=1),
            # Inert: a single worker has no root joins to quiesce at.
            ReconfigPoint(after_joins=3, to_leaves=3),
        )
        run = run_on_backend(
            "threaded", prog, plan, streams,
            options=RunOptions(reconfig_schedule=sched),
        )
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        assert [p.leaves for p in run.reconfig.phases] == [3, 1]

    def test_autoscaler_scales_out_under_backlog(self):
        prog, streams, plan = vb_case(n_value_streams=4, values_per_barrier=40)
        narrow = repartition_plan(prog, plan, 2)
        sched = ReconfigSchedule(
            autoscaler=AutoScaler(high_watermark=20, factor=2, max_reconfigs=2)
        )
        run = run_on_backend(
            "threaded", prog, narrow, streams,
            options=RunOptions(reconfig_schedule=sched),
        )
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        rec = run.reconfig
        # The threaded producers enqueue everything up-front, so the
        # first decision join sees a deep queue and must scale out.
        assert rec.reconfigured
        first = rec.reconfigurations[0]
        assert first.reason == "scale-out"
        assert first.queue_depth >= 20
        assert first.to_leaves == 4

    def test_crash_before_point_replays_trigger(self):
        """A crash that interrupts the phase before a timestamp-keyed
        point fires must not consume the point: the replay quiesces at
        the same place, and recovery restored into the original shape
        (plan_history only then gains the migration)."""
        prog, streams, plan = vb_case(n_value_streams=4)
        narrow = repartition_plan(prog, plan, 2)
        barriers = streams[-1].events
        sched = ReconfigSchedule(
            ReconfigPoint(at_ts=barriers[2].ts - 0.001, to_leaves=4)
        )
        victim = narrow.leaves()[0].id
        fp = FaultPlan(CrashFault(victim, at_ts=barriers[1].ts + 0.001))
        run = run_on_backend(
            "threaded",
            prog,
            narrow,
            streams,
            options=RunOptions(
                reconfig_schedule=sched,
                fault_plan=fp,
                checkpoint_predicate=every_root_join(),
            ),
        )
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        rec = run.reconfig
        assert rec.recovered and rec.reconfigured
        assert rec.recoveries[0].attempt < rec.reconfigurations[0].attempt
        assert [plan_width(p) for p in rec.plan_history] == [2, 4]

    def test_crash_after_migration_restores_current_shape(self):
        """A crash in the post-migration phase recovers into the *new*
        plan (the boundary snapshot doubles as a checkpoint), even with
        no checkpoint predicate armed."""
        prog, streams, plan = vb_case(n_value_streams=4)
        narrow = repartition_plan(prog, plan, 2)
        wide = repartition_plan(prog, narrow, 4)
        barriers = streams[-1].events
        sched = ReconfigSchedule(ReconfigPoint(after_joins=1, to_plan=wide))
        victim = wide.leaves()[-1].id
        fp = FaultPlan(CrashFault(victim, at_ts=barriers[2].ts - 0.001))
        run = run_on_backend(
            "process",
            prog,
            narrow,
            streams,
            options=RunOptions(reconfig_schedule=sched, fault_plan=fp),
        )
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        rec = run.reconfig
        assert rec.reconfigurations[0].attempt == 1
        assert rec.recovered
        assert rec.recoveries[0].attempt > rec.reconfigurations[0].attempt
        assert plan_width(rec.final_plan) == 4

    def test_crash_without_any_snapshot_is_clean_error(self):
        prog, streams, plan = vb_case(n_value_streams=3)
        barriers = streams[-1].events
        sched = ReconfigSchedule(
            ReconfigPoint(at_ts=barriers[-1].ts + 100.0, to_leaves=2)  # never fires
        )
        victim = plan.leaves()[0].id
        fp = FaultPlan(CrashFault(victim, after_events=1))
        with pytest.raises(NoCheckpointError):
            run_on_backend(
                "threaded",
                prog,
                plan,
                streams,
                options=RunOptions(reconfig_schedule=sched, fault_plan=fp),
            )

    def test_sim_reconfiguration_is_deterministic(self):
        prog, streams, plan = vb_case(n_value_streams=4)
        narrow = repartition_plan(prog, plan, 2)

        def once():
            sched = ReconfigSchedule(ReconfigPoint(after_joins=2, to_leaves=4))
            run = run_on_backend(
                "sim", prog, narrow, streams,
                options=RunOptions(reconfig_schedule=sched),
            )
            return (
                tuple(map(repr, run.outputs)),
                tuple((s.key, s.ts) for s in run.reconfig.reconfigurations),
            )

        assert once() == once()


class TestRunOptions:
    def test_defaults_helpers(self):
        opts = RunOptions()
        assert opts.with_timeout_default(60.0) == 60.0
        assert RunOptions(timeout_s=1.0).with_timeout_default(60.0) == 1.0
        assert opts.metrics_config() is None
        assert RunOptions(metrics=True).metrics_config() is not None

    @pytest.mark.parametrize("bad", [float("nan"), 0, 0.0, -1, float("inf")])
    def test_timeout_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="timeout_s"):
            RunOptions(timeout_s=bad)

    @pytest.mark.parametrize(
        "bad",
        [(0.1, 0.01), (0.001, float("nan")), (-1.0, 0.5), (0.0, 0.0), ()],
        ids=["decreasing", "nan", "negative", "zero", "empty"],
    )
    def test_latency_buckets_must_be_positive_finite_and_increasing(self, bad):
        """Refused where it is given: otherwise one substrate raises at
        the run, another crashes a worker or merges nothing, and a
        negative or zero bound reads back as a nonsense percentile."""
        with pytest.raises(ValueError, match="latency_buckets"):
            RunOptions(metrics=True, latency_buckets=bad)
        ok = RunOptions(metrics=True, latency_buckets=[0.001, 0.01])
        assert ok.metrics_config().latency_buckets == (0.001, 0.01)

    def test_options_object_accepted_by_backends(self):
        prog, streams, plan = vb_case(n_value_streams=2, values_per_barrier=10)
        opts = RunOptions(
            reconfig_schedule=ReconfigSchedule(
                ReconfigPoint(after_joins=1, to_leaves=1)
            ),
            timeout_s=60.0,
        )
        run = run_on_backend("threaded", prog, plan, streams, options=opts)
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        assert run.reconfig.reconfigured

    def test_picklable_with_schedule_and_faults(self):
        opts = RunOptions(
            fault_plan=FaultPlan(CrashFault("w2", after_events=3)),
            checkpoint_predicate=every_root_join(),
            reconfig_schedule=ReconfigSchedule(
                ReconfigPoint(at_ts=4.0, to_leaves=3),
                autoscaler=AutoScaler(high_watermark=10),
            ),
            transport="tcp",
        )
        clone = pickle.loads(pickle.dumps(opts))
        assert clone.transport == "tcp"
        assert clone.reconfig_schedule.points[0].to_leaves == 3
        assert clone.fault_plan.faults[0].worker == "w2"


class TestBacklogSignal:
    def test_join_response_backlog_round_trips_on_wire(self):
        from repro.runtime.messages import JoinResponse
        from repro.runtime.wire import pack_frame, unpack_frame

        msg = JoinResponse(("w1", 3), "left", {"s": 1}, backlog=17)
        assert unpack_frame(pack_frame([msg])) == [msg]

    def test_root_observes_queue_depth_in_sim(self):
        """In the simulated cluster arrivals happen at event timestamps,
        so the queue depth the root observes at a quiesce is the true
        instantaneous backlog — assert it is recorded and plausible."""
        prog, streams, plan = vb_case(n_value_streams=4, values_per_barrier=30)
        sched = ReconfigSchedule(ReconfigPoint(after_joins=2, to_leaves=2))
        run = run_on_backend(
            "sim", prog, plan, streams, options=RunOptions(reconfig_schedule=sched)
        )
        rec = run.reconfig
        assert rec.reconfigured
        total_events = sum(len(s.events) for s in streams)
        assert 0 <= rec.reconfigurations[0].queue_depth <= total_events


def test_random_morph_targets_stay_valid():
    """Property-style: random repartition targets of random widths are
    always P-valid, cover the same itags, and are migration-compatible
    with their source."""
    prog, _, plan = vb_case(n_value_streams=6)
    rng = random.Random(20260728)
    current = plan
    for _ in range(12):
        n = rng.randint(1, 8)
        target = repartition_plan(
            prog, current, n, shape=rng.choice(("balanced", "chain"))
        )
        assert is_p_valid(target, prog)
        assert_reconfig_compatible(current, target, prog)
        current = target

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
)
from repro.runtime import (
    CrashFault,
    FaultPlan,
    NodeSpec,
    ReconfigPoint,
    ReconfigSchedule,
    RunOptions,
    every_root_join,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime.quiesce import PointTrigger, QuiesceSignal, RootReconfigView


#: Every substrate a planned migration runs on: backend, deployment.
SUBSTRATES = {
    "sim": ("sim", {}),
    "threaded": ("threaded", {}),
    "process": ("process", {}),
    "nodes=2": ("process", {"nodes": 2}),
}


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

    @pytest.mark.parametrize("at_ts", [True, float("inf"), "3.0"], ids=["bool", "inf", "str"])
    def test_a_trigger_timestamp_no_event_can_reach_is_refused(self, at_ts):
        """``at_ts=True`` is an int to Python, ``inf`` is never reached,
        and a non-number raised a bare TypeError from ``math.isnan``:
        each is a ValueError when the point is built."""
        with pytest.raises(ValueError, match="at_ts"):
            ReconfigPoint(at_ts=at_ts, to_leaves=2)
        assert ReconfigPoint(at_ts=-float("inf"), to_leaves=2).at_ts == -float("inf")

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"after_joins": 1, "to_leaves": 2, "shape": "bogus"}, "shape"),
            ({"after_joins": 1, "to_leaves": 2.5}, "to_leaves"),
            ({"after_joins": 1.0, "to_leaves": 2}, "after_joins"),
            ({"after_joins": True, "to_leaves": 2}, "after_joins"),
            ({"after_joins": 1, "to_leaves": True}, "to_leaves"),
        ],
        ids=["unknown-shape", "float-width", "float-joins", "bool-joins", "bool-width"],
    )
    def test_a_bad_point_is_refused_when_built(self, kwargs, match):
        """Refused where it is given, not after a first attempt has run
        and quiesced (an unknown shape), mid-run as a bare TypeError (a
        float width), or never (a bool is an int: ``to_leaves=True``
        migrated to a one-leaf plan)."""
        with pytest.raises(ValueError, match=match):
            ReconfigPoint(**kwargs)

    def test_a_shape_beside_an_explicit_plan_is_refused(self):
        """``to_plan=`` brings its own layout: a ``shape=`` next to it
        would be silently ignored."""
        _, _, plan = vb_case()
        with pytest.raises(ValueError, match="shape"):
            ReconfigPoint(after_joins=1, to_plan=plan, shape="chain")
        assert ReconfigPoint(after_joins=1, to_plan=plan).to_plan is plan

    def test_every_shape_the_plan_builders_know_is_accepted(self):
        from repro.plans import SHAPES

        prog, _, plan = vb_case(n_value_streams=4)
        for shape in SHAPES:
            point = ReconfigPoint(after_joins=1, to_leaves=3, shape=shape)
            target = repartition_plan(prog, plan, point.to_leaves, shape=point.shape)
            assert plan_width(target) == 3

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            ReconfigSchedule()

    def test_view_excludes_fired_points(self):
        sched = ReconfigSchedule(
            ReconfigPoint(after_joins=1, to_leaves=2),
            ReconfigPoint(after_joins=1, to_leaves=3),
        )
        view = sched.root_view("w1", fired={0})
        ev = type("E", (), {"ts": 1.0, "order_key": (1.0, 0, 0)})()
        with pytest.raises(QuiesceSignal) as exc:
            view.maybe_quiesce(ev, state=42)
        assert exc.value.record.point_index == 1
        # The driver tracks firings; a spent schedule yields no view.
        assert sched.root_view("w1", fired={0, 1}) is None

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

    def test_views_and_records_are_picklable(self):
        view = RootReconfigView("w1", [PointTrigger(0, at_ts=3.0)])
        clone = pickle.loads(pickle.dumps(view))
        assert clone.worker == "w1"
        ev = type("Ev", (), {"ts": 5.0, "order_key": (5.0, 0, 0)})
        with pytest.raises(QuiesceSignal) as exc:
            clone.maybe_quiesce(ev(), state={"s": 1})
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

    def test_a_planned_migration_happens_at_the_same_place_on_every_substrate(self):
        """One ``after_joins`` point and one ``at_ts`` point: every
        substrate quiesces at the same root join, so the migration
        steps agree key for key, not only the outputs."""
        prog, streams, plan = vb_case(n_value_streams=4)
        narrow = repartition_plan(prog, plan, 2)
        barriers = streams[-1].events
        sched = ReconfigSchedule(
            ReconfigPoint(after_joins=2, to_leaves=4),
            ReconfigPoint(at_ts=barriers[3].ts - 0.001, to_leaves=2),
        )
        spec = output_multiset(run_sequential_reference(prog, streams))
        steps = {}
        for name, (backend, deploy) in SUBSTRATES.items():
            run = run_on_backend(
                backend, prog, narrow, streams,
                options=RunOptions(reconfig_schedule=sched, timeout_s=120.0, **deploy),
            )
            assert output_multiset(run.outputs) == spec, name
            steps[name] = [
                (s.key, s.ts, s.from_leaves, s.to_leaves)
                for s in run.reconfig.reconfigurations
            ]
        assert [s[2:] for s in steps["sim"]] == [(2, 4), (4, 2)]
        assert steps["sim"][1][1] == barriers[3].ts
        assert {name: steps["sim"] for name in steps} == steps

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
        "field, fields",
        [
            ("nodes", {"nodes": True}),
            ("nodes", {"nodes": 2.5}),
            ("nodes", {"nodes": 0}),
            ("nodes", {"nodes": []}),
            ("nodes", {"nodes": ["node0"]}),
            ("nodes", {"nodes": "node0"}),
            ("placement", {"nodes": 2, "placement": [1, 2]}),
            ("placement", {"nodes": 2, "placement": {"w1": 0}}),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(v),
    )
    def test_a_malformed_deployment_field_is_refused_where_it_is_given(self, field, fields):
        """Not a silent one-node run or a ``TypeError`` mid-run."""
        with pytest.raises(ValueError, match=field):
            RunOptions(**fields)
        RunOptions(nodes=1, placement={}, metrics=True)
        RunOptions(nodes=(NodeSpec("a"), NodeSpec("b")), placement={"w1": "a"})

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
                ReconfigPoint(after_joins=2, to_leaves=2, shape="chain"),
            ),
            transport="tcp",
        )
        clone = pickle.loads(pickle.dumps(opts))
        assert clone.transport == "tcp"
        assert clone.reconfig_schedule.points[0].to_leaves == 3
        assert clone.reconfig_schedule.points[1].shape == "chain"
        assert clone.fault_plan.faults[0].worker == "w2"


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

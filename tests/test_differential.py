"""Tests for the differential-testing utility (repro.testing) and its
use across the simulated runtime, the threaded runtime, the process
runtime, and the baseline engines — including every app under live
elastic reconfiguration."""

import random

import pytest

from repro.apps import (
    fraud,
    keycounter as kc,
    outlier,
    pageview,
    sessionize as sz,
    smarthome,
    value_barrier as vb,
)
from repro.core import Event, ImplTag
from repro.plans import plan_width, root_and_leaves_plan, sequential_plan
from repro.runtime import (
    CrashFault,
    FaultPlan,
    InputStream,
    ReconfigPoint,
    ReconfigSchedule,
    RunOptions,
    every_root_join,
    local_nodes,
    run_on_backend,
    run_sequential_reference,
)
from repro.testing import compare_outputs, diff_plans, diff_against_spec, fuzz_plans


def kc_streams(nkeys=2, n=80, seed=0):
    rng = random.Random(seed)
    prog = kc.make_program(nkeys)
    itags = []
    for k in range(nkeys):
        itags.append(ImplTag(kc.inc_tag(k), f"i{k}"))
        itags.append(ImplTag(kc.reset_tag(k), f"r{k}"))
    events = {it: [] for it in itags}
    for t in range(1, n):
        it = itags[rng.randrange(len(itags))]
        events[it].append(Event(it.tag, it.stream, float(t)))
    streams = [
        InputStream(it, tuple(events[it]), heartbeat_interval=5.0) for it in itags
    ]
    return prog, streams


class TestCompareOutputs:
    def test_equivalent_up_to_reordering(self):
        assert compare_outputs([1, 2, 3], [3, 1, 2]) is None

    def test_detects_missing_and_extra(self):
        m = compare_outputs([1, 2], [2, 9], "x")
        assert m is not None
        assert m.missing == {1: 1}
        assert m.extra == {9: 1}
        assert m.implementation == "x"

    def test_multiset_not_set(self):
        assert compare_outputs([1, 1], [1]) is not None

    def test_unhashable_outputs_normalized(self):
        assert compare_outputs([{"a": 1}], [{"a": 1}]) is None


class TestDiffPlans:
    def test_fuzz_plans_all_match(self):
        prog, streams = kc_streams(seed=3)
        report = fuzz_plans(prog, streams, n_plans=4, seed=1)
        assert report.ok, [str(m) for m in report.mismatches]
        assert report.implementations_checked == 4

    def test_sequential_and_tree_agree(self):
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=3, values_per_barrier=30, n_barriers=3)
        streams = vb.make_streams(wl)
        plans = {
            "sequential": sequential_plan(prog, [s.itag for s in streams]),
            "tree": vb.make_plan(prog, wl),
        }
        report = diff_plans(prog, streams, plans)
        assert report.ok

    def test_broken_implementation_flagged(self):
        prog, streams = kc_streams(seed=5)
        report = diff_against_spec(
            prog,
            streams,
            {"liar": lambda: [("nonsense", 0)]},
        )
        assert not report.ok
        assert report.mismatches[0].implementation == "liar"


def _app_case(name):
    """(program, streams, plan) for a small instance of each app in
    repro.apps — the fixture matrix for cross-runtime equivalence."""
    if name == "value_barrier":
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=3, values_per_barrier=25, n_barriers=3)
        return prog, vb.make_streams(wl), vb.make_plan(prog, wl)
    if name == "fraud":
        prog = fraud.make_program()
        wl = fraud.make_workload(n_txn_streams=3, txns_per_rule=25, n_rules=3)
        return prog, fraud.make_streams(wl), fraud.make_plan(prog, wl)
    if name == "pageview":
        prog = pageview.make_program(2)
        wl = pageview.make_workload(
            n_pages=2, n_view_streams=2, views_per_update=20, n_updates_per_page=3
        )
        return prog, pageview.make_streams(wl), pageview.make_plan(prog, wl)
    if name == "keycounter":
        prog, streams = kc_streams(nkeys=2, n=60, seed=17)
        from repro.plans import random_valid_plan

        plan = random_valid_plan(prog, [s.itag for s in streams], random.Random(4))
        return prog, streams, plan
    if name == "outlier":
        prog = outlier.make_program()
        conns, queries, qit = outlier.synthetic_connections(
            n_streams=2, conns_per_query=15, n_queries=2, rate_per_ms=5.0
        )
        return (
            prog,
            outlier.make_streams(conns, queries, qit),
            outlier.make_plan(prog, conns, qit),
        )
    if name == "smarthome":
        prog = smarthome.make_program(2)
        houses, ticks, tit = smarthome.synthetic_plug_load(
            n_houses=2, measurements_per_slice=20, n_slices=2
        )
        return (
            prog,
            smarthome.make_streams(houses, ticks, tit),
            smarthome.make_plan(prog, houses, tit),
        )
    if name == "sessionize":
        wl = sz.make_workload(n_keys=3, events_per_key=20, seed=9)
        prog = sz.make_program(3, timeout_ms=wl.timeout_ms)
        return prog, sz.make_streams(wl), sz.make_plan(prog, wl)
    raise AssertionError(name)


ALL_APPS = (
    "value_barrier",
    "fraud",
    "pageview",
    "keycounter",
    "outlier",
    "smarthome",
    "sessionize",
)


class TestCrossRuntimeDifferential:
    def test_simulated_threaded_and_spec_agree(self):
        prog, streams = kc_streams(nkeys=2, seed=11)
        from repro.plans import random_valid_plan

        plan = random_valid_plan(
            prog, [s.itag for s in streams], random.Random(2)
        )
        report = diff_against_spec(
            prog,
            streams,
            {
                "threaded": lambda: run_on_backend("threaded", prog, plan, streams).outputs,
            },
        )
        assert report.ok, [str(m) for m in report.mismatches]

    @pytest.mark.parametrize("app", ALL_APPS)
    def test_all_apps_all_runtimes_agree(self, app):
        """Sequential spec, sim, threaded, and process runtimes — the
        latter over both the pipe and the TCP data planes — produce
        identical output multisets on every application in repro.apps
        (Theorem 2.4's determinism up to reordering, checked on every
        substrate and transport), and every fault-free run counts each
        input event exactly once (a synchronizing event is one event,
        not one at release plus one after its join)."""
        prog, streams, plan = _app_case(app)
        n_events = sum(len(s.events) for s in streams)

        def checked(backend, **opts):
            run = run_on_backend(
                backend, prog, plan, streams, options=RunOptions(**opts)
            )
            assert run.events_processed == run.events_in == n_events, backend
            return run.outputs

        impls = {
            backend: (lambda b=backend: checked(b))
            for backend in ("sim", "threaded", "process")
        }
        impls["process-tcp"] = lambda: checked("process", transport="tcp")
        report = diff_against_spec(prog, streams, impls)
        assert report.ok, [str(m) for m in report.mismatches]


def _elastic_app_case(name):
    """(program, streams, plan) for each app with a plan whose root
    tags synchronize globally — the shape elastic reconfiguration (like
    checkpoint recovery) requires.  Most apps' natural plans qualify;
    pageview needs a single page (pages are mutually independent, so a
    multi-page forest has no global synchronization point) and
    keycounter a single key with resets at the root."""
    if name == "pageview":
        prog = pageview.make_program(1)
        wl = pageview.make_workload(
            n_pages=1, n_view_streams=3, views_per_update=15, n_updates_per_page=3
        )
        return prog, pageview.make_streams(wl), pageview.make_plan(prog, wl)
    if name == "keycounter":
        prog = kc.make_program(1)
        rng = random.Random(23)
        inc_itags = [ImplTag(kc.inc_tag(0), f"i{s}") for s in range(3)]
        reset_itag = ImplTag(kc.reset_tag(0), "r")
        streams = [
            InputStream(
                it,
                tuple(
                    Event(it.tag, it.stream, float(t))
                    for t in sorted(rng.sample(range(1, 60), 12))
                ),
                heartbeat_interval=5.0,
            )
            for it in inc_itags
        ]
        streams.append(
            InputStream(
                reset_itag,
                tuple(Event(reset_itag.tag, "r", float(t)) for t in (14.5, 31.5, 47.5)),
                heartbeat_interval=5.0,
            )
        )
        plan = root_and_leaves_plan(prog, [reset_itag], [[it] for it in inc_itags])
        return prog, streams, plan
    return _app_case(name)


class TestElasticDifferential:
    """Every app, mid-stream reconfiguration, both real runtimes: the
    plan narrows at the first root join and (where the narrow plan can
    still quiesce) widens back at the next — outputs stay multiset-
    equal to the sequential specification across both migrations."""

    @pytest.mark.parametrize("backend", ("threaded", "process"))
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_all_apps_reconfigure_mid_stream(self, app, backend):
        prog, streams, plan = _elastic_app_case(app)
        w = plan_width(plan)
        assert w >= 2, f"{app}: elastic case must start parallel"
        mid = max(1, w // 2)
        points = [ReconfigPoint(after_joins=1, to_leaves=mid)]
        if mid >= 2:
            points.append(ReconfigPoint(after_joins=1, to_leaves=w))
        report = diff_against_spec(
            prog,
            streams,
            {
                backend: lambda: run_on_backend(
                    backend,
                    prog,
                    plan,
                    streams,
                    options=RunOptions(
                        reconfig_schedule=ReconfigSchedule(*points),
                        timeout_s=60.0,
                    ),
                ).outputs
            },
        )
        assert report.ok, [str(m) for m in report.mismatches]

    @pytest.mark.parametrize("app", ALL_APPS)
    def test_elastic_migrations_actually_happen(self, app):
        """The schedules above are not vacuous: at least the first
        migration fires on every app (checked once, on threaded)."""
        prog, streams, plan = _elastic_app_case(app)
        w = plan_width(plan)
        mid = max(1, w // 2)
        run = run_on_backend(
            "threaded",
            prog,
            plan,
            streams,
            options=RunOptions(
                reconfig_schedule=ReconfigSchedule(
                    ReconfigPoint(after_joins=1, to_leaves=mid)
                ),
                timeout_s=60.0,
            ),
        )
        rec = run.reconfig
        assert rec.reconfigured, f"{app}: reconfiguration point never fired"
        assert rec.reconfigurations[0].from_leaves == w
        assert plan_width(rec.final_plan) == mid
        # The migrated plan is a repartition of the original.
        assert rec.final_plan.all_itags() == plan.all_itags()


class TestSessionizeFullMatrix:
    """The seventh app family on every verification surface: spec vs
    sim, threaded, process, and a two-node TCP cluster — then under an
    injected crash *and* a mid-stream re-shard at once (the hardest
    combination: the recovery must restore sessions into the
    then-current plan shape)."""

    def _case(self, *, skew_alpha=None, seed=31):
        wl = sz.make_workload(
            n_keys=4, events_per_key=24, seed=seed, skew_alpha=skew_alpha
        )
        prog = sz.make_program(4, timeout_ms=wl.timeout_ms)
        return prog, sz.make_streams(wl), sz.make_plan(prog, wl), wl

    def test_sim_and_tcp_cluster_agree_with_spec(self):
        prog, streams, plan, _ = self._case()
        runs = {}

        def outputs_of(name, backend, **opts):
            runs[name] = run_on_backend(
                backend, prog, plan, streams, options=RunOptions(**opts)
            )
            return runs[name].outputs

        impls = {
            "sim": lambda: outputs_of("sim", "sim"),
            "tcp-2nodes": lambda: outputs_of(
                "tcp-2nodes",
                "process",
                transport="tcp",
                nodes=local_nodes(2),
                timeout_s=120.0,
            ),
        }
        report = diff_against_spec(prog, streams, impls)
        assert report.ok, [str(m) for m in report.mismatches]
        for name, run in runs.items():
            assert run.events_processed == run.events_in, name

    def test_skewed_traffic_stays_spec_identical(self):
        prog, streams, plan, wl = self._case(skew_alpha=1.3)
        # The skew is real: the head key carries strictly more traffic.
        counts = [len(v) for v in wl.act_streams.values()]
        assert counts[0] > counts[-1]
        report = diff_against_spec(
            prog,
            streams,
            {"threaded": lambda: run_on_backend("threaded", prog, plan, streams).outputs},
        )
        assert report.ok, [str(m) for m in report.mismatches]

    @pytest.mark.parametrize("backend", ("threaded", "process"))
    def test_crash_plus_reshard_mid_stream(self, backend):
        prog, streams, plan, wl = self._case()
        flush_ts = [e.ts for e in wl.flush_stream]
        victim = next(
            plan.owner_of(s.itag).id
            for s in streams
            if plan.owner_of(s.itag).id != plan.root.id
        )
        run = run_on_backend(
            backend,
            prog,
            plan,
            streams,
            options=RunOptions(
                fault_plan=FaultPlan(
                    CrashFault(victim, at_ts=flush_ts[1] + 0.01)
                ),
                reconfig_schedule=ReconfigSchedule(
                    ReconfigPoint(after_joins=1, to_leaves=2)
                ),
                checkpoint_predicate=every_root_join(),
                timeout_s=120.0,
            ),
        )
        rec = run.reconfig if run.reconfig is not None else run.recovery
        assert rec.attempts >= 2, "neither the crash nor the migration fired"
        ref = run_sequential_reference(prog, streams)
        mismatch = compare_outputs(ref, run.outputs, backend)
        assert mismatch is None, str(mismatch)


class IntSub(int):
    """An int subclass that keeps int's arithmetic."""


def _repr_multiset(outputs):
    """Outputs compared type for type: ``16`` and ``16.0`` are equal
    values but not the same output."""
    return sorted(map(repr, outputs))


def _typed_sum_program(*, batch):
    """Between barriers, sum ``len(repr((tag, ts, payload)))`` over the
    value events: a runtime that changes any event's tag, timestamp or
    payload type — ``True`` for ``1``, ``2`` for ``2.0`` — changes a
    sum.  ``batch`` adds an ``update_batch`` that reads the columns."""
    from repro.core import DependenceRelation
    from repro.core.program import single_state_program

    tags = ("v", 1, "b")

    def weight(tag, ts, payload):
        return len(repr((tag, ts, payload)))

    def update(state, e):
        if e.tag == "b":
            return 0, [("sum", e.ts, state)]
        return state + weight(e.tag, e.ts, e.payload), []

    def update_batch(state, run):
        if run.tag == "b":
            return vb._update_batch(state, run)  # per-event window outputs
        pl = run.payloads if run.payloads is not None else [None] * len(run)
        return state + sum(weight(run.tag, t, p) for t, p in zip(run.ts, pl)), []

    def fork(state, p1, p2):
        return (0, state) if "b" in p2 and "b" not in p1 else (state, 0)

    return single_state_program(
        name="typed-sum",
        tags=tags,
        depends=DependenceRelation.from_function(tags, lambda a, b: "b" in (a, b)),
        init=lambda: 0,
        update=update,
        update_batch=update_batch if batch else None,
        fork=fork,
        join=lambda a, b: a + b,
    )


class TestMixedValueTypes:
    """Streams whose events are one route but not one value type: the
    producers build runs by route alone, so every substrate must carry
    each event's own timestamp and payload objects, and each
    ``update_batch`` must agree with ``update`` on them."""

    BACKENDS = {
        "sim": ("sim", {}),
        "threaded": ("threaded", {}),
        "process": ("process", {}),
        "process-2nodes": (
            "process",
            {"transport": "tcp", "nodes": local_nodes(2), "timeout_s": 120.0},
        ),
    }

    def _run(self, name, prog, plan, streams):
        backend, opts = self.BACKENDS[name]
        return run_on_backend(backend, prog, plan, streams, options=RunOptions(**opts))

    @pytest.mark.parametrize("name", ["sim", "threaded", "process"])
    def test_value_barrier_sums_payloads_as_update_does(self, name):
        """Float, bool, int-subclass and numeric-string payloads, in
        stretches a run can span: ``update`` adds ``int(payload)``, and
        so must the column sum."""
        prog = vb.make_program()
        kinds = [
            [2.5, 1.5, 0.75],
            [True, True, False],
            [IntSub(3), IntSub(-1)],
            ["4", "12", "-2"],
            [7, 8],
        ]
        cycle = [p for stretch in kinds for p in stretch]
        values = {f"v{s}": [] for s in range(2)}
        for i in range(60):
            stream = f"v{(i // 4) % 2}"
            values[stream].append(
                Event(vb.VALUE_TAG, stream, i + 0.5, cycle[(i + 3 * (i // 4)) % len(cycle)])
            )
        barriers = [Event(vb.BARRIER_TAG, "b", 10.0 * k + 0.25, None) for k in range(1, 7)]
        streams = [
            InputStream(ImplTag(vb.VALUE_TAG, s), tuple(evs), heartbeat_interval=5.0)
            for s, evs in values.items()
        ] + [InputStream(ImplTag(vb.BARRIER_TAG, "b"), tuple(barriers), heartbeat_interval=5.0)]
        plan = root_and_leaves_plan(
            prog,
            [ImplTag(vb.BARRIER_TAG, "b")],
            [[ImplTag(vb.VALUE_TAG, s)] for s in values],
        )
        ref = run_sequential_reference(prog, streams)
        assert all(type(out[2]) is int for out in ref) and len(ref) == 6
        run = self._run(name, prog, plan, streams)
        assert _repr_multiset(run.outputs) == _repr_multiset(ref)

    @pytest.mark.parametrize("batch", [False, True], ids=["update", "update_batch"])
    @pytest.mark.parametrize("name", ["sim", "threaded", "process", "process-2nodes"])
    def test_mixed_type_streams_match_the_spec(self, name, batch):
        """Int and float timestamps in one stream, stretches of int,
        float, bool and None payloads, and a stream whose events carry
        the equal but differently typed tags ``1`` and ``True``."""
        prog = _typed_sum_program(batch=batch)
        payloads = [1, 2, 3, 0.5, 1.5, True, False, True, None, None, 4, 2.25]
        v0, t1 = [], []
        for i in range(48):
            ts = 2 * i + 1 if (i // 5) % 2 else 2 * i + 1.5
            v0.append(Event("v", "v0", ts, payloads[i % len(payloads)]))
            tag = True if (i // 3) % 2 else 1
            t1.append(Event(tag, "t", 2 * i + 1.75, payloads[(i + 5) % len(payloads)]))
        barriers = [Event("b", "b", 12.0 * k + 0.125, None) for k in range(1, 9)]
        streams = [
            InputStream(ImplTag("v", "v0"), tuple(v0), heartbeat_interval=4.0),
            InputStream(ImplTag(1, "t"), tuple(t1), heartbeat_interval=4.0),
            InputStream(ImplTag("b", "b"), tuple(barriers), heartbeat_interval=4.0),
        ]
        plan = root_and_leaves_plan(
            prog, [ImplTag("b", "b")], [[ImplTag("v", "v0")], [ImplTag(1, "t")]]
        )
        ref = run_sequential_reference(prog, streams)
        assert len(ref) == 8
        run = self._run(name, prog, plan, streams)
        assert _repr_multiset(run.outputs) == _repr_multiset(ref)
        assert run.events_processed == run.events_in

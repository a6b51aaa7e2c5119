"""The seeded chaos sweep (repro.chaos) as a tier-1 suite.

Acceptance shape: >= 50 seeded (app, plan, fault-schedule) cases across
the threaded and process runtimes, each recovering from its injected
faults and producing outputs multiset-equal to the sequential
reference, plus a reconfiguration matrix — seeded mid-stream plan
migrations, half of them with crash schedules armed at the same time
(recovery must restore into the then-current plan shape).  Every case
id encodes its full derivation seed, so a failure here reproduces
standalone with

    python -m repro.chaos --seed 20260728 --cases 54 --only <case_id>

for the fault sweep, or

    python -m repro.chaos --seed 20260729 --cases 24 \\
        --modes reconfig,reconfig-crash --only <case_id>

for the reconfiguration matrix, or

    python -m repro.chaos --seed 20260806 --cases 16 --apps value-barrier \\
        --modes faults,reconfig --workloads zipf,flash,straggler \\
        --only <case_id>

for the adversarial-workload matrix (see TESTING.md; the late-arrival
and sessionize families below carry their own seeds the same way), or

    python -m repro.chaos --smoke --backends sim \\
        --modes faults,reconfig,reconfig-crash --only <case_id>

for the simulated-substrate slice (the CI command itself), or

    python -m repro.chaos --smoke --backends threaded,process \\
        --modes service --only <case_id>

for the service slice (likewise).
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.chaos import (
    APPS,
    ChaosCase,
    _metrics_mismatch,
    build_fault_schedule,
    build_reconfig_schedule,
    build_workload,
    generate_cases,
    run_chaos_case,
)
from repro.runtime import CrashFault, DropHeartbeats, MetricsSnapshot, RunMetrics

SWEEP_SEED = 20260728
N_CASES = 54  # acceptance floor is 50; a few extra for slack

CASES = generate_cases(
    seed=SWEEP_SEED, n_cases=N_CASES, backends=("threaded", "process")
)

RECONFIG_SEED = 20260729
N_RECONFIG_CASES = 24

RECONFIG_CASES = generate_cases(
    seed=RECONFIG_SEED,
    n_cases=N_RECONFIG_CASES,
    backends=("threaded", "process"),
    modes=("reconfig", "reconfig-crash"),
)

# The adversarial-workload matrix: {zipf, flash, straggler} x {faults,
# reconfig} x {threaded, process} on a single app keeps the stride
# small enough that 16 cases cover every triple (the satellite floor).
ADVERSARIAL_SEED = 20260806
N_ADVERSARIAL_CASES = 16

ADVERSARIAL_CASES = generate_cases(
    seed=ADVERSARIAL_SEED,
    n_cases=N_ADVERSARIAL_CASES,
    backends=("threaded", "process"),
    apps=("value-barrier",),
    modes=("faults", "reconfig"),
    workloads=("zipf", "flash", "straggler"),
)

# Bounded out-of-order delivery gets its own slice (on the app whose
# read-resets are order-sensitive), and the sessionize family runs
# uniform + zipf traffic through both chaos modes.
LATE_CASES = generate_cases(
    seed=ADVERSARIAL_SEED + 1,
    n_cases=4,
    backends=("threaded", "process"),
    apps=("keycounter",),
    modes=("faults", "reconfig"),
    workloads=("late",),
)

SESSIONIZE_CASES = generate_cases(
    seed=ADVERSARIAL_SEED + 2,
    n_cases=8,
    backends=("threaded", "process"),
    apps=("sessionize",),
    modes=("faults", "reconfig"),
    workloads=("uniform", "zipf"),
)

# The simulated substrate drives the same WorkerCore as the real ones,
# deterministically and in-process (coverage sees every protocol line
# the crashes and re-plans reach).  Exactly CI's
# `--smoke --backends sim --modes faults,reconfig,reconfig-crash` slice.
SIM_CASES = generate_cases(
    seed=0,
    n_cases=12,
    backends=("sim",),
    modes=("faults", "reconfig", "reconfig-crash"),
)

# A live service ingesting each workload through the TCP tier's codec,
# one crash or re-plan between its seals.  Exactly CI's
# `--smoke --backends threaded,process --modes service` slice.
SERVICE_CASES = generate_cases(
    seed=0,
    n_cases=12,
    backends=("threaded", "process"),
    modes=("service",),
)

_OUTCOMES = {}


def _outcomes_or_sample(cases, stride):
    """Outcomes for an aggregate assertion: free when the parametrized
    cases all ran in this process (the serial full-suite case), else a
    deterministic every-``stride``-th sample recomputed locally — so
    under pytest-xdist (which scatters the parametrized cases across
    workers) these tests stay cheap instead of re-running whole
    sweeps."""
    if all(c.case_id in _OUTCOMES for c in cases):
        return [_OUTCOMES[c.case_id] for c in cases]
    return [run_chaos_case(c, timeout_s=60.0) for c in cases[::stride]]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.case_id)
def test_chaos_case_recovers_and_matches_spec(case):
    outcome = run_chaos_case(case, timeout_s=60.0)
    _OUTCOMES[case.case_id] = outcome
    assert outcome.ok, (
        f"{case.case_id}: outputs diverged from the sequential reference "
        f"after fault injection: {outcome.mismatch}"
    )


def test_sweep_composition():
    """The generated sweep actually covers what it claims: both real
    runtimes, every chaos app, and schedules containing crashes."""
    backends = {c.backend for c in CASES}
    assert backends == {"threaded", "process"}
    assert {c.app for c in CASES} == set(APPS)
    assert len(CASES) >= 50
    assert len({c.case_id for c in CASES}) == len(CASES)
    n_crashes = 0
    n_drops = 0
    for case in CASES:
        prog, streams, plan, sync_ts = build_workload(case)
        fp = build_fault_schedule(case, streams, plan, sync_ts)
        n_crashes += sum(1 for f in fp.faults if isinstance(f, CrashFault))
        n_drops += sum(1 for f in fp.faults if isinstance(f, DropHeartbeats))
    assert n_crashes >= len(CASES)  # every case schedules at least one crash
    assert n_drops > 0


def test_sweep_exercised_recovery():
    """Most schedules must have actually fired (crash observed +
    recovery replayed events) — a sweep where faults never trigger
    would be vacuous.  Outcomes are taken from the parametrized cases
    when they all ran in this process (the serial full-suite case:
    free); under xdist or selective runs a bounded deterministic
    sample is recomputed instead."""
    outcomes = _outcomes_or_sample(CASES, stride=5)
    recovered = [o for o in outcomes if o.recovered]
    assert len(recovered) >= len(outcomes) * 0.6
    assert sum(o.replayed_events for o in recovered) > 0
    assert all(o.attempts >= 2 for o in recovered)
    assert sum(o.checkpoints_taken for o in outcomes) > 0


@pytest.mark.parametrize("case", RECONFIG_CASES, ids=lambda c: c.case_id)
def test_reconfig_case_matches_spec(case):
    outcome = run_chaos_case(case, timeout_s=60.0)
    _OUTCOMES[case.case_id] = outcome
    assert outcome.ok, (
        f"{case.case_id}: outputs diverged from the sequential reference "
        f"under mid-stream reconfiguration: {outcome.mismatch}"
    )


def test_reconfig_sweep_composition():
    """The reconfiguration matrix covers what it claims: both real
    runtimes, both elastic modes, every chaos app, and every crash-mode
    case also schedules at least one crash."""
    assert {c.backend for c in RECONFIG_CASES} == {"threaded", "process"}
    assert {c.mode for c in RECONFIG_CASES} == {"reconfig", "reconfig-crash"}
    assert {c.app for c in RECONFIG_CASES} == set(APPS)
    assert len({c.case_id for c in RECONFIG_CASES}) == len(RECONFIG_CASES)
    for case in RECONFIG_CASES:
        prog, streams, plan, sync_ts = build_workload(case)
        sched = build_reconfig_schedule(case, streams, plan, sync_ts, prog)
        assert len(sched.points) >= 1
        if case.mode == "reconfig-crash":
            fp = build_fault_schedule(case, streams, plan, sync_ts)
            assert any(isinstance(f, CrashFault) for f in fp.faults)


def test_reconfig_sweep_exercised_migrations():
    """Most elastic schedules actually migrated (widths changed), and
    the crash-mode cases that crashed recovered into the then-current
    plan — their runs still end on the final migrated width.  Outcomes
    come from the parametrized cases when they all ran in this process;
    under xdist or selective runs a bounded deterministic sample is
    recomputed instead."""
    outcomes = _outcomes_or_sample(RECONFIG_CASES, stride=2)
    migrated = [o for o in outcomes if o.reconfigured]
    assert len(migrated) >= len(outcomes) * 0.6
    assert all(len(o.plan_widths) == o.reconfigs + 1 for o in outcomes)
    assert any(
        o.plan_widths[-1] != o.plan_widths[0] for o in migrated
    ), "every migration was a no-op width change"
    crashed = [o for o in outcomes if o.case.mode == "reconfig-crash" and o.recovered]
    assert crashed, "no crash ever fired during a reconfigured execution"
    assert all(o.attempts >= 2 for o in crashed)


@pytest.mark.parametrize("case", SIM_CASES, ids=lambda c: c.case_id)
def test_sim_case_matches_spec(case):
    outcome = run_chaos_case(case)
    _OUTCOMES[case.case_id] = outcome
    assert outcome.ok, (
        f"{case.case_id}: outputs diverged from the sequential reference "
        f"on the simulated substrate: {outcome.mismatch}"
    )


def test_sim_sweep_exercised_every_mode():
    """The sim slice is not vacuous: all three modes are present, and
    crashes were recovered and plans migrated somewhere in it."""
    assert {c.backend for c in SIM_CASES} == {"sim"}
    assert {c.mode for c in SIM_CASES} == {"faults", "reconfig", "reconfig-crash"}
    assert len({c.case_id for c in SIM_CASES}) == len(SIM_CASES)
    outcomes = _outcomes_or_sample(SIM_CASES, stride=1)
    assert any(o.recovered and o.replayed_events for o in outcomes)
    assert any(o.reconfigured for o in outcomes)
    assert any(
        o.recovered and o.reconfigured
        for o in outcomes
        if o.case.mode == "reconfig-crash"
    )


@pytest.mark.parametrize("case", SERVICE_CASES, ids=lambda c: c.case_id)
def test_service_case_matches_spec(case):
    outcome = run_chaos_case(case, timeout_s=60.0)
    _OUTCOMES[case.case_id] = outcome
    assert outcome.ok, (
        f"{case.case_id}: the service's committed log diverged from the spec "
        f"of its admitted events: {outcome.mismatch}"
    )


def test_service_sweep_fired_every_trigger_on_the_open_attempt():
    """Every service case's one trigger fired during ingest, both kinds
    fired somewhere, and on the in-process substrate every case ran on
    one attempt plus one per recovery or migration."""
    assert {c.backend for c in SERVICE_CASES} == {"threaded", "process"}
    assert all(c.case_id.endswith("-service") for c in SERVICE_CASES)
    outcomes = _outcomes_or_sample(SERVICE_CASES, stride=1)
    assert all(o.crashes + o.reconfigs == 1 for o in outcomes)
    assert any(o.crashes for o in outcomes) and any(o.reconfigs for o in outcomes)
    for o in outcomes:
        if o.case.backend == "threaded":
            assert o.attempts == 2, o.case.case_id


@pytest.mark.parametrize(
    "case",
    ADVERSARIAL_CASES + LATE_CASES + SESSIONIZE_CASES,
    ids=lambda c: c.case_id,
)
def test_adversarial_case_matches_spec(case):
    outcome = run_chaos_case(case, timeout_s=60.0)
    _OUTCOMES[case.case_id] = outcome
    assert outcome.ok, (
        f"{case.case_id}: outputs diverged from the sequential reference "
        f"under the {case.workload} workload: {outcome.mismatch}"
    )


def test_adversarial_sweep_composition():
    """The adversarial matrix covers what it claims: every (workload,
    mode, backend) triple for the skew/burst/straggler shapes, the late
    and sessionize slices likewise, and ids stay unique with the
    workload encoded."""
    triples = {
        (c.workload, c.mode, c.backend) for c in ADVERSARIAL_CASES
    }
    assert triples == {
        (w, m, b)
        for w in ("zipf", "flash", "straggler")
        for m in ("faults", "reconfig")
        for b in ("threaded", "process")
    }
    assert len(ADVERSARIAL_CASES) >= 16
    assert {(c.mode, c.backend) for c in LATE_CASES} == {
        (m, b)
        for m in ("faults", "reconfig")
        for b in ("threaded", "process")
    }
    assert {(c.workload, c.mode, c.backend) for c in SESSIONIZE_CASES} == {
        (w, m, b)
        for w in ("uniform", "zipf")
        for m in ("faults", "reconfig")
        for b in ("threaded", "process")
    }
    all_cases = ADVERSARIAL_CASES + LATE_CASES + SESSIONIZE_CASES
    assert len({c.case_id for c in all_cases}) == len(all_cases)
    for c in all_cases:
        if c.workload != "uniform":
            assert c.case_id.endswith(f"-{c.workload}")


def test_adversarial_sweep_exercised_faults_and_migrations():
    """The adversarial schedules are not vacuous: crashes fired and
    recovered in fault mode, migrations happened in reconfig mode, on
    every workload family."""
    cases = ADVERSARIAL_CASES + LATE_CASES + SESSIONIZE_CASES
    outcomes = _outcomes_or_sample(cases, stride=3)
    recovered = [o for o in outcomes if o.case.mode == "faults" and o.recovered]
    assert recovered, "no adversarial fault schedule ever fired"
    assert sum(o.replayed_events for o in recovered) > 0
    migrated = [
        o for o in outcomes if o.case.mode == "reconfig" and o.reconfigured
    ]
    assert migrated, "no adversarial reconfiguration ever fired"


def test_adversarial_derivations_are_seeded():
    """Same case -> byte-identical streams and schedules, for every
    adversarial family and for sessionize."""
    for workload, app in (
        ("zipf", "value-barrier"),
        ("flash", "value-barrier-echo"),
        ("straggler", "keycounter"),
        ("late", "value-barrier"),
        ("uniform", "sessionize"),
        ("zipf", "sessionize"),
    ):
        case = ChaosCase(
            app=app, backend="threaded", seed=9001, workload=workload
        )
        a = build_workload(case)
        b = build_workload(case)
        assert [s.events for s in a[1]] == [s.events for s in b[1]], (
            f"{workload}/{app} workload derivation is not deterministic"
        )
        assert a[2].pretty() == b[2].pretty()
        fa = build_fault_schedule(case, a[1], a[2], a[3])
        fb = build_fault_schedule(case, b[1], b[2], b[3])
        assert fa.faults == fb.faults


def test_sessionize_rejects_shape_changing_workloads():
    """Flash/straggler/late traffic would change what a 'session' means
    for the sessionize app; the derivation refuses instead of silently
    producing a different program."""
    case = ChaosCase(
        app="sessionize", backend="threaded", seed=1, workload="flash"
    )
    with pytest.raises(ValueError, match="sessionize"):
        build_workload(case)


def test_case_derivation_is_deterministic():
    case = ChaosCase(app="value-barrier", backend="threaded", seed=4242)
    a = build_workload(case)
    b = build_workload(case)
    assert [s.events for s in a[1]] == [s.events for s in b[1]]
    assert a[2].pretty() == b[2].pretty()
    fa = build_fault_schedule(case, a[1], a[2], a[3])
    fb = build_fault_schedule(case, b[1], b[2], b[3])
    assert fa.faults == fb.faults


def test_reconfig_derivation_is_deterministic():
    case = ChaosCase(
        app="keycounter", backend="process", seed=4242, mode="reconfig-crash"
    )
    assert case.case_id.endswith("-reconfig-crash")
    runs = []
    for _ in range(2):
        prog, streams, plan, sync_ts = build_workload(case)
        sched = build_reconfig_schedule(case, streams, plan, sync_ts, prog)
        runs.append(sched.points)
    assert runs[0] == runs[1]


def test_mode_field_keeps_default_case_ids_stable():
    """PR-2 case ids (and their seed streams) must not shift under the
    new mode axis — `--only` repro lines in old failure reports keep
    working."""
    legacy = ChaosCase(app="value-barrier", backend="threaded", seed=7)
    assert legacy.case_id == "value-barrier-threaded-s7"
    assert [c.seed for c in CASES] == [
        c.seed
        for c in generate_cases(
            seed=SWEEP_SEED, n_cases=N_CASES, backends=("threaded", "process")
        )
    ]


@pytest.mark.parametrize("backend", ["sim", "threaded", "process"])
def test_armed_metrics_agree_with_the_protocol_across_attempts(backend):
    """With the metrics plane armed (``--metrics-out``), each worker's
    events and joins, merged across attempts — crashed ones included —
    sum to the run's own counts; this case crashes and re-plans."""
    case = ChaosCase("keycounter", backend, 0, mode="reconfig-crash")
    outcome = run_chaos_case(case, metrics=True)
    assert outcome.ok, outcome.mismatch
    assert outcome.recovered and outcome.reconfigured and outcome.attempts >= 3


def test_metrics_that_disagree_with_the_protocol_are_a_mismatch():
    metrics = RunMetrics()
    metrics.absorb(MetricsSnapshot("w1", events_processed=9, joins_completed=2))
    run = SimpleNamespace(metrics=metrics, events_processed=10, joins=2)
    mismatch = _metrics_mismatch(ChaosCase("keycounter", "threaded", 1), run)
    assert mismatch.missing == Counter(events=1) and not mismatch.extra
    run.events_processed = 9
    assert _metrics_mismatch(ChaosCase("keycounter", "threaded", 1), run) is None

"""Elastic scaling end to end: re-plan a running stream without
stopping it.

The value-barrier application starts on a deliberately narrow plan
(2 leaves).  A schedule of planned reconfiguration points scales it out
at the second root join and back in at the fifth barrier.  At each
point the runtime quiesces at a root join: the joined root state at
that instant is a *consistent snapshot* (the same fork/join property
crash recovery exploits), so the driver forks it down the target plan
with the program's own fork primitives and replays the input suffix
there.

Planned points are deterministic and seedable — the form the seeded
chaos suite sweeps.  The run must be multiset-equal to the sequential
specification: outputs across a migration are exactly-once.
"""

from repro.apps import value_barrier as vb
from repro.core.semantics import output_multiset
from repro.plans import plan_width, repartition_plan
from repro.runtime import (
    ReconfigPoint,
    ReconfigSchedule,
    RunOptions,
    run_on_backend,
    run_sequential_reference,
)


def main() -> None:
    prog = vb.make_program()
    workload = vb.make_workload(
        n_value_streams=6, values_per_barrier=60, n_barriers=6
    )
    streams = vb.make_streams(workload)
    wide = vb.make_plan(prog, workload)
    narrow = repartition_plan(prog, wide, 2)
    reference = run_sequential_reference(prog, streams)
    print(f"starting plan ({plan_width(narrow)} leaves):")
    print(narrow.pretty())

    # Scale out at the second root join, back in at the fifth barrier.
    schedule = ReconfigSchedule(
        ReconfigPoint(after_joins=2, to_leaves=6),
        ReconfigPoint(at_ts=streams[-1].events[4].ts - 0.001, to_leaves=2),
    )
    run = run_on_backend(
        "threaded", prog, narrow, streams, options=RunOptions(reconfig_schedule=schedule)
    )
    rec = run.reconfig
    for step in rec.reconfigurations:
        print(
            f"  migrated {step.from_leaves} -> {step.to_leaves} leaves "
            f"at ts={step.ts:.2f}, "
            f"migration pause {step.pause_s * 1e3:.2f} ms"
        )
    widths = " -> ".join(str(p.leaves) for p in rec.phases)
    print(f"  phases (leaf widths): {widths}")
    match = output_multiset(run.outputs) == output_multiset(reference)
    print(f"  outputs match sequential spec: {match}")
    if not match:
        raise SystemExit(1)  # checked, not asserted — and honest to $?


if __name__ == "__main__":
    main()

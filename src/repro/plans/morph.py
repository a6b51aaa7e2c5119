"""Plan morphing: derive a wider or narrower synchronization plan from
a running one, for elastic reconfiguration.

A reconfiguration migrates the root's joined state — a consistent
snapshot — into a *different* P-valid plan over the **same** streams.
That constrains the target plan to cover exactly the same
implementation tags (the input does not change, only how it is
partitioned across workers), which :func:`repartition_plan` guarantees
by construction.  It builds the canonical elastic shape: every
globally-synchronizing itag (one whose tag depends on the whole tag
universe) stays at the root, and the remaining itags are regrouped
into ``n_leaves`` leaves along the connected components of the itag
dependence graph (tags that depend on each other can never be split
across unrelated workers — V2).

``max_width`` — the number of dependence components below the root —
is the ceiling on useful parallelism for a program: beyond it there is
no independent work left to spread.  Narrowing to one leaf collapses
the plan to a single worker; note that a single-worker plan has no
root joins, so it cannot quiesce *again* — a schedule that narrows to
width 1 is a terminal step (see :mod:`repro.runtime.reconfigure`).

Morphing is deterministic: components are sorted by repr and dealt
round-robin, so the same (program, plan, n_leaves) always yields the
same target — seeded reconfiguration schedules reproduce exactly.
"""

from __future__ import annotations

from typing import FrozenSet, List

from ..core.errors import PlanError
from ..core.events import ImplTag
from ..core.program import DGSProgram
from .generation import root_and_leaves_plan
from .plan import SyncPlan


def synchronizing_itags(
    program: DGSProgram, itags: FrozenSet[ImplTag]
) -> List[ImplTag]:
    """The itags whose tag depends on the *entire* tag universe — the
    ones that must sit at the root for root-join snapshots to be
    timestamp-prefix states (the same condition
    :func:`~repro.runtime.recovery.assert_recovery_sound` checks)."""
    universe = program.depends.universe
    return sorted(
        (
            it
            for it in itags
            if not (universe - program.depends.dependents_of(it.tag))
        ),
        key=repr,
    )


def plan_width(plan: SyncPlan) -> int:
    """The plan's leaf count — its degree of parallelism."""
    return len(plan.leaves())


def max_width(program: DGSProgram, plan: SyncPlan) -> int:
    """The widest this plan's itags can be spread: the number of
    connected components of the dependence graph over the
    non-synchronizing itags (at least 1)."""
    rest = _leaf_itags(program, plan)
    if not rest:
        return 1
    return max(1, len(program.depends.itag_components(rest)))


def _leaf_itags(program: DGSProgram, plan: SyncPlan) -> List[ImplTag]:
    all_itags = plan.all_itags()
    root_itags = set(synchronizing_itags(program, all_itags))
    return sorted((it for it in all_itags if it not in root_itags), key=repr)


def repartition_plan(
    program: DGSProgram,
    plan: SyncPlan,
    n_leaves: int,
    *,
    shape: str = "balanced",
    state_type: str | None = None,
) -> SyncPlan:
    """A plan over the same itags with ``n_leaves`` leaf groups.

    Synchronizing itags go to the root; the rest are grouped by
    dependence component and dealt round-robin into the leaves.
    ``n_leaves`` is clamped to ``[1, number of components]``; with one
    leaf the plan degenerates to a single worker (see
    :func:`~repro.plans.generation.root_and_leaves_plan`)."""
    if n_leaves < 1:
        raise PlanError(f"cannot repartition to {n_leaves} leaves")
    all_itags = plan.all_itags()
    root_itags = synchronizing_itags(program, all_itags)
    if not root_itags:
        raise PlanError(
            "cannot morph a plan with no globally-synchronizing itag: "
            "its root joins are not consistent prefix snapshots, so "
            "there is no sound migration point (see "
            "repro.runtime.recovery.assert_recovery_sound)"
        )
    rest = _leaf_itags(program, plan)
    if not rest:
        return root_and_leaves_plan(
            program, root_itags, [], state_type=state_type, shape=shape
        )
    components = sorted(
        (sorted(c, key=repr) for c in program.depends.itag_components(rest)), key=repr
    )
    n = max(1, min(n_leaves, len(components)))
    buckets: List[List[ImplTag]] = [[] for _ in range(n)]
    for i, comp in enumerate(components):
        buckets[i % n].extend(comp)
    return root_and_leaves_plan(
        program, root_itags, buckets, state_type=state_type, shape=shape
    )


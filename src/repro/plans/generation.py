"""Constructors for synchronization plans.

The framework derives many P-valid plans from one program; these
builders cover the shapes used in the paper's evaluation:

* :func:`sequential_plan` — a single worker (the no-parallelism plan);
* :func:`root_and_leaves_plan` — synchronizing tags at the root, a
  balanced binary tree of leaves over independent groups (the
  event-windowing / fraud-detection shape, Figure 3 right subtree);
* :func:`forest_plan` — a neutral root over per-key subtrees (the
  page-view shape: "a forest containing a tree for each key");
* :func:`random_valid_plan` — a randomized generator of P-valid plans,
  used by the property tests to check that runtime correctness is
  independent of the plan chosen (Theorem 3.5);
* :func:`chain_plan` — a degenerate left-deep tree used by the plan
  shape ablation.

All builders assign every implementation tag to exactly one worker
(a stronger condition than V2 requires, matching the paper's figures)
and produce plans over a single state type by default.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import PlanError
from ..core.events import ImplTag
from ..core.program import DGSProgram
from .plan import PlanNode, SyncPlan

#: The layouts of the leaves under a root that :func:`root_and_leaves_plan`
#: (and every builder and morph on top of it) can build: a balanced
#: binary tree, or a left-deep chain.
SHAPES = ("balanced", "chain")


class _Ids:
    """Sequential worker-id allocator (w1, w2, ... as in Figure 3)."""

    def __init__(self, prefix: str = "w") -> None:
        self.prefix = prefix
        self.n = 0

    def next(self) -> str:
        self.n += 1
        return f"{self.prefix}{self.n}"


def sequential_plan(
    program: DGSProgram,
    itags: Iterable[ImplTag],
    *,
    host: Optional[str] = None,
    state_type: Optional[str] = None,
) -> SyncPlan:
    """The trivial plan: one worker responsible for everything."""
    st = state_type or program.initial_type
    root = PlanNode("w1", st, frozenset(itags), host=host)
    return SyncPlan(root)


def _balanced(
    leaves: List[PlanNode], ids: _Ids, state_type: str
) -> PlanNode:
    """Combine leaves into a balanced binary tree with empty-itag
    internal nodes."""
    if not leaves:
        raise PlanError("cannot build a tree with no leaves")
    level = leaves
    while len(level) > 1:
        nxt: List[PlanNode] = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(
                PlanNode(
                    ids.next(), state_type, frozenset(), (level[i], level[i + 1])
                )
            )
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _chain(leaves: List[PlanNode], ids: _Ids, state_type: str) -> PlanNode:
    """Combine leaves into a left-deep chain (worst-case depth)."""
    if not leaves:
        raise PlanError("cannot build a tree with no leaves")
    node = leaves[0]
    for leaf in leaves[1:]:
        node = PlanNode(ids.next(), state_type, frozenset(), (node, leaf))
    return node


def root_and_leaves_plan(
    program: DGSProgram,
    root_itags: Iterable[ImplTag],
    leaf_groups: Sequence[Iterable[ImplTag]],
    *,
    state_type: Optional[str] = None,
    shape: str = "balanced",
) -> SyncPlan:
    """Synchronizing tags at the root; one leaf per group underneath.

    With a single leaf group the root still gets the group as its own
    child?  No — one group means the plan degenerates to a root with
    that group merged in (a sequential plan), because a binary tree
    cannot have one child.
    """
    st = state_type or program.initial_type
    ids = _Ids()
    root_id = ids.next()
    leaves = [
        PlanNode(ids.next(), st, frozenset(group)) for group in leaf_groups
    ]
    if not leaves:
        return SyncPlan(PlanNode(root_id, st, frozenset(root_itags)))
    if len(leaves) == 1:
        merged = frozenset(root_itags) | leaves[0].itags
        return SyncPlan(PlanNode(root_id, st, merged))
    if shape not in SHAPES:
        raise PlanError(f"unknown shape {shape!r}")
    subtree = (_balanced if shape == "balanced" else _chain)(leaves, ids, st)
    # The subtree combiner returns a single node; attach the root tags
    # at the top.  If the combined subtree root is itself an internal
    # node with no itags, reuse it as the root to avoid a useless level.
    if not subtree.is_leaf and not subtree.itags:
        root = PlanNode(root_id, st, frozenset(root_itags), subtree.children)
    else:
        # Root must have two children: pair the subtree with an empty
        # sibling leaf only if root tags exist; otherwise subtree is it.
        rt = frozenset(root_itags)
        if not rt:
            return SyncPlan(subtree)
        left, right = _split_node(subtree)
        root = PlanNode(root_id, st, rt, (left, right))
    return SyncPlan(root)


def _split_node(node: PlanNode) -> Tuple[PlanNode, PlanNode]:
    if node.is_leaf:
        raise PlanError("cannot attach root tags above a single leaf")
    return node.children  # type: ignore[return-value]


def chain_plan(
    program: DGSProgram,
    root_itags: Iterable[ImplTag],
    leaf_groups: Sequence[Iterable[ImplTag]],
    *,
    state_type: Optional[str] = None,
) -> SyncPlan:
    return root_and_leaves_plan(
        program, root_itags, leaf_groups, state_type=state_type, shape="chain"
    )


def forest_plan(
    program: DGSProgram,
    subtrees: Sequence[Tuple[Iterable[ImplTag], Sequence[Iterable[ImplTag]]]],
    *,
    state_type: Optional[str] = None,
) -> SyncPlan:
    """A neutral (empty-itag) root over independent per-key subtrees.

    ``subtrees`` is a list of ``(root_itags, leaf_groups)`` pairs, one
    per key.  Keys must be mutually independent for the result to be
    P-valid (checked by the caller via ``assert_p_valid``).
    """
    st = state_type or program.initial_type
    ids = _Ids()
    ids.next()  # reserve w1 for the forest root
    roots: List[PlanNode] = []
    for root_itags, leaf_groups in subtrees:
        leaves = [PlanNode(ids.next(), st, frozenset(g)) for g in leaf_groups]
        rt = frozenset(root_itags)
        if not leaves:
            roots.append(PlanNode(ids.next(), st, rt))
        elif len(leaves) == 1:
            roots.append(PlanNode(ids.next(), st, rt | leaves[0].itags))
        else:
            sub = _balanced(leaves, ids, st)
            if not sub.is_leaf and not sub.itags:
                roots.append(PlanNode(ids.next(), st, rt, sub.children))
            else:
                roots.append(PlanNode(ids.next(), st, rt | sub.itags))
    if not roots:
        raise PlanError("forest with no subtrees")
    if len(roots) == 1:
        return SyncPlan(roots[0])
    top = _balanced(roots, ids, st)
    if not top.is_leaf and not top.itags:
        top = PlanNode("w1", st, frozenset(), top.children)
    return SyncPlan(top)


def random_valid_plan(
    program: DGSProgram,
    itags: Iterable[ImplTag],
    rng: random.Random,
    *,
    state_type: Optional[str] = None,
    max_leaf_size: int = 3,
) -> SyncPlan:
    """Generate a random P-valid plan assigning each itag exactly once.

    Recursive strategy mirroring the optimizer's structure: if the itag
    dependence graph is disconnected, split components between the two
    children; otherwise move tags up to the local root until the rest
    disconnects (or give up and make a leaf).
    """
    st = state_type or program.initial_type
    ids = _Ids()
    all_itags = list(itags)

    def build(group: List[ImplTag]) -> PlanNode:
        if len(group) <= 1 or (
            len(group) <= max_leaf_size and rng.random() < 0.4
        ):
            return PlanNode(ids.next(), st, frozenset(group))
        comps = [sorted(c, key=repr) for c in program.depends.itag_components(group)]
        root_tags: List[ImplTag] = []
        remaining = sorted(group, key=repr)
        while len(comps) < 2 and remaining:
            # Move a random itag up to the root until the rest splits.
            victim = remaining.pop(rng.randrange(len(remaining)))
            root_tags.append(victim)
            if not remaining:
                break
            comps = [sorted(c, key=repr) for c in program.depends.itag_components(remaining)]
        if len(comps) < 2:
            return PlanNode(ids.next(), st, frozenset(group))
        rng.shuffle(comps)
        cut = rng.randrange(1, len(comps))
        left_tags = [t for c in comps[:cut] for t in c]
        right_tags = [t for c in comps[cut:] for t in c]
        node_id = ids.next()
        left = build(left_tags)
        right = build(right_tags)
        return PlanNode(node_id, st, frozenset(root_tags), (left, right))

    return SyncPlan(build(all_itags))


def sharded_groups(
    groups: Sequence[Iterable[ImplTag]], n_shards: int
) -> List[List[ImplTag]]:
    """Deal per-key itag groups round-robin into ``n_shards`` leaf
    groups (deterministic: groups are taken in the order given).

    This is the static counterpart of
    :func:`~repro.plans.morph.repartition_plan`'s component dealing: a
    plan built from the sharded groups re-shards under live
    reconfiguration to any width in ``[1, len(groups)]`` because each
    original group stays a dependence component of its own.
    """
    if n_shards < 1:
        raise PlanError(f"cannot shard into {n_shards} groups")
    materialized = [list(g) for g in groups]
    n = min(n_shards, len(materialized)) or 1
    buckets: List[List[ImplTag]] = [[] for _ in range(n)]
    for i, group in enumerate(materialized):
        buckets[i % n].extend(group)
    return [b for b in buckets if b]


def rooted_shards_plan(
    program: DGSProgram,
    root_itags: Iterable[ImplTag],
    key_groups: Sequence[Iterable[ImplTag]],
    *,
    n_shards: Optional[int] = None,
    state_type: Optional[str] = None,
    shape: str = "balanced",
) -> SyncPlan:
    """Synchronizing tags at the root over ``n_shards`` leaves, each
    holding a round-robin share of the per-key groups (default: one
    leaf per group — the widest rooted instance).

    The shape every re-shardable app family uses: because the root
    itags synchronize globally and each key group is an independent
    dependence component, the resulting plan composes with checkpoint
    recovery and live reconfiguration (morphing regroups the same
    components at a different width).
    """
    groups = sharded_groups(
        key_groups, len(key_groups) if n_shards is None else n_shards
    )
    return root_and_leaves_plan(
        program, root_itags, groups, state_type=state_type, shape=shape
    )


# -- host placement helpers --------------------------------------------------

def assign_hosts_round_robin(plan: SyncPlan, hosts: Sequence[str]) -> SyncPlan:
    """Place leaves round-robin across hosts; internal nodes go to the
    host of their first-leaf descendant (keeping parents near one
    child, which is what the communication optimizer also does)."""
    if not hosts:
        raise PlanError("no hosts to assign")
    leaf_hosts: Dict[str, str] = {}
    for i, leaf in enumerate(plan.leaves()):
        leaf_hosts[leaf.id] = hosts[i % len(hosts)]

    def rebuild(node: PlanNode) -> PlanNode:
        if node.is_leaf:
            return node.with_host(leaf_hosts[node.id])
        children = tuple(rebuild(c) for c in node.children)
        return PlanNode(node.id, node.state_type, node.itags, children, children[0].host)

    return SyncPlan(rebuild(plan.root))


def map_hosts(plan: SyncPlan, mapping: Dict[str, str]) -> SyncPlan:
    """Explicitly place workers by id; ids absent from the mapping keep
    their current host."""

    def rebuild(node: PlanNode) -> PlanNode:
        children = tuple(rebuild(c) for c in node.children)
        host = mapping.get(node.id, node.host)
        return PlanNode(node.id, node.state_type, node.itags, children, host)

    return SyncPlan(rebuild(plan.root))

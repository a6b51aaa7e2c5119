"""The communication-minimizing plan optimizer (paper Appendix B).

Heuristic: build the implementation-tag dependence graph, and
recursively

1. if the graph is disconnected, split the components into two groups
   (balancing input rate) and recurse — independent subtrees never
   communicate;
2. otherwise move the lowest-rate implementation tags up to the local
   root until the remainder disconnects — synchronizing events are
   rare, so the cheap tags pay the join/fork cost;
3. if no removal disconnects the graph, emit a single (sequential)
   worker for the group.

Placement then puts every worker on the host where most of its input
arrives (leaves next to their stream sources; internal nodes next to
their own tags' sources, falling back to the heavier child), which is
the paper's "maximize events processed by leaves / place workers close
to their inputs" objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import PlanError
from ..core.events import ImplTag
from ..core.program import DGSProgram
from .plan import PlanNode, SyncPlan
from .generation import _Ids


@dataclass(frozen=True)
class StreamInfo:
    """Optimizer input: one implementation tag's rate and source host."""

    itag: ImplTag
    rate: float
    host: str


def optimize(
    program: DGSProgram,
    streams: Sequence[StreamInfo],
    *,
    state_type: Optional[str] = None,
) -> SyncPlan:
    """Generate a P-valid plan minimizing cross-worker communication."""
    if not streams:
        raise PlanError("optimizer needs at least one input stream")
    st = state_type or program.initial_type
    by_itag: Dict[ImplTag, StreamInfo] = {}
    for info in streams:
        if info.itag in by_itag:
            raise PlanError(f"duplicate stream for {info.itag!r}")
        by_itag[info.itag] = info
    ids = _Ids()

    def rate_of(itags: Iterable[ImplTag]) -> float:
        return sum(by_itag[t].rate for t in itags)

    def build(group: List[ImplTag]) -> PlanNode:
        if len(group) == 1:
            return _leaf(group)
        comps = _sorted_components(program, group)
        if len(comps) >= 2:
            left, right = _balance_components(comps, rate_of)
            return _node(frozenset(), build(left), build(right))
        # Connected: peel off lowest-rate tags until the rest splits.
        root_tags: List[ImplTag] = []
        remaining = sorted(group, key=lambda t: (by_itag[t].rate, repr(t)))
        while len(remaining) > 1:
            root_tags.append(remaining.pop(0))
            comps = _sorted_components(program, remaining)
            if len(comps) >= 2:
                left, right = _balance_components(comps, rate_of)
                return _node(frozenset(root_tags), build(left), build(right))
        # Never disconnected: sequentialize the whole group.
        return _leaf(group)

    def _leaf(group: List[ImplTag]) -> PlanNode:
        host = _dominant_host(group)
        return PlanNode(ids.next(), st, frozenset(group), host=host)

    def _node(itags: frozenset, left: PlanNode, right: PlanNode) -> PlanNode:
        if itags:
            host = _dominant_host(itags)
        else:
            # Neutral node: sit with the heavier child.
            host = max(
                (left, right),
                key=lambda n: rate_of(
                    t for t in _subtree_tags(n) if t in by_itag
                ),
            ).host
        return PlanNode(ids.next(), st, itags, (left, right), host=host)

    def _dominant_host(itags: Iterable[ImplTag]) -> str:
        weights: Dict[str, float] = {}
        for t in itags:
            info = by_itag[t]
            weights[info.host] = weights.get(info.host, 0.0) + info.rate
        return max(sorted(weights), key=lambda h: weights[h])

    root = build(sorted(by_itag, key=repr))
    return SyncPlan(_renumber(root))


def _subtree_tags(node: PlanNode) -> List[ImplTag]:
    out = list(node.itags)
    for c in node.children:
        out.extend(_subtree_tags(c))
    return out


def _sorted_components(program: DGSProgram, itags: List[ImplTag]) -> List[List[ImplTag]]:
    return [sorted(c, key=repr) for c in program.depends.itag_components(itags)]


def _balance_components(
    comps: List[List[ImplTag]], rate_of
) -> Tuple[List[ImplTag], List[ImplTag]]:
    """Greedy LPT partition of components into two rate-balanced sides."""
    comps = sorted(comps, key=lambda c: (-rate_of(c), repr(c)))
    left: List[ImplTag] = []
    right: List[ImplTag] = []
    lrate = rrate = 0.0
    for comp in comps:
        if lrate <= rrate:
            left.extend(comp)
            lrate += rate_of(comp)
        else:
            right.extend(comp)
            rrate += rate_of(comp)
    if not left or not right:
        raise PlanError("failed to balance components")
    return left, right


def _renumber(root: PlanNode) -> PlanNode:
    """Re-assign worker ids in breadth-first order (w1 = root, as in
    the paper's Figure 3) for readable plan printouts."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"w{counter[0]}"

    def rec(node: PlanNode) -> PlanNode:
        nid = fresh()
        children = tuple(rec(c) for c in node.children)
        return PlanNode(nid, node.state_type, node.itags, children, node.host)

    return rec(root)

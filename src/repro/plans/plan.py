"""Synchronization plans (paper Definition 3.1).

A synchronization plan is a binary tree of *workers*.  Each worker has
a state type, a set of implementation tags it is responsible for, and —
if it has children — a fork/join pair.  Leaves process their events
independently; a parent must join its children's states before it can
process one of its own events, and forks the updated state back
afterwards.  Workers without an ancestor/descendant relationship never
communicate directly.

Plans are immutable after construction; :class:`SyncPlan` precomputes
the parent map, ancestor relation, and subtree tag sets that both the
validity checker and the runtime need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.errors import PlanError
from ..core.events import ImplTag


@dataclass(frozen=True)
class PlanNode:
    """A worker in a synchronization plan.

    ``host`` is the (simulated) machine the worker runs on; ``None``
    means "let the runtime place it" (it defaults to a round-robin
    assignment).
    """

    id: str
    state_type: str
    itags: FrozenSet[ImplTag]
    children: Tuple["PlanNode", ...] = ()
    host: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.children) not in (0, 2):
            raise PlanError(
                f"worker {self.id!r} has {len(self.children)} children; "
                "synchronization plans are binary trees"
            )

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def with_host(self, host: str) -> "PlanNode":
        return PlanNode(self.id, self.state_type, self.itags, self.children, host)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tags = "{" + ", ".join(sorted(f"{t.tag!r}@{t.stream!r}" for t in self.itags)) + "}"
        kind = "leaf" if self.is_leaf else "node"
        return f"PlanNode({self.id}, {kind}, {tags})"


class SyncPlan:
    """An immutable synchronization plan with precomputed relations."""

    def __init__(self, root: PlanNode) -> None:
        self.root = root
        self._nodes: Dict[str, PlanNode] = {}
        self._parent: Dict[str, Optional[str]] = {}
        self._collect(root, None)
        self._ancestors: Dict[str, FrozenSet[str]] = {}
        for node_id in self._nodes:
            chain: List[str] = []
            cur = self._parent[node_id]
            while cur is not None:
                chain.append(cur)
                cur = self._parent[cur]
            self._ancestors[node_id] = frozenset(chain)
        self._subtree_itags: Dict[str, FrozenSet[ImplTag]] = {}
        self._compute_subtree_itags(root)

    def _collect(self, node: PlanNode, parent: Optional[str]) -> None:
        if node.id in self._nodes:
            raise PlanError(f"duplicate worker id {node.id!r}")
        self._nodes[node.id] = node
        self._parent[node.id] = parent
        for child in node.children:
            self._collect(child, node.id)

    def _compute_subtree_itags(self, node: PlanNode) -> FrozenSet[ImplTag]:
        acc = set(node.itags)
        for child in node.children:
            acc |= self._compute_subtree_itags(child)
        result = frozenset(acc)
        self._subtree_itags[node.id] = result
        return result

    # -- structure queries --------------------------------------------------
    def workers(self) -> List[PlanNode]:
        return list(self._nodes.values())

    def node(self, node_id: str) -> PlanNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise PlanError(f"unknown worker {node_id!r}") from None

    def leaves(self) -> List[PlanNode]:
        return [n for n in self._nodes.values() if n.is_leaf]

    def internal(self) -> List[PlanNode]:
        return [n for n in self._nodes.values() if not n.is_leaf]

    def parent_of(self, node_id: str) -> Optional[PlanNode]:
        p = self._parent[node_id]
        return self._nodes[p] if p is not None else None

    def ancestors_of(self, node_id: str) -> FrozenSet[str]:
        return self._ancestors[node_id]

    def related(self, a: str, b: str) -> bool:
        """True iff one of a, b is an ancestor of the other (or equal)."""
        return a == b or a in self._ancestors[b] or b in self._ancestors[a]

    def descendants_of(self, node_id: str) -> List[PlanNode]:
        out: List[PlanNode] = []

        def rec(n: PlanNode) -> None:
            for c in n.children:
                out.append(c)
                rec(c)

        rec(self.node(node_id))
        return out

    def subtree_itags(self, node_id: str) -> FrozenSet[ImplTag]:
        """All implementation tags handled in the subtree rooted here
        (the node's own plus all descendants')."""
        return self._subtree_itags[node_id]

    def all_itags(self) -> FrozenSet[ImplTag]:
        return self._subtree_itags[self.root.id]

    def owner_of(self, itag: ImplTag) -> PlanNode:
        """The unique worker responsible for an implementation tag."""
        owners = [n for n in self._nodes.values() if itag in n.itags]
        if not owners:
            raise PlanError(f"no worker responsible for {itag!r}")
        if len(owners) > 1:
            raise PlanError(
                f"multiple workers responsible for {itag!r}: "
                f"{[n.id for n in owners]}"
            )
        return owners[0]

    def depth(self) -> int:
        def rec(n: PlanNode) -> int:
            if n.is_leaf:
                return 1
            return 1 + max(rec(c) for c in n.children)

        return rec(self.root)

    def size(self) -> int:
        return len(self._nodes)

    def pretty(self) -> str:
        """ASCII rendering in the style of the paper's Figure 3."""
        lines: List[str] = []

        def rec(n: PlanNode, indent: int) -> None:
            tags = ", ".join(sorted(f"{t.tag!r}@{t.stream!r}" for t in n.itags))
            kind = "update" if n.is_leaf else "update-(fork,join)"
            host = f" on {n.host}" if n.host else ""
            lines.append(f"{'  ' * indent}{n.id} {{{tags}}} {kind}{host}")
            for c in n.children:
                rec(c, indent + 1)

        rec(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SyncPlan(workers={self.size()}, depth={self.depth()})"

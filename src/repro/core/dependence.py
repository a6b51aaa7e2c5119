"""The dependence relation on tags (paper §2.1-§2.2).

A dependence relation is a symmetric predicate on pairs of tags.  Tags
that are *not* related are independent and may be processed in parallel
without synchronization; related tags require ordered processing.

We materialize the relation over the finite tag universe into an
adjacency map, which makes symmetry checkable, lifts cheaply to
implementation tags, and splits a set of implementation tags into the
connected components the Appendix-B optimizer decomposes.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Set

from .errors import DependenceError
from .events import ImplTag, Tag
from .predicates import TagPredicate


class DependenceRelation:
    """Symmetric dependence relation over a finite tag universe."""

    def __init__(self, universe: Iterable[Tag], adjacency: Mapping[Tag, Iterable[Tag]]):
        self._universe: FrozenSet[Tag] = frozenset(universe)
        adj: Dict[Tag, Set[Tag]] = {t: set() for t in self._universe}
        for tag, deps in adjacency.items():
            if tag not in self._universe:
                raise DependenceError(f"tag {tag!r} outside universe")
            for d in deps:
                if d not in self._universe:
                    raise DependenceError(f"tag {d!r} outside universe")
                adj[tag].add(d)
        # Enforce symmetry by closure and record whether the input was
        # already symmetric (the paper requires the user relation to be).
        for tag in self._universe:
            for d in list(adj[tag]):
                adj[d].add(tag)
        self._adj: Dict[Tag, FrozenSet[Tag]] = {
            t: frozenset(deps) for t, deps in adj.items()
        }

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_function(
        cls, universe: Iterable[Tag], fn: Callable[[Tag, Tag], bool]
    ) -> "DependenceRelation":
        """Materialize a symbolic ``depends(t1, t2)`` function.

        Raises :class:`DependenceError` if ``fn`` is not symmetric on
        the universe (Definition 2.1 requires symmetry).
        """
        uni = list(universe)
        adj: Dict[Tag, Set[Tag]] = {t: set() for t in uni}
        for a in uni:
            for b in uni:
                if fn(a, b) != fn(b, a):
                    raise DependenceError(
                        f"depends is not symmetric on ({a!r}, {b!r})"
                    )
                if fn(a, b):
                    adj[a].add(b)
        return cls(uni, adj)

    @classmethod
    def all_independent(cls, universe: Iterable[Tag]) -> "DependenceRelation":
        return cls(universe, {})

    @classmethod
    def all_dependent(cls, universe: Iterable[Tag]) -> "DependenceRelation":
        uni = frozenset(universe)
        return cls(uni, {t: uni for t in uni})

    # -- queries ---------------------------------------------------------
    @property
    def universe(self) -> FrozenSet[Tag]:
        return self._universe

    def depends(self, a: Tag, b: Tag) -> bool:
        if a not in self._universe or b not in self._universe:
            raise DependenceError(f"tag outside universe: {a!r} or {b!r}")
        return b in self._adj[a]

    def indep(self, a: Tag, b: Tag) -> bool:
        return not self.depends(a, b)

    def dependents_of(self, tag: Tag) -> FrozenSet[Tag]:
        if tag not in self._universe:
            raise DependenceError(f"tag outside universe: {tag!r}")
        return self._adj[tag]

    def is_self_dependent(self, tag: Tag) -> bool:
        return tag in self._adj[tag]

    def sets_independent(self, left: Iterable[Tag], right: Iterable[Tag]) -> bool:
        """True iff every tag in ``left`` is independent of every tag in
        ``right`` (used by plan validity V2)."""
        right_set = frozenset(right)
        return all(right_set.isdisjoint(self._adj[a]) for a in left)

    def preds_independent(self, p1: TagPredicate, p2: TagPredicate) -> bool:
        return self.sets_independent(p1.tags, p2.tags)

    # -- lifting to implementation tags -----------------------------------
    def itag_depends(self, a: ImplTag, b: ImplTag) -> bool:
        return self.depends(a.tag, b.tag)

    def itag_sets_independent(
        self, left: Iterable[ImplTag], right: Iterable[ImplTag]
    ) -> bool:
        return self.sets_independent({i.tag for i in left}, {i.tag for i in right})

    def itag_components(self, itags: Iterable[ImplTag]) -> List[Set[ImplTag]]:
        """Connected components of the dependence graph over ``itags``
        (the structure the Appendix-B optimizer decomposes): two itags
        are adjacent iff they differ and their tags depend, so a
        self-dependent tag joins its own streams.  The components come
        as sets in the order NetworkX's ``connected_components`` yields
        them for a graph built from ``itags`` in order: by each
        component's first itag in ``itags``."""
        nodes = list(dict.fromkeys(itags))
        by_tag: Dict[Tag, List[ImplTag]] = {}
        for it in nodes:
            by_tag.setdefault(it.tag, []).append(it)
        comps: List[Set[ImplTag]] = []
        seen: Set[ImplTag] = set()
        expanded: Set[Tag] = set()  # tags whose dependents' itags are placed
        for start in nodes:
            if start in seen:
                continue
            comp, todo = {start}, [start.tag]
            while todo:
                tag = todo.pop()
                if tag not in expanded:
                    expanded.add(tag)
                    for it in (i for d in self.dependents_of(tag) for i in by_tag.get(d, ())):
                        if it not in comp:
                            comp.add(it)
                            todo.append(it.tag)
            seen |= comp
            comps.append(comp)
        return comps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n_edges = sum(len(v) for v in self._adj.values()) // 2
        return f"DependenceRelation(|tags|={len(self._universe)}, |edges|~{n_edges})"

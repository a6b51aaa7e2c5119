"""Unit tests for synchronization plan structures (Definition 3.1)."""

import pytest

from repro.core import ImplTag, PlanError
from repro.plans import PlanNode, SyncPlan
from repro.apps import keycounter as kc


def it(tag, stream=0):
    return ImplTag(tag, stream)


def figure3_plan():
    """The plan of the paper's Figure 3 (two keys, five streams)."""
    w2 = PlanNode("w2", "State0", frozenset({it(kc.reset_tag(0), "r1"), it(kc.inc_tag(0), "i1")}))
    w4 = PlanNode("w4", "State0", frozenset({it(kc.inc_tag(1), "a")}))
    w5 = PlanNode("w5", "State0", frozenset({it(kc.inc_tag(1), "b")}))
    w3 = PlanNode("w3", "State0", frozenset({it(kc.reset_tag(1), "r2")}), (w4, w5))
    w1 = PlanNode("w1", "State0", frozenset(), (w2, w3))
    return SyncPlan(w1)


class TestPlanNode:
    def test_leaf_and_internal(self):
        leaf = PlanNode("w1", "State0", frozenset())
        assert leaf.is_leaf
        n = PlanNode("w2", "State0", frozenset(), (leaf, PlanNode("w3", "State0", frozenset())))
        assert not n.is_leaf

    def test_unary_node_rejected(self):
        leaf = PlanNode("w1", "State0", frozenset())
        with pytest.raises(PlanError, match="binary"):
            PlanNode("w2", "State0", frozenset(), (leaf,))

    def test_with_host(self):
        leaf = PlanNode("w1", "State0", frozenset())
        assert leaf.with_host("node3").host == "node3"


class TestSyncPlanStructure:
    def setup_method(self):
        self.plan = figure3_plan()

    def test_workers_and_leaves(self):
        assert {n.id for n in self.plan.workers()} == {"w1", "w2", "w3", "w4", "w5"}
        assert {n.id for n in self.plan.leaves()} == {"w2", "w4", "w5"}
        assert {n.id for n in self.plan.internal()} == {"w1", "w3"}

    def test_parent_and_ancestors(self):
        assert self.plan.parent_of("w4").id == "w3"
        assert self.plan.parent_of("w1") is None
        assert self.plan.ancestors_of("w5") == frozenset({"w3", "w1"})
        assert self.plan.ancestors_of("w1") == frozenset()

    def test_related(self):
        assert self.plan.related("w1", "w5")
        assert self.plan.related("w5", "w1")
        assert self.plan.related("w3", "w3")
        assert not self.plan.related("w2", "w4")
        assert not self.plan.related("w4", "w5")

    def test_descendants(self):
        assert {n.id for n in self.plan.descendants_of("w3")} == {"w4", "w5"}
        assert self.plan.descendants_of("w2") == []

    def test_subtree_itags(self):
        sub = self.plan.subtree_itags("w3")
        assert it(kc.reset_tag(1), "r2") in sub
        assert it(kc.inc_tag(1), "a") in sub
        assert it(kc.inc_tag(0), "i1") not in sub
        assert len(self.plan.all_itags()) == 5

    def test_owner_of(self):
        assert self.plan.owner_of(it(kc.inc_tag(1), "a")).id == "w4"
        assert self.plan.owner_of(it(kc.reset_tag(1), "r2")).id == "w3"
        with pytest.raises(PlanError):
            self.plan.owner_of(it(("x", 9), "zz"))

    def test_depth_and_size(self):
        assert self.plan.depth() == 3
        assert self.plan.size() == 5

    def test_duplicate_ids_rejected(self):
        a = PlanNode("w1", "State0", frozenset())
        b = PlanNode("w1", "State0", frozenset())
        with pytest.raises(PlanError, match="duplicate"):
            SyncPlan(PlanNode("root", "State0", frozenset(), (a, b)))

    def test_workers_are_listed_top_down(self):
        # Depth-first, each node before its children:
        # process.default_placement relies on it.
        assert [n.id for n in self.plan.workers()] == ["w1", "w2", "w3", "w4", "w5"]

    def test_pretty_renders_all_workers(self):
        s = self.plan.pretty()
        for wid in ("w1", "w2", "w3", "w4", "w5"):
            assert wid in s

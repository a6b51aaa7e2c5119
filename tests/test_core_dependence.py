"""Unit tests for repro.core.dependence (dependence relations)."""

import pytest

from repro.core import DependenceError, DependenceRelation, ImplTag, pred_of
from repro.apps import keycounter as kc

UNI = ["a", "b", "c"]


class TestConstruction:
    def test_from_function_materializes(self):
        dep = DependenceRelation.from_function(UNI, lambda x, y: x == y)
        assert dep.depends("a", "a")
        assert not dep.depends("a", "b")

    def test_from_function_rejects_asymmetric(self):
        with pytest.raises(DependenceError):
            DependenceRelation.from_function(UNI, lambda x, y: (x, y) == ("a", "b"))

    def test_adjacency_symmetrized(self):
        dep = DependenceRelation(UNI, {"a": ["b"]})
        assert dep.depends("b", "a")

    def test_all_independent(self):
        dep = DependenceRelation.all_independent(UNI)
        assert all(dep.indep(x, y) for x in UNI for y in UNI)

    def test_all_dependent(self):
        dep = DependenceRelation.all_dependent(UNI)
        assert all(dep.depends(x, y) for x in UNI for y in UNI)

    def test_rejects_tags_outside_universe(self):
        with pytest.raises(DependenceError):
            DependenceRelation(UNI, {"z": ["a"]})
        with pytest.raises(DependenceError):
            DependenceRelation(UNI, {"a": ["z"]})


class TestQueries:
    def setup_method(self):
        self.dep = DependenceRelation(UNI, {"a": ["b"], "c": ["c"]})

    def test_depends_and_indep_are_complements(self):
        assert self.dep.depends("a", "b") != self.dep.indep("a", "b")

    def test_dependents_of(self):
        assert self.dep.dependents_of("a") == frozenset({"b"})
        assert self.dep.dependents_of("c") == frozenset({"c"})

    def test_self_dependence(self):
        assert self.dep.is_self_dependent("c")
        assert not self.dep.is_self_dependent("a")

    def test_sets_independent(self):
        assert self.dep.sets_independent({"a"}, {"c"})
        assert not self.dep.sets_independent({"a"}, {"b", "c"})
        assert self.dep.sets_independent(set(), {"a", "b", "c"})

    def test_query_outside_universe_raises(self):
        with pytest.raises(DependenceError):
            self.dep.depends("a", "z")


class TestImplTagLifting:
    def test_itag_depends_ignores_stream(self):
        dep = DependenceRelation(UNI, {"a": ["b"]})
        assert dep.itag_depends(ImplTag("a", 0), ImplTag("b", 99))
        assert not dep.itag_depends(ImplTag("a", 0), ImplTag("c", 0))

    def test_itag_components_same_tag_different_streams(self):
        # Self-dependent tags connect their own streams; independent
        # tags do not.
        dep = DependenceRelation(UNI, {"c": ["c"]})
        itags = [ImplTag("c", 0), ImplTag("c", 1), ImplTag("a", 0), ImplTag("a", 1)]
        comps = dep.itag_components(itags)
        assert {ImplTag("c", 0), ImplTag("c", 1)} in comps
        assert {ImplTag("a", 0)} in comps and {ImplTag("a", 1)} in comps


class TestComponents:
    def test_component_structure(self):
        dep = DependenceRelation(UNI, {"a": ["b"]})
        comps = dep.itag_components([ImplTag(t, 0) for t in UNI])
        # Every tag lands in exactly one component; a-b is an edge and
        # c depends on neither.
        assert sorted(it.tag for comp in comps for it in comp) == UNI
        assert comps == [{ImplTag("a", 0), ImplTag("b", 0)}, {ImplTag("c", 0)}]

    def test_keycounter_components_by_key(self):
        prog = kc.make_program(3)
        comps = prog.depends.itag_components([ImplTag(t, 0) for t in prog.tags])
        assert len(comps) == 3  # one component per key
        for comp in comps:
            assert len({it.tag[1] for it in comp}) == 1  # tags are (kind, key)

    def test_keycounter_increments_independent(self):
        prog = kc.make_program(2)
        assert prog.depends.indep(kc.inc_tag(0), kc.inc_tag(0))
        assert prog.depends.depends(kc.reset_tag(0), kc.inc_tag(0))
        assert prog.depends.depends(kc.reset_tag(0), kc.reset_tag(0))
        assert prog.depends.indep(kc.reset_tag(0), kc.inc_tag(1))


class TestPredIndependence:
    def test_preds_independent(self):
        prog = kc.make_program(2)
        uni = prog.tags
        p_incs = pred_of(uni, [kc.inc_tag(0)])
        p_key1 = pred_of(uni, [kc.inc_tag(1), kc.reset_tag(1)])
        assert prog.depends.preds_independent(p_incs, p_incs)
        assert prog.depends.preds_independent(p_incs, p_key1)
        p_r0 = pred_of(uni, [kc.reset_tag(0)])
        assert not prog.depends.preds_independent(p_incs, p_r0)

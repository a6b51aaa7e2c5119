"""Unit tests for the selective-reordering mailbox (§3.4)."""

import pytest

from repro.core import DependenceRelation, Event, ImplTag, InputError
from repro.runtime import Mailbox
from repro.runtime.messages import EventRun


def key(tag, stream, ts):
    return Event(tag, stream, ts).order_key


# A small universe: "b" (barrier) depends on everything incl. itself;
# "v" values are mutually independent.
UNI = ["v", "b"]
DEP = DependenceRelation(UNI, {"b": ["b", "v"]})

V0 = ImplTag("v", 0)
V1 = ImplTag("v", 1)
B = ImplTag("b", "bar")


def make_mailbox(itags=(V0, V1, B)):
    return Mailbox(itags, DEP)


class TestBasicRelease:
    def test_independent_tags_release_immediately(self):
        mb = Mailbox([V0, V1], DEP)
        rel = mb.insert(V0, key("v", 0, 1.0), "a")
        assert [b.item for b in rel] == ["a"]
        rel = mb.insert(V1, key("v", 1, 0.5), "b")
        assert [b.item for b in rel] == ["b"]

    def test_dependent_event_waits_for_timer(self):
        mb = make_mailbox()
        # A value at ts=5 must wait until the barrier timer passes 5.
        assert mb.insert(V0, key("v", 0, 5.0), "v5") == []
        assert mb.buffered_count(V0) == 1
        rel = mb.advance(B, key("b", "bar", 10.0))
        assert [b.item for b in rel] == ["v5"]

    def test_barrier_waits_for_both_value_timers(self):
        mb = make_mailbox()
        assert mb.insert(B, key("b", "bar", 5.0), "b5") == []
        assert mb.advance(V0, key("v", 0, 7.0)) == []
        rel = mb.advance(V1, key("v", 1, 6.0))
        assert [b.item for b in rel] == ["b5"]

    def test_buffered_earlier_dependent_event_released_first(self):
        mb = make_mailbox()
        assert mb.insert(V0, key("v", 0, 3.0), "v3") == []
        # Inserting the barrier advances B's timer, which is exactly
        # what v0@3 was waiting for (cascade): v3 releases immediately,
        # while b5 still waits for the v1 timer.
        rel = mb.insert(B, key("b", "bar", 5.0), "b5")
        assert [b.item for b in rel] == ["v3"]
        assert mb.buffered_count() == 1
        # b5 needs *both* value timers to pass 5.
        assert mb.advance(V1, key("v", 1, 9.0)) == []
        rel = mb.advance(V0, key("v", 0, 9.0))
        assert [b.item for b in rel] == ["b5"]

    def test_cascading_release(self):
        # Releasing the barrier unblocks values queued behind it once
        # the barrier frontier passes them.
        mb = make_mailbox()
        mb.insert(B, key("b", "bar", 5.0), "b5")
        mb.insert(V0, key("v", 0, 6.0), "v6")  # blocked: barrier@5 first
        rel = mb.advance(V1, key("v", 1, 8.0))
        assert [b.item for b in rel] == ["b5"]
        # v6 still needs proof that no barrier <= 6 remains.
        rel = mb.advance(B, key("b", "bar", 10.0))
        assert [b.item for b in rel] == ["v6"]

    def test_same_tag_fifo_order(self):
        mb = Mailbox([V0], DEP)
        r1 = mb.insert(V0, key("v", 0, 1.0), "a")
        r2 = mb.insert(V0, key("v", 0, 2.0), "b")
        assert [b.item for b in r1 + r2] == ["a", "b"]


class TestSelfDependence:
    def test_self_dependent_tag_two_streams_ordered(self):
        b2 = ImplTag("b", "bar2")
        mb = Mailbox([B, b2], DEP)
        assert mb.insert(B, key("b", "bar", 5.0), "b5") == []
        rel = mb.advance(b2, key("b", "bar2", 7.0))
        assert [b.item for b in rel] == ["b5"]

    def test_self_dependent_release_in_key_order_across_streams(self):
        b2 = ImplTag("b", "bar2")
        mb = Mailbox([B, b2], DEP)
        mb.insert(B, key("b", "bar", 5.0), "b5")
        rel = mb.insert(b2, key("b", "bar2", 3.0), "b3")
        # b3 releasable (timer of B is 5 >= 3; B's front 5 > 3).
        assert [b.item for b in rel] == ["b3"]
        rel = mb.advance(b2, key("b", "bar2", 9.0))
        assert [b.item for b in rel] == ["b5"]


class TestErrors:
    def test_unknown_itag_rejected(self):
        mb = Mailbox([V0], DEP)
        with pytest.raises(InputError):
            mb.insert(ImplTag("v", 99), key("v", 99, 1.0), "x")
        with pytest.raises(InputError):
            mb.advance(ImplTag("v", 99), key("v", 99, 1.0))

    @pytest.mark.parametrize("query", ["timer", "buffer_empty", "frontier", "buffered_count"])
    def test_queries_name_an_unknown_itag(self, query):
        """Every per-tag query raises the same typed error as insert
        and advance, naming the tag, not a bare KeyError."""
        mb = Mailbox([V0], DEP)
        with pytest.raises(InputError, match=r"does not know itag .*'v'@99"):
            getattr(mb, query)(ImplTag("v", 99))

    def test_non_monotone_insert_rejected(self):
        # Use the barrier tag so the first item stays buffered.
        mb = make_mailbox()
        mb.insert(B, key("b", "bar", 5.0), "a")
        with pytest.raises(InputError, match="non-monotone"):
            mb.insert(B, key("b", "bar", 4.0), "b")

    def test_duplicate_of_a_buffered_runs_last_event_rejected(self):
        """A buffered run's last key, not its first, is what the next
        arrival must pass (the timer check alone lets an equal key in)."""
        mb = make_mailbox()
        assert mb.insert_run(EventRun("v", 0, 0, (1.0, 2.0), None)) == []
        with pytest.raises(InputError, match="non-monotone"):
            mb.insert(V0, key("v", 0, 2.0), "dup")
        with pytest.raises(InputError, match="non-monotone"):
            mb.insert_run(EventRun("v", 0, 0, (2.0, 3.0), None))

    def test_insert_behind_timer_rejected(self):
        mb = Mailbox([V0], DEP)
        mb.insert(V0, key("v", 0, 5.0), "a")  # released immediately
        with pytest.raises(InputError, match="behind"):
            mb.insert(V0, key("v", 0, 4.0), "b")

    def test_insert_behind_heartbeat_rejected(self):
        mb = Mailbox([V0], DEP)
        mb.advance(V0, key("v", 0, 10.0))
        with pytest.raises(InputError, match="behind"):
            mb.insert(V0, key("v", 0, 5.0), "late")

    def test_stale_heartbeat_is_noop(self):
        mb = make_mailbox()
        mb.advance(B, key("b", "bar", 10.0))
        assert mb.advance(B, key("b", "bar", 3.0)) == []
        assert mb.timer(B) == key("b", "bar", 10.0)


class TestFrontier:
    def test_frontier_none_when_buffered(self):
        mb = make_mailbox()
        mb.insert(B, key("b", "bar", 5.0), "b5")
        assert mb.frontier(B) is None

    def test_frontier_is_timer_when_empty(self):
        mb = make_mailbox()
        mb.advance(B, key("b", "bar", 5.0))
        assert mb.frontier(B) == key("b", "bar", 5.0)

    def test_frontier_after_release(self):
        mb = make_mailbox()
        mb.insert(B, key("b", "bar", 5.0), "b5")
        mb.advance(V0, key("v", 0, 6.0))
        mb.advance(V1, key("v", 1, 6.0))
        assert mb.buffer_empty(B)
        assert mb.frontier(B) == key("b", "bar", 5.0)

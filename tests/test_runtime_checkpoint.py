"""Tests for checkpointing (Appendix D.2) and crash recovery."""

import pickle
from collections import Counter

import pytest

from repro.core import Event, ImplTag
from repro.plans import root_and_leaves_plan
from repro.runtime import (
    FluminaRuntime,
    InputStream,
    by_timestamp_interval,
    every_nth_join,
    every_root_join,
    recover,
    run_sequential_reference,
)
from repro.apps import keycounter as kc


def build(checkpoint_predicate, n_values=3, n_events=40):
    prog = kc.make_program(1)
    streams = []
    for s in range(n_values):
        it = ImplTag(kc.inc_tag(0), f"v{s}")
        evs = tuple(
            Event(it.tag, it.stream, t * 1.0 + s * 0.13 + 0.01)
            for t in range(1, n_events + 1)
        )
        streams.append(InputStream(it, evs, heartbeat_interval=2.0))
    rit = ImplTag(kc.reset_tag(0), "b")
    resets = tuple(Event(rit.tag, rit.stream, t * 10.0) for t in range(1, 5))
    streams.append(InputStream(rit, resets, heartbeat_interval=2.0))
    leaf = [[s.itag] for s in streams[:-1]]
    plan = root_and_leaves_plan(prog, [rit], leaf)
    rt = FluminaRuntime(prog, plan, checkpoint_predicate=checkpoint_predicate)
    return prog, rt, streams


class TestCheckpointPolicies:
    def test_every_root_join_snapshots_each_barrier(self):
        prog, rt, streams = build(every_root_join())
        res = rt.run(streams)
        assert len(res.checkpoints) == len(streams[-1].events)

    def test_every_nth_join(self):
        prog, rt, streams = build(every_nth_join(2))
        res = rt.run(streams)
        assert len(res.checkpoints) == len(streams[-1].events) // 2

    def test_by_timestamp_interval(self):
        prog, rt, streams = build(by_timestamp_interval(20.0))
        res = rt.run(streams)
        # Barriers at 10,20,30,40 with >=20ms spacing -> 2 snapshots.
        assert len(res.checkpoints) == 2

    def test_no_predicate_no_checkpoints(self):
        prog, rt, streams = build(None)
        res = rt.run(streams)
        assert res.checkpoints == []

    def test_snapshot_keys_increase(self):
        prog, rt, streams = build(every_root_join())
        res = rt.run(streams)
        keys = [c.key for c in res.checkpoints]
        assert keys == sorted(keys)
        ts = [c.ts for c in res.checkpoints]
        assert ts == sorted(ts)

    def test_every_nth_rejects_bad_n(self):
        with pytest.raises(ValueError):
            every_nth_join(0)

    def test_interval_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            by_timestamp_interval(0.0)
        # A NaN interval never compares true, so it would never snapshot.
        with pytest.raises(ValueError):
            by_timestamp_interval(float("nan"))


class TestSnapshotConsistency:
    def test_snapshot_equals_sequential_state_at_barrier(self):
        """The joined root state at barrier k must equal the sequential
        state after processing everything up to that barrier."""
        prog, rt, streams = build(every_root_join())
        res = rt.run(streams)
        all_events = sorted(
            (e for s in streams for e in s.events), key=lambda e: e.order_key
        )
        barrier_ts = [e.ts for e in streams[-1].events]
        st = prog.state_type(prog.initial_type)
        for ckpt, bts in zip(res.checkpoints, barrier_ts):
            assert ckpt.ts == bts
            state = prog.init()
            for e in all_events:
                if e.ts > bts:
                    break
                state, _ = st.update(state, e)
            assert kc.state_eq(ckpt.state, state), (bts, ckpt.state, state)


class TestRecovery:
    def test_recover_replays_suffix(self):
        prog, rt, streams = build(every_root_join())
        res = rt.run(streams)
        ckpt = res.checkpoints[1]  # after barrier @20
        assert ckpt.ts == 20.0
        suffix = [e for s in streams for e in s.events if e.order_key > ckpt.key]
        final_state, replay_out = recover(prog, ckpt.state, suffix)
        # Full sequential run for comparison.
        full_out = run_sequential_reference(prog, streams)
        # Outputs after the checkpoint must match the tail of full run.
        assert Counter(replay_out) == Counter(full_out[2:])

    def test_recover_empty_suffix(self):
        prog = kc.make_program(1)
        state, outs = recover(prog, {0: 7}, [])
        assert state == {0: 7} and outs == []


class TestPredicatePicklability:
    """The standard policies are callable classes, not closures: their
    state must cross the process-runtime boundary via pickle."""

    def test_every_root_join_picklable(self):
        p = every_root_join()
        q = pickle.loads(pickle.dumps(p))
        assert q(Event("b", "s", 1.0), 0) is True

    def test_every_nth_join_pickles_with_state(self):
        p = every_nth_join(3)
        assert [p(Event("b", "s", float(t)), 0) for t in (1, 2)] == [False, False]
        q = pickle.loads(pickle.dumps(p))
        # The counter survived: the third call (on the copy) fires.
        assert q(Event("b", "s", 3.0), 0) is True
        assert q(Event("b", "s", 4.0), 0) is False

    def test_by_timestamp_interval_pickles_with_state(self):
        p = by_timestamp_interval(10.0)
        assert p(Event("b", "s", 5.0), 0) is True  # first snapshot
        q = pickle.loads(pickle.dumps(p))
        assert q(Event("b", "s", 7.0), 1) is False  # only 2 units passed
        assert q(Event("b", "s", 15.0), 1) is True

    def test_checkpoint_record_picklable(self):
        from repro.runtime import Checkpoint

        c = Checkpoint((3.0, ("str", "b"), ("str", "s")), 3.0, {0: 4})
        assert pickle.loads(pickle.dumps(c)) == c

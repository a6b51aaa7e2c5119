"""The fast-path transport layer (repro.runtime.transport + the frame
codec in repro.runtime.wire).

Four concerns:

* **Frame round-trips** — the pipe transport's byte format must
  reproduce every message exactly (type identity included): empty
  batches, >64 KiB state blobs, unicode tags/streams/payloads,
  non-finite timestamps, and adversarial interleavings that break the
  columnar run detection.

* **Fast path vs pickle fallback equivalence** — the struct-packed
  path and the pickle path must be observationally identical; seeded
  sweeps and hypothesis both drive mixed batches through the frame
  codec and the queue transport's tuple codec and compare.

* **Batch policy** — fixed vs adaptive flushing, backlog-driven
  target moves, deadline flushes.

* **End-to-end equivalence + crash-mid-frame recovery** — both
  transports run the full protocol to spec-identical outputs, and a
  worker crash landing in the middle of a batched frame still
  recovers to exactly-once output delivery.
"""

import math
import multiprocessing as mp
import os
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import keycounter as kc
from repro.apps import value_barrier as vb
from repro.core import Event, ImplTag
from repro.core.errors import RuntimeFault
from repro.core.semantics import output_multiset
from repro.runtime import (
    CrashFault,
    FaultPlan,
    RunOptions,
    every_root_join,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime.messages import (
    EventMsg,
    EventRun,
    ForkStateMsg,
    HeartbeatMsg,
    JoinRequest,
    JoinResponse,
)
from repro.runtime.transport import (
    COORDINATOR,
    STOP,
    BatchPolicy,
    BatchingSender,
    ControlPlane,
    FrameReceiver,
    PipeTransport,
    QueueTransport,
    SharedMemoryTransport,
    SocketTransport,
    TRANSPORTS,
    make_transport,
    plan_edges,
    resolve_policy,
)
from repro.runtime.wire import (
    FRAME_LEN,
    batch_message_count,
    decode_batch,
    encode_batch,
    pack_frame,
    unpack_frame,
)


def vb_case(n_value_streams=3, values_per_barrier=25, n_barriers=4):
    prog = vb.make_program()
    wl = vb.make_workload(
        n_value_streams=n_value_streams,
        values_per_barrier=values_per_barrier,
        n_barriers=n_barriers,
    )
    return prog, vb.make_streams(wl), vb.make_plan(prog, wl)


def assert_same_messages(actual, expected):
    """Message-list equality that is NaN-tolerant and type-exact."""
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert repr(a) == repr(e)
        assert type(a) is type(e)


def roundtrip(msgs):
    return unpack_frame(pack_frame(msgs))


def expand_runs(msgs):
    """Normalize a framed-receiver delivery (columnar runs interleaved
    with plain messages) back to the per-event message sequence."""
    out = []
    for m in msgs:
        if type(m) is EventRun:
            out.extend(EventMsg(e) for e in m.events())
        else:
            out.append(m)
    return out


class SubclassedTag(str):
    """Module-level str subclass (the frame codec's pickle fallback
    needs it importable): equal to its base value, distinct in type."""


# ---------------------------------------------------------------------------
# Frame round-trips
# ---------------------------------------------------------------------------

class TestFrameRoundTrips:
    def test_empty_batch(self):
        assert pack_frame([]) == b"\x00\x00\x00\x00"
        assert unpack_frame(pack_frame([])) == []

    def test_hot_path_event_run(self):
        msgs = [
            EventMsg(Event("value", "v0", float(i), payload=i * 3))
            for i in range(500)
        ]
        assert_same_messages(roundtrip(msgs), msgs)
        # A run compresses: route once + 16 bytes per event, far below
        # the tuple-pickle encoding.
        assert len(pack_frame(msgs)) < len(pickle.dumps(encode_batch(msgs)))

    def test_all_event_shapes(self):
        msgs = [
            EventMsg(Event("v", "s", 1.0, payload=7)),       # float ts, int
            EventMsg(Event("v", "s", 2.0, payload=None)),    # float ts, None
            EventMsg(Event("v", "s", 3, payload=9)),         # int ts, int
            EventMsg(Event("v", "s", 4.0, payload=0.5)),     # float ts, float
            EventMsg(Event("v", 3, 5.0, payload=1)),         # int stream
        ]
        back = roundtrip(msgs)
        assert_same_messages(back, msgs)
        # type identity of the int-ts event survives
        assert type(back[2].event.ts) is int

    def test_large_state_blob_over_64k(self):
        blob = {"state": b"x" * (1 << 17), "keys": list(range(500))}
        msgs = [
            JoinResponse(("w1", 1), "left", blob, 3),
            ForkStateMsg(("w1", 1), blob),
        ]
        back = roundtrip(msgs)
        assert back[0].state == blob
        assert back[1].state == blob

    def test_unicode_tags_streams_payloads(self):
        msgs = [
            EventMsg(Event("ключ-☃", "流-💡", 3.25, payload="naïve\n\t\0')")),
            HeartbeatMsg(
                ImplTag("ключ-☃", "流-💡"),
                (4.0, ("str", "ключ-☃"), ("str", "流-💡")),
            ),
            JoinRequest(("wörker", 3), ImplTag("b", "s"), (2.5,), "wörker", "left"),
        ]
        back = roundtrip(msgs)
        assert_same_messages(back, msgs)
        assert back[0].event.itag == ImplTag("ключ-☃", "流-💡")

    def test_inf_nan_timestamps(self):
        msgs = [
            EventMsg(Event("v", "s", float("inf"), payload=1)),
            EventMsg(Event("v", "s", float("-inf"), payload=2)),
            EventMsg(Event("v", "s", float("nan"), payload=3)),
            HeartbeatMsg(
                ImplTag("v", "s"), (float("inf"), ("str", "v"), ("str", "s"))
            ),
        ]
        back = roundtrip(msgs)
        assert back[0].event.ts == float("inf")
        assert back[1].event.ts == float("-inf")
        assert math.isnan(back[2].event.ts)
        assert back[3].key[0] == float("inf")

    def test_run_broken_by_shape_and_route_changes(self):
        # Adversarial interleaving: every neighbour differs in stream,
        # shape, or type — runs of length 1 everywhere.
        msgs = []
        for i in range(50):
            msgs.append(EventMsg(Event("v", "s%d" % (i % 3), float(i), payload=i)))
            msgs.append(EventMsg(Event("v", "s0", float(i) + 0.5, payload=None)))
            msgs.append(EventMsg(Event("v", "s0", i, payload=i)))
        assert_same_messages(roundtrip(msgs), msgs)

    def test_bool_stream_never_collides_with_int_stream(self):
        # True == 1 and hash(True) == hash(1): neither the route cache
        # nor the columnar run scan may treat a bool stream as its int
        # twin (regression test).
        msgs = [
            EventMsg(Event("v", 1, 1.0, payload=2)),
            EventMsg(Event("v", True, 2.0, payload=3)),
            EventMsg(Event("v", 1, 3.0, payload=4)),
            HeartbeatMsg(ImplTag("v", True), (4.0, ("str", "v"), ("int", True))),
        ]
        back = roundtrip(msgs)
        assert_same_messages(back, msgs)
        assert type(back[0].event.stream) is int
        assert type(back[1].event.stream) is bool
        assert type(back[2].event.stream) is int
        assert type(back[3].itag.stream) is bool

    def test_str_subclass_tag_never_collides_with_str_tag(self):
        # A str subclass compares (and hashes) equal to its base
        # value: neither the route cache nor the columnar run scan may
        # let it ride the plain-str fast path, which would decode it
        # as plain str and break exact-type round-trips.
        msgs = [
            EventMsg(Event("v", "s", 1.0, payload=1)),
            EventMsg(Event(SubclassedTag("v"), "s", 2.0, payload=2)),
            EventMsg(Event("v", "s", 3.0, payload=3)),
        ]
        back = roundtrip(msgs)
        assert_same_messages(back, msgs)
        assert type(back[0].event.tag) is str
        assert type(back[1].event.tag) is SubclassedTag
        assert type(back[2].event.tag) is str

    def test_type_identity_of_exotic_payloads(self):
        msgs = [
            EventMsg(Event("v", "s", 1.0, payload=True)),     # bool, not int
            EventMsg(Event("v", "s", 2.0, payload=2**100)),   # > i64
            EventMsg(Event("v", "s", 3.0, payload=-(2**80))),
            EventMsg(Event("v", 2**70, 4.0, payload=1)),      # > i64 stream
            EventMsg(Event(("compound", 1), "s", 5, payload={"k": [1]})),
        ]
        back = roundtrip(msgs)
        assert_same_messages(back, msgs)
        assert type(back[0].event.payload) is bool
        assert back[1].event.payload == 2**100

    def test_truncated_and_corrupt_frames_raise(self):
        msgs = [EventMsg(Event("v", "s", float(i), payload=i)) for i in range(20)]
        data = pack_frame(msgs)
        for cut in (2, 5, len(data) // 2, len(data) - 1):
            with pytest.raises(RuntimeFault):
                unpack_frame(data[:cut])
        with pytest.raises(RuntimeFault):
            unpack_frame(data + b"\x00")  # trailing garbage
        with pytest.raises(RuntimeFault):
            unpack_frame(b"\x01\x00\x00\x00\xff")  # unknown message kind


# ---------------------------------------------------------------------------
# Fast path vs pickle fallback equivalence
# ---------------------------------------------------------------------------

def random_message(rng: random.Random):
    tags = ["v", "barrier", "ключ", ("compound", 2), 7]
    streams = ["s0", "s1", 0, 3, "流"]
    payloads = [
        None,
        rng.randrange(-(2**66), 2**66),
        rng.random(),
        "p%d" % rng.randrange(100),
        (1, ("nested", rng.random())),
        {"k": rng.randrange(10)},
        True,
        float("nan"),
    ]
    ts = rng.choice([float(rng.randrange(100)), rng.randrange(100), rng.random()])
    tag = rng.choice(tags)
    stream = rng.choice(streams)
    kind = rng.randrange(5)
    if kind == 0:
        return EventMsg(Event(tag, stream, ts, rng.choice(payloads)))
    if kind == 1:
        key = (ts, ("str", str(tag)), ("str", str(stream)))
        return HeartbeatMsg(ImplTag(tag, stream), key)
    if kind == 2:
        return JoinRequest(("w%d" % rng.randrange(5), rng.randrange(9)),
                           ImplTag(tag, stream), (ts,), "root", "left")
    if kind == 3:
        return JoinResponse(("w1", rng.randrange(9)), "right",
                            rng.choice(payloads), rng.randrange(5))
    return ForkStateMsg(("w2", rng.randrange(9)), rng.choice(payloads))


class TestFastPathPickleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 20260728])
    def test_seeded_mixed_batches(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            msgs = [random_message(rng) for _ in range(rng.randrange(0, 60))]
            framed = roundtrip(msgs)
            tupled = decode_batch(
                pickle.loads(pickle.dumps(encode_batch(msgs)))
            )
            assert_same_messages(framed, msgs)
            assert_same_messages(tupled, msgs)
            assert_same_messages(framed, tupled)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["v", "b", "ключ-☃"]),
                st.one_of(st.integers(-5, 5), st.sampled_from(["s0", "流"])),
                st.one_of(
                    st.integers(-(2**70), 2**70),
                    st.floats(allow_nan=True, allow_infinity=True),
                ),
                st.one_of(
                    st.none(),
                    st.booleans(),
                    st.integers(-(2**70), 2**70),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.text(max_size=8),
                ),
            ),
            max_size=40,
        )
    )
    def test_hypothesis_event_batches(self, specs):
        msgs = [EventMsg(Event(t, s, ts, p)) for (t, s, ts, p) in specs]
        framed = roundtrip(msgs)
        tupled = decode_batch(pickle.loads(pickle.dumps(encode_batch(msgs))))
        assert_same_messages(framed, msgs)
        assert_same_messages(framed, tupled)


# ---------------------------------------------------------------------------
# Batch policy
# ---------------------------------------------------------------------------

class _FakeControl:
    """In-process stand-in for ControlPlane: records accounting and
    serves a scripted backlog to the adaptive policy."""

    def __init__(self):
        self.inflight = 0
        self.scripted_backlog = 0

    def add_inflight(self, n):
        self.inflight += n

    def mark_done(self, n):
        self.inflight -= n

    def backlog(self):
        return self.scripted_backlog


class TestBatchPolicy:
    def test_resolve_policy_mapping(self):
        assert resolve_policy(8, None).describe() == "fixed(8)"
        assert resolve_policy(None, None).adaptive
        assert resolve_policy(None, 5.0).deadline_s == pytest.approx(0.005)

    def test_flush_ms_zero_means_flush_immediately(self):
        # 0 is the tightest deadline, not "no deadline" (regression
        # test for the falsy-zero trap).
        policy = resolve_policy(None, 0.0)
        assert policy.deadline_s == 0.0
        sent = []
        sender = BatchingSender(
            lambda dst, batch: sent.append(len(batch)), _FakeControl(), policy
        )
        sender.post("w1", 1)
        sender.post("w1", 2)
        assert sent == [1, 1], "flush_ms=0 must flush every post immediately"

    def test_invalid_bounds_rejected(self):
        with pytest.raises(RuntimeFault):
            BatchPolicy(
                adaptive=True, start_batch=4, min_batch=8, max_batch=16,
                deadline_ms=1.0,
            )

    def test_fixed_policy_flushes_at_size_only(self):
        sent = []
        control = _FakeControl()
        sender = BatchingSender(
            lambda dst, batch: sent.append((dst, list(batch))),
            control,
            BatchPolicy.fixed(4),
        )
        for i in range(10):
            sender.post("w1", i)
        assert [len(b) for _, b in sent] == [4, 4]
        assert sender.pending() == 2
        sender.flush()
        assert [len(b) for _, b in sent] == [4, 4, 2]
        assert control.inflight == 10

    def test_adaptive_target_grows_under_backlog(self):
        sent = []
        control = _FakeControl()
        policy = BatchPolicy.adaptive_policy(
            start_batch=4, min_batch=2, max_batch=16, deadline_ms=None
        )
        sender = BatchingSender(
            lambda dst, batch: sent.append(len(batch)), control, policy
        )
        control.scripted_backlog = 1000  # saturated: grow every flush
        for i in range(4 + 8 + 16 + 16):
            sender.post("w1", i)
        assert sent == [4, 8, 16, 16]

    def test_adaptive_target_shrinks_when_idle(self):
        sent = []
        control = _FakeControl()
        policy = BatchPolicy.adaptive_policy(
            start_batch=16, min_batch=2, max_batch=64, deadline_ms=None
        )
        sender = BatchingSender(
            lambda dst, batch: sent.append(len(batch)), control, policy
        )
        control.scripted_backlog = 0  # idle: shrink every flush
        for i in range(16 + 8 + 4 + 2 + 2):
            sender.post("w1", i)
        assert sent == [16, 8, 4, 2, 2]

    def test_deadline_flushes_stale_buffer(self, monkeypatch):
        import repro.runtime.transport as T

        now = [0.0]
        monkeypatch.setattr(T.time, "monotonic", lambda: now[0])
        sent = []
        control = _FakeControl()
        policy = BatchPolicy.adaptive_policy(
            start_batch=64, min_batch=2, max_batch=64, deadline_ms=10.0
        )
        sender = BatchingSender(
            lambda dst, batch: sent.append(len(batch)), control, policy
        )
        sender.post("w1", 0)
        sender.post("w1", 1)
        assert sent == []
        now[0] = 0.5  # way past the 10ms deadline
        sender.post("w1", 2)
        assert sent == [3]

    def test_per_destination_buffers_are_independent(self):
        sent = []
        control = _FakeControl()
        sender = BatchingSender(
            lambda dst, batch: sent.append((dst, len(batch))),
            control,
            BatchPolicy.fixed(3),
        )
        for i in range(5):
            sender.post("a", i)
            sender.post("b", i)
        sender.flush()
        assert sent == [("a", 3), ("b", 3), ("a", 2), ("b", 2)]
        assert control.inflight == 10


# ---------------------------------------------------------------------------
# Transport fabric (in-process coordinator-side checks + cross-process)
# ---------------------------------------------------------------------------

class TestTransportFabric:
    def test_make_transport_names(self):
        ctx = mp.get_context("fork")
        edges = {"w1": [COORDINATOR]}
        assert isinstance(make_transport("pipe", ctx, edges), PipeTransport)
        assert isinstance(make_transport("queue", ctx, edges), QueueTransport)
        tcp = make_transport("tcp", ctx, edges)
        assert isinstance(tcp, SocketTransport)
        tcp.close()
        shm = make_transport("shm", ctx, edges)
        assert isinstance(shm, SharedMemoryTransport)
        shm.close()
        assert set(TRANSPORTS) == {"pipe", "queue", "tcp", "shm"}
        with pytest.raises(RuntimeFault):
            make_transport("carrier-pigeon", ctx, edges)
        with pytest.raises(RuntimeFault):
            # Options are shm-only; anything else must fail loudly.
            make_transport("pipe", ctx, edges, slots=8)

    def test_plan_edges_covers_tree_and_coordinator(self):
        prog, _, plan = vb_case(n_value_streams=2)
        edges = plan_edges(plan)
        assert set(edges) == {n.id for n in plan.workers()}
        for wid, srcs in edges.items():
            assert COORDINATOR in srcs
            parent = plan.parent_of(wid)
            if parent is not None:
                assert parent.id in srcs
            node = plan.node(wid)
            if not node.is_leaf:
                for child in node.children:
                    assert child.id in srcs

    @pytest.mark.parametrize("name", ["pipe", "queue", "tcp", "shm"])
    def test_same_process_send_recv_stop(self, name):
        """Every fabric delivers frames in order and honours stop_all
        (driven from one process: reader and writer share it).  Framed
        receivers decode consecutive same-route stretches as columnar
        EventRun objects; expanding them must reproduce the posted
        per-event sequence exactly."""
        ctx = mp.get_context("fork")
        tr = make_transport(name, ctx, {"w1": [COORDINATOR]})
        control = ControlPlane(ctx)
        sender = tr.sender(COORDINATOR, control, BatchPolicy.fixed(3))
        rx = tr.receiver("w1")
        msgs = [EventMsg(Event("v", "s", float(i), payload=i)) for i in range(7)]
        for m in msgs:
            sender.post("w1", m)
        sender.flush()
        tr.stop_all()
        got = []
        while True:
            item = rx.recv()
            if item is STOP:
                break
            got.extend(item)
            control.mark_done(batch_message_count(item))
        expanded = []
        for m in got:
            if type(m) is EventRun:
                expanded.extend(EventMsg(e) for e in m.events())
            else:
                expanded.append(m)
        assert_same_messages(expanded, msgs)
        assert control.backlog() == 0
        assert control.idle.is_set()
        tr.drain()
        tr.close()


# ---------------------------------------------------------------------------
# Frame-over-socket torture: adversarial fragmentation on real TCP
# ---------------------------------------------------------------------------

def tcp_edge():
    """One configured TCP loopback edge as (read fd, write fd), built
    by the socket transport's own connection setup (NODELAY, widened
    buffers, non-blocking write side)."""
    return SocketTransport._open_edge(None)


def feed(w_fd, data, rx, chunk=None):
    """Write ``data`` to a non-blocking socket fd, interleaving
    receiver polls — every partial write and every poll exercises the
    reassembly path.  ``chunk`` caps the bytes per write so one frame
    deterministically straddles many TCP segments."""
    step = chunk or len(data)
    for start in range(0, len(data), step):
        view = memoryview(data)[start : start + step]
        while view:
            try:
                n = os.write(w_fd, view)
            except BlockingIOError:
                rx.poll()
                continue
            view = view[n:]
        rx.poll()


class TestFrameOverSocketTorture:
    """The socket receiver against adversarial stream fragmentation:
    TCP delivers whatever segment boundaries it likes, so the frame
    layer must reassemble across splits that land mid-length-prefix,
    mid-frame, and across dozens of reads — and a peer that dies with
    half a frame on the wire must raise, not truncate."""

    def setup_method(self):
        self.r, self.w = tcp_edge()

    def teardown_method(self):
        for fd in (self.r, self.w):
            try:
                os.close(fd)
            except OSError:
                pass

    def test_split_mid_length_prefix(self):
        msgs = [EventMsg(Event("v", "s", float(i), payload=i)) for i in range(5)]
        frame = pack_frame(msgs)
        record = FRAME_LEN.pack(len(frame)) + frame
        rx = FrameReceiver([self.r])
        feed(self.w, record[:2], rx)  # half the length prefix
        rx.poll()
        assert not rx._ready, "half a length prefix must not decode"
        feed(self.w, record[2:], rx)
        rx.poll()
        assert_same_messages(expand_runs(rx.recv()), msgs)

    def test_split_mid_frame(self):
        msgs = [EventMsg(Event("v", "s", float(i), payload=i)) for i in range(40)]
        frame = pack_frame(msgs)
        record = FRAME_LEN.pack(len(frame)) + frame
        rx = FrameReceiver([self.r])
        cut = 4 + len(frame) // 2
        feed(self.w, record[:cut], rx)
        rx.poll()
        assert not rx._ready, "half a frame must not decode"
        feed(self.w, record[cut:], rx)
        rx.poll()
        assert_same_messages(expand_runs(rx.recv()), msgs)

    def test_large_frame_straddles_many_segments(self):
        # A >64 KiB frame: far beyond one os.read(1 << 16), written in
        # 997-byte slices so reassembly spans hundreds of feeds; two
        # trailing frames in the same stream must still decode after it.
        blob = {"state": b"x" * (200_000), "keys": list(range(100))}
        big = [JoinResponse(("w1", 1), "left", blob, 3)]
        small = [EventMsg(Event("v", "s", 1.0, payload=7))]
        records = b"".join(
            FRAME_LEN.pack(len(f)) + f
            for f in (pack_frame(big), pack_frame(small), pack_frame(small))
        )
        assert len(records) > 3 * (1 << 16)
        rx = FrameReceiver([self.r])
        feed(self.w, records, rx, chunk=997)
        rx.poll()
        got = rx.recv()
        assert got[0].state == blob
        assert_same_messages(expand_runs(rx.recv()), small)
        assert_same_messages(expand_runs(rx.recv()), small)

    def test_peer_close_mid_frame_raises(self):
        msgs = [EventMsg(Event("v", "s", float(i), payload=i)) for i in range(30)]
        frame = pack_frame(msgs)
        record = FRAME_LEN.pack(len(frame)) + frame
        rx = FrameReceiver([self.r])
        feed(self.w, record[: len(record) - 11], rx)
        os.close(self.w)  # peer dies mid-frame
        with pytest.raises(RuntimeFault, match="mid-frame"):
            rx.recv()  # blocks until the EOF event, which must raise

    def test_peer_close_mid_length_prefix_raises(self):
        rx = FrameReceiver([self.r])
        feed(self.w, b"\x99\x00", rx)  # 2 of 4 prefix bytes
        os.close(self.w)
        with pytest.raises(RuntimeFault, match="mid-frame"):
            rx.recv()

    def test_clean_close_at_frame_boundary_is_eof_not_fault(self):
        msgs = [EventMsg(Event("v", "s", 1.0, payload=1))]
        frame = pack_frame(msgs)
        rx = FrameReceiver([self.r])
        feed(self.w, FRAME_LEN.pack(len(frame)) + frame, rx)
        os.close(self.w)  # exits cleanly between frames
        assert_same_messages(expand_runs(rx.recv()), msgs)
        assert rx.recv() is STOP  # last live stream gone -> STOP


# ---------------------------------------------------------------------------
# End-to-end: differential across transports + crash-mid-frame recovery
# ---------------------------------------------------------------------------

class TestTransportDifferential:
    @pytest.mark.parametrize("transport", ["pipe", "queue", "tcp", "shm"])
    @pytest.mark.parametrize("batch_size", [None, 1, 16])
    def test_value_barrier_matches_spec(self, transport, batch_size):
        prog, streams, plan = vb_case()
        run = run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(transport=transport, batch_size=batch_size),
        )
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        assert run.raw.transport == transport

    def test_keycounter_pipe_adaptive_matches_spec(self):
        from repro.plans import random_valid_plan
        from repro.runtime import InputStream

        rng = random.Random(11)
        prog = kc.make_program(2)
        itags = []
        for k in range(2):
            itags.append(ImplTag(kc.inc_tag(k), f"i{k}"))
            itags.append(ImplTag(kc.reset_tag(k), f"r{k}"))
        events = {it: [] for it in itags}
        for t in range(1, 120):
            it = itags[rng.randrange(len(itags))]
            events[it].append(Event(it.tag, it.stream, float(t)))
        streams = [
            InputStream(it, tuple(events[it]), heartbeat_interval=5.0)
            for it in itags
        ]
        plan = random_valid_plan(prog, itags, random.Random(4))
        run = run_on_backend(
            "process", prog, plan, streams, options=RunOptions(flush_ms=0.5)
        )
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )

    def test_transport_option_round_trips_through_options(self):
        prog, streams, plan = vb_case(n_value_streams=2)
        opts = RunOptions(transport="queue", batch_size=4)
        run = run_on_backend("process", prog, plan, streams, options=opts)
        assert run.raw.transport == "queue"
        assert run.raw.batch == "fixed(4)"


class TestCrashMidFrame:
    @pytest.mark.parametrize("transport", ["pipe", "queue", "tcp", "shm"])
    def test_crash_mid_frame_recovers_exactly_once(self, transport):
        """A leaf crashes on an event that sits mid-batch inside a
        framed channel (fixed batches guarantee the triggering event
        has neighbours in its frame).  The surviving prefix of the
        frame was processed and flushed, the rest dies with the
        worker; recovery must restore the last checkpoint and replay
        to *exactly* the sequential outputs — no loss from the dead
        remainder of the frame, no duplication of the flushed
        prefix."""
        prog, streams, plan = vb_case(
            n_value_streams=3, values_per_barrier=30, n_barriers=4
        )
        leaf = plan.leaves()[0].id
        # after_events=37 fires at the 37th event the leaf processes:
        # past the first barrier (so a checkpoint exists to restore)
        # and, with batch 8, mid-frame — neither first nor last of its
        # batch, modulo heartbeats interleaved in the frame.
        run = run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(
                transport=transport,
                batch_size=8,
                fault_plan=FaultPlan(CrashFault(leaf, after_events=37)),
                checkpoint_predicate=every_root_join(),
            ),
        )
        assert run.recovery is not None
        assert len(run.recovery.crashes) == 1
        assert run.recovery.attempts == 2
        spec = output_multiset(run_sequential_reference(prog, streams))
        got = output_multiset(run.outputs)
        assert got == spec, "crash-mid-frame broke exactly-once delivery"

    def test_crash_on_every_frame_position(self):
        """Sweep the crash point across one whole frame's worth of
        events on the pipe transport: first-in-frame, interior, and
        last-in-frame crashes all recover to the same multiset."""
        prog, streams, plan = vb_case(
            n_value_streams=2, values_per_barrier=20, n_barriers=3
        )
        spec = output_multiset(run_sequential_reference(prog, streams))
        leaf = plan.leaves()[0].id
        # Crash points sweep one whole frame inside the second window
        # (the first barrier's checkpoint exists by then).
        for k in range(25, 25 + 6):
            run = run_on_backend(
                "process", prog, plan, streams,
                options=RunOptions(
                    batch_size=6,
                    fault_plan=FaultPlan(CrashFault(leaf, after_events=k)),
                    checkpoint_predicate=every_root_join(),
                ),
            )
            assert output_multiset(run.outputs) == spec, f"crash at event {k}"

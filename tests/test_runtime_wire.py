"""Edge cases for the compact wire codec (repro.runtime.wire).

The codec carries every protocol message of the process runtime; these
tests pin the awkward corners — empty batches, unicode tags/streams,
non-finite timestamps — plus a seeded random round-trip property over
nested payloads (both via hypothesis and via plain seeded sweeps whose
failures reproduce from the printed seed).  The frame codec's route
prefix follows: type exactness inside tuple tags, nested tags against
the pickle path, truncation, and one golden frame per message kind.
"""

import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Event, ImplTag
from repro.core.errors import RuntimeFault
from repro.runtime import wire
from repro.runtime.messages import (
    EventMsg,
    EventRun,
    ForkStateMsg,
    HeartbeatMsg,
    JoinRequest,
    JoinResponse,
)
from repro.runtime.wire import (
    batch_message_count,
    coalesce_event_runs,
    decode_batch,
    decode_msg,
    encode_batch,
    encode_msg,
    event_runs,
    pack_frame,
    unpack_frame,
)


class TestBatchEdges:
    def test_empty_batch_round_trips(self):
        assert encode_batch([]) == []
        assert decode_batch([]) == []

    def test_mixed_batch_round_trips(self):
        e = Event("v", 0, 1.5, payload={"a": [1, 2]})
        msgs = [
            EventMsg(e),
            HeartbeatMsg(ImplTag("v", 0), (2.0, ("str", "v"), ("int", 0))),
            JoinRequest(("w1", 3), ImplTag("b", "s"), (2.5,), "w1", "left"),
            JoinResponse(("w1", 3), "left", {"k": 1}, 1),
            ForkStateMsg(("w1", 3), 7),
        ]
        assert decode_batch(encode_batch(msgs)) == msgs

    def test_unknown_message_rejected(self):
        with pytest.raises(RuntimeFault):
            encode_msg(object())
        with pytest.raises(RuntimeFault):
            decode_msg((99, "nope"))


class TestUnicodeKeys:
    def test_unicode_tags_streams_and_payloads(self):
        e = Event("ключ-☃", "流-💡", 3.25, payload="naïve\n\t\0')")
        msg = EventMsg(e)
        back = decode_msg(encode_msg(msg))
        assert back == msg
        assert back.event.itag == ImplTag("ключ-☃", "流-💡")

    def test_unicode_worker_ids_in_join_request(self):
        req = JoinRequest(("wörker-Ω", 1), ImplTag("τ", "σ"), (1.0,), "wörker-Ω", "right")
        assert decode_msg(encode_msg(req)) == req


class TestNonFiniteTimestamps:
    def test_positive_and_negative_infinity(self):
        for ts in (float("inf"), float("-inf")):
            e = Event("v", 0, ts)
            back = decode_msg(encode_msg(EventMsg(e)))
            assert back.event.ts == ts

    def test_nan_timestamp_survives_encoding(self):
        # NaN != NaN, so compare structurally rather than by equality.
        back = decode_msg(encode_msg(EventMsg(Event("v", 0, float("nan"), 7))))
        assert math.isnan(back.event.ts)
        assert back.event.payload == 7

    def test_heartbeat_with_infinite_frontier(self):
        hb = HeartbeatMsg(ImplTag("v", 0), (float("inf"), ("str", "v"), ("int", 0)))
        assert decode_msg(encode_msg(hb)) == hb


# -- seeded random round-trip properties --------------------------------------

def random_payload(rng: random.Random, depth: int = 0):
    kinds = ["int", "float", "str", "bool", "none"]
    if depth < 3:
        kinds += ["list", "tuple", "dict"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randrange(-(10**9), 10**9)
    if kind == "float":
        return rng.uniform(-1e6, 1e6)
    if kind == "str":
        return "".join(chr(rng.randrange(32, 0x2FFF)) for _ in range(rng.randrange(8)))
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "list":
        return [random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == "tuple":
        return tuple(random_payload(rng, depth + 1) for _ in range(rng.randrange(4)))
    return {
        f"k{i}": random_payload(rng, depth + 1) for i in range(rng.randrange(4))
    }


def random_msg(rng: random.Random):
    kind = rng.randrange(5)
    itag = ImplTag(rng.choice(["v", "b", ("i", 0)]), rng.choice([0, "s", "流"]))
    key = (rng.uniform(0, 100), ("str", "v"), ("int", 0))
    if kind == 0:
        return EventMsg(Event(itag.tag, itag.stream, rng.uniform(0, 100), random_payload(rng)))
    if kind == 1:
        return HeartbeatMsg(itag, key)
    if kind == 2:
        return JoinRequest((f"w{rng.randrange(9)}", rng.randrange(99)), itag, key,
                           f"w{rng.randrange(9)}", rng.choice(["left", "right"]))
    if kind == 3:
        return JoinResponse((f"w{rng.randrange(9)}", rng.randrange(99)),
                            rng.choice(["left", "right"]), random_payload(rng),
                            rng.randrange(10))
    return ForkStateMsg((f"w{rng.randrange(9)}", rng.randrange(99)),
                        random_payload(rng))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 20260728])
def test_seeded_random_batches_round_trip(seed):
    rng = random.Random(seed)
    msgs = [random_msg(rng) for _ in range(200)]
    decoded = decode_batch(encode_batch(msgs))
    assert decoded == msgs, f"round-trip diverged for seed {seed}"


@pytest.mark.parametrize("seed", [11, 13])
def test_wire_form_is_picklable_and_smaller_than_message_pickle(seed):
    """The codec's whole point: the wire tuples must pickle (they cross
    mp queues) and batches must beat pickling the dataclasses."""
    rng = random.Random(seed)
    msgs = [random_msg(rng) for _ in range(300)]
    wire = encode_batch(msgs)
    assert decode_batch(pickle.loads(pickle.dumps(wire))) == msgs
    assert len(pickle.dumps(wire)) < len(pickle.dumps(msgs))


payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**60), 2**60)
    | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)


@given(
    tag=st.text(min_size=1, max_size=8),
    stream=st.integers(0, 5) | st.text(max_size=5),
    ts=st.floats(allow_nan=False),
    payload=payloads,
)
@settings(max_examples=60, deadline=None)
def test_event_round_trip_property(tag, stream, ts, payload):
    msg = EventMsg(Event(tag, stream, ts, payload))
    assert decode_msg(encode_msg(msg)) == msg


# -- frame codec: routes over every scalar-tree tag ---------------------------
#
# ("k", 1), ("k", True) and ("k", 1.0) are == and hash alike; on the wire
# they are three routes (one of them refused), and none may ever be handed
# another's bytes, run or decoded object.

K_INT, K_BOOL, K_FLOAT, K_NESTED = ("k", 1), ("k", True), ("k", 1.0), ("k", (1,))


def _reprs(msgs):
    """Per-event reprs of a decoded batch: types, signs and all."""
    out = []
    for m in msgs:
        out.extend(map(repr, m.events()) if type(m) is EventRun else [repr(m.event)])
    return out


@pytest.fixture
def cold_caches():
    """Each test starts from empty route caches, so the order in which
    equal-but-different tags reach them is the test's own."""
    for cache in (wire._ROUTE_ENC, wire._ROUTE_DEC):
        cache.clear()


@pytest.mark.usefixtures("cold_caches")
class TestRouteTypeExactness:
    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("first", range(4))
    def test_equal_tags_of_other_types_never_share_a_run(self, block, first):
        tags = [K_INT, K_BOOL, K_FLOAT, K_NESTED]
        tags = tags[first:] + tags[:first]  # who warms the cache varies
        events = [
            Event(tags[(i // block) % 4], "s", float(i), i) for i in range(12 * block)
        ]
        want = list(map(repr, events))
        items = event_runs(events)
        for item in items:
            if type(item) is EventRun:
                assert len({repr(e.tag) for e in item.events()}) == 1
                assert len(item) <= block and repr(item.tag) != repr(K_BOOL)
        assert _reprs(items) == want
        assert sum(type(m) is EventRun for m in items) == (9 if block > 1 else 0)
        for batch in (items, [EventMsg(e) for e in events]):
            frame = pack_frame(batch)
            assert _reprs(unpack_frame(frame, runs=True)) == want
            assert _reprs(unpack_frame(frame)) == want

    def test_one_cache_entry_per_exact_type(self):
        routes = [wire._route(tag, "s") for tag in (K_INT, K_FLOAT, K_NESTED, K_INT)]
        assert routes[0] is routes[3] and len({r.prefix for r in routes}) == 3
        assert wire._route(K_BOOL, "s") is None
        assert wire._route("s", 1) is not None and wire._route("s", True) is None
        assert wire._route("s", 1).prefix != wire._route("s", 1.0).prefix

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_float_zero_in_a_route_is_refused_not_confused(self, zero):
        events = [Event(("z", z), "s", float(i), i) for i, z in enumerate((zero, zero, -zero))]
        assert all(type(m) is EventMsg for m in event_runs(events))
        assert _reprs(unpack_frame(pack_frame(event_runs(events)))) == list(map(repr, events))

    @pytest.mark.parametrize(
        "tag",
        [K_BOOL, ("k", 1 << 70), frozenset({"k"}), "x" * 300, tuple(range(300))],
        ids=["bool", "big-int", "frozenset", "long-str", "long-tuple"],
    )
    def test_what_the_route_refuses_still_round_trips(self, tag):
        itag = ImplTag(tag, "s")
        key = Event(tag, "s", 2.0).order_key
        batch = [
            EventMsg(Event(tag, "s", 1.0, 7)),
            EventMsg(Event(tag, "s", 1.5, 8)),
            HeartbeatMsg(itag, key),
            JoinRequest(("w1", 4), itag, key, "w1", "left"),
        ]
        assert event_runs([m.event for m in batch[:2]], msgs=batch[:2]) == batch[:2]
        got = unpack_frame(pack_frame(batch), runs=True)
        assert got == batch and list(map(repr, got)) == list(map(repr, batch))


scalar_trees = st.recursive(
    st.none()
    | st.integers(-(1 << 63), (1 << 63) - 1)
    | st.integers(-(1 << 66), 1 << 66)
    | st.sampled_from([0, 1, 0.0, -0.0, 1.0, True, False, math.inf])
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


@given(
    tags=st.lists(scalar_trees, min_size=1, max_size=3),
    stream=st.sampled_from(["s", 0, 1, 1.0, True, None, ("s", 0)]),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=12),
    int_ts=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_frames_over_nested_tags_agree_with_the_pickle_path(tags, stream, picks, int_ts):
    """Whatever route a tag takes — cached struct route, generic
    scalars, pickle — the frame decodes to what pickling each message
    on its own gives back, type for type."""
    msgs = []
    for i, pick in enumerate(picks):
        tag = tags[pick % len(tags)]
        ts = i if int_ts else float(i)
        key = Event(tag, stream, ts).order_key
        msgs.append(EventMsg(Event(tag, stream, ts, i)))
        if i % 4 == 3:
            msgs.append(HeartbeatMsg(ImplTag(tag, stream), key))
            msgs.append(JoinRequest(("w", i), ImplTag(tag, stream), key, "w", "right"))
    oracle = [repr(pickle.loads(pickle.dumps(m))) for m in msgs]
    for batch in (msgs, coalesce_event_runs(msgs)):
        frame = pack_frame(batch)
        got = unpack_frame(frame)
        assert list(map(repr, got)) == oracle
        assert batch_message_count(unpack_frame(frame, runs=True)) == len(msgs)


def _keyed_frame():
    K = ImplTag(("i", 3), "s0")
    key = Event(K.tag, K.stream, 2.5).order_key
    return [
        EventRun(K.tag, K.stream, 0, (1.0, 2.0), (7, 8)),
        HeartbeatMsg(K, key),
        JoinRequest(("w1", 5), K, key, "w1", "right"),
    ]


@pytest.mark.usefixtures("cold_caches")
class TestRouteFrames:
    def test_every_truncation_of_a_keyed_frame_raises(self):
        """Cold and warm decode caches alike: a cached route must not
        make a short frame look whole."""
        frame = pack_frame(_keyed_frame())
        for _ in range(2):
            for cut in range(len(frame)):
                with pytest.raises(RuntimeFault):
                    unpack_frame(frame[:cut], runs=True)
            assert unpack_frame(frame, runs=True)[1:] == _keyed_frame()[1:]

    def test_corrupt_routes_raise(self):
        run, hb, _ = (pack_frame([m]) for m in _keyed_frame())
        overlong = bytearray(hb)
        overlong[5] += 1  # route length byte: swallows the tskind
        shape = bytearray(run)
        shape[6] = 0x7A  # scalar kind of the tag
        side = bytearray(pack_frame(_keyed_frame()[2:]))
        side[4 + 1 + 21 + 9 + 8] = 2  # neither left nor right
        for bad in (overlong, shape, side):
            with pytest.raises(RuntimeFault):
                unpack_frame(bytes(bad), runs=True)

    #: One frame per message kind, byte for byte.  A red test here means
    #: the wire format changed: every peer of a cluster, every recorded
    #: frame and the service clients change with it — do it on purpose.
    GOLDEN = {
        "event run": (
            _keyed_frame()[:1],
            "02000000" "05" "14" "7402" "730100" "69" "690300000000000000" "73020073" "30"
            "00" "0200" "000000000000f03f" "0700000000000000"
            "0000000000000040" "0800000000000000",
        ),
        "event run, str tag": (
            [EventMsg(Event("v", 0, 1, 7)), EventMsg(Event("v", 0, 2, 8))],
            "02000000" "05" "0d" "73010076" "690000000000000000" "02" "0200"
            "0100000000000000" "0700000000000000" "0200000000000000" "0800000000000000",
        ),
        "self-keyed heartbeat": (
            _keyed_frame()[1:2],
            "01000000" "06" "14" "7402" "730100" "69" "690300000000000000" "73020073" "30"
            "00" "0000000000000440",
        ),
        "self-keyed join request": (
            _keyed_frame()[2:],
            "01000000" "07" "14" "7402" "730100" "69" "690300000000000000" "73020073" "30"
            "00" "0000000000000440" "0500000000000000" "01" "027731" "027731",
        ),
        "generic event": (
            [EventMsg(Event("v", 0, 1.0, "x"))],
            "01000000" "03" "73010076" "690000000000000000" "64000000000000f03f" "73010078",
        ),
        "generic heartbeat": (
            [HeartbeatMsg(ImplTag(("i", 3), "s0"), (2.5,))],
            "01000000" "04" "7402" "730100" "69" "690300000000000000" "73020073" "30"
            "7401" "640000000000000440",
        ),
        "struct-packed wire tuple": (
            [ForkStateMsg(("w1", 5), 9)],
            "01000000" "01" "7403" "690400000000000000" "7402" "7302007731"
            "690500000000000000" "690900000000000000",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_golden_bytes(self, kind):
        batch, want = self.GOLDEN[kind]
        frame = pack_frame(batch)
        assert frame.hex() == want
        decoded = unpack_frame(bytes.fromhex(want), runs=True)
        assert batch_message_count(decoded) == batch_message_count(batch)

    def test_pickled_message_framing(self):
        msg = ForkStateMsg(("w1", 5), {"a": 1})
        frame = pack_frame([msg])
        assert frame[:5] == bytes.fromhex("01000000" "02")
        assert int.from_bytes(frame[5:9], "little") == len(frame) - 9
        assert decode_msg(pickle.loads(frame[9:])) == msg == unpack_frame(frame)[0]

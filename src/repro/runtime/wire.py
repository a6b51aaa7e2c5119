"""Compact wire encoding for runtime messages.

Two layers live here:

* **Tuple codec** (``encode_msg``/``decode_msg``): each protocol
  message becomes a small tuple headed by an integer type code.
  Pickling the message dataclasses directly works but spends most of
  the bytes on class metadata; the tuple form roughly halves the
  serialized size and sidesteps dataclass-pickling quirks across
  Python versions.  The queue transport ships lists of these tuples
  (``multiprocessing`` pickles them internally).

* **Frame codec** (``pack_frame``/``unpack_frame``): the pipe
  transport's byte-level format.  A frame carries one batch of
  messages.  The dominant message kinds — events, heartbeats and join
  requests whose fields are scalars (ints, floats, strings, ``None``)
  or tuples thereof — take a ``struct``-packed fast path with no
  pickle involved, each behind a cached, self-describing *route*
  prefix that names its implementation tag: a keyed app's tuple tag
  (``("i", 3)``) rides it exactly like a ``str`` tag, and consecutive
  events of one route travel as one columnar run.  Anything carrying
  arbitrary application state (join responses, fork states, exotic
  payloads) falls back to pickling that one message.  Both paths
  round-trip exactly, including type identity (``3`` never comes back
  as ``3.0``, ``True`` never as ``1``, ``("k", 1)`` never as ``("k",
  True)``), which the cross-backend differential suites rely on
  (output multisets compare ``repr``\\ s).

Messages travel in *batches* so producers and workers amortize one
channel operation — one encode, one pipe write, one wakeup — over many
messages; see :mod:`repro.runtime.transport` for the batching policy.

On the wire each frame is length-prefixed (:data:`FRAME_LEN`) and may
arrive arbitrarily fragmented — pipes deliver whatever one ``read``
returns, TCP delivers segments.  :class:`FrameAssembler` owns the
reassembly: it buffers partial prefixes and partial frames across
``feed`` calls and surfaces a peer that closed mid-frame as a
:class:`~repro.core.errors.RuntimeFault` (a torn write must never turn
into silently dropped messages).

Event payloads and join/fork states are application data: they must be
picklable (every app in :mod:`repro.apps` uses ints, tuples, and
dicts), and scalar-shaped payloads additionally ride the fast path.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..core.events import Event, ImplTag, _stable_key
from .messages import (
    EventMsg,
    EventRun,
    ForkStateMsg,
    HeartbeatMsg,
    JoinRequest,
    JoinResponse,
)

# Type codes: one small int per message kind.
_EVENT = 0
_HEARTBEAT = 1
_JOIN_REQ = 2
_JOIN_RESP = 3
_FORK = 4
_EVT_RUN = 5

WireMsg = Tuple[Any, ...]


def encode_msg(msg: Any) -> WireMsg:
    """Encode one protocol message as a compact tuple."""
    if isinstance(msg, EventMsg):
        e = msg.event
        return (_EVENT, e.tag, e.stream, e.ts, e.payload)
    if isinstance(msg, HeartbeatMsg):
        return (_HEARTBEAT, msg.itag.tag, msg.itag.stream, msg.key)
    if isinstance(msg, EventRun):
        return (_EVT_RUN, msg.tag, msg.stream, msg.shape, msg.ts, msg.payloads)
    if isinstance(msg, JoinRequest):
        return (
            _JOIN_REQ,
            msg.req_id,
            msg.itag.tag,
            msg.itag.stream,
            msg.key,
            msg.reply_to,
            msg.side,
        )
    if isinstance(msg, JoinResponse):
        return (_JOIN_RESP, msg.req_id, msg.side, msg.state, msg.backlog)
    if isinstance(msg, ForkStateMsg):
        return (_FORK, msg.req_id, msg.state)
    raise RuntimeFault(f"cannot wire-encode {msg!r}")


def decode_msg(wire: WireMsg) -> Any:
    """Inverse of :func:`encode_msg`."""
    code = wire[0]
    if code == _EVENT:
        return EventMsg(Event(wire[1], wire[2], wire[3], wire[4]))
    if code == _HEARTBEAT:
        return HeartbeatMsg(ImplTag(wire[1], wire[2]), tuple(wire[3]))
    if code == _JOIN_REQ:
        return JoinRequest(
            tuple(wire[1]), ImplTag(wire[2], wire[3]), tuple(wire[4]), wire[5], wire[6]
        )
    if code == _JOIN_RESP:
        return JoinResponse(tuple(wire[1]), wire[2], wire[3], wire[4])
    if code == _FORK:
        return ForkStateMsg(tuple(wire[1]), wire[2])
    if code == _EVT_RUN:
        payloads = wire[5]
        return EventRun(
            wire[1],
            wire[2],
            wire[3],
            tuple(wire[4]),
            tuple(payloads) if payloads is not None else None,
        )
    raise RuntimeFault(f"unknown wire type code {code!r}")


def encode_batch(msgs: Sequence[Any]) -> List[WireMsg]:
    return [encode_msg(m) for m in msgs]


def decode_batch(batch: Sequence[WireMsg]) -> List[Any]:
    return [decode_msg(w) for w in batch]


def batch_message_count(msgs: Sequence[Any]) -> int:
    """Event-level message count of a batch: an :class:`EventRun`
    counts as its length, everything else as one.  The in-flight
    accounting (sender increment, receiver decrement) and the
    ``messages_sent`` metric both use this, so a run coalesced on one
    side and decoded per-event on the other still balances to zero."""
    n = 0
    for m in msgs:
        n += len(m.ts) if type(m) is EventRun else 1
    return n


# ---------------------------------------------------------------------------
# Stream framing: length prefix + reassembly from arbitrary fragmentation
# ---------------------------------------------------------------------------

#: The 4-byte little-endian length prefix in front of every frame on a
#: byte-stream channel (pipe or TCP).  A zero-length frame is the
#: transport's stop sentinel.
FRAME_LEN = struct.Struct("<I")


class FrameAssembler:
    """Reassemble length-prefixed frames from an arbitrarily chunked
    byte stream.

    One assembler per inbound channel.  ``feed`` accepts whatever the
    channel's last read returned — a split can land mid-prefix, mid-
    frame, or carry several frames at once (TCP coalesces batched
    sends) — and returns every frame completed so far, in order.  A
    zero-length frame comes back as ``b""`` (the stop sentinel; the
    receiver maps it, this layer just preserves it).

    ``close`` is called when the peer's stream ends: leftover buffered
    bytes mean the writer died mid-``write`` (or the segment carrying
    the rest was reset), which must surface as a
    :class:`RuntimeFault` — never as silently dropped messages."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        buf = self._buf
        buf += data
        frames: List[bytes] = []
        pos = 0
        end = len(buf)
        while end - pos >= 4:
            n = FRAME_LEN.unpack_from(buf, pos)[0]
            if end - pos - 4 < n:
                break
            frames.append(bytes(buf[pos + 4 : pos + 4 + n]))
            pos += 4 + n
        if pos:
            del buf[:pos]
        return frames

    def pending(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def close(self) -> None:
        if self._buf:
            raise RuntimeFault(
                f"peer closed mid-frame: {len(self._buf)} byte(s) of an "
                "incomplete frame buffered (torn write or connection reset)"
            )


# ---------------------------------------------------------------------------
# Frame codec: the pipe transport's byte-level format
# ---------------------------------------------------------------------------
#
# frame   := <u32 count> message*        (count is event-level: a run
#                                          of n events contributes n)
# message := 0x05 route shape:u8 n:u16 <columnar struct body>
#                                                     (event-run fast path)
#          | 0x06 route selfkey                       (self-keyed heartbeat)
#          | 0x07 route selfkey seq:i64 side:u8 str8(node) str8(reply_to)
#                                                     (self-keyed join request)
#          | 0x03 scalar(tag) scalar(stream) scalar(ts) scalar(payload)
#                                                     (generic EventMsg)
#          | 0x04 scalar(tag) scalar(stream) scalar(key)
#                                                     (generic HeartbeatMsg)
#          | 0x01 <scalar tree of the wire tuple>     (generic struct path)
#          | 0x02 <u32 len> <pickle of the wire tuple>
# route   := len:u8 <scalar(tag) scalar(stream)>      (len <= 255)
# selfkey := tskind:u8 <f64 | i64>                    (0 float, 1 int)
# str8    := len:u8 <utf-8 bytes>
# scalar  := 'N'                                      None
#          | 'i' <i64>                                int (exactly; not bool)
#          | 'd' <f64>                                float (exactly)
#          | 's' <u16 len> <utf-8 bytes>              str
#          | 't' <u8 count> scalar*                   tuple
#
# Events, heartbeats and join requests — the traffic that dominates
# every workload — skip the intermediate wire tuple entirely.  Each
# opens with its *route*: the implementation tag in the scalar grammar,
# length-prefixed so the receiver can look the whole prefix up in one
# memo (bytes -> tag, stream, order-key tail) without parsing it.  The
# route is self-describing: a frame decodes without any table shipped
# beforehand, and both ends pay for a route once, on its first message.
#
# A route is *fast-path eligible* when tag and stream are scalar trees
# — ``str``, ``int`` within i64, ``float``, ``None`` and tuples of
# those, of exactly these types, 255 encoded bytes at most, and no
# float zero (``0.0 == -0.0`` and they hash alike, so a cache keyed on
# values could hand one the other's bytes).  The keyed apps' tuple tags
# (``("i", 3)``) are eligible like any ``str`` tag; a ``bool`` or a
# subclass instance anywhere inside the tag, a big int, a ``frozenset``
# are not, and travel per message on the generic paths below.
#
# A *run* of consecutive events with the same route and the same field
# shape (producers emit exactly that) is packed columnar: the route
# once, then one precompiled struct for all (ts, payload) columns.
# Heartbeats and join requests whose key is the canonical self key
# ``(ts, stable(tag), stable(stream))`` of their own route collapse to
# the route plus the timestamp (plus, for a request, its id and return
# address).  Everything else walks the generic scalar grammar, and
# anything carrying arbitrary application state (join states, exotic
# payloads) falls back to pickling that one message.
#
# Type checks are exact (``type(v) is int``) so bools, int subclasses,
# numpy scalars, big ints (> 64 bit) and long strings all take a
# slower path instead of coming back as a different type — and they
# reach *inside* a tag: ``("k", 1)``, ``("k", True)`` and ``("k", 1.0)``
# are ``==`` and hash alike but are three routes, so whatever compares
# routes compares their type trees too.  f64 packing is lossless for
# floats (same IEEE bits, inf/NaN included).

_MSG_PACKED = 0x01
_MSG_PICKLED = 0x02
_MSG_EVENT = 0x03
_MSG_HEARTBEAT = 0x04
_MSG_EVT_RUN = 0x05
_MSG_HB_SELF = 0x06
_MSG_JOIN_SELF = 0x07

#: A join request's ``side``, by wire byte.
_SIDES = ("left", "right")

# Run shapes: (type(ts), type(payload)) -> (shape byte, struct columns).
_SHAPE_FI = 0  # ts float, payload int    -> "dq"
_SHAPE_FN = 1  # ts float, payload None   -> "d"
_SHAPE_II = 2  # ts int,   payload int    -> "qq"
_SHAPE_FF = 3  # ts float, payload float  -> "dd"
_SHAPE_COLS = ("dq", "d", "qq", "dd")
_SHAPE_WIDTH = (16, 8, 16, 16)

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U16 = struct.Struct("<H")

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: Memoized per-(shape, run-length) structs for the columnar event
#: path; run lengths repeat heavily (the batch policy's flush sizes),
#: so this stays small.
_RUN_STRUCTS: dict = {}


def _run_struct(shape: int, count: int) -> struct.Struct:
    key = (shape, count)
    s = _RUN_STRUCTS.get(key)
    if s is None:
        if len(_RUN_STRUCTS) > 8192:  # pragma: no cover - pathological
            _RUN_STRUCTS.clear()
        s = _RUN_STRUCTS[key] = struct.Struct("<" + _SHAPE_COLS[shape] * count)
    return s


_MISSING = object()

class _Route(NamedTuple):
    """What the encode side knows about one eligible (tag, stream)."""

    prefix: bytes  # the route production, length byte included
    key_tail: tuple  # (stable(tag), stable(stream)): a self key minus its ts
    tag_types: Any  # _type_tree(tag)
    stream_types: Any  # _type_tree(stream)


#: Encode-side route cache: type-exact (tag, stream) -> :class:`_Route`,
#: or None when the pair is not fast-path eligible.  Implementation
#: tags come from a small finite universe (§3.1), so this hits after
#: the first message.
_ROUTE_ENC: dict = {}

#: Decode-side route cache: route body bytes -> ``(tag, stream,
#: order-key tail)``.  The bytes carry every type, so one entry can
#: never serve a tag of another type.
_ROUTE_DEC: dict = {}

#: Interning memo for decoded worker-id strings (bytes -> str).
_STR_DEC: dict = {}


def _type_tree(v: Any) -> Any:
    """The exact types of a scalar tree: a leaf's type, a tuple of
    trees for a tuple — the part of a tag ``==`` and ``hash`` ignore."""
    t = type(v)
    return tuple(map(_type_tree, v)) if t is tuple else t


def _has_float_zero(v: Any) -> bool:
    """``0.0 == -0.0`` and they hash alike: the one pair of distinct
    scalar trees a cache keyed on values and types cannot tell apart."""
    t = type(v)
    if t is tuple:
        return any(map(_has_float_zero, v))
    return t is float and v == 0.0


def _same_types(col: Sequence[Any], tree: Any) -> bool:
    """True when every value of ``col`` — all ``==`` to one another —
    has exactly the type tree ``tree``; a column at a time, so a tuple
    tag costs one ``zip`` per component, not one walk per event."""
    if type(tree) is not tuple:
        return set(map(type, col)) == {tree}
    return set(map(type, col)) == {tuple} and all(
        map(_same_types, zip(*col), tree)
    )


def _route(tag: Any, stream: Any) -> Optional[_Route]:
    """The cached route of a type-exact (tag, stream), None when the
    pair is not fast-path eligible.  Equal arguments of equal type
    trees get the *same object* back, so ``_route(t, s) is route`` is
    the exact same-route test the run builders use where ``type()`` and
    ``==`` cannot see (a cleared cache only ends a run early)."""
    # The *types* participate in the key alongside the values: True ==
    # 1 and hash(True) == hash(1), so a bool stream must not hit the
    # int entry, a str-subclass tag comparing equal to a cached str tag
    # must not ride its fast path (the fast path promises exact-type
    # round-trips; subclasses take the pickle fallback), and ("k", 1)
    # must not be handed the bytes of ("k", True).  Only a tuple needs
    # the walk; a str tag pays one ``is``.
    tag_t = type(tag)
    if tag_t is tuple:
        tag_t = _type_tree(tag)
    stream_t = type(stream)
    if stream_t is tuple:
        stream_t = _type_tree(stream)
    key = (tag, tag_t, stream, stream_t)
    try:
        route = _ROUTE_ENC.get(key, _MISSING)
    except TypeError:  # unhashable: no route (and no scalar grammar) fits
        return None
    if route is not _MISSING:
        return route
    route = None
    parts: List[bytes] = []
    try:
        _pack_scalar(tag, parts)
        _pack_scalar(stream, parts)
    except _Unpackable:
        pass
    else:
        body = b"".join(parts)
        if len(body) <= 0xFF and not (_has_float_zero(tag) or _has_float_zero(stream)):
            route = _Route(
                bytes((len(body),)) + body,
                (_stable_key(tag), _stable_key(stream)),
                tag_t,
                stream_t,
            )
    if len(_ROUTE_ENC) > 4096:  # pragma: no cover - pathological
        _ROUTE_ENC.clear()
    _ROUTE_ENC[key] = route
    return route


def _read_route(data: bytes, pos: int):
    """Decode a route prefix: ``((tag, stream, key tail), next pos)``."""
    end = pos + 1 + data[pos]
    if end > len(data):
        raise RuntimeFault("corrupt frame: truncated route")
    body = data[pos + 1 : end]
    entry = _ROUTE_DEC.get(body)
    if entry is None:
        tag, at = _unpack_scalar(body, 0)
        stream, at = _unpack_scalar(body, at)
        if at != len(body):
            raise RuntimeFault("corrupt frame: route length does not match its scalars")
        if len(_ROUTE_DEC) > 4096:  # pragma: no cover - pathological
            _ROUTE_DEC.clear()
        entry = _ROUTE_DEC[body] = (
            tag,
            stream,
            (_stable_key(tag), _stable_key(stream)),
        )
    return entry, end


def _pack_self_key(route: _Route, key: Any) -> Optional[bytes]:
    """``selfkey`` bytes when ``key`` is the canonical self key
    ``(ts, stable(tag), stable(stream))`` of ``route`` with a float or
    i64 timestamp, else None."""
    if type(key) is tuple and len(key) == 3:
        tail = route.key_tail
        if key[1] == tail[0] and key[2] == tail[1]:
            ts = key[0]
            if type(ts) is float:
                return b"\x00" + _F64.pack(ts)
            if type(ts) is int and _I64_MIN <= ts <= _I64_MAX:
                return b"\x01" + _I64.pack(ts)
    return None


def _read_self_key(data: bytes, pos: int, tail: tuple) -> Tuple[tuple, int]:
    """Inverse of :func:`_pack_self_key`: ``(key, next pos)``."""
    unpack = _F64 if data[pos] == 0 else _I64
    return (unpack.unpack_from(data, pos + 1)[0], *tail), pos + 9


def _str8(s: Any) -> Optional[bytes]:
    if type(s) is str:
        b = s.encode("utf-8")
        if len(b) <= 0xFF:
            return bytes((len(b),)) + b
    return None


def _pack_join_self(msg: JoinRequest) -> Optional[bytes]:
    """The struct form of a join request, or None when it needs the
    generic path.  A request is keyed by the event that triggered it,
    under that event's own tag — the self key again — so it packs like
    a self-keyed heartbeat plus its id, slot and return address."""
    it = msg.itag
    route = _route(it.tag, it.stream)
    rid = msg.req_id
    side = msg.side
    if (
        route is None
        or type(rid) is not tuple
        or len(rid) != 2
        or type(rid[1]) is not int
        or not _I64_MIN <= rid[1] <= _I64_MAX
        or type(side) is not str
        or side not in _SIDES
    ):
        return None
    self_key = _pack_self_key(route, msg.key)
    node, reply_to = _str8(rid[0]), _str8(msg.reply_to)
    if self_key is None or node is None or reply_to is None:
        return None
    return b"".join(
        (
            bytes((_MSG_JOIN_SELF,)),
            route.prefix,
            self_key,
            _I64.pack(rid[1]),
            bytes((_SIDES.index(side),)),
            node,
            reply_to,
        )
    )


def _intern_str(b: bytes) -> str:
    s = _STR_DEC.get(b)
    if s is None:
        if len(_STR_DEC) > 4096:  # pragma: no cover - pathological
            _STR_DEC.clear()
        s = _STR_DEC[b] = b.decode("utf-8")
    return s


class _Unpackable(Exception):
    """Internal: this wire tuple needs the pickle fallback."""


def _pack_scalar(v: Any, out: List[bytes]) -> None:
    t = type(v)
    if t is int:
        if not _I64_MIN <= v <= _I64_MAX:
            raise _Unpackable
        out.append(b"i")
        out.append(_I64.pack(v))
    elif t is float:
        out.append(b"d")
        out.append(_F64.pack(v))
    elif t is str:
        b = v.encode("utf-8")
        if len(b) > 0xFFFF:
            raise _Unpackable
        out.append(b"s")
        out.append(_U16.pack(len(b)))
        out.append(b)
    elif v is None:
        out.append(b"N")
    elif t is tuple:
        if len(v) > 0xFF:
            raise _Unpackable
        out.append(b"t")
        out.append(bytes((len(v),)))
        for item in v:
            _pack_scalar(item, out)
    else:
        raise _Unpackable


def _unpack_scalar(buf: bytes, pos: int) -> Tuple[Any, int]:
    kind = buf[pos]
    pos += 1
    if kind == 0x69:  # 'i'
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if kind == 0x64:  # 'd'
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if kind == 0x73:  # 's'
        n = _U16.unpack_from(buf, pos)[0]
        pos += 2
        return buf[pos : pos + n].decode("utf-8"), pos + n
    if kind == 0x4E:  # 'N'
        return None, pos
    if kind == 0x74:  # 't'
        n = buf[pos]
        pos += 1
        items = []
        for _ in range(n):
            item, pos = _unpack_scalar(buf, pos)
            items.append(item)
        return tuple(items), pos
    raise RuntimeFault(f"corrupt frame: unknown scalar kind {kind:#x}")


def _event_shape(ts: Any, payload: Any) -> int:
    """Shape code of one event's (ts, payload) pair, or -1."""
    tts = type(ts)
    if tts is float:
        tp = type(payload)
        if tp is int:
            return _SHAPE_FI
        if payload is None:
            return _SHAPE_FN
        if tp is float:
            return _SHAPE_FF
        return -1
    if tts is int and type(payload) is int:
        return _SHAPE_II
    return -1


def pack_frame(batch: Sequence[Any]) -> bytes:
    """Encode one batch of protocol messages as a self-contained frame.

    Order is preserved exactly (per-sender FIFO is a mailbox
    invariant), so fast-path and fallback messages interleave freely
    within a frame.  The frame header counts *event-level* messages
    (:func:`batch_message_count`): an :class:`EventRun` batch item of
    ``n`` events contributes ``n``, so the same frame decodes
    consistently whether the receiver asks for runs or per-event
    objects."""
    out: List[bytes] = [_U32.pack(batch_message_count(batch))]
    append = out.append
    n_msgs = len(batch)
    i = 0
    while i < n_msgs:
        msg = batch[i]
        i += 1
        mark = len(out)
        try:
            cls = type(msg)
            if cls is EventRun:
                # Already-columnar run (producer coalescing or a
                # re-packed decode): route + shape + packed columns,
                # no per-event objects touched.
                route = _route(msg.tag, msg.stream)
                count = len(msg.ts)
                if route is None or not 1 <= count <= 0xFFFE:
                    raise _Unpackable
                if msg.payloads is None:
                    flat: Any = msg.ts
                else:
                    flat = [None] * (2 * count)
                    flat[0::2] = msg.ts
                    flat[1::2] = msg.payloads
                try:
                    body = _run_struct(msg.shape, count).pack(*flat)
                except (struct.error, IndexError):
                    raise _Unpackable from None
                append(bytes((_MSG_EVT_RUN,)))
                append(route.prefix)
                append(bytes((msg.shape,)))
                append(_U16.pack(count))
                append(body)
                continue
            if cls is EventMsg:
                e = msg.event
                tag, stream = e.tag, e.stream
                route = _route(tag, stream)
                if route is not None:
                    ts, p = e.ts, e.payload
                    shape = _event_shape(ts, p)
                    if shape >= 0:
                        # Columnar run: swallow every directly
                        # following event with the same route and
                        # shape into one struct pack.
                        tag_t, stream_t = type(tag), type(stream)
                        shallow = tag_t is not tuple and stream_t is not tuple
                        if shape == _SHAPE_FN:
                            flat = [ts]
                        else:
                            flat = [ts, p]
                        j = i
                        j_max = i + 0xFFFE  # u16 run-length cap
                        while j < n_msgs and j < j_max:
                            m2 = batch[j]
                            if type(m2) is not EventMsg:
                                break
                            e2 = m2.event
                            # type checks before ==: True == 1, but a
                            # bool stream must not join an int run; a
                            # str-subclass tag comparing equal must
                            # not join a str run either — nor ("k",
                            # True) a run of ("k", 1), which only the
                            # route cache's type trees tell apart.
                            if (
                                type(e2.stream) is not stream_t
                                or e2.stream != stream
                                or type(e2.tag) is not tag_t
                                or e2.tag != tag
                                or not (shallow or _route(e2.tag, e2.stream) is route)
                            ):
                                break
                            ts2, p2 = e2.ts, e2.payload
                            if _event_shape(ts2, p2) != shape:
                                break
                            flat.append(ts2)
                            if shape != _SHAPE_FN:
                                flat.append(p2)
                            j += 1
                        count = j - i + 1
                        try:
                            body = _run_struct(shape, count).pack(*flat)
                        except struct.error:
                            pass  # out-of-range i64 -> generic, this msg only
                        else:
                            append(bytes((_MSG_EVT_RUN,)))
                            append(route.prefix)
                            append(bytes((shape,)))
                            append(_U16.pack(count))
                            append(body)
                            i = j
                            continue
                append(b"\x03")
                _pack_scalar(e.tag, out)
                _pack_scalar(e.stream, out)
                _pack_scalar(e.ts, out)
                _pack_scalar(e.payload, out)
                continue
            if cls is HeartbeatMsg:
                it = msg.itag
                tag, stream = it.tag, it.stream
                key = msg.key
                route = _route(tag, stream)
                if route is not None:
                    self_key = _pack_self_key(route, key)
                    if self_key is not None:
                        append(bytes((_MSG_HB_SELF,)))
                        append(route.prefix)
                        append(self_key)
                        continue
                append(b"\x04")
                _pack_scalar(tag, out)
                _pack_scalar(stream, out)
                _pack_scalar(key, out)
                continue
            if cls is JoinRequest:
                packed = _pack_join_self(msg)
                if packed is not None:
                    append(packed)
                    continue
            append(b"\x01")
            _pack_scalar(encode_msg(msg), out)
            continue
        except _Unpackable:
            del out[mark:]
        blob = pickle.dumps(encode_msg(msg), protocol=pickle.HIGHEST_PROTOCOL)
        append(b"\x02")
        append(_U32.pack(len(blob)))
        append(blob)
    return b"".join(out)


def unpack_frame(data: bytes, *, runs: bool = False) -> List[Any]:
    """Inverse of :func:`pack_frame`: decode a frame back to messages.

    With ``runs=True`` a columnar event run stays columnar — one
    :class:`EventRun` carrying the packed timestamp/payload columns —
    instead of exploding into per-event :class:`EventMsg` objects (the
    default, kept for compatibility and for consumers that want plain
    events).  The mailbox and :class:`~repro.runtime.protocol.
    WorkerCore` accept runs natively; object materialization is
    deferred to the fallback boundaries that actually need it.

    Truncated or corrupt frames raise :class:`RuntimeFault` — a
    half-written frame (e.g. from a writer that died mid-``write``)
    must surface as a transport error, never as silently dropped or
    garbled messages."""
    try:
        total = _U32.unpack_from(data, 0)[0]
        pos = 4
        seen = 0
        msgs: List[Any] = []
        mappend = msgs.append
        while seen < total:
            if pos >= len(data):
                raise RuntimeFault(
                    f"corrupt frame: truncated after {seen}/{total} messages"
                )
            kind = data[pos]
            pos += 1
            seen += 1
            if kind == _MSG_EVT_RUN:
                (tag, stream, _), pos = _read_route(data, pos)
                shape = data[pos]
                pos += 1
                count = _U16.unpack_from(data, pos)[0]
                pos += 2
                if shape > _SHAPE_FF:
                    raise RuntimeFault(
                        f"corrupt frame: unknown run shape {shape:#x}"
                    )
                vals = _run_struct(shape, count).unpack_from(data, pos)
                pos += _SHAPE_WIDTH[shape] * count
                seen += count - 1
                if runs and count > 1:
                    if shape == _SHAPE_FN:
                        mappend(EventRun(tag, stream, shape, vals, None))
                    else:
                        mappend(
                            EventRun(tag, stream, shape, vals[0::2], vals[1::2])
                        )
                elif shape == _SHAPE_FN:
                    for ts in vals:
                        mappend(EventMsg(Event(tag, stream, ts, None)))
                else:
                    for k in range(0, 2 * count, 2):
                        mappend(
                            EventMsg(Event(tag, stream, vals[k], vals[k + 1]))
                        )
                continue
            if kind == _MSG_HB_SELF:
                (tag, stream, tail), pos = _read_route(data, pos)
                key, pos = _read_self_key(data, pos, tail)
                mappend(HeartbeatMsg(ImplTag(tag, stream), key))
                continue
            if kind == _MSG_JOIN_SELF:
                (tag, stream, tail), pos = _read_route(data, pos)
                key, pos = _read_self_key(data, pos, tail)
                seq = _I64.unpack_from(data, pos)[0]
                side = _SIDES[data[pos + 8]]
                pos += 9
                names = []
                for _ in range(2):
                    end = pos + 1 + data[pos]
                    if end > len(data):
                        raise RuntimeFault("corrupt frame: truncated worker id")
                    names.append(_intern_str(data[pos + 1 : end]))
                    pos = end
                mappend(
                    JoinRequest(
                        (names[0], seq), ImplTag(tag, stream), key, names[1], side
                    )
                )
                continue
            if kind == _MSG_EVENT:
                tag, pos = _unpack_scalar(data, pos)
                stream, pos = _unpack_scalar(data, pos)
                ts, pos = _unpack_scalar(data, pos)
                payload, pos = _unpack_scalar(data, pos)
                mappend(EventMsg(Event(tag, stream, ts, payload)))
                continue
            if kind == _MSG_HEARTBEAT:
                tag, pos = _unpack_scalar(data, pos)
                stream, pos = _unpack_scalar(data, pos)
                key, pos = _unpack_scalar(data, pos)
                mappend(HeartbeatMsg(ImplTag(tag, stream), key))
                continue
            if kind == _MSG_PACKED:
                wire, pos = _unpack_scalar(data, pos)
            elif kind == _MSG_PICKLED:
                n = _U32.unpack_from(data, pos)[0]
                pos += 4
                if pos + n > len(data):
                    raise RuntimeFault("corrupt frame: truncated pickle payload")
                wire = pickle.loads(data[pos : pos + n])
                pos += n
            else:
                raise RuntimeFault(f"corrupt frame: unknown message kind {kind:#x}")
            mappend(decode_msg(wire))
    except (struct.error, IndexError, UnicodeDecodeError, pickle.UnpicklingError, EOFError) as exc:
        raise RuntimeFault(f"corrupt frame: {exc!r}") from exc
    if pos != len(data):
        raise RuntimeFault(
            f"corrupt frame: {len(data) - pos} trailing bytes after {total} messages"
        )
    return msgs


def _run_vals_packable(shape: int, ts: Any, payload: Any) -> bool:
    """True when (ts, payload) of a shape-eligible event also fits the
    struct columns (i64 range for int columns) — the producer-side
    guard that keeps :func:`pack_frame`'s run branch from ever hitting
    ``struct.error`` on a coalesced run."""
    if shape == _SHAPE_FI:
        return _I64_MIN <= payload <= _I64_MAX
    if shape == _SHAPE_II:
        return _I64_MIN <= ts <= _I64_MAX and _I64_MIN <= payload <= _I64_MAX
    return True


#: Longest run the producers build: bounds frame size and the mailbox's
#: release granularity, and is the closed-loop pump's chunk size.
MAX_RUN = 512

#: Column types of each run shape, indexed by shape byte.
_SHAPE_TYPES = ((float, int), (float, type(None)), (int, int), (float, float))

def _in_i64(col: Sequence[int]) -> bool:
    return _I64_MIN <= min(col) and max(col) <= _I64_MAX


def event_runs(
    events: Sequence[Event],
    *,
    max_run: int = MAX_RUN,
    msgs: Optional[Sequence[Any]] = None,
) -> List[Any]:
    """Pack consecutive events into columnar :class:`EventRun`\\ s.

    Every maximal stretch (at most ``max_run`` long) of events that
    continue the run its first event opens becomes one run: same route
    — types before ``==``, all the way into a tuple tag, since ``True
    == 1`` and a ``str`` subclass equals its ``str`` — same exact-type
    shape, and int columns within i64, so :func:`pack_frame`'s run
    branch never sees ``struct.error``.  An event that is not
    run-eligible (a route outside the scalar grammar: a ``bool`` or a
    subclass instance in the tag, a ``frozenset``; an exotic scalar
    shape; an out-of-i64 int) or that stands alone travels as an
    :class:`EventMsg` — ``msgs[i]`` when the caller
    already holds the wrappers, a new one otherwise.  Order is
    preserved: expanding the result event by event gives back
    ``events``.

    A producer's stream is uniform almost always, so a window is first
    tested a whole column at a time and walked event by event only
    when that fails — or while whole windows cannot pay for themselves:
    on an input, or after a run, shorter than a quarter window."""
    out: List[Any] = []
    n = len(events)
    if not n:
        return out
    tags = [e.tag for e in events]
    streams = [e.stream for e in events]
    ts_col = [e.ts for e in events]
    pl_col = [e.payload for e in events]
    whole = n * 4 >= max_run
    i = 0
    while i < n:
        tag, stream, ts, p = tags[i], streams[i], ts_col[i], pl_col[i]
        shape = _event_shape(ts, p)
        j = i + 1
        route = _route(tag, stream) if shape >= 0 else None
        if route is not None and _run_vals_packable(shape, ts, p):
            hi = min(i + max_run, n)
            ts_t, pl_t = _SHAPE_TYPES[shape]
            if (
                whole
                and tags[i:hi].count(tag) == hi - i
                and streams[i:hi].count(stream) == hi - i
                and _same_types(tags[i:hi], route.tag_types)
                and _same_types(streams[i:hi], route.stream_types)
                and set(map(type, ts_col[i:hi])) == {ts_t}
                and set(map(type, pl_col[i:hi])) == {pl_t}
                and (ts_t is not int or _in_i64(ts_col[i:hi]))
                and (pl_t is not int or _in_i64(pl_col[i:hi]))
            ):
                j = hi
            else:
                tag_t, stream_t = type(tag), type(stream)
                # type() and == do not see inside a tuple; the route
                # cache does, and scalar routes never ask it.
                shallow = tag_t is not tuple and stream_t is not tuple
                while (
                    j < hi
                    and type(streams[j]) is stream_t
                    and streams[j] == stream
                    and type(tags[j]) is tag_t
                    and tags[j] == tag
                    and _event_shape(ts_col[j], pl_col[j]) == shape
                    and _run_vals_packable(shape, ts_col[j], pl_col[j])
                    and (shallow or _route(tags[j], streams[j]) is route)
                ):
                    j += 1
            whole = (j - i) * 4 >= max_run
        if j - i == 1:
            out.append(msgs[i] if msgs is not None else EventMsg(events[i]))
        else:
            out.append(
                EventRun(
                    tag,
                    stream,
                    shape,
                    tuple(ts_col[i:j]),
                    tuple(pl_col[i:j]) if shape != _SHAPE_FN else None,
                )
            )
        i = j
    return out


def coalesce_event_runs(msgs: Sequence[Any], *, max_run: int = MAX_RUN) -> List[Any]:
    """Merge consecutive same-route, same-shape :class:`EventMsg`
    items into columnar :class:`EventRun`\\ s (:func:`event_runs` over
    every stretch of event messages).

    The producer-side twin of :func:`pack_frame`'s run coalescing:
    applying it *before* posting means the batcher and codec handle
    one object per run instead of one per event, and the receiving
    worker's mailbox can release whole runs.  Messages that are not
    run-eligible (heartbeats, heterogeneous routes, exotic scalar
    shapes) pass through untouched, order preserved."""
    out: List[Any] = []
    i, n = 0, len(msgs)
    while i < n:
        j = i
        while j < n and type(msgs[j]) is EventMsg:
            j += 1
        if j == i:
            out.append(msgs[i])
            i += 1
            continue
        stretch = msgs[i:j]
        out.extend(
            event_runs([m.event for m in stretch], max_run=max_run, msgs=stretch)
        )
        i = j
    return out

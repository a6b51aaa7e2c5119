"""IPC transports for the process runtime (data plane + batching).

The process runtime originally shipped every batch through
``multiprocessing.Queue``: one lock acquisition, one pickle in the
feeder thread, one pipe write and one consumer wakeup per hop — queue
machinery that ends up measured as "synchronization cost" in every
benchmark.  This module separates the *transport* concern from the
protocol so the hot path can do better:

* :class:`PipeTransport` (default) — one raw ``os.pipe`` per directed
  communication edge (coordinator → worker, parent ↔ child), carrying
  length-prefixed frames in the :mod:`repro.runtime.wire` frame format
  (struct-packed fast path, pickle fallback).  Single writer per pipe,
  so frames never interleave; readers ``select`` across their inbound
  pipes.  Writes are non-blocking with an ``on_block`` hook so a
  worker waiting for pipe space keeps ingesting its own inbox —
  full-duplex pressure can never deadlock the tree.

* :class:`QueueTransport` — the original ``multiprocessing.Queue``
  fabric (``transport="queue"``).  It stays because dgsbench's layer
  pass probes every name in :data:`TRANSPORTS`
  (``transport.edge_ns_per_event.<name>``); pruning the same-host
  transports is open work (ROADMAP.md, item 2a).

* :class:`SocketTransport` (``transport="tcp"``) — the same
  length-prefixed frames carried over TCP stream sockets
  (``TCP_NODELAY``, widened kernel buffers, non-blocking sends with
  the same ``on_block`` ingest hook).  Edges are loopback connections
  established before forking, so the fail-stop model is identical to
  the pipe backend: a dead peer surfaces as EOF/``ECONNRESET``, never
  as a reconnect.  :mod:`repro.runtime.cluster` carries the identical
  frame protocol over *dialed* connections between node agents — that
  is what crosses real machine boundaries; this transport is the
  single-host data plane and the benchmark baseline for it.

* :class:`SharedMemoryTransport` (``transport="shm"``) — the same
  framed byte stream carried through fixed-slot ring buffers over
  ``multiprocessing.shared_memory``, one segment per directed edge:
  payload bytes never cross the kernel, and a busy mesh runs with zero
  hot-path syscalls (an idle reader parks in ``select`` on a doorbell
  pipe and is woken by a 1-byte write — writers skip the bell while
  the reader is running), non-blocking writes with the same
  ``on_block`` ingest
  hook (slot exhaustion backpressures exactly like a full pipe), and
  crash-safe lifecycle — the coordinator owns every segment and
  unlinks them in ``close()``, workers flag their endpoints closed on
  the way out so peers observe EOF/EPIPE analogues.  Same-host only.

All transports move *batches*.  :class:`BatchingSender` owns the
policy: a :class:`BatchPolicy` either flushes at a fixed size (the old
``batch_size`` behaviour) or adapts per channel — batches grow toward
``max_batch`` while the observed global backlog is high (receivers are
busy; amortize harder) and shrink toward ``min_batch`` when the system
is keeping up, with a latency deadline bounding how long any message
can sit buffered.

The control plane (end-of-run reports, worker faults, crash/quiesce
announcements, and the global in-flight accounting that detects
quiescence) stays on ``multiprocessing`` primitives in
:class:`ControlPlane` — it is low-rate and needs blocking semantics,
not throughput.
"""

from __future__ import annotations

import os
import queue as queue_mod
import select
import socket
import struct
import time
from collections import deque
from multiprocessing import shared_memory
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from .wire import (
    FRAME_LEN,
    FrameAssembler,
    batch_message_count,
    decode_batch,
    encode_batch,
    pack_frame,
    unpack_frame,
)

#: Destination/sender id of the run coordinator (the parent process
#: pumping producer messages and collecting reports).
COORDINATOR = "__coordinator__"

#: Returned by ``Receiver.recv()`` when the coordinator shut the
#: channel down; workers exit their loop on it.
STOP = object()

#: Queue-transport stop sentinel: a plain string so it crosses the
#: wire untouched (kept from the original channel fabric).
_QUEUE_STOP = "__stop__"

_LEN = FRAME_LEN

#: Transport names accepted by ``RunOptions.transport`` /
#: ``ProcessRuntime(transport=)``.
TRANSPORTS = ("pipe", "queue", "tcp", "shm")
DEFAULT_TRANSPORT = "pipe"


def _widen_pipe(fd: int, size: int = 1 << 20) -> None:
    """Best-effort bump of the kernel pipe buffer (Linux): a 64 KiB
    default pipe forces a writer wait every ~3k packed events; 1 MiB
    keeps bursts off the slow path.  Silently keeps the default where
    unsupported or capped (``/proc/sys/fs/pipe-max-size``)."""
    try:
        import fcntl

        fcntl.fcntl(fd, getattr(fcntl, "F_SETPIPE_SZ", 1031), size)
    except (ImportError, AttributeError, OSError, ValueError):  # pragma: no cover
        pass


def configure_stream_socket(sock: socket.socket, *, nonblocking: bool) -> None:
    """Tune one TCP endpoint for the framed data plane: ``TCP_NODELAY``
    (frames are already batched — Nagle would only add latency to the
    join critical path), best-effort 1 MiB kernel buffers (mirroring
    ``_widen_pipe``), and the blocking mode the framing code expects
    (write sides are non-blocking with an ingest hook; read sides stay
    blocking — reads happen only after ``poll`` reports data)."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, opt, 1 << 20)
        except OSError:  # pragma: no cover - platform cap, keep default
            pass
    sock.setblocking(not nonblocking)


# ---------------------------------------------------------------------------
# Batch policy: fixed size vs adaptive (size OR deadline, backlog-driven)
# ---------------------------------------------------------------------------

class BatchPolicy:
    """When to flush a per-destination outgoing buffer.

    ``fixed(n)`` reproduces the original behaviour: flush at ``n``
    buffered messages, never on time.  ``adaptive()`` starts from
    ``start_batch`` and moves each channel's target within
    ``[min_batch, max_batch]``: observed backlog above
    ``grow_watermark`` × target doubles it (receivers are saturated —
    amortize harder), backlog below ``shrink_watermark`` × target
    halves it (system keeping up — favour latency).  ``deadline_ms``
    additionally flushes any buffer whose oldest message has waited
    that long, so a slow stretch cannot strand messages.
    """

    __slots__ = (
        "adaptive",
        "start_batch",
        "min_batch",
        "max_batch",
        "deadline_s",
        "grow_watermark",
        "shrink_watermark",
    )

    def __init__(
        self,
        *,
        adaptive: bool,
        start_batch: int,
        min_batch: int,
        max_batch: int,
        deadline_ms: Optional[float],
        grow_watermark: float = 4.0,
        shrink_watermark: float = 0.5,
    ) -> None:
        if not 1 <= min_batch <= start_batch <= max_batch:
            raise RuntimeFault(
                f"invalid batch policy: need 1 <= min ({min_batch}) <= "
                f"start ({start_batch}) <= max ({max_batch})"
            )
        self.adaptive = adaptive
        self.start_batch = start_batch
        self.min_batch = min_batch
        self.max_batch = max_batch
        # `is not None`: deadline_ms=0 means "flush immediately", the
        # tightest latency bound — not "no deadline".
        self.deadline_s = deadline_ms / 1000.0 if deadline_ms is not None else None
        self.grow_watermark = grow_watermark
        self.shrink_watermark = shrink_watermark

    @classmethod
    def fixed(cls, batch_size: int) -> "BatchPolicy":
        n = max(1, batch_size)
        return cls(
            adaptive=False, start_batch=n, min_batch=n, max_batch=n, deadline_ms=None
        )

    @classmethod
    def adaptive_policy(
        cls,
        *,
        start_batch: int = 64,
        min_batch: int = 16,
        max_batch: int = 1024,
        deadline_ms: float = 1.0,
    ) -> "BatchPolicy":
        return cls(
            adaptive=True,
            start_batch=start_batch,
            min_batch=min_batch,
            max_batch=max_batch,
            deadline_ms=deadline_ms,
        )

    def describe(self) -> str:
        if not self.adaptive:
            return f"fixed({self.start_batch})"
        dl = self.deadline_s * 1000.0 if self.deadline_s is not None else None
        return (
            f"adaptive({self.min_batch}..{self.max_batch}, "
            f"deadline={dl}ms)"
        )


def resolve_policy(batch_size: Optional[int], flush_ms: Optional[float]) -> BatchPolicy:
    """Map the user-facing knobs onto a policy: an explicit
    ``batch_size`` selects the fixed policy (the pre-transport
    behaviour, still useful as a baseline and in tests); ``None``
    selects adaptive batching, optionally overriding the flush
    deadline."""
    if batch_size is not None:
        return BatchPolicy.fixed(batch_size)
    if flush_ms is not None:
        return BatchPolicy.adaptive_policy(deadline_ms=flush_ms)
    return BatchPolicy.adaptive_policy()


# ---------------------------------------------------------------------------
# Control plane: reports, faults, and quiescence accounting
# ---------------------------------------------------------------------------

class ControlPlane:
    """Low-rate cross-process coordination shared by all transports.

    The in-flight counter is incremented when a batch is posted and
    decremented when the receiver has fully handled it *and* flushed
    its consequences; zero (after all producer input is posted) means
    every channel and every buffer has drained."""

    def __init__(self, ctx) -> None:
        self.results = ctx.Queue()
        self.errors = ctx.Queue()
        #: Ids of workers that went fail-stop (an injected crash) or
        #: quiesced for a reconfiguration; either ends the attempt.
        self.aborts = ctx.Queue()
        #: The live metrics feed: a queue of MetricsSnapshot copies
        #: that workers push at a low rate, opened only where a live
        #: Prometheus exporter drains it (a cluster run with a metrics
        #: port); None elsewhere, and then nothing is pushed.
        self.metrics = None
        self.inflight = ctx.Value("q", 0, lock=True)
        # Raw ctypes view: reading `inflight.value` acquires the shared
        # lock; the adaptive policy's backlog heuristic must not add a
        # second cross-process lock round per flush.
        self._inflight_raw = self.inflight.get_obj()
        self.idle = ctx.Event()
        self.idle.set()  # vacuously idle until the first post

    def add_inflight(self, n: int) -> None:
        with self.inflight.get_lock():
            self.inflight.value += n
            self.idle.clear()

    def mark_done(self, n: int) -> None:
        with self.inflight.get_lock():
            self.inflight.value -= n
            if self.inflight.value == 0:
                self.idle.set()

    def backlog(self) -> int:
        """Racy, lock-free read of the global in-flight count — a
        heuristic load signal for the adaptive batch policy, not a
        synchronization point."""
        return self._inflight_raw.value


# ---------------------------------------------------------------------------
# Batching sender (transport-independent policy layer)
# ---------------------------------------------------------------------------

class BatchingSender:
    """Per-destination outgoing buffers over a raw transport sender.

    In-flight accounting happens at flush granularity — increment just
    before the batch hits the wire, decrement when the receiver
    finishes it — so quiescence implies empty channels *and* empty
    buffers."""

    __slots__ = (
        "_send",
        "control",
        "policy",
        "_buffers",
        "_first_ts",
        "_targets",
        "metrics",
    )

    def __init__(
        self,
        send_batch: Callable[[str, List[Any]], None],
        control: ControlPlane,
        policy: BatchPolicy,
    ) -> None:
        self._send = send_batch
        self.control = control
        self.policy = policy
        self._buffers: Dict[str, List[Any]] = {}
        self._first_ts: Dict[str, float] = {}
        self._targets: Dict[str, int] = {}
        #: Optional WorkerMetrics assigned by the worker loop after
        #: construction (metrics plane on); counts flushed batches.
        self.metrics = None

    def post(self, dst: str, msg: Any) -> None:
        buf = self._buffers.get(dst)
        if buf is None:
            buf = self._buffers[dst] = []
            if self.policy.deadline_s is not None:
                self._first_ts[dst] = time.monotonic()
        buf.append(msg)
        target = self._targets.get(dst, self.policy.start_batch)
        if len(buf) >= target:
            self._flush_one(dst, target)
        elif (
            self.policy.deadline_s is not None
            and time.monotonic() - self._first_ts[dst] >= self.policy.deadline_s
        ):
            self._flush_one(dst, target)

    def _flush_one(self, dst: str, target: int) -> None:
        batch = self._buffers.pop(dst, None)
        if not batch:
            return
        self._first_ts.pop(dst, None)
        # Event-level accounting: a columnar run of n events counts n,
        # matching what the receiver marks done after decoding it.
        n_msgs = batch_message_count(batch)
        self.control.add_inflight(n_msgs)
        m = self.metrics
        if m is not None:
            m.batches_sent += 1
            m.messages_sent += n_msgs
        self._send(dst, batch)
        if self.policy.adaptive:
            # Per-channel target tracking the observed global backlog:
            # saturated receivers -> bigger batches, idle system ->
            # smaller ones.
            backlog = self.control.backlog()
            if backlog > self.policy.grow_watermark * target:
                self._targets[dst] = min(target * 2, self.policy.max_batch)
            elif backlog < self.policy.shrink_watermark * target:
                self._targets[dst] = max(target // 2, self.policy.min_batch)

    def flush(self) -> None:
        for dst in list(self._buffers):
            self._flush_one(dst, self._targets.get(dst, self.policy.start_batch))

    def pending(self) -> int:
        return sum(len(b) for b in self._buffers.values())


# ---------------------------------------------------------------------------
# Queue transport (the original fabric; see the module docstring)
# ---------------------------------------------------------------------------

class _QueueReceiver:
    __slots__ = ("_q",)

    def __init__(self, q) -> None:
        self._q = q

    def recv(self) -> Any:
        batch = self._q.get()
        if batch == _QUEUE_STOP:
            return STOP
        return decode_batch(batch)

    def poll(self) -> None:  # pragma: no cover - queue puts never block
        pass


class QueueTransport:
    """``multiprocessing.Queue`` per worker — the legacy data plane."""

    name = "queue"

    def __init__(self, ctx, edges: Dict[str, Sequence[str]]) -> None:
        self.queues = {wid: ctx.Queue() for wid in edges}

    def sender(
        self,
        src: str,
        control: ControlPlane,
        policy: BatchPolicy,
        on_block: Optional[Callable[[], None]] = None,
    ) -> BatchingSender:
        def send_batch(dst: str, batch: List[Any]) -> None:
            self.queues[dst].put(encode_batch(batch))

        return BatchingSender(send_batch, control, policy)

    def receiver(self, wid: str) -> _QueueReceiver:
        return _QueueReceiver(self.queues[wid])

    def child_setup(self, wid: str) -> None:
        pass

    def child_teardown(self, wid: str) -> None:
        pass

    def parent_setup(self) -> None:
        pass

    def stop_all(self) -> None:
        for q in self.queues.values():
            q.put(_QUEUE_STOP)

    def drain(self) -> None:
        """Discard whatever is still sitting in worker inboxes after an
        aborted attempt, so no queue feeder thread stays blocked on a
        full pipe when the queues are torn down."""
        for q in self.queues.values():
            try:
                while True:
                    q.get_nowait()
            except queue_mod.Empty:
                pass
            q.cancel_join_thread()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Pipe transport (raw os.pipe per directed edge, framed)
# ---------------------------------------------------------------------------

class FrameReceiver:
    """Merges framed traffic from every inbound stream fd of one worker
    (raw pipes or TCP sockets — both deliver arbitrarily fragmented
    bytes; :class:`FrameAssembler` owns the reassembly).

    Frames are delivered in per-sender order (each stream is FIFO and
    has a single writer); cross-sender arrival order is whatever the
    poller observes, exactly like the queue fabric's interleaved
    puts.  ``poll()`` ingests opportunistically without blocking — the
    sender calls it while waiting for channel space, which is what
    makes the mesh deadlock-free.  ``select.poll`` (not
    ``select.select``) because fd numbers above FD_SETSIZE (1024) must
    keep working — the coordinator opens every edge's channels before
    forking.

    A stream that ends cleanly (EOF at a frame boundary) means the
    writer exited; the fd is dropped and the coordinator's liveness
    checks surface the actual fault.  A stream that ends *mid-frame*
    (torn write, ``ECONNRESET`` under buffered bytes) raises
    :class:`RuntimeFault` immediately — a half-delivered batch must
    never decode as a shorter one."""

    __slots__ = ("_poller", "_n_live", "_asm", "_ready")

    def __init__(self, rfds: List[int]) -> None:
        self._poller = select.poll()
        self._asm: Dict[int, FrameAssembler] = {}
        for fd in rfds:
            self._poller.register(fd, select.POLLIN)
            self._asm[fd] = FrameAssembler()
        self._n_live = len(rfds)
        self._ready: Deque[Any] = deque()

    def recv(self) -> Any:
        while not self._ready:
            for fd, _events in self._poller.poll():
                self._ingest(fd)
        return self._ready.popleft()

    def poll(self) -> None:
        while True:
            events = self._poller.poll(0)
            if not events:
                return
            for fd, _events in events:
                self._ingest(fd)

    def _ingest(self, fd: int) -> None:
        try:
            data = os.read(fd, 1 << 16)
        except BlockingIOError:  # pragma: no cover - spurious wakeup
            return
        except OSError:
            # ECONNRESET and friends: the peer vanished abruptly.
            # Treated as end-of-stream; the assembler decides whether
            # it was torn mid-frame.
            data = b""
        if not data:
            # End of stream: drop the fd so the poller stops reporting
            # it; a mid-frame close raises out of the assembler.
            self._poller.unregister(fd)
            self._n_live -= 1
            self._asm.pop(fd).close()
            if self._n_live == 0:
                self._ready.append(STOP)
            return
        for frame in self._asm[fd].feed(data):
            self._ready.append(unpack_frame(frame, runs=True) if frame else STOP)


class FrameSender:
    """Write side of one process's outbound framed edges — stream fds
    (pipes or TCP sockets), single writer per edge, non-blocking with
    an ingest hook while the channel is full."""

    __slots__ = ("_wfds", "_on_block")

    def __init__(self, wfds: Dict[str, int], on_block: Optional[Callable[[], None]]):
        self._wfds = wfds
        self._on_block = on_block

    def send_batch(self, dst: str, batch: List[Any]) -> None:
        data = pack_frame(batch)
        self.send_raw(dst, _LEN.pack(len(data)) + data)

    def send_raw(self, dst: str, record: bytes) -> None:
        try:
            fd = self._wfds[dst]
        except KeyError:
            raise RuntimeFault(
                f"framed transport has no edge to {dst!r} from this sender"
            ) from None
        view = memoryview(record)
        while view:
            try:
                n = os.write(fd, view)
            except BlockingIOError:
                n = 0
            except (BrokenPipeError, OSError):
                # Peer already exited: only legal after an aborted
                # attempt (crash/quiesce) or once the run is being torn
                # down; the control plane carries the real outcome.
                return
            if n:
                view = view[n:]
                continue
            if self._on_block is not None:
                self._on_block()
            # poll, not select: fd numbers above FD_SETSIZE must work.
            waiter = select.poll()
            waiter.register(fd, select.POLLOUT)
            waiter.poll(2)


class PipeTransport:
    """Raw-pipe data plane: one framed, single-writer pipe per directed
    edge of the communication graph."""

    name = "pipe"

    def __init__(self, ctx, edges: Dict[str, Sequence[str]]) -> None:
        # edges: receiver id -> sender ids allowed to reach it.
        self._edges = {wid: tuple(srcs) for wid, srcs in edges.items()}
        self._pipes: Dict[tuple, tuple] = {}
        for wid, srcs in self._edges.items():
            for src in srcs:
                self._pipes[(src, wid)] = self._open_edge()
        #: Parent-side fds not yet closed.  Tracked explicitly so
        #: ``parent_setup`` + ``close`` never double-close an fd number
        #: the OS may have reused for something else.
        self._parent_open = {fd for pair in self._pipes.values() for fd in pair}

    def _open_edge(self) -> Tuple[int, int]:
        """One directed channel as a (read fd, write fd) pair; the
        write side non-blocking (:class:`SocketTransport` overrides
        this with a TCP connection, everything else is shared)."""
        r, w = os.pipe()
        os.set_blocking(w, False)
        _widen_pipe(w)
        return r, w

    def sender(
        self,
        src: str,
        control: ControlPlane,
        policy: BatchPolicy,
        on_block: Optional[Callable[[], None]] = None,
    ) -> BatchingSender:
        wfds = {
            wid: w
            for (s, wid), (_, w) in self._pipes.items()
            if s == src
        }
        raw = FrameSender(wfds, on_block)
        return BatchingSender(raw.send_batch, control, policy)

    def receiver(self, wid: str) -> FrameReceiver:
        rfds = [r for (_, d), (r, _) in self._pipes.items() if d == wid]
        return FrameReceiver(rfds)

    def child_setup(self, wid: str) -> None:
        """Called in a forked worker before it opens its endpoints:
        close every inherited fd this worker does not own (it keeps
        read ends of inbound edges and write ends of outbound ones).
        Without this, every pipe end lives in every process and a dead
        peer can never be observed as EOF/EPIPE — only the
        coordinator's exitcode polling would catch it, seconds later."""
        for (src, dst), (r, w) in self._pipes.items():
            if dst != wid:
                os.close(r)
            if src != wid:
                os.close(w)

    def child_teardown(self, wid: str) -> None:
        """Called in a worker as it exits (even on a crash path).
        Stream transports need nothing — the kernel closes fds with the
        process, which is exactly the EOF/EPIPE peers watch for; the
        shared-memory transport overrides this to set its closed flags
        explicitly (a vanished mapping is invisible to peers)."""

    def parent_setup(self) -> None:
        """Called in the coordinator once every worker has forked:
        drop the parent's copies of the fds it never uses (all read
        ends, and write ends of worker-to-worker edges), completing
        the ownership picture ``child_setup`` starts — after this,
        each pipe end lives only in the process that uses it."""
        for (src, _), (r, w) in self._pipes.items():
            self._parent_close(r)
            if src != COORDINATOR:
                self._parent_close(w)

    def _parent_close(self, fd: int) -> None:
        if fd in self._parent_open:
            self._parent_open.discard(fd)
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - defensive
                pass

    def stop_all(self) -> None:
        """Coordinator-side shutdown: a zero-length frame on every
        coordinator edge."""
        stop = _LEN.pack(0)
        sender = FrameSender(
            {
                wid: w
                for (s, wid), (_, w) in self._pipes.items()
                if s == COORDINATOR
            },
            None,
        )
        for wid in list(self._edges):
            sender.send_raw(wid, stop)

    def drain(self) -> None:
        pass  # kernel buffers vanish with the fds

    def close(self) -> None:
        for fd in list(self._parent_open):
            self._parent_close(fd)


# ---------------------------------------------------------------------------
# Socket transport (the same frames over TCP stream sockets)
# ---------------------------------------------------------------------------

class SocketTransport(PipeTransport):
    """TCP data plane: one framed, single-writer stream socket per
    directed edge of the communication graph.

    Each edge is a real TCP connection (listen/connect/accept on
    loopback, established before forking so fd ownership works exactly
    like pipes): ``TCP_NODELAY`` on both ends, non-blocking writes
    with the deadlock-free ``on_block`` ingest hook, and fail-stop
    fault surfacing — a dead peer is EOF (or ``ECONNRESET``, raised as
    :class:`RuntimeFault` when it tears a frame), never a reconnect.
    The frame protocol on the wire is byte-identical to what
    :mod:`repro.runtime.cluster` speaks between node agents on
    different hosts, which makes this transport the single-host
    reference point for the distributed deployment."""

    name = "tcp"

    def _open_edge(self) -> Tuple[int, int]:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as lst:
            lst.bind(("127.0.0.1", 0))
            lst.listen(8)
            lst.settimeout(5.0)
            w_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                # Loopback connect completes against the backlog; no
                # accept has to be sitting there first.
                w_sock.connect(lst.getsockname())
                local = w_sock.getsockname()
                # Accept until the peer is our own just-dialed socket:
                # an ephemeral loopback port is visible to every local
                # user, and a stray connect racing ours must never be
                # paired into the mesh (its frames would later be
                # trusted, including the codec's pickle fallback).
                while True:
                    r_sock, peer = lst.accept()
                    if peer == local:
                        break
                    r_sock.close()
            except BaseException:  # pragma: no cover - defensive
                w_sock.close()
                raise
        configure_stream_socket(r_sock, nonblocking=False)
        configure_stream_socket(w_sock, nonblocking=True)
        # detach(): from here on the endpoints are plain fds managed by
        # the shared pipe-ownership machinery (child_setup/parent_setup
        # close the ends each process does not own).
        return r_sock.detach(), w_sock.detach()


# ---------------------------------------------------------------------------
# Shared-memory transport (fixed-slot rings, zero syscalls on the hot path)
# ---------------------------------------------------------------------------

_SHM_HDR = 64  # ring header size: head u64, tail u64, closed flags, padding

#: Spin-then-park budget for the receive loop.  On a multi-core host a
#: micro-lull (a sender mid-batch on another CPU) resolves within a few
#: timeslices, so yielding briefly beats paying the park/bell syscall
#: round-trip.  On a single CPU the producer cannot run concurrently —
#: every yield just rescans unchanged rings and steals the timeslice the
#: sender needs (measured as uniformly inflated Python time in *all*
#: workers, 2.5x the minor faults, and 4x the context switches) — so
#: the receiver parks immediately.
_SHM_SPIN_YIELDS = 48 if (os.cpu_count() or 1) > 1 else 0
#: Park timeout: bounds the one-missed-wakeup SMP race (instrumented
#: runs observed zero missed wakeups; the timeout is purely a backstop,
#: and on a single CPU the flag/rescan/park sequence cannot miss at
#: all).  Keep it long: every timeout expiry is a spurious wakeup — a
#: select return, a rescan of empty rings, and a re-park — and at 5 ms
#: those wakeups quadrupled the voluntary context-switch count of a
#: whole-run benchmark without improving latency.
_SHM_PARK_S = 0.05
_U64 = struct.Struct("<Q")
_SHM_LAST = 0x80000000  # slot-header bit: this chunk completes a frame

#: Default ring geometry: 128 slots x 1 KiB ≈ 128 KiB per directed
#: edge.  One slot holds a typical packed batch frame, so the common
#: case stays a single push/pop pair; larger frames (checkpoint
#: states, wide batches) chunk across slots and reassemble on the
#: receive side.  Rings are deliberately *small*: a full plan's mesh
#: of rings stays cache- and TLB-resident, where a coarse-slot layout
#: (tried first: 256 x 16 KiB ≈ 4 MiB per edge) advanced a full
#: stride per frame and paid a cold page plus a minor fault for
#: almost every transfer — measurable as 2.5x the minor faults of the
#: pipe transport on the same workload.  Capacity backpressure is the
#: non-blocking ``on_block`` path, exactly like a full pipe.
SHM_SLOTS = 128
SHM_SLOT_BYTES = 1024


def _ring_bell(fd: int) -> None:
    """Best-effort 1-byte doorbell write.  ``EAGAIN`` means the pipe
    already holds ~64k unconsumed wakeups (the reader cannot miss
    them); ``EPIPE``/``EBADF`` mean teardown is racing us — both are
    exactly the cases where dropping the byte is correct."""
    try:
        os.write(fd, b"\0")
    except OSError:
        pass


class _ShmRing:
    """One directed edge's fixed-slot ring over a SharedMemory segment.

    Single writer, single reader.  The 64-byte header holds ``head``
    (slots ever written, writer-owned), ``tail`` (slots ever read,
    reader-owned) and two closed flags: ``tx_closed`` (writer exited —
    the EOF analogue) and ``rx_closed`` (reader exited — the EPIPE
    analogue; writers stop instead of spinning on a full ring).  Each
    slot is a u32 header plus up to ``slot_bytes`` of one frame: the
    header's low 31 bits are the chunk length and the top bit marks
    the frame's *final* chunk.  Slots already delimit chunks, so
    frames need no length prefix and no
    :class:`~repro.runtime.wire.FrameAssembler` — a single-slot frame
    (the common case) is exactly one copy out of the ring, and a
    writer that dies between a frame's chunks leaves an unfinished
    chunk list behind, which surfaces as the same torn-frame
    :class:`RuntimeFault` as a mid-``write`` death on a stream.

    Shared memory has no kernel wait primitive, so each ring carries a
    *doorbell*: a non-blocking ``os.pipe`` whose read end the receiver
    parks on in ``select`` when every inbound ring is empty.  The
    reader raises ``rx_waiting`` before parking (and re-scans once
    after raising it); the writer rings the bell after a frame's final
    ``head`` bump only while that flag is up, so a busy mesh moves
    data with zero syscalls and a parked reader is woken by the
    scheduler instead of polling — which is what keeps the transport
    fast when workers outnumber cores.  Because the bell write is a
    syscall issued after the ``head`` bump, a bell byte observed by
    the reader guarantees the frame's slots are visible.

    The payload write happens before the ``head`` bump and the flag
    stores are single bytes, so on the strongly-ordered platforms
    CPython's shared-memory rings target a reader never observes a slot
    it can't fully read.

    Each side keeps a local copy of the pointer it owns (``head`` for
    the writer, ``tail`` for the reader — single-writer, so the local
    copy is always exact) and a cached snapshot of the peer's pointer,
    refreshed from shared memory only when the ring *looks* full or
    empty.  That turns the hot path from four shared-header struct ops
    per slot into one, which matters: every one of these is a Python
    ``struct`` call, and at small frames they were costing more than
    the syscalls the transport exists to avoid.  The caches start
    unset and are loaded from the header on first use, so a forked
    process inheriting this object (re-forked workers on a recovery
    attempt) starts from the authoritative shared state, not a stale
    parent-side copy.
    """

    __slots__ = (
        "shm", "buf", "slots", "slot_bytes", "_stride", "bell_r", "bell_w",
        "_head", "_tail", "_head_seen", "_tail_seen",
    )

    def __init__(self, shm, slots: int, slot_bytes: int) -> None:
        self.shm = shm
        self.buf = shm.buf
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._stride = 4 + slot_bytes
        self.bell_r, self.bell_w = os.pipe()
        os.set_blocking(self.bell_r, False)
        os.set_blocking(self.bell_w, False)
        #: Writer-local head / reader-local tail (lazy; see class doc).
        self._head: Optional[int] = None
        self._tail: Optional[int] = None
        #: Cached snapshots of the *peer's* pointer.
        self._head_seen = 0
        self._tail_seen = 0

    # -- header fields ---------------------------------------------------
    def head(self) -> int:
        return _U64.unpack_from(self.buf, 0)[0]

    def tail(self) -> int:
        return _U64.unpack_from(self.buf, 8)[0]

    def tx_closed(self) -> bool:
        return self.buf[16] != 0

    def rx_closed(self) -> bool:
        return self.buf[17] != 0

    def set_tx_closed(self) -> None:
        self.buf[16] = 1

    def set_rx_closed(self) -> None:
        self.buf[17] = 1

    def rx_waiting(self) -> bool:
        return self.buf[18] != 0

    def set_rx_waiting(self, flag: int) -> None:
        self.buf[18] = flag

    # -- data path -------------------------------------------------------
    def push(self, chunk, last: bool) -> bool:
        """Write one chunk (<= slot_bytes) into the next slot, marking
        whether it completes a frame; False if the ring is full (the
        caller owns the backpressure loop)."""
        buf = self.buf
        head = self._head
        if head is None:
            head = _U64.unpack_from(buf, 0)[0]
            self._tail_seen = _U64.unpack_from(buf, 8)[0]
        if head - self._tail_seen >= self.slots:
            self._tail_seen = _U64.unpack_from(buf, 8)[0]
            if head - self._tail_seen >= self.slots:
                self._head = head
                return False
        off = _SHM_HDR + (head % self.slots) * self._stride
        n = len(chunk)
        buf[off + 4 : off + 4 + n] = chunk
        _LEN.pack_into(buf, off, n | _SHM_LAST if last else n)
        self._head = head + 1
        _U64.pack_into(buf, 0, head + 1)
        return True

    def pop_chunk(self) -> Optional[Tuple[bytes, bool]]:
        """Read the next ``(chunk, is_final)`` pair, or None when the
        ring is empty."""
        buf = self.buf
        tail = self._tail
        if tail is None:
            tail = self._tail = _U64.unpack_from(buf, 8)[0]
        if tail >= self._head_seen:
            self._head_seen = _U64.unpack_from(buf, 0)[0]
            if tail >= self._head_seen:
                return None
        off = _SHM_HDR + (tail % self.slots) * self._stride
        n = _LEN.unpack_from(buf, off)[0]
        last = bool(n & _SHM_LAST)
        n &= _SHM_LAST - 1
        chunk = bytes(buf[off + 4 : off + 4 + n])
        self._tail = tail + 1
        _U64.pack_into(buf, 8, tail + 1)
        return chunk, last

    def drained(self) -> bool:
        return self.tail() >= self.head()

    def release(self) -> None:
        """Drop this process's view of the segment so ``shm.close()``
        (and interpreter shutdown in forked children) never trips over
        an exported buffer."""
        buf = self.buf
        self.buf = None
        if buf is not None:
            try:
                buf.release()
            except BufferError:  # pragma: no cover - defensive
                pass


class _ShmSender:
    """Write side of one process's outbound rings: frames chunked into
    slots, non-blocking with the same deadlock-free ``on_block`` ingest
    hook as the stream transports, and an ``rx_closed`` escape so a
    dead reader surfaces like EPIPE instead of an eternal spin."""

    __slots__ = ("_rings", "_on_block")

    def __init__(
        self, rings: Dict[str, _ShmRing], on_block: Optional[Callable[[], None]]
    ) -> None:
        self._rings = rings
        self._on_block = on_block

    def send_batch(self, dst: str, batch: List[Any]) -> None:
        self.send_raw(dst, pack_frame(batch))

    def send_raw(self, dst: str, frame: bytes) -> None:
        """Push one frame (*without* a length prefix — slot headers
        already delimit it) into the edge's ring."""
        try:
            ring = self._rings[dst]
        except KeyError:
            raise RuntimeFault(
                f"shm transport has no edge to {dst!r} from this sender"
            ) from None
        sb = ring.slot_bytes
        end = len(frame)
        if end <= sb:
            # Single-slot frame (the overwhelmingly common case): skip
            # the memoryview/offset machinery and push the bytes as-is.
            spins = 0
            while not ring.push(frame, True):
                if ring.rx_closed():
                    return
                if ring.rx_waiting():
                    _ring_bell(ring.bell_w)
                if self._on_block is not None:
                    self._on_block()
                spins += 1
                if spins <= 64:
                    os.sched_yield()
                else:
                    time.sleep(0.0002)
            if ring.rx_waiting():
                _ring_bell(ring.bell_w)
            return
        view = memoryview(frame)
        pos = 0
        while True:
            chunk = view[pos : pos + sb]
            last = pos + sb >= end
            spins = 0
            while not ring.push(chunk, last):
                if ring.rx_closed():
                    # Peer already exited: only legal after an aborted
                    # attempt or during teardown, mirroring the stream
                    # senders' BrokenPipeError return.
                    return
                if ring.rx_waiting():
                    # The only way out of a full ring is the reader
                    # draining it — wake it before waiting on it.
                    # (Checked every spin: the reader may park after
                    # we entered this loop; it clears the flag on
                    # wake, so this self-limits to ~one bell per
                    # park.)
                    _ring_bell(ring.bell_w)
                if self._on_block is not None:
                    self._on_block()
                # Yield first: on a saturated (or single-core) host the
                # reader needs our timeslice to drain the ring, and a
                # yield is ~100x cheaper than the shortest real sleep.
                # Park only once the ring stays full across many yields
                # (reader descheduled for a long stretch).
                spins += 1
                if spins <= 64:
                    os.sched_yield()
                else:
                    time.sleep(0.0002)
            if last:
                break
            pos += sb
        if ring.rx_waiting():
            # Ring the doorbell strictly after the final head bump, and
            # only when the reader is parked (or about to park — it
            # re-scans the rings after raising its flag, so a frame
            # visible before the flag is never missed).  A busy reader
            # costs this edge zero syscalls.
            _ring_bell(ring.bell_w)


class _ShmReceiver:
    """Merges framed traffic from every inbound ring of one worker.

    Mirrors :class:`FrameReceiver`: per-sender FIFO, opportunistic
    non-blocking ``poll`` for the senders' backpressure loops, STOP on
    an empty frame or once every inbound ring is closed and drained,
    and a torn stream (``tx_closed`` mid-frame) raising a
    :class:`RuntimeFault`.  ``recv`` parks in ``select`` on the rings'
    doorbell pipes when every inbound ring is empty — the shared
    memory itself has no kernel wait primitive to block on, and
    polling instead would steal exactly the CPU the senders need on a
    saturated host.  The select timeout is a safety net (teardown
    races, SIGKILLed writers whose flags never get set), not the
    wakeup path — but it is deliberately short: a park that loses the
    scheduling lottery costs at most one timeout, and on an
    oversubscribed single-core host that cap lands on the critical
    path of every barrier wave.  Spurious timeout wakeups when a
    worker is *genuinely* idle are a rescan of empty rings a couple
    hundred times a second — noise."""

    __slots__ = ("_entries", "_n_live", "_ready", "_bell_eof")

    def __init__(self, rings: List[_ShmRing]) -> None:
        # entry = [ring, partial-frame chunk list, live]
        self._entries: List[list] = [[r, [], True] for r in rings]
        self._n_live = len(rings)
        self._ready: Deque[Any] = deque()
        self._bell_eof: set = set()

    def recv(self) -> Any:
        idle = 0
        while not self._ready:
            if self._ingest():
                idle = 0
                continue
            # A micro-lull (sender mid-batch) is far more common than a
            # real quiet period: give the producers a few timeslices
            # before paying for the full park/bell round-trip.
            idle += 1
            if idle <= _SHM_SPIN_YIELDS:
                os.sched_yield()
                continue
            fds = [
                e[0].bell_r
                for e in self._entries
                if e[2] and e[0].bell_r not in self._bell_eof
            ]
            if not fds:
                # All bells dead (global teardown closed the write
                # ends) but flags not yet observed: degrade to a
                # gentle poll instead of a hot select loop.
                time.sleep(0.002)
                continue
            # Park protocol: raise the waiting flags, re-scan once
            # (any frame pushed before a writer could see a flag is
            # taken here), then block on the doorbells.  On a single
            # CPU the flag/scan/park sequence cannot interleave with a
            # writer's push/check (context switches are full barriers);
            # on SMP the worst case is one missed wakeup bounded by
            # the select timeout.
            for e in self._entries:
                if e[2]:
                    e[0].set_rx_waiting(1)
            try:
                if self._ingest():
                    continue
                readable, _, _ = select.select(fds, [], [], _SHM_PARK_S)
                for fd in readable:
                    try:
                        if os.read(fd, 1 << 16) == b"":
                            self._bell_eof.add(fd)
                    except OSError:
                        self._bell_eof.add(fd)
            finally:
                for e in self._entries:
                    if e[2]:
                        e[0].set_rx_waiting(0)
        return self._ready.popleft()

    def poll(self) -> None:
        self._ingest()

    def _ingest(self) -> bool:
        progress = False
        for entry in self._entries:
            ring, parts, live = entry
            if not live:
                continue
            popped = ring.pop_chunk()
            while popped is not None:
                progress = True
                chunk, last = popped
                if not last:
                    parts.append(chunk)
                else:
                    if parts:
                        parts.append(chunk)
                        frame = b"".join(parts)
                        parts.clear()
                    else:
                        frame = chunk
                    self._ready.append(unpack_frame(frame, runs=True) if frame else STOP)
                popped = ring.pop_chunk()
            if ring.tx_closed() and ring.drained():
                entry[2] = False
                self._n_live -= 1
                if parts:
                    # Mid-frame death: same failure surface as a torn
                    # pipe/socket write — never silently dropped.
                    n = sum(len(c) for c in parts)
                    raise RuntimeFault(
                        f"peer closed mid-frame: {n} byte(s) of an "
                        "incomplete frame buffered (torn shm ring)"
                    )
                if self._n_live == 0:
                    self._ready.append(STOP)
        return progress


class SharedMemoryTransport:
    """Shared-memory data plane: one fixed-slot ring per directed edge
    over ``multiprocessing.shared_memory``.  Payload bytes never cross
    the kernel, and while every peer is busy the data plane makes no
    syscalls at all; an idle reader blocks in ``select`` on its rings'
    doorbell pipes (instead of stealing cycles from the workers that
    have work) and costs its writers one 1-byte bell write to wake.

    The coordinator creates every segment (and each ring's doorbell
    pipe) before forking, so workers
    inherit mappings and the parent owns the lifecycle: ``close()``
    (which the runtime's ``finally`` reaches even on KeyboardInterrupt)
    unlinks every segment exactly once, keeping fault-injection runs
    leak-free and the resource tracker quiet.  Workers set their rings'
    closed flags on the way out (``child_teardown`` runs in the worker
    ``finally``), so peers observe crashes as EOF/EPIPE analogues just
    like on the stream transports.  Same-host only — the cluster
    runtime keeps speaking TCP between node agents."""

    name = "shm"

    def __init__(
        self,
        ctx,
        edges: Dict[str, Sequence[str]],
        *,
        slots: int = SHM_SLOTS,
        slot_bytes: int = SHM_SLOT_BYTES,
    ) -> None:
        if slots < 2 or slot_bytes < 64:
            raise RuntimeFault(
                f"shm ring too small: need slots >= 2 (got {slots}) and "
                f"slot_bytes >= 64 (got {slot_bytes})"
            )
        self._edges = {wid: tuple(srcs) for wid, srcs in edges.items()}
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._rings: Dict[tuple, _ShmRing] = {}
        self._closed = False
        size = _SHM_HDR + slots * (4 + slot_bytes)
        try:
            for wid, srcs in self._edges.items():
                for src in srcs:
                    shm = shared_memory.SharedMemory(create=True, size=size)
                    self._rings[(src, wid)] = _ShmRing(shm, slots, slot_bytes)
        except BaseException:
            self.close()
            raise

    def sender(
        self,
        src: str,
        control: ControlPlane,
        policy: BatchPolicy,
        on_block: Optional[Callable[[], None]] = None,
    ) -> BatchingSender:
        rings = {
            wid: ring for (s, wid), ring in self._rings.items() if s == src
        }
        raw = _ShmSender(rings, on_block)
        return BatchingSender(raw.send_batch, control, policy)

    def receiver(self, wid: str) -> _ShmReceiver:
        return _ShmReceiver(
            [ring for (_, d), ring in self._rings.items() if d == wid]
        )

    def child_setup(self, wid: str) -> None:
        pass  # nothing fd-like to prune; mappings are shared by design

    def child_teardown(self, wid: str) -> None:
        """Worker exit path (normal, crashed, or interrupted): mark this
        worker's endpoints closed so writers stop spinning and readers
        see EOF, then drop the child's inherited mappings."""
        for (src, dst), ring in self._rings.items():
            if ring.buf is None:
                continue
            if src == wid:
                ring.set_tx_closed()
                # Wake a peer parked on this edge so it observes the
                # EOF flag now rather than at its select timeout.
                _ring_bell(ring.bell_w)
            if dst == wid:
                ring.set_rx_closed()
        for ring in self._rings.values():
            ring.release()

    def parent_setup(self) -> None:
        pass  # the parent keeps every segment: it owns unlink

    def stop_all(self) -> None:
        """Coordinator-side shutdown: a zero-length frame on every
        coordinator edge, with a bounded wait per ring so a dead worker
        (full ring, rx flag already set or never to be read) cannot
        hang the coordinator."""
        deadline = time.monotonic() + 2.0
        for (src, wid), ring in self._rings.items():
            if src != COORDINATOR or ring.buf is None:
                continue
            while not ring.rx_closed() and time.monotonic() < deadline:
                if ring.push(b"", True):  # empty frame = stop sentinel
                    _ring_bell(ring.bell_w)
                    break
                time.sleep(0.0005)

    def drain(self) -> None:
        """Abort path: flag every reader side closed so workers' spinning
        writers fall out of their backpressure loops immediately, and
        ring every bell so parked readers wake and re-check flags."""
        for ring in self._rings.values():
            if ring.buf is not None:
                ring.set_rx_closed()
            _ring_bell(ring.bell_w)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for ring in self._rings.values():
            if ring.buf is not None:
                ring.set_tx_closed()
                ring.set_rx_closed()
            ring.release()
            try:
                ring.shm.close()
            except BufferError:  # pragma: no cover - defensive
                pass
            try:
                ring.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            for fd in (ring.bell_r, ring.bell_w):
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - already closed
                    pass


def make_transport(name: str, ctx, edges: Dict[str, Sequence[str]], **options):
    """Instantiate a registered transport.  ``options`` are
    transport-specific tuning knobs; only the shm transport takes any
    (``slots``, ``slot_bytes``) — passing options to a stream transport
    is an error rather than a silent ignore."""
    if name == "shm":
        return SharedMemoryTransport(ctx, edges, **options)
    if options:
        raise RuntimeFault(
            f"transport {name!r} takes no options (got {sorted(options)})"
        )
    if name == "pipe":
        return PipeTransport(ctx, edges)
    if name == "queue":
        return QueueTransport(ctx, edges)
    if name == "tcp":
        return SocketTransport(ctx, edges)
    raise RuntimeFault(
        f"unknown transport {name!r}; available: {TRANSPORTS}"
    )


def plan_edges(plan) -> Dict[str, List[str]]:
    """The directed communication graph of a synchronization plan:
    every worker hears from the coordinator (producer input + stop),
    its parent (join requests, forked states, relayed heartbeats) and
    its children (join responses)."""
    edges: Dict[str, List[str]] = {}
    for node in plan.workers():
        srcs = [COORDINATOR]
        parent = plan.parent_of(node.id)
        if parent is not None:
            srcs.append(parent.id)
        if not node.is_leaf:
            srcs.extend(c.id for c in node.children)
        edges[node.id] = srcs
    return edges

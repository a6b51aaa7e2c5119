"""IPC transports for the process runtime (data plane + batching).

The process runtime originally shipped every batch through
``multiprocessing.Queue``: one lock acquisition, one pickle in the
feeder thread, one pipe write and one consumer wakeup per hop — queue
machinery that ends up measured as "synchronization cost" in every
benchmark.  This module separates the *transport* concern from the
protocol so the hot path can do better:

* :class:`PipeTransport` (default) — one raw ``os.pipe`` per directed
  communication edge (a place to a worker of another place, and the
  coordinator's stop edge to each place), carrying length-prefixed
  frames in the :mod:`repro.runtime.wire` frame format (struct-packed
  fast path, pickle fallback).  Single writer per pipe,
  so frames never interleave; readers ``select`` across their inbound
  pipes.  Writes are non-blocking with an ``on_block`` hook so a
  worker waiting for pipe space keeps ingesting its own inbox —
  full-duplex pressure can never deadlock the tree.

* :class:`QueueTransport` — the original ``multiprocessing.Queue``
  fabric (``transport="queue"``), carrying the same frames, one per
  batch, as ``(worker, frame)`` pairs on a queue per place.  It stays
  because dgsbench's layer pass probes every name in :data:`TRANSPORTS`
  (``transport.edge_ns_per_event.<name>``); pruning the same-host
  transports is open work (ROADMAP.md, item 2b).

* :class:`SocketTransport` (``transport="tcp"``) — the same
  length-prefixed frames carried over TCP stream sockets
  (``TCP_NODELAY``, widened kernel buffers, non-blocking sends with
  the same ``on_block`` ingest hook).  Edges are connections
  established before forking, so the fail-stop model is identical to
  the pipe backend: a dead peer surfaces as EOF/``ECONNRESET``, never
  as a reconnect.  It is also the data plane of ``nodes=``
  (:mod:`repro.runtime.cluster`): a place per node, each node's
  inbound edges listening on its host.

* :class:`SharedMemoryTransport` (``transport="shm"``) — the same
  framed byte stream carried through fixed-slot ring buffers over
  ``multiprocessing.shared_memory``, one segment per directed edge:
  payload bytes never cross the kernel, and a busy mesh runs with zero
  hot-path syscalls (an idle reader parks in ``select`` on a doorbell
  pipe and is woken by a 1-byte write — writers skip the bell while
  the reader is running), non-blocking writes with the same
  ``on_block`` ingest hook (slot exhaustion backpressures exactly like
  a full pipe), and
  crash-safe lifecycle — the coordinator owns every segment and
  unlinks them in ``close()``, workers flag their endpoints closed on
  the way out so peers observe EOF/EPIPE analogues.  Same-host only.

All transports move *batches*.  :class:`BatchingSender` buffers a
worker's posts per destination and sends each buffer as one frame when
it is flushed, and only then: at the protocol's flush hint after
join-critical messages, and at the end of every batch the worker
handles.  So every frame is what one handled batch (or one stretch of
it before the hint) sent to one destination.  The in-process substrate
uses the same sender over its run queue.

The control plane does not depend on the transport: one
``socket.socketpair()`` per place (:class:`ControlPlane`) carries the
origin down and the place's announcements, reports and escaped
traceback up, and a dead child shows as EOF on it.
"""

from __future__ import annotations

import math
import os
import pickle
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
    pack_frame,
    unpack_frame,
)

#: Destination/sender id of the run coordinator (the parent process
#: that starts the workers, sends their stop frames and collects their
#: reports).
COORDINATOR = "__coordinator__"

#: Returned by ``Receiver.recv()`` when the coordinator shut the
#: channel down; workers exit their loop on it.
STOP = object()

# Every receiver has one receive: ``recv(timeout=None)`` returns the
# next batch as ``(worker, batch)`` (the hosted worker it is for, a list
# of messages), ``STOP``, or None when ``timeout`` seconds pass without
# either (``0``: do not block; ``None``: block).

_LEN = FRAME_LEN

#: Transport names accepted by ``RunOptions.transport``: the endpoints
#: of the process backend's places (``process.run_on_workers``; ``nodes=``
#: runs over ``tcp``).
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
# Control plane: one socketpair per forked child
# ---------------------------------------------------------------------------

_ORIGIN = struct.Struct("<d")


class WorkerFault(RuntimeFault):
    """A worker's escaped exception as the run's fault: the worker's
    name ``who``, then ``err`` — the exception's repr and traceback."""

    def __init__(self, who: str, err: str) -> None:
        super().__init__(f"worker {who} crashed:\n{err}")
        self.who, self.err = who, err


class ControlChannel:
    """A place's end of its control socket (a forked child's, or the
    coordinator's own place's thread's): the origin comes
    down first, then pickled, length-prefixed ``(kind, who, payload)``
    records go up — ``"done"``, ``"crash"`` or ``"quiesce"``,
    ``"report"`` and ``"error"`` (an escaped traceback; ``who`` is None
    when no handler raised it).  Only the place loop uses it."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def wait_origin(self) -> float:
        data = self._sock.recv(_ORIGIN.size, socket.MSG_WAITALL)
        if len(data) < _ORIGIN.size:
            raise RuntimeFault("the coordinator left before the attempt's origin")
        return _ORIGIN.unpack(data)[0]

    def send(self, kind: str, who: str, payload: Any = None) -> None:
        data = pickle.dumps((kind, who, payload), pickle.HIGHEST_PROTOCOL)
        self._sock.sendall(_LEN.pack(len(data)) + data)

    def close(self) -> None:
        self._sock.close()


class _Child:
    __slots__ = ("who", "sock", "due", "proc", "asm")

    def __init__(self, who: str, sock: socket.socket, due: int) -> None:
        self.who, self.sock, self.due, self.proc, self.asm = who, sock, due, None, FrameAssembler()


class ControlPlane:
    """The coordinator's end of an attempt's control: a socketpair per
    place, opened as its child is forked, or by :meth:`open` for the
    place the coordinator runs on a thread (``ctx`` is unread, for
    dgsbench).  :meth:`release` sends the origin (the pacing clock's and
    latency epoch's zero); then one ``poll`` waits on every child.  A child's
    traceback, or EOF before its reports (it died), raises a
    :class:`RuntimeFault`."""

    def __init__(self, ctx=None) -> None:
        self._children: Dict[int, _Child] = {}
        self._poller = select.poll()
        self._ready: Deque[Tuple[str, str]] = deque()
        self.reports: Dict[str, Any] = {}

    def open(self, who: str, reports: int) -> socket.socket:
        mine, theirs = socket.socketpair()  # theirs goes to the child
        self._children[mine.fileno()] = _Child(who, mine, reports)
        self._poller.register(mine, select.POLLIN)
        return theirs

    def spawn(self, ctx, name: str, who: str, reports: int, target, *args):
        """Start process ``name`` running ``target(*args, channel)``."""
        theirs = self.open(who, reports)
        proc = ctx.Process(
            target=self._child_main, args=(theirs, target, args), daemon=True, name=name
        )
        proc.start()
        theirs.close()
        next(reversed(self._children.values())).proc = proc
        return proc

    def _child_main(self, sock: socket.socket, target, args) -> None:
        # Close the rest: each end lives in one process, so a death is EOF.
        for child in self._children.values():
            child.sock.close()
        target(*args, ControlChannel(sock))

    def release(self) -> None:
        origin = _ORIGIN.pack(time.time())
        for child in self._children.values():
            try:
                child.sock.sendall(origin)
            except OSError:
                pass  # it died: its EOF raises on the next wait

    def next(self, deadline: Optional[float] = None) -> Optional[Tuple[str, str]]:
        """The next ``(worker id, kind)``; None once ``deadline`` passed."""
        while not self._ready and self.wait(deadline):
            pass
        return self._ready.popleft() if self._ready else None

    def collect(self, deadline: float) -> Dict[str, Any]:
        """Worker id -> report, once all are in or ``deadline`` passed."""
        while any(c.due for c in self._children.values()) and self.wait(deadline):
            pass
        return self.reports

    def wait(self, deadline: Optional[float]) -> bool:
        """Read what arrives until ``deadline``; False once it passed."""
        ms = None if deadline is None else max(0, math.ceil((deadline - time.monotonic()) * 1e3))
        for fd, _events in self._poller.poll(ms):
            if fd in self._children:
                self._ingest(self._children[fd])
        return deadline is None or time.monotonic() < deadline

    def _ingest(self, child: _Child) -> None:
        try:
            data = child.sock.recv(1 << 20)
        except OSError:
            data = b""
        if not data:
            self._poller.unregister(child.sock)
            if child.due and child.proc is None:  # a thread of this process
                raise RuntimeFault(f"{child.who} ended before its report")
            if child.due:
                child.proc.join(1.0)
                code = child.proc.exitcode
                how = f"signal {-code}" if code and code < 0 else f"exit status {code}"
                raise RuntimeFault(f"{child.who} died before its report ({how})")
        for frame in child.asm.feed(data):
            kind, who, payload = pickle.loads(frame)
            if kind == "error":
                if who is None:  # no handler raised it: name the child
                    raise RuntimeFault(f"{child.who} crashed:\n{payload}")
                raise WorkerFault(who, payload)
            if kind == "report":
                child.due -= 1
                self.reports[who] = payload
            else:
                self._ready.append((who, kind))

    def finish(self, failed: bool) -> None:
        """Close the sockets and join the children: a finished
        attempt's exit once they have sent their reports, a failed
        attempt's are terminated first, and any still alive 5 s later
        is terminated."""
        for child in self._children.values():
            child.sock.close()
            proc = child.proc
            if proc is None:  # its fork failed
                continue
            if failed:
                proc.terminate()
            proc.join(5.0)
            if proc.is_alive():  # pragma: no cover - defensive cleanup
                proc.terminate()
                proc.join(1.0)
        self._children.clear()


# ---------------------------------------------------------------------------
# Batching sender (transport-independent)
# ---------------------------------------------------------------------------

class BatchingSender:
    """Per-destination outgoing buffers over a raw ``send_batch(dst,
    batch)``: :meth:`post` only buffers, and :meth:`flush` sends every
    buffer as one batch, in first-post order.  Nothing else flushes: a
    worker's messages leave at the protocol's flush hint or at the end
    of the batch that posted them.

    ``send_batch`` is the raw send, which a place routes its workers'
    remote batches through.  ``control`` and ``policy`` are not read;
    they stay positional for dgsbench's layer pass (see
    :func:`resolve_policy`)."""

    __slots__ = ("send_batch", "_buffers", "metrics")

    def __init__(
        self,
        send_batch: Callable[[str, List[Any]], None],
        control: Optional[ControlPlane] = None,
        policy: None = None,
    ) -> None:
        self.send_batch = send_batch
        self._buffers: Dict[str, List[Any]] = {}
        #: Optional WorkerMetrics assigned by the worker loop after
        #: construction (metrics plane on); counts flushed batches.
        self.metrics = None

    def post(self, dst: str, msg: Any) -> None:
        buf = self._buffers.get(dst)
        if buf is None:
            self._buffers[dst] = [msg]
        else:
            buf.append(msg)

    def flush(self) -> None:
        buffers = self._buffers
        if not buffers:
            return
        self._buffers = {}
        m = self.metrics
        if m is not None:
            m.batches_sent += len(buffers)
            m.messages_sent += sum(map(batch_message_count, buffers.values()))
        send = self.send_batch
        for dst, batch in buffers.items():
            send(dst, batch)


def resolve_policy(size: None, deadline_ms: None) -> None:
    """The ``policy`` dgsbench's layer pass hands a sender: there is no
    batch policy, so only ``(None, None)`` is accepted, and it is
    ``None``.  Kept, with the unread ``policy`` parameters, until the
    layer pass stops naming them (ROADMAP.md, item 1e)."""
    if size is not None or deadline_ms is not None:
        raise RuntimeFault(
            f"there is no batch policy (got {size!r}, {deadline_ms!r}): a sender "
            "flushes at the protocol's flush hint and at the end of each batch"
        )
    return None


class Endpoints:
    """The data plane of one attempt's places
    (:func:`repro.runtime.process.run_on_workers`), built before the
    coordinator forks, so every forked place inherits it.  ``placement``
    maps each worker to its place (by default, a place of its own),
    ``places`` each place to its workers, and ``edges``
    (:func:`plan_edges`) each worker to the places it hears from: a link
    (sending place, worker) each, beside a stop link (``COORDINATOR``,
    place) per place.  A receiver returns batches as ``(worker, batch)``.

    The coordinator calls :meth:`parent_setup` once every place is
    forked, ``stop_all()`` to send each place its stop frame,
    :meth:`drain` after an aborted attempt and :meth:`close` on every
    exit.  A place calls :meth:`child_setup` (a forked one only), then
    ``receiver(place)`` and ``sender(place, on_block=...)`` (whose
    ``send_batch`` is the place's remote send), and
    :meth:`child_teardown` on every exit path of a forked place, a crash
    included."""

    #: The place the coordinator runs on a thread (``parent_setup``).
    local: Optional[str] = None

    def __init__(self, edges: Dict[str, Sequence[str]], placement=None) -> None:
        placement = placement or {wid: wid for wid in edges}
        self.places: Dict[str, List[str]] = {}
        for wid, place in placement.items():
            self.places.setdefault(place, []).append(wid)
        #: An edge's receiving end (a worker, or a place) -> its place.
        self.place_of = {**{p: p for p in self.places}, **placement}
        stops = [(COORDINATOR, place) for place in self.places]
        self.links = list(dict.fromkeys(stops + [(s, d) for d, ss in edges.items() for s in ss]))

    def parent_setup(self, local: Optional[str] = None) -> None:
        """Once every place is forked; ``local`` is the place the
        coordinator runs on a thread, whose endpoints it keeps."""
        self.local = local

    def child_setup(self, place: str) -> None:
        """In a forked place, before it opens its endpoints."""

    def child_teardown(self, place: str) -> None:
        """As a forked place exits.  Stream transports need nothing: the
        kernel closes fds with the process, which is the EOF/EPIPE peers
        watch for."""

    def drain(self) -> None:
        """After an aborted attempt: kernel buffers vanish with the fds."""

    def close(self) -> None:
        """In the coordinator, on every exit."""


# ---------------------------------------------------------------------------
# Queue transport (the original fabric; see the module docstring)
# ---------------------------------------------------------------------------

class _QueueReceiver:
    __slots__ = ("_q",)

    def __init__(self, q) -> None:
        self._q = q

    def recv(self, timeout: Optional[float] = None) -> Any:
        try:
            item = self._q.get(timeout != 0, timeout)
        except queue_mod.Empty:
            return None
        return STOP if item is None else (item[0], unpack_frame(item[1]))

    def poll(self) -> None:  # pragma: no cover - queue puts never block
        pass


class QueueTransport(Endpoints):
    """``multiprocessing.Queue`` per place, carrying ``(worker, frame)``
    pairs and ``None`` as the stop sentinel — the legacy data plane."""

    name = "queue"

    def __init__(self, ctx, edges: Dict[str, Sequence[str]], placement=None) -> None:
        super().__init__(edges, placement)
        self.queues = {place: ctx.Queue() for place in self.places}

    def sender(
        self,
        src: str,
        control: Optional[ControlPlane] = None,
        policy: None = None,
        on_block: Optional[Callable[[], None]] = None,
    ) -> BatchingSender:
        def send_batch(dst: str, batch: List[Any]) -> None:
            self.queues[self.place_of[dst]].put((dst, pack_frame(batch)))

        return BatchingSender(send_batch)

    def receiver(self, place: str) -> _QueueReceiver:
        return _QueueReceiver(self.queues[place])

    def stop_all(self) -> None:
        for q in self.queues.values():
            q.put(None)

    def drain(self) -> None:
        """Discard what is left in forked places' inboxes after an
        aborted attempt, so no feeder thread stays blocked on a full
        pipe at teardown (the coordinator's place reads its own)."""
        for place, q in self.queues.items():
            if place == self.local:
                continue
            try:
                while True:
                    q.get_nowait()
            except queue_mod.Empty:
                pass
            q.cancel_join_thread()

    def close(self) -> None:
        """End the coordinator's feeder threads once they have flushed."""
        for q in self.queues.values():
            q.close()


# ---------------------------------------------------------------------------
# Pipe transport (raw os.pipe per directed edge, framed)
# ---------------------------------------------------------------------------

class FrameReceiver:
    """Merges framed traffic from every inbound stream fd of one place
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
    never decode as a shorter one.

    ``dsts`` maps each inbound fd to the hosted worker its edge reaches,
    which labels each batch: ``(worker, batch)``."""

    __slots__ = ("_poller", "_n_live", "_asm", "_ready", "_dsts")

    def __init__(self, dsts: Dict[int, str]) -> None:
        self._poller = select.poll()
        self._asm: Dict[int, FrameAssembler] = {}
        for fd in dsts:
            self._poller.register(fd, select.POLLIN)
            self._asm[fd] = FrameAssembler()
        self._n_live = len(dsts)
        self._ready: Deque[Any] = deque()
        self._dsts = dsts

    def recv(self, timeout: Optional[float] = None) -> Any:
        ready = self._ready
        if not ready:
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                # poll() takes whole milliseconds: round up, never
                # return before the deadline.
                ms = None
                if deadline is not None:
                    ms = max(0, math.ceil((deadline - time.monotonic()) * 1e3))
                for fd, _events in self._poller.poll(ms):
                    self._ingest(fd)
                if ready or (deadline is not None and time.monotonic() >= deadline):
                    break
        return ready.popleft() if ready else None

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
        dst = self._dsts[fd]
        for frame in self._asm[fd].feed(data):
            self._ready.append((dst, unpack_frame(frame)) if frame else STOP)


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


class PipeTransport(Endpoints):
    """Raw-pipe data plane: one framed, single-writer pipe per directed
    edge."""

    name = "pipe"

    def __init__(self, ctx, edges: Dict[str, Sequence[str]], placement=None) -> None:
        super().__init__(edges, placement)
        self._pipes: Dict[Tuple[str, str], Tuple[int, int]] = {}
        #: Parent-side fds not yet closed.  Tracked explicitly so
        #: ``parent_setup`` + ``close`` never double-close an fd number
        #: the OS may have reused for something else.
        self._parent_open = set()
        for src, dst in self.links:
            self._pipes[src, dst] = pair = self._open_edge(self.place_of[dst])
            self._parent_open.update(pair)

    def _open_edge(self, place: str) -> Tuple[int, int]:
        """One directed channel into ``place`` as a (read fd, write fd)
        pair; the write side non-blocking (:class:`SocketTransport`
        overrides this with a TCP connection, everything else is
        shared)."""
        r, w = os.pipe()
        os.set_blocking(w, False)
        _widen_pipe(w)
        return r, w

    def sender(
        self,
        src: str,
        control: Optional[ControlPlane] = None,
        policy: None = None,
        on_block: Optional[Callable[[], None]] = None,
    ) -> BatchingSender:
        wfds = {dst: w for (s, dst), (_, w) in self._pipes.items() if s == src}
        return BatchingSender(FrameSender(wfds, on_block).send_batch)

    def receiver(self, place: str) -> FrameReceiver:
        return FrameReceiver(
            {r: dst for (_, dst), (r, _) in self._pipes.items() if self.place_of[dst] == place}
        )

    def _close_unowned(self, place: Optional[str], close: Callable[[int], None]) -> None:
        """Close each end ``place`` does not use: it keeps the read ends
        of its inbound edges and the write ends of its outbound ones."""
        for (src, dst), (r, w) in self._pipes.items():
            if self.place_of[dst] != place:
                close(r)
            if src != place:
                close(w)

    def child_setup(self, place: str) -> None:
        """Called in a forked place before it opens its endpoints:
        close every inherited fd it does not own.  Without this, every
        pipe end lives in every process and a dead peer can never be
        observed as EOF/EPIPE — only the coordinator's liveness checks
        would catch it."""
        self._close_unowned(place, os.close)

    def parent_setup(self, local: Optional[str] = None) -> None:
        """Called in the coordinator once every place has forked: drop
        the parent's copies of the fds neither it (the write ends of its
        stop edges) nor its own place ``local`` uses, completing the
        ownership picture ``child_setup`` starts — after this, each pipe
        end lives only in the process that uses it."""
        super().parent_setup(local)
        stops = {w for (src, _), (_, w) in self._pipes.items() if src == COORDINATOR}
        self._close_unowned(local, lambda fd: fd in stops or self._parent_close(fd))

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
        wfds = {dst: w for (s, dst), (_, w) in self._pipes.items() if s == COORDINATOR}
        sender = FrameSender(wfds, None)
        for dst in wfds:
            sender.send_raw(dst, _LEN.pack(0))

    def close(self) -> None:
        for fd in list(self._parent_open):
            self._parent_close(fd)


# ---------------------------------------------------------------------------
# Socket transport (the same frames over TCP stream sockets)
# ---------------------------------------------------------------------------

def _tcp_edge(host: str) -> Tuple[int, int]:
    """One TCP connection to a listener on ``host`` (an address of this
    host), as a (read fd, write fd) pair: the read side blocking, the
    write side non-blocking."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as lst:
        lst.bind((host, 0))
        lst.listen(8)
        lst.settimeout(5.0)
        w_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            # A local connect completes against the backlog; no
            # accept has to be sitting there first.
            w_sock.connect(lst.getsockname())
            local = w_sock.getsockname()
            # Accept until the peer is our own just-dialed socket:
            # an ephemeral port is visible to every local user, and a
            # stray connect racing ours must never be paired into the
            # mesh (its frames would later be trusted, including the
            # codec's pickle fallback).
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


class SocketTransport(PipeTransport):
    """TCP data plane: one framed, single-writer stream socket per
    directed edge of the communication graph.

    Each edge is a real TCP connection (listen/connect/accept,
    established before forking so fd ownership works exactly like
    pipes): ``TCP_NODELAY`` on both ends, non-blocking writes with the
    deadlock-free ``on_block`` ingest hook, and fail-stop fault
    surfacing — a dead peer is EOF (or ``ECONNRESET``, raised as
    :class:`RuntimeFault` when it tears a frame), never a reconnect.
    ``hosts`` maps a place to the address its inbound edges listen on
    (a ``nodes=`` deployment's :class:`~repro.runtime.cluster.NodeSpec`
    hosts); any other place listens on loopback."""

    name = "tcp"

    def __init__(
        self, ctx, edges: Dict[str, Sequence[str]], placement=None,
        hosts: Optional[Dict[str, str]] = None,
    ) -> None:
        self._hosts = hosts or {}
        super().__init__(ctx, edges, placement)

    def _open_edge(self, place: str) -> Tuple[int, int]:
        host = self._hosts.get(place, "127.0.0.1")
        try:
            return _tcp_edge(host)
        except OSError as exc:
            self.close()  # the edges opened so far
            raise RuntimeFault(f"{place}'s edges cannot listen on {host}: {exc}") from None


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
    """Merges framed traffic from every inbound ring of one place,
    given as ``(ring, hosted worker it reaches)`` pairs.

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

    def __init__(self, rings: List[Tuple[_ShmRing, str]]) -> None:
        # entry = [ring, partial-frame chunk list, live, worker]
        self._entries: List[list] = [[r, [], True, dst] for r, dst in rings]
        self._n_live = len(rings)
        self._ready: Deque[Any] = deque()
        self._bell_eof: set = set()

    def recv(self, timeout: Optional[float] = None) -> Any:
        deadline = None if timeout is None else time.monotonic() + timeout
        park_s = _SHM_PARK_S
        idle = 0
        while not self._ready:
            if self._ingest():
                idle = 0
                continue
            if deadline is not None:
                park_s = min(_SHM_PARK_S, deadline - time.monotonic())
                if park_s <= 0:
                    return None
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
                readable, _, _ = select.select(fds, [], [], park_s)
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
            ring, parts, live, dst = entry
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
                    self._ready.append((dst, unpack_frame(frame)) if frame else STOP)
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


class SharedMemoryTransport(Endpoints):
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
    like on the stream transports.  Same-host only."""

    name = "shm"

    def __init__(
        self,
        ctx,
        edges: Dict[str, Sequence[str]],
        placement=None,
        *,
        slots: int = SHM_SLOTS,
        slot_bytes: int = SHM_SLOT_BYTES,
    ) -> None:
        if slots < 2 or slot_bytes < 64:
            raise RuntimeFault(
                f"shm ring too small: need slots >= 2 (got {slots}) and "
                f"slot_bytes >= 64 (got {slot_bytes})"
            )
        super().__init__(edges, placement)
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._rings: Dict[tuple, _ShmRing] = {}
        self._closed = False
        size = _SHM_HDR + slots * (4 + slot_bytes)
        try:
            for link in self.links:
                shm = shared_memory.SharedMemory(create=True, size=size)
                self._rings[link] = _ShmRing(shm, slots, slot_bytes)
        except BaseException:
            self.close()
            raise

    def sender(
        self,
        src: str,
        control: Optional[ControlPlane] = None,
        policy: None = None,
        on_block: Optional[Callable[[], None]] = None,
    ) -> BatchingSender:
        rings = {
            wid: ring for (s, wid), ring in self._rings.items() if s == src
        }
        raw = _ShmSender(rings, on_block)
        return BatchingSender(raw.send_batch)

    def receiver(self, place: str) -> _ShmReceiver:
        return _ShmReceiver(
            [(ring, dst) for (_, dst), ring in self._rings.items() if self.place_of[dst] == place]
        )

    def child_teardown(self, place: str) -> None:
        """A forked place's exit path (normal, crashed, or interrupted):
        mark its endpoints closed so writers stop spinning and readers
        see EOF, then drop the child's inherited mappings."""
        for (src, dst), ring in self._rings.items():
            if ring.buf is None:
                continue
            if src == place:
                ring.set_tx_closed()
                # Wake a peer parked on this edge so it observes the
                # EOF flag now rather than at its select timeout.
                _ring_bell(ring.bell_w)
            if self.place_of[dst] == place:
                ring.set_rx_closed()
        for ring in self._rings.values():
            ring.release()

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


def make_transport(
    name: str, ctx, edges: Dict[str, Sequence[str]], placement: Optional[Dict[str, str]] = None
) -> Endpoints:
    """Instantiate a registered transport at its default tuning."""
    for kind in (PipeTransport, QueueTransport, SocketTransport, SharedMemoryTransport):
        if kind.name == name:
            return kind(ctx, edges, placement)
    raise RuntimeFault(f"unknown transport {name!r}; available: {TRANSPORTS}")


def plan_edges(plan, placement: Optional[Dict[str, str]] = None) -> Dict[str, List[str]]:
    """The directed communication graph of a synchronization plan over
    ``placement`` (worker -> place; by default each worker is a place of
    its own), as worker -> the places it hears from: those of its parent
    (join requests, forked states, relayed heartbeats) and of its
    children (join responses), each once, unless it is the worker's own
    place, whose workers share its run queue.  The coordinator's stop
    edges, one per place, are the endpoints' own."""
    place = placement or {n.id: n.id for n in plan.workers()}
    edges: Dict[str, List[str]] = {}
    for node in plan.workers():
        parent = plan.parent_of(node.id)
        near = [c.id for c in node.children] + ([parent.id] if parent is not None else [])
        edges[node.id] = sorted({place[w] for w in near} - {place[node.id]})
    return edges

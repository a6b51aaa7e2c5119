"""Multi-node execution of synchronization plans over TCP.

The process runtime (:mod:`repro.runtime.process`) proves the protocol
scales across cores; this module carries it across the *machine*
boundary.  The unit of deployment is a **node agent**: one OS process
per :class:`NodeSpec` that drives every plan worker placed on that node
as one place, on one thread (:class:`~repro.runtime.process._Place`),
and speaks the framed wire protocol of :mod:`repro.runtime.wire` over
TCP stream sockets to its peers.  This module is the agents' endpoints
(:class:`NodeEndpoints`), with the lifecycle of a transport's
(:class:`~repro.runtime.transport.Endpoints`): when ``RunOptions.nodes``
is set, the process backend hands them to the same
:func:`~repro.runtime.process.run_on_workers` that forks the places of
its default placement, so an agent is forked, driven and stopped like
one.

Its endpoint setup is a three-step handshake, deliberately free of
any same-host assumption (locally every agent binds 127.0.0.1; on a
real cluster each :class:`NodeSpec` names a routable host and the
identical exchange runs across machines):

1. **Bind + register.**  Each agent binds a data-plane listener on its
   node's host (ephemeral port), dials the coordinator's *registry*
   address, and announces ``(node_name, listen_address)``.
2. **Address exchange.**  Once every node has registered, the registry
   replies to each agent with the full ``{node_name: address}`` map.
3. **Edge dial.**  Each agent dials, once, the node of every worker on
   another node that one of its workers sends to, and opens the
   connection with an edge-hello naming ``(its node, that worker)``;
   receivers accept until every inbound edge of their node is present.
   Two workers on one node have no edge: they share its run queue.
   Dials never wait on a peer's accept (TCP backlog), so the mesh comes
   up without ordering deadlocks.  The coordinator itself dials one
   edge per agent for its stop frame; each agent pumps the input
   streams its workers own.

After the handshake the data plane is exactly the
:class:`~repro.runtime.transport.SocketTransport` wire format — same
frames, same :class:`~repro.runtime.transport.BatchingSender` flush
rule, same non-blocking deadlock-free sends, same fail-stop model (a
dead peer is EOF/ECONNRESET, never a reconnect) — so fault injection,
checkpoint recovery, and elastic reconfiguration run unchanged on a
cluster deployment.

Control rides one socketpair per agent, as for any other place
(:class:`~repro.runtime.transport.ControlPlane`), live metrics
snapshots for the exporter included; a dead agent shows as EOF there.
*Launching* is what stays on one machine: agents are forked to inherit
the (unpicklable) program closures.  A multi-host deployment would
start agents out-of-band (ssh/k8s) and carry the same records over a
connection to the registry; the data plane needs no change for that.

Trust model: handshake blobs are JSON (never unpickled), and every
hello must carry the run's random cookie — generated by the
coordinator, handed to agents at launch, never sent to anyone who
didn't already hold it.  A connection whose hello is missing,
malformed, or mis-cookied is dropped without joining the mesh, so a
stray or hostile connect to an ephemeral port cannot inject traffic.
Once an edge is cookie-verified its frames are trusted (the wire
format's state fallback is pickle, as in any closed-cluster runtime);
deployments beyond loopback should put the listeners on a private
network exactly as they would any intra-cluster data plane.

Set ``REPRO_CLUSTER_LOG_DIR`` to make every agent (and the
coordinator) append a handshake/lifecycle log under that directory —
the ``distributed-smoke`` CI lane uploads these as an artifact when it
fails.
"""

from __future__ import annotations

# A node agent's socket.create_connection encodes its host with the
# idna codec, which imports encodings.idna on first use.  Import it
# here, before any fork: a fork taken while another thread holds that
# module's import lock leaves the lock held in the child forever.
import encodings.idna  # noqa: F401
import hmac
import json
import os
import secrets
import socket
import struct
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..plans.plan import SyncPlan
from .transport import (
    COORDINATOR,
    ControlPlane,
    Endpoints,
    FrameReceiver,
    FrameSender,
    configure_stream_socket,
    plan_edges,
)
from .wire import FRAME_LEN

#: Seconds an agent (or the registry) waits for the rest of the
#: cluster during setup before failing the run — a lost peer must
#: surface as a clean fault, not a hung accept.
HANDSHAKE_TIMEOUT_S = 30.0

#: Seconds an accepted connection gets to produce its hello.  Short on
#: purpose: real peers send the hello in the same breath as connect(),
#: while a silent stray (port scanner, health prober) must stall the
#: serial accept loop for one hello window at most, not the whole
#: handshake budget.
_HELLO_TIMEOUT_S = 1.0

#: Handshake blobs (registry hellos, the address map, edge-hellos)
#: ride the same 4-byte length-prefix convention as data-plane frames
#: (:data:`~repro.runtime.wire.FRAME_LEN`) and are a few hundred
#: bytes; anything bigger is not a peer of ours.
_MAX_BLOB = 1 << 20


@dataclass(frozen=True)
class NodeSpec:
    """One named machine slot of a cluster deployment.

    ``host`` is the address the node's agent binds its data-plane
    listener on *and* the address peers dial — ``127.0.0.1`` for the
    local multi-agent deployment, a routable interface on a real
    cluster."""

    name: str
    host: str = "127.0.0.1"


def local_nodes(n: int, host: str = "127.0.0.1") -> Tuple[NodeSpec, ...]:
    """``n`` loopback nodes named ``node0..node{n-1}`` — the local
    stand-in for a real host list."""
    if n < 1:
        raise RuntimeFault(f"a cluster needs at least one node, got {n}")
    return tuple(NodeSpec(f"node{i}", host) for i in range(n))


def resolve_placement(
    plan: SyncPlan,
    nodes: Sequence[NodeSpec],
    placement: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """Complete worker-to-node placement for ``plan``.

    Explicit ``placement`` entries (worker id -> node name) are
    validated and honoured; workers it does not mention are spread
    round-robin over the nodes in deterministic (sorted-id) order.
    Entries naming workers not in the plan are ignored — elastic
    reconfiguration reshapes the worker set mid-run, and a stale pin
    on a retired worker must not wedge the new plan."""
    if not nodes:
        raise RuntimeFault("a cluster needs at least one node")
    names = [n.name for n in nodes]
    if len(set(names)) != len(names):
        raise RuntimeFault(f"duplicate node names in cluster spec: {names}")
    workers = [n.id for n in plan.workers()]
    pinned = dict(placement or {})
    for wid, node in pinned.items():
        if node not in set(names):
            raise RuntimeFault(
                f"placement maps worker {wid!r} to unknown node {node!r}; "
                f"nodes: {names}"
            )
    out: Dict[str, str] = {}
    unpinned = sorted(w for w in workers if w not in pinned)
    for i, wid in enumerate(unpinned):
        out[wid] = names[i % len(names)]
    for wid in workers:
        if wid in pinned:
            out[wid] = pinned[wid]
    return out


# ---------------------------------------------------------------------------
# Handshake plumbing
# ---------------------------------------------------------------------------

def _send_blob(sock: socket.socket, obj: Any) -> None:
    # JSON, never pickle: handshake blobs arrive from sockets that are
    # not yet trusted, and unpickling attacker bytes is code execution.
    data = json.dumps(obj).encode("utf-8")
    sock.sendall(FRAME_LEN.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise RuntimeFault(
                "cluster handshake: peer closed before completing its hello"
            )
        buf += chunk
    return bytes(buf)


def _recv_blob(sock: socket.socket) -> Any:
    (n,) = FRAME_LEN.unpack(_recv_exact(sock, 4))
    if n > _MAX_BLOB:
        raise RuntimeFault(f"cluster handshake: implausible {n}-byte hello")
    return json.loads(_recv_exact(sock, n))


def _recv_hello(sock: socket.socket, cookie: str) -> Any:
    """Read one cookie-authenticated hello ``[cookie, *payload]`` from
    a just-accepted connection; returns the payload, or ``None`` for
    anything malformed or mis-cookied (the caller drops the socket —
    strays must not join the mesh, and must not crash it either)."""
    try:
        blob = _recv_blob(sock)
    except (RuntimeFault, ValueError, OSError, struct.error):
        return None
    if (
        not isinstance(blob, list)
        or len(blob) < 2
        or not isinstance(blob[0], str)
        or not hmac.compare_digest(blob[0], cookie)
    ):
        return None
    return blob[1:]


class _NodeLog:
    """Append-only per-process lifecycle log, enabled by
    ``REPRO_CLUSTER_LOG_DIR`` (CI uploads these on failure; disabled
    they cost one ``None`` check per call)."""

    __slots__ = ("_f", "_name")

    def __init__(self, directory: Optional[str], name: str) -> None:
        self._name = name
        self._f = None
        if directory:
            os.makedirs(directory, exist_ok=True)
            self._f = open(os.path.join(directory, f"{name}.log"), "a")

    def __call__(self, msg: str) -> None:
        if self._f is not None:
            self._f.write(f"[{time.strftime('%H:%M:%S')}] {self._name}: {msg}\n")
            self._f.flush()

    def close(self) -> None:
        if self._f is not None:
            self._f.close()
            self._f = None


# ---------------------------------------------------------------------------
# The node agents' endpoints
# ---------------------------------------------------------------------------

class NodeEndpoints(Endpoints):
    """The data plane of a cluster attempt: one place per node, whose
    agent drives the workers ``placement`` puts there (every node is a
    place, an empty one included), over TCP edges set up by the
    handshake in the module docstring.  The dial and accept sets come
    from :func:`~repro.runtime.transport.plan_edges` over the
    placement; the coordinator dials one stop edge per node.

    Built in the coordinator before the fork: it binds the registry
    and draws the run's cookie, which each agent inherits."""

    kind = "node"
    name = "tcp"

    def __init__(
        self, plan: SyncPlan, nodes: Any, placement: Optional[Dict[str, str]] = None
    ) -> None:
        nodes = local_nodes(nodes) if isinstance(nodes, int) else tuple(nodes)
        placement = resolve_placement(plan, nodes, placement)
        self.places = {
            n.name: sorted(w for w, name in placement.items() if name == n.name) for n in nodes
        }
        self._placement = placement
        self._hosts = {n.name: n.host for n in nodes}
        self._edges = plan_edges(plan, placement)
        self._log_dir = os.environ.get("REPRO_CLUSTER_LOG_DIR") or None
        self._log = _NodeLog(self._log_dir, "coordinator")
        # Per-run shared secret: agents get it at launch (fork args /
        # out-of-band on a real deployment), every hello must echo it,
        # and it never travels to a peer that didn't already hold it.
        self._cookie = secrets.token_hex(16)
        #: The coordinator's stop edges, or an agent's outbound edges.
        self._out: Dict[str, socket.socket] = {}
        #: An agent's inbound edges: (sending place, hosted worker) -> socket.
        self._in: Dict[Tuple[str, str], socket.socket] = {}
        self._control: Optional[ControlPlane] = None
        self._registry = registry = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        #: Every socket this process opened — closed on the way out, so
        #: a failed handshake cannot leak fds across retried runs.
        self._socks: List[socket.socket] = [registry]
        registry.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        registry.bind(("127.0.0.1", 0))
        registry.listen(len(nodes))
        self._log(
            f"registry {registry.getsockname()}; nodes={list(self.places)}; "
            f"placement={placement}"
        )

    def log(self, msg: str) -> None:
        self._log(msg)

    # -- the node agent ------------------------------------------------------
    def child_setup(self, place: str) -> None:
        """Bind, register, learn the address map, dial, accept."""
        registry = self._registry.getsockname()
        self._registry.close()
        self._log.close()
        self._log = log = _NodeLog(self._log_dir, place)
        cookie = self._cookie

        # 1. Bind the data-plane listener, register, learn the map.
        lst = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._socks = [lst]
        lst.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        lst.bind((self._hosts[place], 0))
        lst.listen(128)
        reg = socket.create_connection(registry, timeout=HANDSHAKE_TIMEOUT_S)
        self._socks.append(reg)
        _send_blob(reg, [cookie, place, list(lst.getsockname())])
        addr_map: Dict[str, Any] = _recv_blob(reg)
        reg.close()
        log(f"registered {lst.getsockname()}; cluster map: {addr_map}")

        # 2. Dial one edge to each worker in another place that a
        # hosted worker sends to; co-located workers share the run
        # queue instead.  Connects land in peers' backlogs, so
        # dial-before-accept cannot deadlock.
        for dst, srcs in self._edges.items():
            if place in srcs:
                s = socket.create_connection(
                    tuple(addr_map[self._placement[dst]]), timeout=HANDSHAKE_TIMEOUT_S
                )
                self._socks.append(s)
                _send_blob(s, [cookie, place, dst])
                configure_stream_socket(s, nonblocking=True)
                self._out[dst] = s
        log(f"dialed {len(self._out)} outbound edge(s)")

        # 3. Accept the inbound edges: one from each other place that
        # sends to a hosted worker, and the coordinator's, learning
        # which edge each connection carries from its
        # cookie-authenticated edge-hello; strays are dropped without
        # joining (or crashing) the mesh.
        expected = {(COORDINATOR, place)} | {
            (src, dst) for dst in self.places[place] for src in self._edges[dst]
        }
        # Short accept timeout so the deadline is actually enforced: a
        # peer that registered and then died would otherwise park this
        # agent in accept() for the whole window, and the diagnostic
        # below (which edges are missing) would be unreachable.
        lst.settimeout(0.25)
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
        while len(self._in) < len(expected):
            try:
                conn, _ = lst.accept()
            except socket.timeout:
                if time.monotonic() > deadline:
                    raise RuntimeFault(
                        f"node {place}: only {len(self._in)}/{len(expected)} "
                        f"edges connected within {HANDSHAKE_TIMEOUT_S:.0f}s"
                    ) from None
                continue
            self._socks.append(conn)
            conn.settimeout(_HELLO_TIMEOUT_S)
            hello = _recv_hello(conn, cookie)
            if hello is None or len(hello) != 2:
                log("dropped a stray/unauthenticated connection")
                conn.close()
                continue
            edge = tuple(hello)
            if edge not in expected or edge in self._in:
                raise RuntimeFault(f"node {place}: unexpected edge hello {edge!r}")
            configure_stream_socket(conn, nonblocking=False)
            self._in[edge] = conn
        lst.close()
        log(f"accepted {len(self._in)} inbound edge(s); starting workers")

    def receiver(self, place: str) -> FrameReceiver:
        """Each batch as ``(hosted worker, batch)``."""
        return FrameReceiver({s.fileno(): dst for (_src, dst), s in self._in.items()})

    def sender(self, place: str, control=None, policy=None, on_block=None) -> FrameSender:
        return FrameSender({dst: s.fileno() for dst, s in self._out.items()}, on_block)

    def child_teardown(self, place: str) -> None:
        for s in self._socks:
            s.close()
        self._log.close()

    # -- the coordinator ---------------------------------------------------
    def parent_setup(self, control: Optional[ControlPlane] = None, local=None) -> None:
        """The registry exchange, then one stop edge per node.  The wait
        reads the control sockets too: an agent that dies before
        registering sends its traceback (or shows EOF) there, and that
        must raise at once, not after the full handshake window."""
        self._control = control
        registry = self._registry
        registry.setblocking(False)
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
        addr_map: Dict[str, Any] = {}
        conns: List[socket.socket] = []
        while len(addr_map) < len(self.places):
            if not control.wait(deadline, also=registry):
                raise RuntimeFault(
                    f"cluster handshake timed out: only {sorted(addr_map)} of "
                    f"{sorted(self.places)} registered "
                    f"within {HANDSHAKE_TIMEOUT_S:.0f}s"
                )
            try:
                conn, _ = registry.accept()
            except BlockingIOError:
                continue
            self._socks.append(conn)
            conn.settimeout(_HELLO_TIMEOUT_S)
            hello = _recv_hello(conn, self._cookie)
            if hello is None or len(hello) != 2:
                self._log("dropped a stray/unauthenticated registration")
                conn.close()
                continue
            name, addr = hello
            if name not in self.places or name in addr_map:
                raise RuntimeFault(f"cluster handshake: unexpected registration {name!r}")
            addr_map[name] = addr
            conns.append(conn)
        for conn in conns:
            _send_blob(conn, addr_map)
            conn.close()
        registry.close()
        self._log(f"handshake complete: {addr_map}")
        for place in self.places:
            s = socket.create_connection(tuple(addr_map[place]), timeout=HANDSHAKE_TIMEOUT_S)
            self._socks.append(s)
            _send_blob(s, [self._cookie, COORDINATOR, place])
            configure_stream_socket(s, nonblocking=True)
            self._out[place] = s

    def stop_all(self) -> None:
        # While a stop frame waits for socket space, a dead agent raises.
        control = self._control
        sender = FrameSender(
            {place: s.fileno() for place, s in self._out.items()}, lambda: control.wait(0)
        )
        for place in self._out:
            sender.send_raw(place, FRAME_LEN.pack(0))

    def close(self) -> None:
        self._log("run complete")
        self.child_teardown(COORDINATOR)

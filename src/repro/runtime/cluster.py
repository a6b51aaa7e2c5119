"""Multi-node execution of synchronization plans over TCP.

The process runtime (:mod:`repro.runtime.process`) proves the protocol
scales across cores; this module carries it across the *machine*
boundary.  The unit of deployment is a **node agent**: one OS process
per :class:`NodeSpec` that drives every plan worker placed on that node
as one place, on one thread (:class:`~repro.runtime.process._Place`),
and speaks the framed wire protocol of :mod:`repro.runtime.wire` over
TCP stream sockets to its peers.  The process backend runs an attempt
here (:func:`run_on_nodes`) when ``RunOptions.nodes`` is set, on the
same :class:`~repro.runtime.process.AttemptSpec` it builds for a
process per worker.

Setup is a three-step handshake, deliberately free of any same-host
assumption (locally every agent binds 127.0.0.1; on a real cluster
each :class:`NodeSpec` names a routable host and the identical
exchange runs across machines):

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

Control rides one socketpair per agent, as on the process backend
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
from .metrics import MetricsExporter
from .process import (
    AttemptSpec,
    _drive_place,
    coordinate_attempt,
    fork_context,
    report_errors,
)
from .protocol import AttemptOutcome
from .transport import (
    COORDINATOR,
    ControlChannel,
    ControlPlane,
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
# Node agent
# ---------------------------------------------------------------------------

def _agent_main(  # pragma: no cover - runs in forked node agents (like
    # process._worker_main, invisible to the parent's coverage tracer);
    # exercised end-to-end by tests/test_runtime_cluster.py.
    node_name: str,
    host: str,
    spec: AttemptSpec,
    placement: Dict[str, str],
    registry_addr: Tuple[str, int],
    cookie: str,
    log_dir: Optional[str],
    control: ControlChannel,
) -> None:
    """Node-agent entry point: handshake, then drive this node's workers
    as one place over the established TCP edges."""
    log = _NodeLog(log_dir, node_name)
    in_socks: Dict[Tuple[str, str], socket.socket] = {}
    out_socks: Dict[str, socket.socket] = {}
    try:
        with report_errors(control, f"node:{node_name}", log):
            hosted = sorted(w for w, node in placement.items() if node == node_name)
            edges = plan_edges(spec.plan)

            # 1. Bind the data-plane listener, register, learn the map.
            lst = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            lst.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            lst.bind((host, 0))
            lst.listen(128)
            lst.settimeout(HANDSHAKE_TIMEOUT_S)
            reg = socket.create_connection(registry_addr, timeout=HANDSHAKE_TIMEOUT_S)
            _send_blob(reg, [cookie, node_name, list(lst.getsockname())])
            addr_map: Dict[str, Any] = _recv_blob(reg)
            reg.close()
            log(f"registered {lst.getsockname()}; cluster map: {addr_map}")

            # 2. Dial one edge to each worker on another node that a
            # hosted worker sends to; co-located workers share the run
            # queue instead.  Connects land in peers' backlogs, so
            # dial-before-accept cannot deadlock.
            for dst, srcs in edges.items():
                if placement[dst] != node_name and any(s in hosted for s in srcs):
                    s = socket.create_connection(
                        tuple(addr_map[placement[dst]]), timeout=HANDSHAKE_TIMEOUT_S
                    )
                    _send_blob(s, [cookie, node_name, dst])
                    configure_stream_socket(s, nonblocking=True)
                    out_socks[dst] = s
            log(f"dialed {len(out_socks)} outbound edge(s)")

            # 3. Accept the inbound edges: one from each other node that
            # sends to a hosted worker, and the coordinator's, learning
            # which edge each connection carries from its
            # cookie-authenticated edge-hello; strays are dropped without
            # joining (or crashing) the mesh.
            expected = {(COORDINATOR, node_name)} | {
                (placement[src], dst)
                for dst in hosted
                for src in edges[dst]
                if src != COORDINATOR and placement[src] != node_name
            }
            # Short accept timeout so the deadline is actually enforced: a
            # peer that registered and then died would otherwise park this
            # agent in accept() for the whole window, and the diagnostic
            # below (which edges are missing) would be unreachable.
            lst.settimeout(0.25)
            deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
            while len(in_socks) < len(expected):
                try:
                    conn, _ = lst.accept()
                except socket.timeout:
                    if time.monotonic() > deadline:
                        raise RuntimeFault(
                            f"node {node_name}: only {len(in_socks)}/{len(expected)} "
                            f"edges connected within {HANDSHAKE_TIMEOUT_S:.0f}s"
                        ) from None
                    continue
                conn.settimeout(_HELLO_TIMEOUT_S)
                hello = _recv_hello(conn, cookie)
                if hello is None or len(hello) != 2:
                    log("dropped a stray/unauthenticated connection")
                    conn.close()
                    continue
                edge = tuple(hello)
                if edge not in expected or edge in in_socks:
                    conn.close()
                    raise RuntimeFault(f"node {node_name}: unexpected edge hello {edge!r}")
                configure_stream_socket(conn, nonblocking=False)
                in_socks[edge] = conn
            lst.close()
            log(f"accepted {len(in_socks)} inbound edge(s); starting workers")

            # 4. Drive this node's workers as one place on this thread:
            # a batch between two of them is a run-queue append, one to
            # another node goes out on its edge.
            dsts = {s.fileno(): dst for (_src, dst), s in in_socks.items()}
            receiver = FrameReceiver(list(dsts), dsts)
            sender = FrameSender(
                {dst: s.fileno() for dst, s in out_socks.items()}, on_block=receiver.poll
            )
            _drive_place(spec, hosted, receiver.recv, sender.send_batch, control)
            log("all workers done")
    finally:
        for s in [*in_socks.values(), *out_socks.values()]:
            try:
                s.close()
            except OSError:  # pragma: no cover - defensive
                pass
        log.close()


# ---------------------------------------------------------------------------
# The coordinator side of a cluster attempt
# ---------------------------------------------------------------------------

def run_on_nodes(
    spec: AttemptSpec,
    timeout_s: float,
    *,
    nodes: Any,
    placement: Optional[Dict[str, str]] = None,
    metrics_port: Any = None,
    registry_host: str = "127.0.0.1",
) -> AttemptOutcome:
    """One attempt with one agent process per node, every channel between
    two nodes a framed TCP connection; outcome, fail-stop and quiesce semantics are
    the process backend's (``transport="tcp"``, ``nodes`` set).

    ``nodes`` is a sequence of :class:`NodeSpec` or an int (that many
    loopback nodes); ``placement`` pins workers to node names, the rest
    go round-robin (:func:`resolve_placement`).  With the metrics plane
    on, ``metrics_port`` serves live Prometheus text on
    ``127.0.0.1:<metrics_port>`` (``0`` picks a free port); a
    :class:`MetricsExporter` instance is reused, and left running."""
    nodes = local_nodes(nodes) if isinstance(nodes, int) else tuple(nodes)
    for node in nodes:
        if not isinstance(node, NodeSpec):
            raise RuntimeFault(f"nodes= entries must be NodeSpec (or pass an int), got {node!r}")
    placement = resolve_placement(spec.plan, nodes, placement)
    ctx = fork_context("the cluster deployment")
    control = ControlPlane(ctx)
    # Set before the agents fork, so their workers push live snapshots.
    control.live = live = spec.metrics is not None and metrics_port is not None
    log_dir = os.environ.get("REPRO_CLUSTER_LOG_DIR") or None
    log = _NodeLog(log_dir, "coordinator")
    # Per-run shared secret: agents get it at launch (fork args /
    # out-of-band on a real deployment), every hello must echo it,
    # and it never travels to a peer that didn't already hold it.
    cookie = secrets.token_hex(16)

    registry = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    registry.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    registry.bind((registry_host, 0))
    registry.listen(len(nodes))
    registry.settimeout(HANDSHAKE_TIMEOUT_S)
    log(
        f"registry {registry.getsockname()}; nodes={[n.name for n in nodes]}; "
        f"placement={placement}"
    )

    for node in nodes:
        hosted = sorted(w for w, name in placement.items() if name == node.name)
        control.spawn(
            ctx, f"node:{node.name}", f"node {node.name} (workers {', '.join(hosted)})",
            len(hosted), _agent_main, node.name, node.host, spec, placement,
            registry.getsockname(), cookie, log_dir,
        )

    result: Optional[AttemptOutcome] = None
    coord_socks: Dict[str, socket.socket] = {}
    #: Every connection the registry ever accepted — closed in the
    #: finally block so a failed handshake (unexpected
    #: registration, timeout) cannot leak fds across retried runs.
    reg_conns: List[socket.socket] = []
    # Live observability: a Prometheus-text endpoint fed with the live
    # snapshots the coordinator reads off the agents' control sockets.
    exporter: Optional[MetricsExporter] = None
    owns_exporter = True
    if live:
        if isinstance(metrics_port, MetricsExporter):
            # A recovering/elastic run hands each attempt the same
            # live exporter (ProcessBackend owns its lifetime):
            # scrapes survive restarts, and every attempt's samples
            # land under a fresh attempt="N" label group.
            exporter = metrics_port
            owns_exporter = False
            attempt_no = exporter.begin_attempt()
            log(f"metrics exporter reused (attempt {attempt_no})")
        else:
            exporter = MetricsExporter(port=int(metrics_port)).start()
            log(f"metrics exporter on 127.0.0.1:{exporter.port}/metrics")
        control.on_metrics = exporter.update

    def stop() -> None:
        # While a stop frame waits for socket space, a dead agent raises.
        socks = {name: s.fileno() for name, s in coord_socks.items()}
        sender = FrameSender(socks, lambda: control.wait(0))
        for name in coord_socks:
            sender.send_raw(name, FRAME_LEN.pack(0))
        # From here on the exporter shows the end-of-run reports;
        # live snapshots still in flight are dropped.
        control.on_metrics = None

    def handshake() -> None:
        # Registry exchange: collect every node's hello, then send
        # each the full address map.  The wait reads the control
        # sockets too: an agent that dies before registering sends its
        # traceback (or shows EOF) there, and that must raise at once,
        # not after the full handshake window.
        registry.setblocking(False)
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
        addr_map: Dict[str, Any] = {}
        conns: List[socket.socket] = []
        while len(addr_map) < len(nodes):
            if not control.wait(deadline, also=registry):
                raise RuntimeFault(
                    f"cluster handshake timed out: only {sorted(addr_map)} of "
                    f"{sorted(n.name for n in nodes)} registered "
                    f"within {HANDSHAKE_TIMEOUT_S:.0f}s"
                )
            try:
                conn, _ = registry.accept()
            except BlockingIOError:
                continue
            reg_conns.append(conn)
            conn.settimeout(_HELLO_TIMEOUT_S)
            hello = _recv_hello(conn, cookie)
            if hello is None or len(hello) != 2:
                log("dropped a stray/unauthenticated registration")
                conn.close()
                continue
            name, addr = hello
            if name not in {n.name for n in nodes} or name in addr_map:
                raise RuntimeFault(
                    f"cluster handshake: unexpected registration {name!r}"
                )
            addr_map[name] = addr
            conns.append(conn)
        for conn in conns:
            _send_blob(conn, addr_map)
            conn.close()
        registry.close()
        log(f"handshake complete: {addr_map}")

        # The coordinator's own edges: one dialed connection per
        # agent, for its stop frame.
        for node in nodes:
            s = socket.create_connection(tuple(addr_map[node.name]), timeout=HANDSHAKE_TIMEOUT_S)
            _send_blob(s, [cookie, COORDINATOR, node.name])
            configure_stream_socket(s, nonblocking=True)
            coord_socks[node.name] = s

    try:
        result = coordinate_attempt(
            "cluster",
            spec,
            control,
            setup=handshake,
            stop=stop,
            timeout_s=timeout_s,
            transport="tcp",
            nodes=len(nodes),
        )
    finally:
        control.finish(failed=True)
        for s in [*coord_socks.values(), *reg_conns, registry]:
            s.close()
        if exporter is not None:
            # Final state stays scrapeable until stop(); publish
            # the merged end-of-run snapshots, then shut down —
            # unless the exporter is shared across attempts, in
            # which case its owner (ProcessBackend) stops it after
            # the whole recovering/elastic run.
            if result is not None and result.metrics is not None:
                for snap in result.metrics.per_worker.values():
                    exporter.update(snap)
            if owns_exporter:
                exporter.stop()
        log("run complete")
        log.close()
    return result

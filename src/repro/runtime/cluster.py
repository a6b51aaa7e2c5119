"""Placing a synchronization plan's workers on named nodes.

With ``RunOptions.nodes`` set, the process backend deploys an attempt
as one *node agent* per :class:`NodeSpec` that hosts workers: a forked
place (:class:`~repro.runtime.process._Place`) that drives every plan
worker placed on its node on one thread, so two co-located workers
share its run queue and have no edge between them.  This module is the
placement: :func:`resolve_placement` maps each worker to a node, and
:func:`~repro.runtime.process.run_on_workers` runs that placement over
the ``tcp`` transport (:class:`~repro.runtime.transport.SocketTransport`)
exactly as it runs its default one, except that every place is forked
and none runs in the coordinator.  A node's inbound edges listen on
its :attr:`NodeSpec.host`.

The edges are TCP connections the coordinator opens before it forks,
as for ``transport="tcp"``: the same frames, the same
:class:`~repro.runtime.transport.BatchingSender` flush rule, the same
fail-stop model (a dead peer is EOF/``ECONNRESET``, never a reconnect),
so fault injection, checkpoint recovery and elastic reconfiguration
run unchanged on a node deployment.  Control rides one socketpair per
agent, as for any other place
(:class:`~repro.runtime.transport.ControlPlane`), the end-of-attempt
reports and their metrics included; a dead agent shows as EOF there.

Every agent is forked on this host, to inherit the (unpicklable)
program closures.  Launching agents on other hosts would need an
out-of-band launcher and a way to open the edges after the launch;
that waits on the remote-launch item parked in ROADMAP.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..plans.plan import SyncPlan


@dataclass(frozen=True)
class NodeSpec:
    """One named machine slot of a node deployment.

    ``host`` is the address the node's inbound edges listen on:
    ``127.0.0.1`` for the local deployment, or another address of this
    host."""

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

#!/usr/bin/env python3
"""Distributed deployment: the value-barrier program placed across
named nodes over the TCP data plane.

Two placements over the same wire protocol:

* ``--nodes N`` (default 2) — the workers placed on N named nodes
  (:func:`resolve_placement`), one forked node agent per node that
  hosts workers, and every channel between two agents a framed TCP
  connection of the ``tcp`` transport, opened by this process before
  it forks.  Each node's inbound edges listen on its NodeSpec host
  (127.0.0.1 here).  Agents are forked on this host; launching them on
  other hosts is parked (see repro/runtime/cluster.py).
* ``--transport tcp`` on the single-host comparison run — the same
  frames over loopback TCP between the places of the process
  backend's default placement (the root's place on a thread of this
  process, the others forked).

Outputs of every run are verified against the sequential
specification, so the distribution story is checked, not asserted.

Run:  python examples/distributed.py
      python examples/distributed.py --nodes 3 --workers 6
      python examples/distributed.py --placement w1=node0
"""

import argparse
from collections import Counter

from repro.apps import value_barrier as vb
from repro.core.semantics import output_multiset
from repro.runtime import (
    RunOptions,
    local_nodes,
    resolve_placement,
    run_on_backend,
    run_sequential_reference,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--nodes", type=int, default=2, help="local node agents (default 2)"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="value streams / plan leaves"
    )
    parser.add_argument(
        "--placement",
        default=None,
        help="comma-separated worker=node pins, e.g. 'w1=node0' (w1 is the "
        "root in the default plan); "
        "unpinned workers spread round-robin",
    )
    parser.add_argument(
        "--transport",
        choices=("pipe", "queue", "tcp"),
        default="tcp",
        help="data plane for the single-host comparison run (default tcp)",
    )
    parser.add_argument("--values", type=int, default=200, help="values per barrier")
    parser.add_argument("--barriers", type=int, default=3)
    args = parser.parse_args()

    program = vb.make_program()
    workload = vb.make_workload(
        n_value_streams=args.workers,
        values_per_barrier=args.values,
        n_barriers=args.barriers,
    )
    plan = vb.make_plan(program, workload)
    streams = vb.make_streams(workload, heartbeat_interval=5.0)

    nodes = local_nodes(args.nodes)
    pins = None
    if args.placement:
        pins = dict(pair.split("=", 1) for pair in args.placement.split(","))
    placement = resolve_placement(plan, nodes, pins)
    # A node that hosts no worker is declared but not forked.
    per_node = Counter(placement.values())

    print(f"plan ({plan.size()} workers):\n{plan.pretty()}\n")
    print("placement:")
    for node in nodes:
        mine = sorted(w for w, n in placement.items() if n == node.name)
        print(f"  {node.name} ({node.host}): {', '.join(mine)}")
    print()

    want = output_multiset(run_sequential_reference(program, streams))
    all_ok = True

    run = run_on_backend(
        "process", program, plan, streams,
        options=RunOptions(nodes=nodes, placement=pins),
    )
    ok = output_multiset(run.outputs) == want
    all_ok = all_ok and ok
    print(
        f"cluster   {run.raw.nodes} node(s), {len(per_node)} agent(s) forked, "
        f"{max(per_node.values())} worker(s) on the busiest node | "
        f"outputs match spec: {ok}  events={run.events_in}  "
        f"joins={run.joins}  wall={run.wall_s * 1e3:8.1f} ms"
    )

    run = run_on_backend(
        "process", program, plan, streams,
        options=RunOptions(transport=args.transport),
    )
    ok = output_multiset(run.outputs) == want
    all_ok = all_ok and ok
    print(
        f"single-host {run.raw.transport} transport, default placement  | "
        f"outputs match spec: {ok}  events={run.events_in}  "
        f"joins={run.joins}  wall={run.wall_s * 1e3:8.1f} ms"
    )
    if not all_ok:
        raise SystemExit(1)  # checked, not asserted — and honest to $?


if __name__ == "__main__":
    main()

"""The node deployment (``nodes=``, repro.runtime.cluster): placement,
and the full protocol — fault injection, checkpoint recovery, and
elastic reconfiguration — running unchanged across node agents over
the tcp transport.

The differential shape mirrors tests/test_differential.py: every app,
outputs multiset-equal to the sequential specification; here the
execution is placed across two local node agents so every channel
between them is a TCP connection."""

import json
import os
import random
import socket
import threading
import time

import pytest

from repro.apps import keycounter as kc
from repro.apps import value_barrier as vb
from repro.chaos import run_chaos_suite
from repro.core import Event, ImplTag
from repro.core.errors import RuntimeFault
from repro.core.semantics import output_multiset
from repro.plans import plan_width
from repro.plans.generation import root_and_leaves_plan
from repro.runtime import (
    CrashFault,
    FaultPlan,
    InputStream,
    NodeSpec,
    ReconfigPoint,
    ReconfigSchedule,
    RunOptions,
    every_root_join,
    local_nodes,
    resolve_placement,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime import process
from repro.runtime.process import LEAF_LEAD, AttemptSpec, _drive_place, merge_reports
from repro.runtime.protocol import AttemptOutcome, initial_leaf_states
from repro.runtime.transport import (
    COORDINATOR,
    STOP,
    ControlChannel,
    ControlPlane,
    SocketTransport,
)
from repro.runtime.wire import MAX_RUN

from test_differential import ALL_APPS, _app_case, _elastic_app_case


def vb_case(n_value_streams=3, values_per_barrier=25, n_barriers=3):
    prog = vb.make_program()
    wl = vb.make_workload(
        n_value_streams=n_value_streams,
        values_per_barrier=values_per_barrier,
        n_barriers=n_barriers,
    )
    return prog, vb.make_streams(wl), vb.make_plan(prog, wl)


# ---------------------------------------------------------------------------
# Node specs and placement
# ---------------------------------------------------------------------------

class TestPlacement:
    def test_local_nodes_names_and_host(self):
        nodes = local_nodes(3)
        assert [n.name for n in nodes] == ["node0", "node1", "node2"]
        assert all(n.host == "127.0.0.1" for n in nodes)
        with pytest.raises(RuntimeFault):
            local_nodes(0)

    def test_round_robin_covers_every_worker(self):
        prog, _, plan = vb_case(n_value_streams=4)
        nodes = local_nodes(3)
        placement = resolve_placement(plan, nodes)
        assert set(placement) == {n.id for n in plan.workers()}
        counts = {}
        for node in placement.values():
            counts[node] = counts.get(node, 0) + 1
        # Round-robin over sorted ids: node loads differ by at most 1.
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_explicit_pins_honoured_and_rest_spread(self):
        prog, _, plan = vb_case(n_value_streams=3)
        nodes = local_nodes(2)
        root = plan.root.id
        placement = resolve_placement(plan, nodes, {root: "node1"})
        assert placement[root] == "node1"
        assert set(placement) == {n.id for n in plan.workers()}

    def test_unknown_node_rejected(self):
        prog, _, plan = vb_case()
        with pytest.raises(RuntimeFault, match="unknown node"):
            resolve_placement(plan, local_nodes(2), {plan.root.id: "node9"})

    def test_stale_worker_ids_ignored(self):
        # Elastic reconfiguration reshapes the worker set; pins on
        # retired workers must not wedge the new plan.
        prog, _, plan = vb_case()
        placement = resolve_placement(
            plan, local_nodes(2), {"retired-worker": "node0"}
        )
        assert "retired-worker" not in placement
        assert set(placement) == {n.id for n in plan.workers()}

    def test_duplicate_node_names_rejected(self):
        prog, _, plan = vb_case()
        with pytest.raises(RuntimeFault, match="duplicate"):
            resolve_placement(plan, [NodeSpec("a"), NodeSpec("a")], None)

    def test_nodes_require_tcp_data_plane(self):
        prog, streams, plan = vb_case(n_value_streams=2)
        with pytest.raises(RuntimeFault, match="TCP"):
            run_on_backend(
                "process", prog, plan, streams,
                options=RunOptions(nodes=2, transport="queue"),
            )

    def test_placement_without_nodes_rejected(self):
        # A pin with no nodes to place on would be silently ignored;
        # the backend must refuse it loudly instead.
        prog, streams, plan = vb_case(n_value_streams=2)
        with pytest.raises(RuntimeFault, match="needs\\s+nodes="):
            run_on_backend(
                "process", prog, plan, streams,
                options=RunOptions(placement={"w1": "node0"}),
            )


# ---------------------------------------------------------------------------
# Plain cluster runs
# ---------------------------------------------------------------------------

class TestClusterRuns:
    def test_value_barrier_on_two_nodes_matches_spec(self):
        prog, streams, plan = vb_case()
        run = run_on_backend("process", prog, plan, streams, options=RunOptions(nodes=2))
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        assert run.raw.transport == "tcp"
        assert run.raw.nodes == 2
        assert run.raw.n_workers == plan.size()

    def test_single_node_cluster_degenerates_cleanly(self):
        prog, streams, plan = vb_case(n_value_streams=2)
        run = run_on_backend("process", prog, plan, streams, options=RunOptions(nodes=1))
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        assert run.raw.nodes == 1

    def test_everything_pinned_to_one_of_two_nodes(self):
        prog, streams, plan = vb_case(n_value_streams=2)
        pins = {n.id: "node0" for n in plan.workers()}
        opts = RunOptions(nodes=2, placement=pins)
        run = run_on_backend("process", prog, plan, streams, options=opts)
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )

    def test_a_place_per_node_that_hosts_workers_in_node_order(self, monkeypatch):
        built = []

        class Recording(SocketTransport):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(process, "SocketTransport", Recording)
        prog, streams, plan = vb_case(n_value_streams=3)
        workers = sorted(n.id for n in plan.workers())
        pins = {w: "node2" if i % 2 else "node0" for i, w in enumerate(reversed(workers))}
        opts = RunOptions(nodes=3, placement=pins)
        run = run_on_backend("process", prog, plan, streams, options=opts)
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        (transport,) = built
        # node1 hosts nothing, so nothing is forked for it.
        assert list(transport.places) == ["node0", "node2"]
        for name, hosted in transport.places.items():
            assert hosted == sorted(w for w in workers if pins[w] == name)

    def test_each_nodes_inbound_edges_listen_on_its_host(self, monkeypatch):
        heard = set()

        class Recording(SocketTransport):
            def _open_edge(self, place):
                r, w = super()._open_edge(place)
                with socket.socket(fileno=os.dup(r)) as sock:
                    heard.add((place, sock.getsockname()[0]))
                return r, w

        monkeypatch.setattr(process, "SocketTransport", Recording)
        prog, streams, plan = vb_case(n_value_streams=2)
        nodes = (NodeSpec("node0"), NodeSpec("node1", "127.0.0.2"))
        run = run_on_backend("process", prog, plan, streams, options=RunOptions(nodes=nodes))
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        assert heard == {("node0", "127.0.0.1"), ("node1", "127.0.0.2")}

    def test_a_host_that_is_not_this_ones_is_refused_without_a_leak(self):
        prog, streams, plan = vb_case(n_value_streams=2)
        nodes = (NodeSpec("node0"), NodeSpec("node1", "192.0.2.1"))  # TEST-NET-1
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(RuntimeFault, match="node1's edges cannot listen on 192.0.2.1"):
            run_on_backend("process", prog, plan, streams, options=RunOptions(nodes=nodes))
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("app", ALL_APPS)
    def test_all_apps_on_two_nodes_match_spec(self, app):
        """The six-app differential suite, unchanged, over the cluster
        data plane — Theorem 2.4's determinism up to reordering must
        not care that channels cross (logical) machine boundaries."""
        prog, streams, plan = _app_case(app)
        run = run_on_backend(
            "process", prog, plan, streams, options=RunOptions(nodes=2)
        )
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        ), f"{app}: cluster outputs diverged from the sequential spec"


# ---------------------------------------------------------------------------
# Faults, recovery, reconfiguration over the cluster
# ---------------------------------------------------------------------------

class TestClusterFaultTolerance:
    def test_crash_mid_frame_recovers_exactly_once(self):
        prog, streams, plan = vb_case(
            n_value_streams=3, values_per_barrier=30, n_barriers=4
        )
        leaf = plan.leaves()[0].id
        run = run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(
                nodes=2,
                fault_plan=FaultPlan(CrashFault(leaf, after_events=37)),
                checkpoint_predicate=every_root_join(),
            ),
        )
        assert run.recovery is not None
        assert len(run.recovery.crashes) == 1
        assert run.recovery.attempts == 2
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        ), "crash over the cluster data plane broke exactly-once delivery"

    def test_root_crash_recovers_on_cluster(self):
        prog, streams, plan = vb_case(values_per_barrier=20, n_barriers=4)
        run = run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(
                nodes=2,
                fault_plan=FaultPlan(CrashFault(plan.root.id, after_events=2)),
                checkpoint_predicate=every_root_join(),
            ),
        )
        assert len(run.recovery.crashes) == 1
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )

    def test_reconfigure_mid_stream_on_cluster(self):
        prog, streams, plan = _elastic_app_case("value_barrier")
        w = plan_width(plan)
        mid = max(1, w // 2)
        points = [ReconfigPoint(after_joins=1, to_leaves=mid)]
        if mid >= 2:
            points.append(ReconfigPoint(after_joins=1, to_leaves=w))
        run = run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(
                nodes=2,
                reconfig_schedule=ReconfigSchedule(*points),
                timeout_s=60.0,
            ),
        )
        assert run.reconfig.reconfigured
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )

    def test_chaos_slice_over_tcp_cluster(self):
        """A small seeded chaos slice on the cluster data plane — the
        CI distributed-smoke lane runs the full smoke-sized version of
        exactly this sweep (python -m repro.chaos --smoke --transport
        tcp --nodes 2)."""
        summary = run_chaos_suite(
            n_cases=4, backends=("process",), transport="tcp", nodes=2
        )
        assert summary.ok, summary.describe()
        assert "tcp" in summary.describe()


# ---------------------------------------------------------------------------
# A node agent is one place: its workers on one run queue
# ---------------------------------------------------------------------------

def _placements(plan):
    """All workers in one place, one worker per place, the root with
    its first leaf in one place beside the rest in another, and the
    process backend's own placement (no ``nodes=``: the root's place in
    the coordinator, the rest forked)."""
    root, first = plan.root.id, plan.leaves()[0].id
    pins = {n.id: "node0" if n.id in (root, first) else "node1" for n in plan.workers()}
    return {
        "one-place": RunOptions(nodes=1),
        "place-per-worker": RunOptions(nodes=plan.size()),
        "root+leaf/rest": RunOptions(nodes=2, placement=pins),
        "default": RunOptions(),
    }


def _drive_held(monkeypatch, prog, plan, streams, hosted, remote):
    """Drive one place holding ``hosted`` until its inbox is read
    without a timeout, which returns the stop frame.  Returns what each
    blocked leaf held (buffered and pending events) after each batch
    it handled, the inbox timeouts and the control plane, whose
    announcements and reports are still unread."""
    spec = AttemptSpec(
        prog, plan, initial_leaf_states(plan, prog), None, None, False, None, None,
        tuple(streams),
    )
    held = []
    real = process._Worker.handle

    def handle(self, msgs):
        stopped = real(self, msgs)
        if self.core.is_leaf and self.core.blocked:
            held.append(self.core.unprocessed())
        return stopped

    monkeypatch.setattr(process._Worker, "handle", handle)
    waits = []

    def inbox(timeout=None):
        waits.append(timeout)
        return STOP if timeout is None else None

    control = ControlPlane()
    end = control.open("the place", len(hosted))
    control.release()
    _drive_place(spec, hosted, inbox, remote, ControlChannel(end))
    end.close()
    return held, waits, control


def _held_leaf_case(barrier_heartbeats=None):
    """Value-barrier with one barrier at ts 50 and two value streams on
    two leaves.  ``v0`` is dense (10 000 events over 100 ms); ``v1``
    has two events, at 10 and 100.  ``v1`` has no heartbeat grid, so
    its frontier stays at 10 until the pump posts its event at 100, and
    the root's join at 50 holds ``v0`` (its state is away) long before
    ``v1`` can answer it.  Without a barrier grid, no barrier frontier
    releases ``v0``'s events past 50: they stay buffered.  With one,
    the root relays the barrier frontier past its join key, and they
    are released but wait undispatched."""
    prog = vb.make_program()
    barrier = ImplTag(vb.BARRIER_TAG, "b")
    dense, sparse = ImplTag(vb.VALUE_TAG, "v0"), ImplTag(vb.VALUE_TAG, "v1")
    streams = [
        InputStream(
            barrier,
            (Event(barrier.tag, barrier.stream, 50.0),),
            heartbeat_interval=barrier_heartbeats,
        ),
        InputStream(
            dense,
            tuple(Event(dense.tag, dense.stream, i / 100, 1) for i in range(1, 10_001)),
            heartbeat_interval=1.0,
        ),
        InputStream(
            sparse,
            tuple(Event(sparse.tag, sparse.stream, ts, 1) for ts in (10.0, 100.0)),
            heartbeat_interval=None,
        ),
    ]
    return prog, root_and_leaves_plan(prog, [barrier], [[dense], [sparse]]), streams


def _remote(dst, batch):
    raise AssertionError(f"a place holding every worker sent {batch!r} to {dst}")


class TestPlaces:
    @pytest.mark.parametrize(
        "placement", ["one-place", "place-per-worker", "root+leaf/rest", "default"]
    )
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_every_app_matches_the_spec_under_every_placement(self, app, placement):
        prog, streams, plan = _app_case(app)
        run = run_on_backend("process", prog, plan, streams, options=_placements(plan)[placement])
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        ), f"{app} / {placement}: outputs diverged from the sequential spec"
        assert run.events_processed == run.events_in

    def test_a_crash_in_a_place_holding_every_worker_recovers(self):
        prog, streams, plan = vb_case(n_value_streams=3, values_per_barrier=30, n_barriers=4)
        leaf = plan.leaves()[1].id
        run = run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(
                nodes=1,
                fault_plan=FaultPlan(CrashFault(leaf, after_events=37)),
                checkpoint_predicate=every_root_join(),
            ),
        )
        assert [c.worker for c in run.recovery.crashes] == [leaf]
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )

    def test_a_planned_migration_in_a_place_holding_every_worker(self):
        prog, streams, plan = _elastic_app_case("value_barrier")
        w = plan_width(plan)
        run = run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(
                nodes=1,
                reconfig_schedule=ReconfigSchedule(
                    ReconfigPoint(after_joins=1, to_leaves=max(1, w // 2))
                ),
                timeout_s=60.0,
            ),
        )
        assert run.reconfig.reconfigured
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )

    def test_a_held_leaf_does_not_stop_the_pump_for_its_sibling(self, monkeypatch):
        """One place holds the root and both leaves, and nothing comes
        from outside it.  While ``v0`` is held at the root's join, the
        place keeps pumping until ``v1`` can answer that join: a place
        that waited on its inbox instead would wait for ever."""
        prog, plan, streams = _held_leaf_case()
        held, waits, control = _drive_held(
            monkeypatch, prog, plan, streams, [n.id for n in plan.workers()], _remote
        )
        assert max(held) >= LEAF_LEAD
        assert waits[-1] is None and None not in waits[:-1]  # it waited once: for STOP
        said = {control.next(time.monotonic() + 1.0) for _ in plan.workers()}
        assert said == {(n.id, "done") for n in plan.workers()}
        result = AttemptOutcome()
        merge_reports(result, list(control.collect(time.monotonic() + 5.0).values()), None)
        control.finish(failed=True)
        assert output_multiset(result.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )

    @pytest.mark.parametrize("barrier_heartbeats", [None, 1.0], ids=["buffered", "released"])
    def test_a_blocked_leaf_holds_at_most_leaf_lead_and_one_run(
        self, monkeypatch, barrier_heartbeats
    ):
        """The place holds the root and ``v0``; ``v1``, elsewhere, never
        answers.  Once ``v0`` holds ``LEAF_LEAD`` events, buffered or
        released but undispatched, the place stops pumping and waits on
        its inbox: the held input stays within one more run."""
        prog, plan, streams = _held_leaf_case(barrier_heartbeats)
        root, v0, v1 = plan.root.id, *(leaf.id for leaf in plan.leaves())
        sent = set()
        held, waits, control = _drive_held(
            monkeypatch, prog, plan, streams, [root, v0], lambda dst, batch: sent.add(dst)
        )
        control.finish(failed=True)
        assert sent == {v1}
        assert LEAF_LEAD <= max(held) <= LEAF_LEAD + MAX_RUN
        assert waits[-1] is None  # it waited for the sibling's answer

    @pytest.mark.parametrize("where", ["one-place", "leaves-together"])
    def test_a_held_leaf_on_a_node_agent_finishes_promptly(self, where):
        prog, plan, streams = _held_leaf_case()
        pins = {n.id: "node0" for n in plan.workers()}
        if where == "leaves-together":
            pins[plan.root.id] = "node1"
        t0 = time.monotonic()
        run = run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(nodes=2, placement=pins, timeout_s=30.0),
        )
        assert time.monotonic() - t0 < 10.0
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )

    @pytest.mark.parametrize("pinned", [False, True], ids=["one-node", "root+leaf/leaf"])
    def test_an_agent_drives_its_workers_on_one_thread_with_no_edge_between_them(
        self, monkeypatch, tmp_path, pinned
    ):
        """Each agent records the threads its workers' handlers ran on;
        the transport's links give each agent's inbound edges and the
        coordinator's stop edges."""
        prog, streams, plan = vb_case(n_value_streams=2)
        root, a, b = plan.root.id, *(leaf.id for leaf in plan.leaves())
        pins = {root: "node0", a: "node0", b: "node1" if pinned else "node0"}
        built, threads = [], set()
        real_handle, real_place = process._Worker.handle, process._place_main

        class Recording(SocketTransport):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        def handle(self, msgs):
            threads.add((threading.get_ident(), threading.active_count()))
            return real_handle(self, msgs)

        def place_main(node_name, *args):
            try:
                real_place(node_name, *args)
            finally:
                record = {"threads": sorted(threads)}
                (tmp_path / f"{node_name}.json").write_text(json.dumps(record))

        monkeypatch.setattr(process, "SocketTransport", Recording)
        monkeypatch.setattr(process, "_place_main", place_main)
        monkeypatch.setattr(process._Worker, "handle", handle)
        run = run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(nodes=2 if pinned else 1, placement=pins),
        )
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )
        agents = {p.stem: json.loads(p.read_text()) for p in tmp_path.glob("*.json")}
        (transport,) = built
        inbound = {name: [] for name in agents}
        for src, dst in transport.links:
            inbound[transport.place_of[dst]].append([src, dst])
        inbound = {name: sorted(edges) for name, edges in inbound.items()}
        dialed = [dst for src, dst in transport.links if src == COORDINATOR]
        expected = (
            {
                "node0": [[COORDINATOR, "node0"], ["node1", root]],
                "node1": [[COORDINATOR, "node1"], ["node0", b]],
            }
            if pinned
            else {"node0": [[COORDINATOR, "node0"]]}
        )
        assert sorted(dialed) == sorted(expected)
        assert inbound == expected
        for name, record in agents.items():
            # One thread, and it is the agent's only one.
            assert [count for _ident, count in record["threads"]] == [1], name


# ---------------------------------------------------------------------------
# TCP single-host transport: keycounter differential (random plan)
# ---------------------------------------------------------------------------

class TestTcpTransportDifferential:
    def test_keycounter_random_plan_over_tcp(self):
        from repro.plans import random_valid_plan

        rng = random.Random(11)
        prog = kc.make_program(2)
        itags = []
        for k in range(2):
            itags.append(ImplTag(kc.inc_tag(k), f"i{k}"))
            itags.append(ImplTag(kc.reset_tag(k), f"r{k}"))
        events = {it: [] for it in itags}
        for t in range(1, 100):
            it = itags[rng.randrange(len(itags))]
            events[it].append(Event(it.tag, it.stream, float(t)))
        streams = [
            InputStream(it, tuple(events[it]), heartbeat_interval=5.0)
            for it in itags
        ]
        plan = random_valid_plan(prog, itags, random.Random(4))
        run = run_on_backend(
            "process", prog, plan, streams, options=RunOptions(transport="tcp")
        )
        assert run.raw.transport == "tcp"
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )

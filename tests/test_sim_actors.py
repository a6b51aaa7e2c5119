"""Unit tests for hosts, topologies, and the actor layer."""

import pytest

from repro.sim import Actor, ActorSystem, SimParams, Simulator, Topology


def make_system(n_hosts=2, **param_overrides):
    params = SimParams().with_(**param_overrides)
    topo = Topology.cluster(n_hosts, params=params)
    sim = Simulator()
    return ActorSystem(sim, topo)


class Echo(Actor):
    """Replies to every message; records receipt times."""

    def __init__(self, name, host):
        super().__init__(name, host)
        self.received = []

    def handle(self, msg, sender):
        self.received.append((self.now, msg))
        if sender is not None and msg != "ack":
            self.send(sender, "ack")


class TestHost:
    def test_reserve_serializes(self):
        sys = make_system(1)
        host = sys.topology.host("node0")
        assert host.reserve(0.0, 1.0) == 1.0
        assert host.reserve(0.5, 1.0) == 2.0  # queued behind first
        assert host.reserve(5.0, 1.0) == 6.0  # idle gap

    def test_busy_time_accumulates(self):
        sys = make_system(1)
        host = sys.topology.host("node0")
        host.reserve(0.0, 2.0)
        host.reserve(0.0, 3.0)
        assert host.busy_time == 5.0
        assert host.utilization(10.0) == 0.5


class TestTopology:
    def test_local_vs_remote_latency(self):
        topo = Topology.cluster(2)
        assert topo.latency("node0", "node0") == topo.params.local_latency_ms
        assert topo.latency("node0", "node1") == topo.params.remote_latency_ms

    def test_pair_latency_override_symmetric(self):
        topo = Topology(["node0", "node1"], pair_latency={("node0", "node1"): 9.0})
        assert topo.latency("node0", "node1") == 9.0
        assert topo.latency("node1", "node0") == 9.0

    def test_stats_accounting(self):
        topo = Topology.cluster(2)
        topo.record_message("node0", "node1", 100)
        topo.record_message("node0", "node0", 10)
        assert topo.stats.remote_messages == 1
        assert topo.stats.local_messages == 1
        assert topo.stats.total_bytes == 110

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError):
            Topology([])


class TestActorDelivery:
    def test_injected_message_arrives_with_latency(self):
        sys = make_system(1)
        a = sys.add(Echo("a", "node0"))
        sys.inject("a", "hello", at=0.0)
        sys.run()
        assert len(a.received) == 1
        t, msg = a.received[0]
        assert msg == "hello"
        # remote latency + service + recv overhead
        p = sys.params
        assert t == pytest.approx(
            p.remote_latency_ms + p.cpu_per_event_ms + p.recv_overhead_ms
        )

    def test_request_response_roundtrip(self):
        sys = make_system(2)
        a = sys.add(Echo("a", "node0"))
        sys.add(Echo("b", "node1"))

        class Caller(Echo):
            def handle(self, msg, sender):
                super().handle(msg, sender)

        sys.inject("a", "ping", at=0.0, from_host="node1")
        sys.run()
        assert [m for _, m in a.received] == ["ping"]

    def test_duplicate_actor_name_rejected(self):
        sys = make_system(1)
        sys.add(Echo("a", "node0"))
        with pytest.raises(ValueError):
            sys.add(Echo("a", "node0"))

    def test_unknown_host_rejected(self):
        sys = make_system(1)
        with pytest.raises(ValueError):
            sys.add(Echo("a", "nope"))

    def test_fifo_per_pair(self):
        sys = make_system(2)
        a = sys.add(Echo("a", "node0"))
        for i in range(10):
            sys.inject("a", i, at=i * 0.01, from_host="node1")
        sys.run()
        assert [m for _, m in a.received] == list(range(10))

    def test_host_serialization_backlogs(self):
        # Two actors on one host: their processing serializes.
        sys = make_system(1, cpu_per_event_ms=1.0, recv_overhead_ms=0.0)
        a = sys.add(Echo("a", "node0"))
        b = sys.add(Echo("b", "node0"))
        sys.inject("a", "x", at=0.0)
        sys.inject("b", "y", at=0.0)
        sys.run()
        ta = a.received[0][0]
        tb = b.received[0][0]
        assert abs(tb - ta) == pytest.approx(1.0)  # second waits for first

    def test_parallel_hosts_do_not_serialize(self):
        sys = make_system(2, cpu_per_event_ms=1.0, recv_overhead_ms=0.0)
        a = sys.add(Echo("a", "node0"))
        b = sys.add(Echo("b", "node1"))
        sys.inject("a", "x", at=0.0)
        sys.inject("b", "y", at=0.0)
        sys.run()
        assert a.received[0][0] == pytest.approx(b.received[0][0])


class TestOutputsAndTimers:
    def test_output_is_logged_into_the_run_record(self):
        # The message departs at 0.5 and arrives at 1.5; its 2 of CPU
        # plus the 0.5 receive overhead complete the handler at 4.0.
        sys = make_system(
            1, remote_latency_ms=1.0, cpu_per_event_ms=2.0, recv_overhead_ms=0.5
        )

        class Out(Actor):
            def handle(self, msg, sender):
                self.output(msg * 2, ts=0.5)

        sys.add(Out("o", "node0"))
        sys.inject("o", 21, at=0.5)
        sys.run()
        run = sys.result(events_in=1, first_input_ms=0.5, last_input_ms=0.5)
        assert run.outputs == [(42, 4.0, 3.5)]
        assert run.output_values() == [42] and run.latencies() == [3.5]
        assert run.duration_ms == 4.0  # the last completion, past sim.now
        assert run.input_span_ms == 1e-9
        assert run.throughput_events_per_ms == 1 / 3.5
        assert run.host_utilization == {"node0": 2.5 / 4.0}
        assert run.network.remote_messages == 1

    def test_send_overhead_charged(self):
        # Broadcasting to N destinations extends the sender's busy time.
        sys = make_system(2, send_overhead_ms=1.0)

        class Caster(Actor):
            def handle(self, msg, sender):
                for dst in msg:
                    self.send(dst, "hi")

        class Sink(Actor):
            def handle(self, msg, sender):
                pass

        sys.add(Caster("c", "node0"))
        sinks = [sys.add(Sink(f"s{i}", "node1")) for i in range(3)]
        sys.inject("c", [s.name for s in sinks], at=0.0)
        sys.run()
        host = sys.topology.host("node0")
        assert host.busy_time >= 3.0  # three sends at 1 ms each


class TestNetworkAccounting:
    def test_bytes_counted_per_units(self):
        sys = make_system(2)

        class Fwd(Actor):
            def handle(self, msg, sender):
                self.send("sink", msg, units=5)

        class Sink(Actor):
            def handle(self, msg, sender):
                pass

        sys.add(Fwd("f", "node0"))
        sys.add(Sink("sink", "node1"))
        before = sys.topology.stats.remote_bytes
        sys.inject("f", "batch", at=0.0, from_host="node0")
        sys.run()
        gained = sys.topology.stats.remote_bytes - before
        assert gained == 5 * sys.params.bytes_per_event

"""Actor layer on top of the simulation kernel.

Actors are named, live on a host, and handle one message at a time;
hosts are serial (1-core) resources, so all actors co-located on a host
share its CPU in FIFO order.  The execution model:

* a message delivered at time ``t`` claims ``service_time(msg) [+
  remote receive overhead] [+ per-send overhead]`` of CPU on the
  destination host, starting no earlier than ``t``;
* the handler runs atomically; its effects (sends, outputs) are
  timestamped at the handler's *completion* time;
* per-pair message delivery is FIFO (constant per-pair latency), which
  is the Erlang delivery guarantee the paper's proof assumes
  (Appendix C assumption 4).

This gives deterministic, reproducible simulations: same inputs, same
schedule, same statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .core import Simulator
from .network import Host, NetworkStats, Topology
from .params import SimParams


@dataclass
class SimRun:
    """One simulated run's record, the same for every engine.

    ``outputs`` is the system's output log: ``(value, emit time,
    latency)`` per output.  ``duration_ms`` is the makespan, and
    ``first_input_ms``/``last_input_ms`` bound the input window."""

    outputs: List[Tuple[Any, float, float]]
    duration_ms: float
    events_in: int
    first_input_ms: float
    last_input_ms: float
    network: NetworkStats
    host_utilization: Dict[str, float]

    def output_values(self) -> List[Any]:
        return [v for v, _, _ in self.outputs]

    def latencies(self) -> List[float]:
        return [lat for _, _, lat in self.outputs]

    def latency_percentiles(self, qs: Sequence[float] = (10, 50, 90)) -> List[float]:
        from ..runtime.metrics import percentiles  # repro.runtime imports repro.sim

        return percentiles(self.latencies(), qs)

    @property
    def input_span_ms(self) -> float:
        """Length of the input injection window (offered-load basis)."""
        return max(self.last_input_ms - self.first_input_ms, 1e-9)

    @property
    def throughput_events_per_ms(self) -> float:
        span = self.duration_ms - self.first_input_ms
        return self.events_in / span if span > 0 else 0.0


class Actor:
    """Base class for simulated actors.

    Subclasses override :meth:`handle` (and optionally
    :meth:`service_time` for message-dependent CPU costs).
    """

    def __init__(self, name: str, host: str) -> None:
        self.name = name
        self.host_name = host
        self.system: "ActorSystem" = None  # type: ignore[assignment]
        self.now: float = 0.0  # completion time of the current handler
        self._outbox: List[Tuple[str, Any, int, float]] = []

    # -- to override -----------------------------------------------------
    def handle(self, msg: Any, sender: Optional[str]) -> None:
        raise NotImplementedError

    def service_time(self, msg: Any) -> float:
        """CPU cost of handling ``msg``; defaults to one event's cost."""
        return self.system.params.cpu_per_event_ms

    # -- actions available inside handle ---------------------------------
    def send(self, dst: str, msg: Any, *, units: int = 1, state_size: float = 0.0) -> None:
        """Queue a message to actor ``dst``; departs at handler completion.

        ``units`` counts the application events carried (for byte
        accounting and batched delivery); ``state_size`` adds state
        transfer cost to the receiver (fork/join state movement).
        """
        self._outbox.append((dst, msg, units, state_size))

    def output(self, value: Any, ts: float) -> None:
        """Log an output of an input stamped ``ts``, emitted now."""
        self.system.outputs.append((value, self.now, self.now - ts))

    @property
    def host(self) -> Host:
        return self.system.topology.host(self.host_name)


class ActorSystem:
    """Registry + message router binding actors to the simulator."""

    def __init__(self, sim: Simulator, topology: Topology) -> None:
        self.sim = sim
        self.topology = topology
        self.params: SimParams = topology.params
        self.actors: Dict[str, Actor] = {}
        #: The output log: (value, emit time, latency) per output.
        self.outputs: List[Tuple[Any, float, float]] = []
        #: Latest handler completion time; the simulator clock only
        #: advances on *scheduled* events, so a busy tail of handlers
        #: that send nothing would otherwise be invisible in makespans.
        self.last_completion = 0.0

    def add(self, actor: Actor) -> Actor:
        if actor.name in self.actors:
            raise ValueError(f"duplicate actor name {actor.name!r}")
        if actor.host_name not in self.topology.hosts:
            raise ValueError(f"unknown host {actor.host_name!r}")
        actor.system = self
        self.actors[actor.name] = actor
        return actor

    # -- message transport -------------------------------------------------
    def inject(
        self,
        dst: str,
        msg: Any,
        *,
        at: float,
        from_host: Optional[str] = None,
        units: int = 1,
    ) -> None:
        """Schedule an external event (e.g. from a data source) to
        arrive at actor ``dst``.  ``at`` is the departure time at the
        source; network latency from ``from_host`` (default: remote)
        is added on top."""
        actor = self.actors[dst]
        src_host = from_host if from_host is not None else "__external__"
        latency = (
            self.topology.latency(src_host, actor.host_name)
            if from_host is not None
            else self.params.remote_latency_ms
        )
        nbytes = units * self.params.bytes_per_event
        self.topology.record_message(src_host, actor.host_name, nbytes)
        remote = src_host != actor.host_name
        self.sim.schedule_at(
            at + latency, lambda: self._deliver(actor, msg, None, units, 0.0, remote)
        )

    def _send_from(
        self, src: Actor, dst: str, msg: Any, units: int, state_size: float
    ) -> None:
        actor = self.actors[dst]
        latency = self.topology.latency(src.host_name, actor.host_name)
        remote = src.host_name != actor.host_name
        nbytes = units * self.params.bytes_per_event + int(
            state_size * self.params.bytes_per_state_unit
        )
        self.topology.record_message(src.host_name, actor.host_name, nbytes)
        depart = self.sim.now
        self.sim.schedule_at(
            depart + latency,
            lambda: self._deliver(actor, msg, src.name, units, state_size, remote),
        )

    def _deliver(
        self,
        actor: Actor,
        msg: Any,
        sender: Optional[str],
        units: int,
        state_size: float,
        remote: bool,
    ) -> None:
        """Delivery event: reserve CPU, run the handler, ship outbox."""
        cost = actor.service_time(msg)
        if remote:
            cost += self.params.recv_overhead_ms
        if state_size:
            cost += state_size * self.params.state_transfer_ms_per_unit
        host = actor.host
        start_guard = self.sim.now
        completion = host.reserve(start_guard, cost)
        actor.now = completion
        actor._outbox = []
        actor.handle(msg, sender)
        outbox = actor._outbox
        actor._outbox = []
        if outbox:
            # Sends are part of the handler's work: charge send
            # overhead serially after the handler body.
            send_cost = self.params.send_overhead_ms * len(outbox)
            completion = host.reserve(completion, send_cost)
            actor.now = completion
        if completion > self.last_completion:
            self.last_completion = completion
        # Effects depart at completion; run them at that simulated time.
        if outbox:
            def ship() -> None:
                for dst, m, u, ssz in outbox:
                    self._send_from(actor, dst, m, u, ssz)

            self.sim.schedule_at(completion, ship)

    # -- measurement ---------------------------------------------------------
    def run(self, **kwargs) -> float:
        return self.sim.run(**kwargs)

    def result(
        self, events_in: int, first_input_ms: float, last_input_ms: float
    ) -> SimRun:
        """The record of the run so far; call it after :meth:`run`."""
        duration = max(self.sim.now, self.last_completion)
        return SimRun(
            outputs=list(self.outputs),
            duration_ms=duration,
            events_in=events_in,
            first_input_ms=first_input_ms,
            last_input_ms=last_input_ms,
            network=self.topology.stats,
            host_utilization={
                name: host.utilization(duration)
                for name, host in self.topology.hosts.items()
            },
        )

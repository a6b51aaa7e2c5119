"""A mini Flink-style sharded dataflow engine on the cluster simulator.

Reproduces the *API shape* the paper evaluates against (§4.2): job
graphs of operators with fixed parallelism, connected by FORWARD /
HASH / BROADCAST / REBALANCE edges; per-record processing; two-input
(connected) operators; no communication between parallel instances of
the same operator (the sharding restriction at the heart of the
paper's argument).

Each operator instance runs as one actor; instance ``i`` of every
operator shares host ``i mod n_hosts`` (Flink slot sharing), so a
parallelism-1 operator is a genuine single-core bottleneck.

Records carry the original event timestamp; sinks record latency as
``emit_time - ts``.  Sources also emit per-channel heartbeats (the
paper's ``ValueOrHeartbeat`` pattern) so that operators which merge
channels by timestamp can make progress on idle channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..sim.actors import Actor, ActorSystem, SimRun
from ..sim.core import Simulator
from ..sim.network import Topology
from ..sim.params import DEFAULT_PARAMS, SimParams


@dataclass(frozen=True)
class Rec:
    """A dataflow record: payload plus the originating event time."""

    ts: float
    value: Any


@dataclass(frozen=True)
class Watermark:
    """A per-channel progress marker (heartbeat)."""

    ts: float


@dataclass(frozen=True)
class _Delivery:
    input_id: int
    channel: int  # upstream instance index (unique per edge via offset)
    item: Any  # Rec or Watermark


class OperatorInstance:
    """Base class for user logic; one per (operator, parallel index)."""

    #: Relative CPU cost of processing one record (sources that just
    #: forward data are far cheaper than real operator logic).
    cpu_cost_factor: float = 1.0

    def __init__(self) -> None:
        self.ctx: "_InstanceActor" = None  # type: ignore[assignment]
        self.index: int = -1
        self.parallelism: int = 0

    def open(self) -> None:
        pass

    def process(self, rec: Rec, input_id: int, channel: int) -> None:
        raise NotImplementedError

    def on_watermark(self, ts: float, input_id: int, channel: int) -> None:
        pass

    # -- actions -------------------------------------------------------
    def emit(self, rec: Rec) -> None:
        self.ctx.route(rec)

    def emit_watermark(self, ts: float) -> None:
        self.ctx.route_watermark(ts)

    def output(self, value: Any, ts: float) -> None:
        self.ctx.output(value, ts)

    def block(self) -> None:
        self.ctx.blocked = True

    def unblock(self) -> None:
        self.ctx.unblock()

    def send_service(self, service: str, msg: Any) -> None:
        """Out-of-band message to an auxiliary service actor (the Java
        RMI analog used by the manual synchronization implementations;
        this is exactly the PIP3 violation the paper describes)."""
        self.ctx.send(service, msg)

    def on_service(self, msg: Any, sender: Optional[str]) -> None:
        pass


@dataclass
class Operator:
    name: str
    parallelism: int
    factory: Callable[[int], OperatorInstance]
    edges: List[Tuple["Operator", str, Callable[[Any], int], int]] = field(
        default_factory=list
    )
    # (dst, mode, key_fn, input_id); mode in forward|hash|broadcast|rebalance


class JobGraph:
    """Builder for a dataflow job."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.operators: Dict[str, Operator] = {}

    def add(
        self, name: str, parallelism: int, factory: Callable[[int], OperatorInstance]
    ) -> Operator:
        if name in self.operators:
            raise RuntimeFault(f"duplicate operator {name!r}")
        op = Operator(name, parallelism, factory)
        self.operators[name] = op
        return op

    def connect(
        self,
        src: Operator,
        dst: Operator,
        *,
        mode: str = "forward",
        key_fn: Optional[Callable[[Any], int]] = None,
        input_id: int = 0,
    ) -> None:
        if mode == "hash" and key_fn is None:
            raise RuntimeFault("hash edges need a key_fn")
        if mode == "forward" and src.parallelism != dst.parallelism:
            raise RuntimeFault("forward edges require equal parallelism")
        src.edges.append((dst, mode, key_fn or (lambda v: 0), input_id))


class _InstanceActor(Actor):
    def __init__(
        self,
        name: str,
        host: str,
        op: Operator,
        index: int,
        logic: OperatorInstance,
        job: "FlinkJob",
    ) -> None:
        super().__init__(name, host)
        self.op = op
        self.index = index
        self.logic = logic
        self.job = job
        logic.ctx = self
        logic.index = index
        logic.parallelism = op.parallelism
        self.blocked = False
        self._queue: List[_Delivery] = []
        self._rr = 0  # rebalance round-robin counter
        #: (input_id, channel) pairs this instance will receive on;
        #: filled in by FlinkJob before open() so merging operators can
        #: pre-register every channel (a lazily-discovered channel
        #: would let records pass before its first watermark).
        self.expected_channels: List[Tuple[int, int]] = []

    def service_time(self, msg: Any) -> float:
        if isinstance(msg, _Delivery) and isinstance(msg.item, Watermark):
            return self.system.params.recv_overhead_ms * 0.5
        return self.system.params.cpu_per_event_ms * self.logic.cpu_cost_factor

    def handle(self, msg: Any, sender: Optional[str]) -> None:
        if isinstance(msg, _Delivery):
            if self.blocked:
                self._queue.append(msg)
                return
            self._dispatch(msg)
        else:
            self.logic.on_service(msg, sender)
            self._drain()

    def _dispatch(self, msg: _Delivery) -> None:
        if isinstance(msg.item, Watermark):
            self.logic.on_watermark(msg.item.ts, msg.input_id, msg.channel)
        else:
            self.logic.process(msg.item, msg.input_id, msg.channel)
            self.job.records_processed += 1

    def unblock(self) -> None:
        self.blocked = False
        self._drain()

    def _drain(self) -> None:
        while self._queue and not self.blocked:
            self._dispatch(self._queue.pop(0))

    # -- routing ------------------------------------------------------------
    def route(self, rec: Rec) -> None:
        for dst, mode, key_fn, input_id in self.op.edges:
            if mode == "forward":
                targets = [self.index]
            elif mode == "hash":
                targets = [key_fn(rec.value) % dst.parallelism]
            elif mode == "broadcast":
                targets = list(range(dst.parallelism))
            elif mode == "rebalance":
                targets = [self._rr % dst.parallelism]
                self._rr += 1
            else:  # pragma: no cover - defensive
                raise RuntimeFault(f"unknown edge mode {mode!r}")
            for t in targets:
                self.send(
                    self.job.instance_name(dst.name, t),
                    _Delivery(input_id, self._channel_id(), rec),
                )

    def route_watermark(self, ts: float) -> None:
        for dst, mode, _key, input_id in self.op.edges:
            # Watermarks go to every instance that might receive our
            # records (all, for hash/rebalance/broadcast edges).
            if mode == "forward":
                targets = [self.index]
            else:
                targets = list(range(dst.parallelism))
            for t in targets:
                self.send(
                    self.job.instance_name(dst.name, t),
                    _Delivery(input_id, self._channel_id(), Watermark(ts)),
                )

    def _channel_id(self) -> int:
        return self.job.channel_base[self.op.name] + self.index


class FlinkJob:
    """Deploy a JobGraph onto a simulated cluster and run it."""

    def __init__(
        self,
        graph: JobGraph,
        *,
        topology: Optional[Topology] = None,
        n_hosts: int = 4,
        params: SimParams = DEFAULT_PARAMS,
    ) -> None:
        self.graph = graph
        self.topology = topology or Topology.cluster(n_hosts, params=params)
        self.sim = Simulator()
        self.system = ActorSystem(self.sim, self.topology)
        self.records_processed = 0
        self.services: Dict[str, Actor] = {}
        # Globally unique channel ids per (operator, instance).
        self.channel_base: Dict[str, int] = {}
        base = 0
        for op in graph.operators.values():
            self.channel_base[op.name] = base
            base += op.parallelism
        hosts = self.topology.host_names()
        self._actors: Dict[str, _InstanceActor] = {}
        for op in graph.operators.values():
            for i in range(op.parallelism):
                actor = _InstanceActor(
                    self.instance_name(op.name, i),
                    hosts[i % len(hosts)],
                    op,
                    i,
                    op.factory(i),
                    self,
                )
                self.system.add(actor)
                self._actors[actor.name] = actor
        self._fed_channels: Dict[str, List[Tuple[int, int]]] = {}
        self._opened = False
        self._events_in = 0
        #: One past the last fed record's ts: the closing watermark.
        self._end_ts = 0.0
        #: (instance, source channel, watermark times, source host)
        #: per fed instance; injected by run() once _end_ts is final.
        self._pending_wm: List[Tuple[str, int, List[float], Optional[str]]] = []

    @staticmethod
    def instance_name(op_name: str, index: int) -> str:
        return f"{op_name}[{index}]"

    def add_service(self, actor: Actor) -> None:
        self.system.add(actor)
        self.services[actor.name] = actor

    # -- input ----------------------------------------------------------------
    def feed(
        self,
        op_name: str,
        per_instance: Sequence[Sequence[Rec]],
        *,
        heartbeat_interval: Optional[float] = 1.0,
        source_hosts: Optional[Sequence[str]] = None,
    ) -> int:
        """Inject records into the instances of a (source) operator.

        Each instance's list must be time-ordered.  Watermarks are
        injected between records at ``heartbeat_interval`` plus one
        closing watermark at the end of the whole job's input.
        """
        op = self.graph.operators[op_name]
        if len(per_instance) != op.parallelism:
            raise RuntimeFault(
                f"{op_name}: got {len(per_instance)} source lists for "
                f"parallelism {op.parallelism}"
            )
        n = 0
        end_ts = max(
            (recs[-1].ts for recs in per_instance if recs), default=0.0
        )
        self._end_ts = max(self._end_ts, end_ts + 1.0)
        for i, recs in enumerate(per_instance):
            dst = self.instance_name(op_name, i)
            src_host = source_hosts[i] if source_hosts else None
            for r in recs:
                self.system.inject(
                    dst,
                    _Delivery(0, -1 - i, r),
                    at=r.ts,
                    from_host=src_host,
                )
                n += 1
            # Periodic + closing watermarks for this source channel.
            times: List[float] = []
            if heartbeat_interval:
                t = heartbeat_interval
                while t < self._end_ts:
                    times.append(t)
                    t += heartbeat_interval
            self._pending_wm.append((dst, i, times, src_host))
            self._fed_channels.setdefault(op_name, []).append((i, -1 - i))
        self._events_in += n
        return n

    def _compute_expected_channels(self) -> None:
        """Wire up each instance's (input_id, channel) list from graph
        edges plus the externally fed source channels, then open()."""
        for src in self.graph.operators.values():
            for dst, mode, _key, input_id in src.edges:
                for j in range(src.parallelism):
                    ch = self.channel_base[src.name] + j
                    if mode == "forward":
                        targets = [j]
                    else:
                        targets = range(dst.parallelism)
                    for t in targets:
                        self._actors[
                            self.instance_name(dst.name, t)
                        ].expected_channels.append((input_id, ch))
        for op_name, pairs in self._fed_channels.items():
            for instance_index, channel in pairs:
                self._actors[
                    self.instance_name(op_name, instance_index)
                ].expected_channels.append((0, channel))
        for actor in self._actors.values():
            actor.logic.open()
        self._opened = True

    def run(self, *, max_sim_events: int = 50_000_000) -> SimRun:
        if not self._opened:
            self._compute_expected_channels()
        # Inject watermarks (incl. closing ones) now that the global
        # end time is known.
        for dst, i, times, src_host in self._pending_wm:
            for t in times + [self._end_ts]:
                self.system.inject(
                    dst, _Delivery(0, -1 - i, Watermark(t)), at=t, from_host=src_host
                )
        self.system.run(max_events=max_sim_events)
        return self.system.result(
            self._events_in, 0.0, max(self._end_ts - 1.0, 1e-9)
        )


class TimestampMerger:
    """The paper's ``makeProgress`` pattern (Appendix G): buffer records
    from several channels and release them in global timestamp order,
    gated by per-channel watermarks."""

    def __init__(self, channels: Sequence[int]) -> None:
        self._buf: Dict[int, List[Rec]] = {c: [] for c in channels}
        self._wm: Dict[int, float] = {c: float("-inf") for c in channels}
        #: channels of the records returned by the last add/watermark
        #: call, in release order (consumed by _MergingInstance).
        self.last_released_channels: List[int] = []

    def add(self, channel: int, rec: Rec) -> List[Rec]:
        if channel not in self._buf:
            self._buf[channel] = []
            self._wm[channel] = float("-inf")
        self._buf[channel].append(rec)
        self._wm[channel] = max(self._wm[channel], rec.ts)
        return self._release()

    def watermark(self, channel: int, ts: float) -> List[Rec]:
        if channel not in self._wm:
            self._buf[channel] = []
            self._wm[channel] = float("-inf")
        self._wm[channel] = max(self._wm[channel], ts)
        return self._release()

    def _release(self) -> List[Rec]:
        low = min(self._wm.values())
        ready: List[Tuple[float, int, Rec]] = []
        for c, buf in self._buf.items():
            while buf and buf[0].ts <= low:
                ready.append((buf[0].ts, c, buf.pop(0)))
        ready.sort(key=lambda x: (x[0], x[1]))
        self.last_released_channels = [c for _, c, _ in ready]
        return [r for _, _, r in ready]

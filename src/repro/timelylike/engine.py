"""A mini Timely-Dataflow-style engine on the cluster simulator (§4.2).

Faithful to the properties the paper leans on:

* **epoch batching** — "it is inherent to the computational model that
  events are batched by logical timestamp"; our unit of work is a
  *batch* of events per (stage, epoch), so per-message overheads are
  amortized and absolute throughput is much higher than the
  record-at-a-time engines (as in the paper's Figure 4, bottom);
* **workers, not operator shards** — like Timely, each of the W worker
  threads runs *every* stage on its shard of the data; exchanges and
  broadcasts move batches between workers;
* **progress tracking** — each upstream (stage, worker) sends exactly
  one batch per epoch per downstream worker (possibly empty), so a
  stage fires for epoch ``e`` once all its expected channels have
  reported — a specialization of Timely's frontier mechanism to
  epoch-synchronous dataflows;
* **feedback loops** — a stage may route output to an earlier stage at
  ``epoch + 1`` (the ``scope.feedback`` of the paper's Figure 17),
  which is what lets fraud detection scale on Timely but not on Flink.

A stage function receives ``(worker, epoch, inputs_by_channel)`` and
returns routed batches; routing is ``("send", stage, dst_worker,
items)``, ``("broadcast", stage, items)``, ``("output", items)`` or
``("feedback", stage, items)`` (delivered at ``epoch + 1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..sim.actors import Actor, ActorSystem, SimRun
from ..sim.core import Simulator
from ..sim.network import Topology
from ..sim.params import DEFAULT_PARAMS, SimParams

StageFn = Callable[["TimelyWorker", int, Dict[str, List[Any]]], List[Tuple]]


@dataclass(frozen=True)
class StageDef:
    """One dataflow stage.

    ``inputs`` maps channel name -> number of batches expected per
    epoch on that channel (e.g. an exchange input expects one batch
    from every worker).  ``fn`` runs once per epoch once all inputs
    arrived.  ``feedback_channels`` are channels fed from a later stage
    at epoch+1; epoch 0 uses ``initial`` for them.
    """

    name: str
    inputs: Dict[str, int]
    fn: StageFn
    feedback_initial: Dict[str, List[Any]] = field(default_factory=dict)


@dataclass(frozen=True)
class _Batch:
    stage: str
    channel: str
    epoch: int
    items: Tuple[Any, ...]
    ts: float  # event-time of the epoch (for latency accounting)


class TimelyWorker(Actor):
    """One Timely worker: runs every stage on its data shard."""

    def __init__(
        self,
        name: str,
        host: str,
        index: int,
        job: "TimelyJob",
    ) -> None:
        super().__init__(name, host)
        self.index = index
        self.job = job
        self.state: Dict[str, Any] = {}  # per-stage user state
        # (stage, epoch) -> {channel: [items...]}, plus arrival counts.
        self._inbox: Dict[Tuple[str, int], Dict[str, List[Any]]] = {}
        self._counts: Dict[Tuple[str, int], int] = {}
        self._epoch_ts: Dict[int, float] = {}

    def service_time(self, msg: Any) -> float:
        p = self.system.params
        if isinstance(msg, _Batch):
            # One deserialization overhead per batch + per-item CPU.
            return p.recv_overhead_ms + len(msg.items) * p.cpu_per_event_ms
        return p.recv_overhead_ms

    def handle(self, msg: Any, sender: Optional[str]) -> None:
        if not isinstance(msg, _Batch):
            raise RuntimeFault(f"timely worker got {msg!r}")
        self._epoch_ts[msg.epoch] = max(
            self._epoch_ts.get(msg.epoch, 0.0), msg.ts
        )
        key = (msg.stage, msg.epoch)
        box = self._inbox.setdefault(key, {})
        box.setdefault(msg.channel, []).extend(msg.items)
        self._counts[key] = self._counts.get(key, 0) + 1
        stage = self.job.stages[msg.stage]
        expected = sum(stage.inputs.values())
        if self._counts[key] >= expected:
            self._fire(stage, msg.epoch, box)
            del self._inbox[key]
            del self._counts[key]

    def _seed_feedback(self, stage: StageDef, epoch: int) -> None:
        if epoch == 0 and stage.feedback_initial:
            key = (stage.name, 0)
            box = self._inbox.setdefault(key, {})
            for channel, items in stage.feedback_initial.items():
                box.setdefault(channel, []).extend(items)
                self._counts[key] = self._counts.get(key, 0) + 1
            stage_expected = sum(stage.inputs.values())
            if self._counts.get(key, 0) >= stage_expected:
                self._fire(stage, 0, box)
                del self._inbox[key]
                self._counts.pop(key, None)

    def _fire(self, stage: StageDef, epoch: int, inputs: Dict[str, List[Any]]) -> None:
        self.job.batches_processed += 1
        for channel in stage.inputs:
            inputs.setdefault(channel, [])
        routes = stage.fn(self, epoch, inputs)
        ts = self._epoch_ts.get(epoch, 0.0)
        for route in routes or []:
            kind = route[0]
            if kind == "send":
                _, dst_stage, dst_worker, items = route
                self._ship(dst_stage, "in", dst_worker, epoch, items, ts)
            elif kind == "send_ch":
                _, dst_stage, channel, dst_worker, items = route
                self._ship(dst_stage, channel, dst_worker, epoch, items, ts)
            elif kind == "broadcast":
                _, dst_stage, channel, items = route
                for w in range(self.job.n_workers):
                    self._ship(dst_stage, channel, w, epoch, items, ts)
            elif kind == "feedback":
                _, dst_stage, channel, items = route
                for w in range(self.job.n_workers):
                    self._ship(dst_stage, channel, w, epoch + 1, items, ts)
            elif kind == "output":
                _, items = route
                for item in items:
                    self.output(item, ts)
            else:  # pragma: no cover - defensive
                raise RuntimeFault(f"unknown route {route!r}")

    def _ship(
        self, stage: str, channel: str, dst_worker: int, epoch: int, items, ts: float
    ) -> None:
        self.send(
            self.job.worker_name(dst_worker),
            _Batch(stage, channel, epoch, tuple(items), ts),
            units=max(1, len(items)),
        )


class TimelyJob:
    """An epoch-synchronous dataflow over ``n_workers`` workers."""

    def __init__(
        self,
        n_workers: int,
        *,
        topology: Optional[Topology] = None,
        params: SimParams = DEFAULT_PARAMS,
    ) -> None:
        self.n_workers = n_workers
        self.topology = topology or Topology.cluster(n_workers, params=params)
        self.sim = Simulator()
        self.system = ActorSystem(self.sim, self.topology)
        self.stages: Dict[str, StageDef] = {}
        self.batches_processed = 0
        self._events_in = 0
        self._last_input = 0.0
        hosts = self.topology.host_names()
        self.workers = [
            TimelyWorker(self.worker_name(i), hosts[i % len(hosts)], i, self)
            for i in range(n_workers)
        ]
        for w in self.workers:
            self.system.add(w)

    @staticmethod
    def worker_name(i: int) -> str:
        return f"timely[{i}]"

    def add_stage(self, stage: StageDef) -> None:
        if stage.name in self.stages:
            raise RuntimeFault(f"duplicate stage {stage.name!r}")
        self.stages[stage.name] = stage

    def feed(
        self,
        stage: str,
        channel: str,
        *,
        batches: Sequence[Sequence[Sequence[Any]]],
        epoch_times: Sequence[float],
    ) -> None:
        """Inject source batches: ``batches[worker][epoch]`` is the list
        of items worker ``worker`` receives for that epoch; the batch
        departs its producer at ``epoch_times[epoch]`` (the moment the
        epoch closes at the source)."""
        if len(batches) != self.n_workers:
            raise RuntimeFault("need one batch list per worker")
        if epoch_times:
            self._last_input = max(self._last_input, max(epoch_times))
        for w, per_epoch in enumerate(batches):
            for epoch, items in enumerate(per_epoch):
                self._events_in += len(items)
                self.system.inject(
                    self.worker_name(w),
                    _Batch(stage, channel, epoch, tuple(items), epoch_times[epoch]),
                    at=epoch_times[epoch],
                    units=max(1, len(items)),
                )

    def run(self, *, max_sim_events: int = 50_000_000) -> SimRun:
        for w in self.workers:
            for stage in self.stages.values():
                w._seed_feedback(stage, 0)
        self.system.run(max_events=max_sim_events)
        return self.system.result(self._events_in, 0.0, self._last_input)

"""Hosts, links and network statistics.

Models the paper's experimental platform: a cluster of single-core
hosts connected by a uniform-latency network (AWS instances in one
region).  Each host is a serial CPU resource — work items claim time on
it in FIFO arrival order via ``reserve`` — and the topology accounts
every message and byte sent, split into local vs remote, which the
case-study benchmarks report as "network load" (the NS3 substitute).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .params import DEFAULT_PARAMS, SimParams


class Host:
    """A single-core machine: a serial resource with FIFO queueing."""

    __slots__ = ("name", "busy_until", "busy_time")

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_until: float = 0.0
        self.busy_time: float = 0.0  # total CPU time consumed

    def reserve(self, now: float, duration: float) -> float:
        """Claim ``duration`` of CPU starting no earlier than ``now``;
        returns the completion time."""
        start = self.busy_until if self.busy_until > now else now
        self.busy_until = start + duration
        self.busy_time += duration
        return self.busy_until

    def utilization(self, elapsed: float) -> float:
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Host({self.name!r})"


@dataclass
class NetworkStats:
    """Message/byte accounting, the simulator's NS3 substitute."""

    local_messages: int = 0
    remote_messages: int = 0
    local_bytes: int = 0
    remote_bytes: int = 0

    @property
    def total_messages(self) -> int:
        return self.local_messages + self.remote_messages

    @property
    def total_bytes(self) -> int:
        return self.local_bytes + self.remote_bytes

    def record(self, remote: bool, nbytes: int) -> None:
        if remote:
            self.remote_messages += 1
            self.remote_bytes += nbytes
        else:
            self.local_messages += 1
            self.local_bytes += nbytes


class Topology:
    """A set of hosts plus the link cost model.

    The default is the paper's setting: uniform sub-millisecond latency
    between distinct hosts, near-zero latency within a host.  Per-pair
    latency overrides support heterogeneous topologies (used by the
    edge-processing case study).
    """

    def __init__(
        self,
        hosts: Iterable[str],
        *,
        params: SimParams = DEFAULT_PARAMS,
        pair_latency: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> None:
        self.params = params
        self.hosts: Dict[str, Host] = {name: Host(name) for name in hosts}
        if not self.hosts:
            raise ValueError("a topology needs at least one host")
        self._pair_latency = dict(pair_latency or {})
        self.stats = NetworkStats()

    @classmethod
    def cluster(cls, n: int, *, params: SimParams = DEFAULT_PARAMS) -> "Topology":
        """A uniform cluster of ``n`` hosts named node0..node{n-1}."""
        return cls([f"node{i}" for i in range(n)], params=params)

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def host_names(self) -> List[str]:
        return list(self.hosts)

    def latency(self, src: str, dst: str) -> float:
        if src == dst:
            return self.params.local_latency_ms
        key = (src, dst)
        if key in self._pair_latency:
            return self._pair_latency[key]
        key = (dst, src)
        if key in self._pair_latency:
            return self._pair_latency[key]
        return self.params.remote_latency_ms

    def record_message(self, src: str, dst: str, nbytes: int) -> None:
        self.stats.record(remote=src != dst, nbytes=nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology({len(self.hosts)} hosts)"

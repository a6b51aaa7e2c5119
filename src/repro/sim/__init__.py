"""Deterministic discrete-event cluster simulator.

The substrate replacing the paper's AWS/EC2 testbed: single-core hosts,
uniform-latency links, message/byte accounting, and an actor layer with
Erlang-like FIFO per-pair delivery.  Every engine on it (Flumina,
Flink-like, Timely-like) logs outputs through :meth:`Actor.output` and
returns the system's one run record, :class:`SimRun`.  All simulator
constants live in :class:`repro.sim.SimParams` and are documented there.
"""

from .actors import Actor, ActorSystem, SimRun
from .core import Simulator
from .network import Host, NetworkStats, Topology
from .params import DEFAULT_PARAMS, SimParams

__all__ = [
    "Actor",
    "ActorSystem",
    "DEFAULT_PARAMS",
    "Host",
    "NetworkStats",
    "SimParams",
    "SimRun",
    "Simulator",
    "Topology",
]

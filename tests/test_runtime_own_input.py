"""Leaves own their input: on the forking substrates every place pumps
the streams its workers own, and the coordinator's control loop stays
off the data path.

* the coordinator calls the producer pump, closed or paced, only on the
  thread of its own place (the root's, on ``process``), for that
  place's streams, and never with ``nodes=``;
* the latency epoch is stamped once every worker is up, not before the
  first fork;
* a crash inside a leaf's first own round, and a root quiesce whose
  stop frames reach leaves still pumping, both end as exactly-once
  runs.

(That a stream no worker owns is the caller's ``PlanError``, raised
before anything is forked, is in test_runtime_process.py; that an event
filed under another stream's tag fails the run, naming the stream, on
every real substrate, is in test_runtime_protocol.py.)
"""

import threading
import time

import multiprocessing.process as mp_process
import pytest

from repro.apps import value_barrier as vb
from repro.core.semantics import output_multiset
from repro.runtime import (
    CrashFault,
    FaultPlan,
    ReconfigPoint,
    ReconfigSchedule,
    RunOptions,
    every_root_join,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime import process as runtime_process
from repro.runtime import protocol as runtime_protocol
from repro.runtime.metrics import WorkerMetrics
from repro.runtime.wire import MAX_RUN

#: The forking substrates: the default placement, and node agents.
FORKING = {"process": {}, "nodes=2": {"nodes": 2}}


def _vb(values_per_barrier=20, n_barriers=4):
    prog = vb.make_program()
    wl = vb.make_workload(
        n_value_streams=2, values_per_barrier=values_per_barrier, n_barriers=n_barriers
    )
    return prog, vb.make_plan(prog, wl), vb.make_streams(wl)


def _spec(prog, streams):
    return output_multiset(run_sequential_reference(prog, streams))


@pytest.mark.parametrize("pace", [None, 2000.0], ids=["closed", "paced"])
@pytest.mark.parametrize("substrate", sorted(FORKING))
def test_the_coordinator_pumps_only_its_own_place(monkeypatch, substrate, pace):
    """The pump is counted in this process only: a forked place
    increments its own copy of the counter.  So, with every event
    processed, the one call here is the root's place's, for the streams
    of the workers it hosts (the root and the first leaf), on its own
    thread, and the places pumped the rest."""
    calls = []
    real = runtime_protocol.pump_producers

    def counting(*args, **kwargs):
        calls.append((threading.current_thread().name, list(kwargs.get("owners"))))
        return real(*args, **kwargs)

    for module in (runtime_protocol, runtime_process):
        monkeypatch.setattr(module, "pump_producers", counting)
    prog, plan, streams = _vb()
    run = run_on_backend(
        "process", prog, plan, streams,
        options=RunOptions(pace=pace, timeout_s=30.0, **FORKING[substrate]),
    )
    root, first = plan.root.id, plan.leaves()[0].id
    assert calls == ([] if substrate == "nodes=2" else [(f"worker:{root}", [root, first])])
    assert output_multiset(run.outputs) == _spec(prog, streams)
    assert run.events_processed == run.events_in == sum(len(s.events) for s in streams)


@pytest.mark.parametrize("substrate", sorted(FORKING))
def test_the_latency_epoch_is_not_earlier_than_the_last_fork(
    monkeypatch, tmp_path, substrate
):
    """Every worker's latency epoch is the instant the coordinator saw
    every worker up: it is no earlier than the moment the last worker
    (or node agent) process was started, so the paced latencies do not
    count fork time."""
    started = []
    real_start = mp_process.BaseProcess.start

    def start(self):
        real_start(self)
        started.append(time.time())

    epochs = tmp_path / "epochs"

    class Recording(WorkerMetrics):
        def __init__(self, worker, config=None):
            super().__init__(worker, config)
            with open(epochs, "a") as f:
                f.write(f"{self.config.epoch!r}\n")

    monkeypatch.setattr(mp_process.BaseProcess, "start", start)
    monkeypatch.setattr(runtime_process, "WorkerMetrics", Recording)
    prog, plan, streams = _vb()
    run = run_on_backend(
        "process", prog, plan, streams,
        options=RunOptions(metrics=True, timeout_s=30.0, **FORKING[substrate]),
    )
    assert output_multiset(run.outputs) == _spec(prog, streams)
    stamped = [float(line) for line in epochs.read_text().split()]
    assert len(stamped) == len(plan.workers())
    assert len(set(stamped)) == 1
    assert stamped[0] >= max(started)


def test_a_crash_inside_a_leafs_first_own_round_recovers_exactly_once():
    """The crash's event lies in the leaf's first pumped round; it
    fires while the leaf is still pumping (the leaf stops, repays its
    unit, and the attempt aborts), after the first root join's
    checkpoint, and the replayed suffix is exactly-once."""
    prog, plan, streams = _vb(values_per_barrier=40, n_barriers=20)
    leaf = plan.leaves()[0]
    (mine,) = [s for s in streams if plan.owner_of(s.itag).id == leaf.id]
    assert len(mine.events) > MAX_RUN
    at_ts = mine.events[MAX_RUN // 2].ts
    run = run_on_backend(
        "process", prog, plan, streams,
        options=RunOptions(
            fault_plan=FaultPlan(CrashFault(leaf.id, at_ts=at_ts)),
            checkpoint_predicate=every_root_join(),
            timeout_s=30.0,
        ),
    )
    assert len(run.recovery.crashes) == 1 and run.recovery.attempts == 2
    assert output_multiset(run.outputs) == _spec(prog, streams)


def test_a_root_quiesce_at_the_first_join_stops_leaves_mid_pump():
    """vb_bulk-sized input (two leaves of about 25 000 events, eight
    barriers): the root quiesces at its first join, while the leaves
    have most of their input still to pump.  The stop frames end their
    pumps, the run re-plans and finishes exactly-once, well within the
    timeout."""
    prog, plan, streams = _vb(values_per_barrier=3_125, n_barriers=8)
    assert sum(len(s.events) for s in streams) >= 50_000
    t0 = time.monotonic()
    run = run_on_backend(
        "process", prog, plan, streams,
        options=RunOptions(
            reconfig_schedule=ReconfigSchedule(ReconfigPoint(after_joins=1, to_leaves=1)),
            timeout_s=30.0,
        ),
    )
    assert time.monotonic() - t0 < 30.0
    assert run.reconfig.reconfigured and run.reconfig.attempts == 2
    assert output_multiset(run.outputs) == _spec(prog, streams)

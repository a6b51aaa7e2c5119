"""The control channel of the forking substrates and the lifecycle of
their children.

Each place (a forked place on ``process``, or the root's, which runs on
a thread of the coordinator; a node agent on ``nodes=``) has one socket
to the coordinator: the origin goes down, announcements, reports and
escaped tracebacks come up, and a child that dies shows as EOF on it.
A child exits once it has sent its report, and the attempt joins every
child before it returns; no thread waits on them.

* a child killed mid-run is named, with its signal, at once;
* no ``multiprocessing`` queue, event or shared value is built, and the
  coordinator starts no thread but its own place's;
* back-to-back runs leave no child unreaped, and a recovering run
  returns with every attempt's reaped;
* a child imports nothing between the fork and its report: a module
  whose import lock another thread held at the fork would hang it.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
from multiprocessing import context as mp_context

import pytest

from repro.apps import value_barrier as vb
from repro.core.errors import RuntimeFault
from repro.core.semantics import output_multiset
from repro.runtime import (
    CrashFault,
    FaultPlan,
    RunOptions,
    every_root_join,
    run_on_backend,
    run_sequential_reference,
)
from repro.runtime import process as runtime_process
from repro.runtime.transport import ControlPlane, PipeTransport, SocketTransport

#: The forking substrates: the default placement, and node agents.
FORKING = {"process": {}, "nodes=2": {"nodes": 2}}


def _case(prog=None, values_per_barrier=20, n_barriers=4):
    prog = prog if prog is not None else vb.make_program()
    wl = vb.make_workload(
        n_value_streams=2, values_per_barrier=values_per_barrier, n_barriers=n_barriers
    )
    return prog, vb.make_plan(prog, wl), vb.make_streams(wl)


def _children_of_this_process():
    """Pids whose parent is this process, zombies included: the
    children not yet reaped."""
    me, found = os.getpid(), set()
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # gone while we looked
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            found.add(int(entry))
    return found


@pytest.mark.parametrize("substrate", sorted(FORKING))
def test_a_killed_child_is_named_with_its_signal(substrate):
    """SIGKILL one child of a CPU-bound run half a second in: the run
    fails at once with a fault naming the child (and, for a node agent,
    the workers placed on it), not at its drain timeout."""
    prog, plan, streams = _case(vb.make_cpu_program(20000), values_per_barrier=200)
    before = {p.pid for p in multiprocessing.active_children()}
    killed = []

    def kill():
        time.sleep(0.5)
        ours = [p for p in multiprocessing.active_children() if p.pid not in before]
        killed.append(ours[-1])
        os.kill(ours[-1].pid, signal.SIGKILL)

    killer = threading.Thread(target=kill)
    killer.start()
    t0 = time.monotonic()
    with pytest.raises(RuntimeFault) as err:
        run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(timeout_s=60.0, **FORKING[substrate]),
        )
    killer.join()
    assert time.monotonic() - t0 < 10.0
    (victim,) = killed
    msg = str(err.value)
    assert f"{victim.name.replace(':', ' ')} " in msg
    assert "died before its report (signal 9)" in msg
    if substrate == "nodes=2":
        assert "(workers w" in msg
    # A failed attempt terminates and joins its children.
    assert not [p for p in multiprocessing.active_children() if p.pid not in before]


@pytest.mark.parametrize("substrate", sorted(FORKING))
def test_a_place_that_fails_outside_a_handler_is_named(monkeypatch, substrate):
    """An error while a place binds its endpoints names the child the
    coordinator forked: the worker, or the node agent with the workers
    placed on it."""

    def refuse(self, place):
        raise OSError("cannot bind")

    endpoints = SocketTransport if substrate == "nodes=2" else PipeTransport
    monkeypatch.setattr(endpoints, "child_setup", refuse)
    prog, plan, streams = _case()
    with pytest.raises(RuntimeFault) as err:
        run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(timeout_s=30.0, **FORKING[substrate]),
        )
    first, *rest = str(err.value).splitlines()
    named = r"node node\d \(workers w[\w, ]+\)" if substrate == "nodes=2" else r"worker w\d+"
    assert re.fullmatch(named + " crashed:", first), first
    assert "OSError('cannot bind')" in rest[0]


@pytest.mark.parametrize(
    "substrate, options, threads",
    [
        ("process", {}, ["worker:w1"]),
        ("nodes=2", {"nodes": 2, "metrics": True}, []),
    ],
)
def test_no_multiprocessing_primitive_and_no_thread_but_the_root_place(
    monkeypatch, substrate, options, threads
):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the control plane built a multiprocessing primitive")

    for name in ("Queue", "SimpleQueue", "Event", "Value"):
        monkeypatch.setattr(mp_context.BaseContext, name, refuse)
    started = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    prog, plan, streams = _case()
    run = run_on_backend("process", prog, plan, streams, options=RunOptions(**options))
    assert output_multiset(run.outputs) == output_multiset(
        run_sequential_reference(prog, streams)
    )
    # On ``process`` the root's place (with w2) runs on a thread.
    assert started == threads


def test_a_place_thread_that_ends_before_its_report_is_named():
    """The coordinator's own place has no process to join: its socket's
    EOF before the report names it, with no exit status to read."""
    control = ControlPlane()
    control.open("worker w1 (workers w1, w2)", 2).close()
    named = r"^worker w1 \(workers w1, w2\) ended before its report$"
    with pytest.raises(RuntimeFault, match=named):
        control.next(time.monotonic() + 5.0)
    control.finish(failed=True)


def test_back_to_back_runs_leave_no_child_unreaped():
    prog, plan, streams = _case()
    before = _children_of_this_process()
    for _ in range(10):
        run_on_backend("process", prog, plan, streams)
    assert _children_of_this_process() - before == set()


def test_a_recovering_run_returns_with_every_attempt_reaped(monkeypatch):
    attempts = []

    class Recording(ControlPlane):
        def __init__(self, ctx):
            super().__init__(ctx)
            self.pids = []
            attempts.append(self)

        def spawn(self, *args):
            proc = super().spawn(*args)
            self.pids.append(proc.pid)
            return proc

    monkeypatch.setattr(runtime_process, "ControlPlane", Recording)
    prog, plan, streams = _case()
    leaves = [n.id for n in plan.leaves()]
    barrier_ts = [e.ts for e in streams[-1].events]
    faults = FaultPlan(
        CrashFault(leaves[0], at_ts=barrier_ts[1] + 0.01),
        CrashFault(leaves[1], at_ts=barrier_ts[2] + 0.01),
    )
    run = run_on_backend(
        "process", prog, plan, streams,
        options=RunOptions(fault_plan=faults, checkpoint_predicate=every_root_join()),
    )
    assert run.recovery.attempts == len(attempts) == 3
    unreaped = _children_of_this_process()
    for control in attempts:
        assert not unreaped & set(control.pids)


@pytest.mark.parametrize("metrics", [False, True], ids=["plain", "metrics"])
@pytest.mark.parametrize(
    "options",
    [{"transport": t} for t in ("pipe", "queue", "tcp", "shm")] + [{"nodes": 2}],
    ids=["pipe", "queue", "tcp", "shm", "nodes=2"],
)
def test_a_forked_child_imports_nothing(monkeypatch, tmp_path, options, metrics):
    """Every child writes the modules that entered its ``sys.modules``
    between its entry and the return after its report; all are empty."""
    child_main = ControlPlane._child_main

    def recording(self, sock, target, args):
        before = set(sys.modules)
        child_main(self, sock, target, args)
        new = sorted(set(sys.modules) - before)
        (tmp_path / f"{os.getpid()}.json").write_text(json.dumps(new))

    monkeypatch.setattr(ControlPlane, "_child_main", recording)
    if metrics:
        options = dict(options, metrics=True)
    prog, plan, streams = _case()
    run_on_backend("process", prog, plan, streams, options=RunOptions(**options))
    records = [json.loads(f.read_text()) for f in tmp_path.glob("*.json")]
    # Two node agents, or the one place the coordinator forks beside its
    # own (w1 with w2 in the coordinator, w3 forked).
    assert len(records) == (2 if "nodes" in options else 1)
    assert [r for r in records if r] == []


def test_a_node_agent_forked_while_a_thread_holds_an_import_lock():
    """A thread of a fresh interpreter holds ``encodings.idna``'s module
    lock while a ``nodes=2`` run forks its agents: neither the
    coordinator opening the agents' TCP edges nor an agent may import
    that module, or it waits for a lock nobody will release, and the
    run times out."""
    script = textwrap.dedent(
        """
        import importlib._bootstrap, sys, threading
        assert "encodings.idna" not in sys.modules
        from repro.apps import value_barrier as vb
        from repro.runtime import RunOptions, local_nodes, run_on_backend

        lock = importlib._bootstrap._get_module_lock("encodings.idna")
        held, done = threading.Event(), threading.Event()

        def hold():
            lock.acquire()
            held.set()
            done.wait()
            lock.release()

        threading.Thread(target=hold, daemon=True).start()
        held.wait()
        prog = vb.make_program()
        wl = vb.make_workload(n_value_streams=2, values_per_barrier=30, n_barriers=2)
        run_on_backend("process", prog, vb.make_plan(prog, wl), vb.make_streams(wl),
                       options=RunOptions(nodes=local_nodes(2), timeout_s=8))
        done.set()
        print("ok")
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
    assert time.monotonic() - t0 < 15.0

"""The shared-memory data plane (repro.runtime.transport's shm
section): ring mechanics and, above all, segment lifecycle.

Shared memory is the one transport whose failure mode outlives the
process: a leaked ``/dev/shm`` segment survives until reboot, and a
forgotten ``unlink`` surfaces as resource-tracker noise at interpreter
exit.  The lifecycle tests therefore check the filesystem itself
(``/dev/shm`` before vs after) across the three exit paths — normal
completion, crash-fault recovery, and KeyboardInterrupt delivered to
the whole process group like a terminal ``^C`` — and assert the
resource tracker stays silent in subprocess stderr.

The unit tests cover the ring protocol the end-to-end suites can't
isolate: the last-chunk frame marker, slot-exhaustion capacity, the
torn-frame fault on a writer death mid-frame, and the ``rx_closed``
escape that keeps senders from spinning on a dead reader.
"""

import multiprocessing as mp
import os
from multiprocessing import shared_memory
import signal
import subprocess
import sys
import time

import pytest

from repro.apps import value_barrier as vb
from repro.core import Event
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
from repro.runtime.messages import EventMsg
from repro.runtime.transport import (
    STOP,
    SharedMemoryTransport,
    _ShmReceiver,
    _ShmSender,
)
from repro.runtime.wire import pack_frame, unpack_frame

CTX = mp.get_context("fork")


def vb_case(n_value_streams=2, values_per_barrier=40, n_barriers=3):
    prog = vb.make_program()
    wl = vb.make_workload(
        n_value_streams=n_value_streams,
        values_per_barrier=values_per_barrier,
        n_barriers=n_barriers,
    )
    return prog, vb.make_streams(wl), vb.make_plan(prog, wl)


def dev_shm():
    """Current shared-memory segment names (empty off-Linux)."""
    try:
        return set(os.listdir("/dev/shm"))
    except (FileNotFoundError, NotADirectoryError):  # pragma: no cover
        return set()


@pytest.fixture
def edge():
    """One tiny coordinator->worker ring plus its transport."""
    t = SharedMemoryTransport(CTX, {"w": ["c"]}, slots=4, slot_bytes=128)
    yield t, t._rings[("c", "w")]
    t.close()


class TestRingProtocol:
    def test_push_pop_preserves_order_and_last_marker(self, edge):
        _, ring = edge
        assert ring.drained()
        assert ring.push(b"aa", False)
        assert ring.push(b"bb", True)
        assert ring.pop_chunk() == (b"aa", False)
        assert not ring.drained()
        assert ring.pop_chunk() == (b"bb", True)
        assert ring.pop_chunk() is None

    def test_full_ring_rejects_then_recovers(self, edge):
        _, ring = edge
        for i in range(4):
            assert ring.push(b"x", True), f"slot {i} should fit"
        assert not ring.push(b"x", True), "5th push into 4 slots"
        assert ring.pop_chunk() == (b"x", True)
        assert ring.push(b"y", True), "freed slot must be reusable"

    def test_multi_chunk_frame_round_trips(self):
        """A frame far wider than one slot arrives as one decoded
        batch: the last-chunk marker replaces the length prefix.  (Own
        ring: the frame spans ~8 chunks, and a single-threaded test
        would deadlock in the sender's backpressure loop if the whole
        frame didn't fit the ring.)"""
        t = SharedMemoryTransport(CTX, {"w": ["c"]}, slots=16, slot_bytes=128)
        try:
            ring = t._rings[("c", "w")]
            batch = [
                EventMsg(Event("value", "v", float(i), payload="x" * 300))
                for i in range(3)
            ]
            frame = pack_frame(batch)
            assert len(frame) > 4 * ring.slot_bytes, "want a many-chunk frame"
            sender = _ShmSender({"w": ring}, None)
            receiver = _ShmReceiver([(ring, "w")])
            sender.send_batch("w", batch)
            assert receiver.recv() == ("w", unpack_frame(frame))
        finally:
            t.close()

    def test_empty_frame_is_stop_sentinel(self, edge):
        _, ring = edge
        assert ring.push(b"", True)
        assert _ShmReceiver([(ring, "w")]).recv() is STOP

    def test_writer_death_mid_frame_raises_torn_frame(self, edge):
        _, ring = edge
        ring.push(b"half a frame", False)  # no final chunk ever comes
        ring.set_tx_closed()
        receiver = _ShmReceiver([(ring, "w")])
        with pytest.raises(RuntimeFault, match="torn shm ring"):
            receiver.poll()

    def test_clean_writer_close_is_eof_not_fault(self, edge):
        _, ring = edge
        sender = _ShmSender({"w": ring}, None)
        batch = [EventMsg(Event("value", "v", 1.0, payload=1))]
        sender.send_batch("w", batch)
        ring.set_tx_closed()
        receiver = _ShmReceiver([(ring, "w")])
        assert receiver.recv() == ("w", unpack_frame(pack_frame(batch)))
        assert receiver.recv() is STOP

    def test_dead_reader_unblocks_sender(self, edge):
        """rx_closed is the EPIPE analogue: a full ring with a dead
        reader must return, not spin forever."""
        _, ring = edge
        while ring.push(b"fill", True):
            pass
        ring.set_rx_closed()
        _ShmSender({"w": ring}, None).send_raw("w", b"z" * 64)  # returns

    def test_unknown_destination_is_a_fault(self, edge):
        _, ring = edge
        with pytest.raises(RuntimeFault, match="no edge"):
            _ShmSender({"w": ring}, None).send_raw("elsewhere", b"z")

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(RuntimeFault, match="too small"):
            SharedMemoryTransport(CTX, {"w": ["c"]}, slots=1)
        with pytest.raises(RuntimeFault, match="too small"):
            SharedMemoryTransport(CTX, {"w": ["c"]}, slot_bytes=8)


class TestSegmentLifecycle:
    def test_close_unlinks_every_segment_and_is_idempotent(self):
        before = dev_shm()
        t = SharedMemoryTransport(CTX, {"w": ["c", "x"], "x": ["c"]})
        names = [ring.shm.name for ring in t._rings.values()]
        assert len(names) == 5  # three edges and a stop edge to each of w and x
        t.close()
        t.close()  # second close must be a no-op, not a double-unlink
        assert dev_shm() - before == set()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_normal_run_leaves_no_segments(self):
        prog, streams, plan = vb_case()
        before = dev_shm()
        run = run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(transport="shm"),
        )
        assert dev_shm() - before == set()
        assert run.raw.transport == "shm"
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )

    def test_crash_fault_run_leaves_no_segments(self):
        """Every recovery attempt builds (and must unlink) its own
        rings; a crashed worker's exit path may not leak its edges."""
        prog, streams, plan = vb_case(values_per_barrier=30, n_barriers=4)
        leaf = plan.leaves()[0].id
        before = dev_shm()
        run = run_on_backend(
            "process", prog, plan, streams,
            options=RunOptions(
                transport="shm",
                fault_plan=FaultPlan(CrashFault(leaf, after_events=37)),
                checkpoint_predicate=every_root_join(),
            ),
        )
        assert dev_shm() - before == set()
        assert run.recovery is not None and run.recovery.attempts == 2
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )

    def test_tiny_rings_still_exact(self, monkeypatch):
        """Rings of 8 slots x 128 bytes chunk and backpressure a whole
        run's traffic instead of corrupting it (the run's transport is
        built at that geometry instead of the default)."""
        import repro.runtime.process as process_mod

        monkeypatch.setattr(
            process_mod,
            "make_transport",
            lambda _name, ctx, edges, placement: SharedMemoryTransport(
                ctx, edges, placement, slots=8, slot_bytes=128
            ),
        )
        prog, streams, plan = vb_case(values_per_barrier=25)
        run = run_on_backend(
            "process", prog, plan, streams, options=RunOptions(transport="shm")
        )
        assert output_multiset(run.outputs) == output_multiset(
            run_sequential_reference(prog, streams)
        )


def _run_child(script, after_start=None, timeout=60):
    """Run a python snippet with src importable; returns the completed
    process plus the /dev/shm delta it left behind."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    before = dev_shm()
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        if after_start is not None:
            after_start(proc)
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out, err, dev_shm() - before


class TestResourceTracker:
    """The resource tracker prints ``leaked shared_memory objects`` to
    a dying interpreter's stderr; these tests run whole interpreters so
    that exit-time complaint (invisible in-process) becomes assertable.
    """

    def test_normal_run_exits_silently(self):
        code, out, err, leaked = _run_child(
            """
import repro.apps.value_barrier as vb
from repro.runtime import RunOptions, run_on_backend
prog = vb.make_program()
wl = vb.make_workload(n_value_streams=2, values_per_barrier=40, n_barriers=2)
run = run_on_backend(
    "process", prog, vb.make_plan(prog, wl), vb.make_streams(wl),
    options=RunOptions(transport="shm"),
)
print("OUTPUTS", len(run.outputs))
"""
        )
        assert code == 0, err
        assert "OUTPUTS" in out
        assert leaked == set(), f"leaked segments: {leaked}"
        assert "leaked" not in err and "resource_tracker" not in err, err

    def test_keyboard_interrupt_unlinks_segments(self):
        """SIGINT to the whole process group mid-run (a terminal ^C):
        the runtime's ``finally`` must still unlink every segment and
        keep the resource tracker quiet.  The child paces its replay at
        one timestamp-unit per second so the interrupt reliably lands
        mid-run, workers forked and rings live."""
        script = """
import sys
import repro.apps.value_barrier as vb
from repro.runtime import RunOptions, run_on_backend
prog = vb.make_program()
wl = vb.make_workload(n_value_streams=2, values_per_barrier=50, n_barriers=3)
print("READY", flush=True)
run_on_backend(
    "process", prog, vb.make_plan(prog, wl), vb.make_streams(wl),
    options=RunOptions(transport="shm", pace=1.0),
)
print("FINISHED-WITHOUT-INTERRUPT", flush=True)
"""

        def interrupt(proc):
            assert proc.stdout.readline().strip() == "READY"
            time.sleep(1.5)  # let the workers fork and the rings fill
            os.killpg(proc.pid, signal.SIGINT)

        code, out, err, leaked = _run_child(script, after_start=interrupt)
        assert code != 0, "child was supposed to die by SIGINT"
        assert "FINISHED-WITHOUT-INTERRUPT" not in out
        assert leaked == set(), f"leaked segments after ^C: {leaked}"
        assert "leaked" not in err and "resource_tracker" not in err, err

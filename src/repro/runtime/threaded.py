"""A real-thread execution of synchronization plans.

The threaded substrate is the process substrate's attempt
(:func:`repro.runtime.process.run_on_workers`) with threads for
processes and an in-process queue for every worker's inbox: the same
worker loop (``_drive_worker``), the same batching policy and in-flight
accounting, the same coordinator — only nothing is forked and nothing
is encoded.  What it adds to the other substrates is real preemption at
no start-up cost: the differential matrix runs every app on it, and the
service tier (:mod:`repro.serve`) runs each epoch on it.

Python's GIL means this is about concurrency correctness, not speedup;
for multi-core parallelism see :mod:`repro.runtime.process`.
"""

from __future__ import annotations

import queue
import threading
from types import SimpleNamespace
from typing import Any, Dict, Optional, Sequence

from ..core.program import DGSProgram
from ..plans.plan import SyncPlan
from ..plans.validity import assert_p_valid
from .checkpoint import CheckpointPredicate
from .faults import FaultPlan
from .metrics import MetricsConfig
from .process import AttemptSpec, run_on_workers
from .protocol import INIT_STATE, AttemptOutcome
from .runtime import InputStream
from .transport import STOP, BatchingSender, plan_edges, resolve_policy


class _Counter:
    """``ctx.Value`` for threads: a number behind a lock."""

    def __init__(self, _typecode: str, value: int, lock: bool = True) -> None:
        self.value = value
        self._lock = threading.Lock()

    def get_lock(self) -> threading.Lock:
        return self._lock

    def get_obj(self) -> "_Counter":
        return self


class _InProcess:
    """What an attempt takes from a ``multiprocessing`` context
    (``Queue``, ``Event``, ``Value``, ``Process``) and from a transport,
    on threads: one unbounded queue per worker, batches passed by
    reference."""

    name = ""  # not a RunOptions.transport
    Queue = queue.SimpleQueue
    Event = threading.Event
    Value = _Counter

    def __init__(self, edges: Dict[str, Sequence[str]]) -> None:
        self.queues = {wid: queue.SimpleQueue() for wid in edges}

    def Process(self, **kwargs: Any) -> threading.Thread:
        thread = threading.Thread(**kwargs)
        # A thread has no exit status and cannot be killed, only asked:
        # terminating one asks them all (a worker leaves at its first
        # stop frame, so the extra ones are never read).
        thread.exitcode = None
        thread.terminate = self.stop_all
        return thread

    def sender(self, src, control, policy, on_block=None) -> BatchingSender:
        # ``on_block`` is never needed: a queue put does not wait for space.
        return BatchingSender(lambda dst, batch: self.queues[dst].put(batch), control, policy)

    def receiver(self, wid: str) -> SimpleNamespace:
        # A batch arrives as the list its sender flushed.
        return SimpleNamespace(recv=self.queues[wid].get, poll=lambda: None)

    def stop_all(self) -> None:
        for q in self.queues.values():
            q.put(STOP)

    def _nothing(self, wid: Optional[str] = None) -> None:
        pass  # no fds to hand over, no kernel buffers to empty

    child_setup = child_teardown = parent_setup = drain = close = _nothing


class ThreadedRuntime:
    """Run a DGS program on real threads (one per plan worker)."""

    def __init__(self, program: DGSProgram, plan: SyncPlan, *, validate: bool = True):
        self.program = program
        if validate:
            assert_p_valid(plan, program)
        self.plan = plan
        # The default policy: RunOptions' batching knobs are the process backend's.
        self.policy = resolve_policy(None, None)

    def run(
        self,
        streams: Sequence[InputStream],
        *,
        timeout_s: float = 60.0,
        initial_state: Any = INIT_STATE,
        checkpoint_predicate: Optional[CheckpointPredicate] = None,
        faults: Optional[FaultPlan] = None,
        record_keys: bool = False,
        reconfig: Any = None,
        metrics: Optional[MetricsConfig] = None,
        pace: Optional[float] = None,
    ) -> AttemptOutcome:
        """Execute one attempt (see :meth:`ProcessRuntime.run` for the
        fault-injection / reconfiguration parameter contract: a crashed
        or quiesced attempt returns with ``crashes`` non-empty /
        ``quiesce`` set instead of raising)."""
        spec = AttemptSpec.of(
            self, initial_state, checkpoint_predicate, faults, record_keys, reconfig, metrics
        )
        fabric = _InProcess(plan_edges(self.plan))
        return run_on_workers("threaded", fabric, fabric, spec, streams, timeout_s, pace)

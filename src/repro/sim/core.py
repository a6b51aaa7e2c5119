"""Deterministic discrete-event simulation kernel.

A minimal, fast event-heap simulator: callbacks are scheduled at
absolute times and executed in time order, with an insertion sequence
number as tie-break so runs are exactly reproducible.  Everything else
(hosts, links, actors) is layered on top in :mod:`repro.sim.network`
and :mod:`repro.sim.actors`.

Following the hpc-parallel guides, the kernel avoids per-event object
allocation where possible (plain tuples on a ``heapq``) since the heap
is the hot path of every benchmark in this repository.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

Callback = Callable[[], None]


class Simulator:
    """An event-heap simulator with deterministic tie-breaking."""

    __slots__ = ("now", "_heap", "_seq", "_stopped", "events_processed")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callback]] = []
        self._seq: int = 0
        self._stopped: bool = False
        self.events_processed: int = 0

    def schedule_at(self, time: float, fn: Callback) -> None:
        """Schedule ``fn`` to run at absolute time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        if self._stopped:
            return
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1

    def schedule(self, delay: float, fn: Callback) -> None:
        """Schedule ``fn`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, fn)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process scheduled events in order; return the final time.

        Stops when the heap drains, when the next event would exceed
        ``until``, or after ``max_events`` callbacks (a runaway guard
        for protocol bugs that generate unbounded message storms).
        """
        heap = self._heap
        processed = 0
        while heap:
            time, _, fn = heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            self.now = time
            fn()
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        self.events_processed += processed
        if until is not None and self.now < until and not heap:
            self.now = until
        return self.now

    def stop(self) -> None:
        """End the simulation: drop every scheduled event, and schedule
        nothing from here on — :meth:`run` returns once the running
        callback does."""
        self._heap.clear()
        self._stopped = True

    def step(self) -> bool:
        """Process a single event; return False if the heap is empty."""
        if not self._heap:
            return False
        time, _, fn = heapq.heappop(self._heap)
        self.now = time
        fn()
        self.events_processed += 1
        return True

    @property
    def pending(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Simulator(now={self.now:.3f}, pending={self.pending})"

"""A tiny in-memory span recorder for the layer pass.

The benchmark wraps each call it makes into a layer's public functions
in ``with recorder.span("module.function"):``.  Nothing is recorded
inside ``src/``.  Spans are kept in memory and written out when the
pass ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Recorder:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Off: ``span`` only yields, so timed code pays nothing.
        self.enabled = True
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent: Optional[int] = self._stack[-1] if self._stack else None
        record = {
            "id": index, "run": self.run_id, "name": name, "parent": parent,
            "start_ns": time.perf_counter_ns(), "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def self_times_ns(self) -> Dict[str, int]:
        """Per span name: total duration minus the children's share."""
        own = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        totals: Dict[str, int] = {}
        for s, ns in zip(self.spans, own):
            totals[s["name"]] = totals.get(s["name"], 0) + ns
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"run": self.run_id, "spans": self.spans,
                 "self_ns_by_name": self.self_times_ns()},
                fh,
            )

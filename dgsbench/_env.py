"""Locate the checkout and put its ``src/`` first on ``sys.path``.

The benchmark measures the program built from this checkout's source,
never an installed copy, so every dgsbench entry script imports this
module before it imports ``repro``.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"dgsbench: no program source at {SRC}/repro; nothing to measure")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

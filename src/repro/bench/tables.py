"""ASCII renderers for the reproduced figures and tables.

Every benchmark regenerates its paper artifact as a plain-text table
(series per column) written both to stdout and to
``benchmarks/results/``; EXPERIMENTS.md records the paper-vs-measured
comparison for each.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Mapping, Sequence


def _fmt(value: Any, width: int = 10) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "-".rjust(width)
        if value >= 1000:
            return f"{value:,.0f}".rjust(width)
        if 0 < abs(value) < 0.05:
            return f"{value:.4f}".rjust(width)
        return f"{value:.2f}".rjust(width)
    return str(value).rjust(width)


def render_table(
    title: str,
    x_label: str,
    xs: Sequence[Any],
    series: Mapping[str, Sequence[Any]],
    *,
    note: str = "",
) -> str:
    """Render one figure/table: rows = x values, columns = series."""
    names = list(series)
    width = max(10, *(len(n) + 2 for n in names)) if names else 10
    lines = [f"== {title} =="]
    if note:
        lines.append(f"   {note}")
    header = x_label.rjust(12) + "".join(n.rjust(width) for n in names)
    lines.append(header)
    lines.append("-" * len(header))
    for i, x in enumerate(xs):
        row = _fmt(x, 12)
        for n in names:
            col = series[n]
            row += _fmt(col[i] if i < len(col) else math.nan, width)
        lines.append(row)
    return "\n".join(lines)


def render_matrix(
    title: str,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    cells: Mapping[str, Mapping[str, Any]],
    *,
    note: str = "",
) -> str:
    """Render a label matrix (Table 1 style: rows = criteria, columns =
    system/app combinations)."""
    width = max(8, *(len(c) + 2 for c in col_labels)) if col_labels else 8
    label_w = max(len(r) for r in row_labels) + 2 if row_labels else 12
    lines = [f"== {title} =="]
    if note:
        lines.append(f"   {note}")
    header = " " * label_w + "".join(c.rjust(width) for c in col_labels)
    lines.append(header)
    lines.append("-" * len(header))
    for r in row_labels:
        row = r.ljust(label_w)
        for c in col_labels:
            row += _fmt(cells.get(r, {}).get(c, ""), width)
        lines.append(row)
    return "\n".join(lines)


def results_dir() -> str:
    d = os.environ.get(
        "REPRO_RESULTS_DIR",
        os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))), "benchmarks", "results"),
    )
    os.makedirs(d, exist_ok=True)
    return d


def publish(name: str, text: str) -> str:
    """Print a rendered artifact and persist it under benchmarks/results/."""
    print()
    print(text)
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    return path


def publish_json(name: str, record: Mapping[str, Any]) -> str:
    """Persist a machine-readable benchmark record as
    ``BENCH_<name>.json`` under benchmarks/results/.

    Records are built by :func:`repro.bench.harness.bench_record`.
    They are reports, compared against nothing; the benchmark with
    bounds is ``dgsbench`` (``BENCHMARK.json``)."""
    path = os.path.join(results_dir(), f"BENCH_{name}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    return path

"""Shared benchmark configuration.

Two equivalent ways to run the benchmarks on reduced axes:

* ``pytest benchmarks/bench_*.py --smoke`` — the CI fast path: shrinks
  every workload knob, marks all items with the ``smoke`` marker, and
  disables pytest-benchmark calibration so each file finishes in
  seconds;
* ``REPRO_BENCH_QUICK=1 pytest ...`` — the same reduction via the
  environment (kept for shells and older scripts).

The default (neither) runs the paper's full axes, e.g. the 1-20 node
parallelism sweep of Figures 4 and 8.

Benchmark modules read the reduction *lazily* — ``quick()`` /
``parallelism_levels()`` at module import time, which happens after
pytest has parsed ``--smoke`` — so a module-level ``QUICK = quick()``
in a ``bench_*.py`` file sees the flag.
"""

import glob
import os
import time


def quick() -> bool:
    """True when benchmarks should run their reduced fast path."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def parallelism_levels() -> tuple:
    """The Figure 4/8 parallelism axis (reduced under quick/smoke)."""
    return (1, 4, 12) if quick() else (1, 4, 8, 12, 16, 20)


# NB: don't add module-level `QUICK = quick()`-style constants here —
# this conftest is imported before pytest parses --smoke, so they
# would silently ignore the flag.  Benchmark modules evaluate the
# functions at *their* import time (collection, after configure).
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def pytest_addoption(parser):
    # Only effective when a benchmarks/ path is given on the command
    # line (pytest loads this conftest early in that case); the tier-1
    # `pytest tests/` run never parses benchmark options.
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run every benchmark on its reduced fast path (CI smoke)",
    )


def pytest_configure(config):
    # benchmarks/results/ is gitignored and persists across runs: only
    # files written from here on are this run's artifacts.
    config._repro_run_start = time.time()
    config.addinivalue_line(
        "markers", "smoke: benchmark smoke path, safe to run on every CI push"
    )
    if config.getoption("--smoke", default=False):
        os.environ["REPRO_BENCH_QUICK"] = "1"
        # Run each benchmarked callable once, skip calibration rounds.
        config.option.benchmark_disable = True


def pytest_collection_modifyitems(config, items):
    """Every benchmark supports the reduced path, so all items in this
    directory carry the ``smoke`` marker (enables ``-m smoke``
    selection in CI).  The hook sees the whole session's items, so
    match on this directory, not on file-name substrings."""
    import pytest

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        path = str(getattr(item, "fspath", ""))
        if os.path.dirname(os.path.abspath(path)) == bench_dir:
            item.add_marker(pytest.mark.smoke)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Dump every paper artifact this run regenerated into the
    terminal report (stdout of passing tests is captured by pytest, so
    without this the tables would only exist as files under
    benchmarks/results/).  Tables an earlier run left behind are not
    echoed: this run did not reproduce them."""
    start = config._repro_run_start
    paths = [
        p
        for p in sorted(glob.glob(os.path.join(_RESULTS_DIR, "*.txt")))
        if os.path.getmtime(p) >= start
    ]
    if not paths:
        return
    tr = terminalreporter
    tr.section("reproduced paper artifacts (also in benchmarks/results/)")
    for path in paths:
        with open(path) as f:
            tr.write_line("")
            for line in f.read().rstrip().splitlines():
                tr.write_line(line)

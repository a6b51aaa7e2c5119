"""The packages' ``__all__`` lists are the public surface: every name
in them must resolve.  Surfaces that shrank on purpose are pinned
whole, so a retired name cannot come back unnoticed: the measurement
package (its backend/transport comparison functions went with the
micros that were their only callers), the recovery module (its
commit cut is :meth:`ReplayLog.drop_through`), the option classes
(a field only tests set went with the code behind it; a new one edits
the pin and the class docstring), and the re-planning records (plans
change only at planned points, so no load field rides on a point, a
migration step or a join response), and the simulator's entry point
(the ``sim`` backend alone sets faults, re-planning, metrics and leaf
states, through the private runner both share)."""

import dataclasses
import importlib
import inspect

import pytest

PACKAGES = (
    "repro",
    "repro.runtime",
    "repro.bench",
    "repro.serve",
    "repro.apps",
    "repro.core",
    "repro.data",
    "repro.flinklike",
    "repro.plans",
    "repro.sim",
    "repro.timelylike",
)

BENCH_ALL = {
    "BENCH_SCHEMA",
    "BenchConfig",
    "BenchResult",
    "RatePoint",
    "ReconfigPausePoint",
    "RecoveryOverheadPoint",
    "ScalingPoint",
    "SweepResult",
    "WallClockPoint",
    "available_cores",
    "bench_record",
    "bursty_arrivals",
    "fixed_rate_arrivals",
    "latency_profile",
    "max_throughput",
    "measure_reconfig_pause",
    "measure_recovery_overhead",
    "publish",
    "publish_json",
    "render_matrix",
    "render_table",
    "results_dir",
    "scaling_curve",
    "speedup",
}

RECOVERY_DEFS = {"RecoveryStep", "ReplayLog", "assert_recovery_sound", "restart_from_crash"}

RUN_OPTIONS_FIELDS = (
    "fault_plan",
    "checkpoint_predicate",
    "reconfig_schedule",
    "timeout_s",
    "transport",
    "nodes",
    "placement",
    "metrics",
    "latency_buckets",
    "pace",
)

SERVE_OPTIONS_FIELDS = (
    "backend",
    "run",
    "host",
    "port",
    "cookie",
    "epoch_events",
    "epoch_idle_ms",
    "heartbeat_interval",
    "ingest_high_watermark",
    "metrics_port",
)

#: FluminaRuntime's keyword parameters, and its run's.
FLUMINA_RUNTIME_KEYWORDS = (
    "topology",
    "checkpoint_predicate",
    "record_keys",
    "track_event_latency",
)
FLUMINA_RUN_PARAMETERS = ("streams",)


#: (module, class, fields) of the re-planning records.
RECORD_FIELDS = (
    (
        "repro.runtime.reconfigure",
        "ReconfigPoint",
        ("at_ts", "after_joins", "to_leaves", "to_plan", "shape"),
    ),
    (
        "repro.runtime.reconfigure",
        "ReconfigStep",
        ("attempt", "key", "ts", "from_leaves", "to_leaves", "pause_s"),
    ),
    ("repro.runtime.messages", "JoinResponse", ("req_id", "side", "state")),
)


def public_defs(module):
    """Public names a module defines itself (not the ones it imports)."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
    }


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    mod = importlib.import_module(package)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__), "duplicate names in __all__"


def test_the_measurement_surface_is_pinned():
    bench = importlib.import_module("repro.bench")
    assert set(bench.__all__) == BENCH_ALL
    harness = importlib.import_module("repro.bench.harness")
    assert public_defs(harness) <= BENCH_ALL


def test_the_recovery_surface_is_pinned():
    recovery = importlib.import_module("repro.runtime.recovery")
    assert public_defs(recovery) == RECOVERY_DEFS


@pytest.mark.parametrize(
    "name, pinned",
    [("RunOptions", RUN_OPTIONS_FIELDS), ("ServeOptions", SERVE_OPTIONS_FIELDS)],
)
def test_the_option_surface_is_pinned(name, pinned):
    cls = getattr(importlib.import_module("repro.runtime.options"), name)
    assert tuple(f.name for f in dataclasses.fields(cls)) == pinned
    undocumented = [f for f in pinned if f"``{f}``" not in cls.__doc__]
    assert undocumented == []


@pytest.mark.parametrize(
    "module, name, pinned", RECORD_FIELDS, ids=[r[1] for r in RECORD_FIELDS]
)
def test_the_replanning_records_are_pinned(module, name, pinned):
    cls = getattr(importlib.import_module(module), name)
    assert tuple(f.name for f in dataclasses.fields(cls)) == pinned


def test_the_simulator_surface_is_pinned():
    cls = importlib.import_module("repro.runtime").FluminaRuntime
    init = inspect.signature(cls.__init__).parameters.values()
    keywords = tuple(p.name for p in init if p.kind is inspect.Parameter.KEYWORD_ONLY)
    assert keywords == FLUMINA_RUNTIME_KEYWORDS
    run = tuple(inspect.signature(cls.run).parameters)[1:]
    assert run == FLUMINA_RUN_PARAMETERS

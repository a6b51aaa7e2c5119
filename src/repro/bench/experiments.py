"""Experiment drivers for every figure and table in the paper's
evaluation (§4, Appendix D).  Each function returns plain data that the
benchmark scripts render with :mod:`repro.bench.tables`.

Workload sizing: the paper uses 10K values per barrier; simulating that
many events per window is unnecessary for shape reproduction, so the
drivers default to a few hundred values per window while *keeping the
value:barrier ratio fixed across rates* (the property the paper's
generator maintains).  All sizes are parameters, so the full-size
experiment is one argument away.

The throughput metric is the paper's: offered rate is swept
geometrically and the maximum *achieved* rate is reported (at
super-saturation the makespan measurement converges to system
capacity).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..apps import fraud as fraud_app
from ..apps import pageview as pv_app
from ..apps import value_barrier as vb_app
from ..flinklike import (
    build_event_window_job,
    build_fraud_job,
    build_fraud_splan_job,
    build_pageview_job,
    build_pageview_splan_job,
)
from ..runtime import FluminaRuntime
from ..sim.network import Topology
from ..sim.params import DEFAULT_PARAMS, SimParams
from ..timelylike import (
    build_event_window_job as tl_event_window,
    build_fraud_job as tl_fraud,
    build_pageview_job as tl_pageview,
)
from .harness import (
    RatePoint,
    ScalingPoint,
    latency_profile,
    max_throughput,
    scaling_curve,
)

RunAtRate = Callable[[float], object]

#: Default parallelism axis of Figures 4 and 8.
PARALLELISM_LEVELS = (1, 4, 8, 12, 16, 20)

#: Reduced workload knobs (paper: 10_000 values per barrier; we keep a
#: large value:barrier ratio — the property that makes synchronization
#: amortizable — while holding simulation sizes tractable).
VALUES_PER_BARRIER = 500
N_BARRIERS = 3
HEARTBEATS_PER_BARRIER = 10
MIN_HEARTBEAT_MS = 0.05


def _hb(rate: float, per_barrier: int = VALUES_PER_BARRIER) -> float:
    """Heartbeat interval: ~10 heartbeats per synchronization window
    (inside the paper's stable 10-1000x range, Appendix D.1), floored
    so saturated sweeps don't drown in heartbeat traffic."""
    return max((per_barrier / rate) / HEARTBEATS_PER_BARRIER, MIN_HEARTBEAT_MS)


# ---------------------------------------------------------------------------
# Runner factories: (system, app, parallelism) -> run_at_rate
# ---------------------------------------------------------------------------

def flumina_event_window(p: int, *, params: SimParams = DEFAULT_PARAMS,
                         vpb: int = VALUES_PER_BARRIER, nb: int = N_BARRIERS) -> RunAtRate:
    prog = vb_app.make_program()

    def run(rate: float):
        wl = vb_app.make_workload(
            n_value_streams=p, values_per_barrier=vpb, n_barriers=nb,
            value_rate_per_ms=rate,
        )
        plan = vb_app.make_plan(prog, wl)
        topo = Topology.cluster(max(1, p), params=params)
        rt = FluminaRuntime(prog, plan, topology=topo)
        return rt.run(vb_app.make_streams(wl, heartbeat_interval=_hb(rate, vpb)))

    return run


def flumina_fraud(p: int, *, params: SimParams = DEFAULT_PARAMS,
                  vpb: int = VALUES_PER_BARRIER, nb: int = N_BARRIERS) -> RunAtRate:
    prog = fraud_app.make_program()

    def run(rate: float):
        wl = fraud_app.make_workload(
            n_txn_streams=p, txns_per_rule=vpb, n_rules=nb, txn_rate_per_ms=rate
        )
        plan = fraud_app.make_plan(prog, wl)
        topo = Topology.cluster(max(1, p), params=params)
        rt = FluminaRuntime(prog, plan, topology=topo)
        return rt.run(fraud_app.make_streams(wl, heartbeat_interval=_hb(rate, vpb)))

    return run


def flumina_pageview(p: int, *, params: SimParams = DEFAULT_PARAMS,
                     vpu: int = VALUES_PER_BARRIER, nu: int = N_BARRIERS,
                     n_pages: int = 2) -> RunAtRate:
    prog = pv_app.make_program(n_pages)

    def run(rate: float):
        wl = pv_app.make_workload(
            n_pages=n_pages, n_view_streams=p, views_per_update=vpu,
            n_updates_per_page=nu, view_rate_per_ms=rate,
        )
        plan = pv_app.make_plan(prog, wl)
        topo = Topology.cluster(max(1, p), params=params)
        rt = FluminaRuntime(prog, plan, topology=topo)
        return rt.run(pv_app.make_streams(wl, heartbeat_interval=_hb(rate, vpu)))

    return run


def flink_event_window(p: int, *, mode: str = "parallel",
                       params: SimParams = DEFAULT_PARAMS,
                       vpb: int = VALUES_PER_BARRIER, nb: int = N_BARRIERS) -> RunAtRate:
    def run(rate: float):
        wl = vb_app.make_workload(
            n_value_streams=p, values_per_barrier=vpb, n_barriers=nb,
            value_rate_per_ms=rate,
        )
        job = build_event_window_job(
            wl, parallelism=p, params=params, mode=mode,
            heartbeat_interval=_hb(rate, vpb),
        )
        return job.run()

    return run


def flink_fraud(p: int, *, params: SimParams = DEFAULT_PARAMS,
                vpb: int = VALUES_PER_BARRIER, nb: int = N_BARRIERS) -> RunAtRate:
    def run(rate: float):
        wl = fraud_app.make_workload(
            n_txn_streams=p, txns_per_rule=vpb, n_rules=nb, txn_rate_per_ms=rate
        )
        job = build_fraud_job(
            wl, parallelism=p, params=params, heartbeat_interval=_hb(rate, vpb)
        )
        return job.run()

    return run


def flink_fraud_splan(p: int, *, params: SimParams = DEFAULT_PARAMS,
                      vpb: int = VALUES_PER_BARRIER, nb: int = N_BARRIERS) -> RunAtRate:
    def run(rate: float):
        wl = fraud_app.make_workload(
            n_txn_streams=p, txns_per_rule=vpb, n_rules=nb, txn_rate_per_ms=rate
        )
        job = build_fraud_splan_job(
            wl, parallelism=p, params=params, heartbeat_interval=_hb(rate, vpb)
        )
        return job.run()

    return run


def flink_pageview(p: int, *, params: SimParams = DEFAULT_PARAMS,
                   vpu: int = VALUES_PER_BARRIER, nu: int = N_BARRIERS,
                   n_pages: int = 2) -> RunAtRate:
    def run(rate: float):
        wl = pv_app.make_workload(
            n_pages=n_pages, n_view_streams=p, views_per_update=vpu,
            n_updates_per_page=nu, view_rate_per_ms=rate,
        )
        job = build_pageview_job(
            wl, parallelism=p, params=params, heartbeat_interval=_hb(rate, vpu)
        )
        return job.run()

    return run


def flink_pageview_splan(p: int, *, params: SimParams = DEFAULT_PARAMS,
                         vpu: int = VALUES_PER_BARRIER, nu: int = N_BARRIERS,
                         n_pages: int = 2) -> RunAtRate:
    def run(rate: float):
        wl = pv_app.make_workload(
            n_pages=n_pages, n_view_streams=p, views_per_update=vpu,
            n_updates_per_page=nu, view_rate_per_ms=rate,
        )
        job = build_pageview_splan_job(
            wl, params=params, heartbeat_interval=_hb(rate, vpu)
        )
        return job.run()

    return run


def timely_event_window(p: int, *, params: SimParams = DEFAULT_PARAMS,
                        vpb: int = VALUES_PER_BARRIER, nb: int = N_BARRIERS) -> RunAtRate:
    def run(rate: float):
        wl = vb_app.make_workload(
            n_value_streams=p, values_per_barrier=vpb, n_barriers=nb,
            value_rate_per_ms=rate,
        )
        return tl_event_window(wl, n_workers=p, params=params).run()

    return run


def timely_fraud(p: int, *, params: SimParams = DEFAULT_PARAMS,
                 vpb: int = VALUES_PER_BARRIER, nb: int = N_BARRIERS) -> RunAtRate:
    def run(rate: float):
        wl = fraud_app.make_workload(
            n_txn_streams=p, txns_per_rule=vpb, n_rules=nb, txn_rate_per_ms=rate
        )
        return tl_fraud(wl, n_workers=p, params=params).run()

    return run


def timely_pageview(p: int, *, manual: bool = False,
                    params: SimParams = DEFAULT_PARAMS,
                    vpu: int = VALUES_PER_BARRIER, nu: int = N_BARRIERS,
                    n_pages: int = 2) -> RunAtRate:
    def run(rate: float):
        wl = pv_app.make_workload(
            n_pages=n_pages, n_view_streams=p, views_per_update=vpu,
            n_updates_per_page=nu, view_rate_per_ms=rate,
        )
        return tl_pageview(wl, n_workers=p, manual=manual, params=params).run()

    return run


# ---------------------------------------------------------------------------
# Figure-level drivers
# ---------------------------------------------------------------------------

SWEEP = dict(start_rate=30.0, growth=2.0, max_steps=6, efficiency=0.75)


def figure4_flink(
    levels: Sequence[int] = PARALLELISM_LEVELS,
) -> Dict[str, List[ScalingPoint]]:
    """Figure 4 (top): Flink max throughput vs parallelism."""
    return {
        "Event Win.": scaling_curve(lambda p: flink_event_window(p), levels, **SWEEP),
        "Page View": scaling_curve(lambda p: flink_pageview(p), levels, **SWEEP),
        "Fraud Dec.": scaling_curve(lambda p: flink_fraud(p), levels, **SWEEP),
    }


def figure4_timely(
    levels: Sequence[int] = PARALLELISM_LEVELS,
) -> Dict[str, List[ScalingPoint]]:
    """Figure 4 (bottom): Timely max throughput vs parallelism,
    including the manual page-view variant."""
    return {
        "Event Win.": scaling_curve(lambda p: timely_event_window(p), levels, **SWEEP),
        "Page View": scaling_curve(lambda p: timely_pageview(p), levels, **SWEEP),
        "Fraud Dec.": scaling_curve(lambda p: timely_fraud(p), levels, **SWEEP),
        "Page View (M)": scaling_curve(
            lambda p: timely_pageview(p, manual=True), levels, **SWEEP
        ),
    }


def figure8_flumina(
    levels: Sequence[int] = PARALLELISM_LEVELS,
) -> Dict[str, List[ScalingPoint]]:
    """Figure 8: Flumina (DGS) max throughput vs parallelism."""
    return {
        "Event Win.": scaling_curve(lambda p: flumina_event_window(p), levels, **SWEEP),
        "Page View": scaling_curve(lambda p: flumina_pageview(p), levels, **SWEEP),
        "Fraud Dec.": scaling_curve(lambda p: flumina_fraud(p), levels, **SWEEP),
    }


FIG6_RATES = (10.0, 20.0, 40.0, 80.0, 160.0)


def figure6(
    parallelism: int = 12, rates: Sequence[float] = FIG6_RATES
) -> Dict[str, List[RatePoint]]:
    """Figure 6: throughput vs latency percentiles at 12 nodes for the
    automatic Flink implementations vs the manual synchronization-plan
    ones (page-view join and fraud detection)."""
    return {
        "pageview/Flink": latency_profile(flink_pageview(parallelism), rates),
        "pageview/Flink S-Plan": latency_profile(
            flink_pageview_splan(parallelism), rates
        ),
        "fraud/Flink": latency_profile(flink_fraud(parallelism), rates),
        "fraud/Flink S-Plan": latency_profile(
            flink_fraud_splan(parallelism), rates
        ),
    }


def figure10a(
    worker_counts: Sequence[int] = (5, 10, 20, 30, 40),
    vb_ratios: Sequence[int] = (100, 1000),
    *,
    rate: float = 100.0,
    n_barriers: int = 4,
) -> Dict[int, List[Tuple[int, float, float, float]]]:
    """Figure 10 (a): Flumina *per-event* latency percentiles vs worker
    count for several value:barrier ratios.  As in the paper, the
    heartbeat rate is tied to the ratio (vb_ratio/100 heartbeats per
    barrier), so low ratios both synchronize more often and release
    buffered events more coarsely."""
    out: Dict[int, List[Tuple[int, float, float, float]]] = {}
    for ratio in vb_ratios:
        series = []
        for w in worker_counts:
            prog = vb_app.make_program()
            wl = vb_app.make_workload(
                n_value_streams=w,
                values_per_barrier=ratio,
                n_barriers=n_barriers,
                value_rate_per_ms=rate,
            )
            plan = vb_app.make_plan(prog, wl)
            topo = Topology.cluster(w)
            hb = (ratio / rate) / max(1, ratio // 100)
            res = FluminaRuntime(
                prog, plan, topology=topo, track_event_latency=True
            ).run(vb_app.make_streams(wl, heartbeat_interval=hb))
            p10, p50, p90 = res.event_latency_percentiles((10, 50, 90))
            series.append((w, p10, p50, p90))
        out[ratio] = series
    return out


def figure10b(
    heartbeat_rates: Sequence[float] = (1, 5, 10, 50, 100, 500, 1000),
    vb_ratios: Sequence[int] = (1000,),
    *,
    n_workers: int = 5,
    rate: float = 50.0,
    n_barriers: int = 4,
) -> Dict[int, List[Tuple[float, float, float, float]]]:
    """Figure 10 (b): per-event latency vs heartbeat rate (heartbeats
    per barrier event) at a fixed number of workers.  Value events wait
    for proof that no earlier barrier remains; between barriers, only
    heartbeats provide it — so sparse heartbeats force mailboxes to
    release values in coarse bursts (the paper's mechanism)."""
    out: Dict[int, List[Tuple[float, float, float, float]]] = {}
    for ratio in vb_ratios:
        series = []
        for hb_per_barrier in heartbeat_rates:
            prog = vb_app.make_program()
            wl = vb_app.make_workload(
                n_value_streams=n_workers,
                values_per_barrier=ratio,
                n_barriers=n_barriers,
                value_rate_per_ms=rate,
            )
            plan = vb_app.make_plan(prog, wl)
            topo = Topology.cluster(n_workers)
            barrier_period = ratio / rate
            hb = barrier_period / hb_per_barrier
            res = FluminaRuntime(
                prog, plan, topology=topo, track_event_latency=True
            ).run(vb_app.make_streams(wl, heartbeat_interval=hb))
            p10, p50, p90 = res.event_latency_percentiles((10, 50, 90))
            series.append((hb_per_barrier, p10, p50, p90))
        out[ratio] = series
    return out


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

#: Static development-tradeoff facts (✓/✗ per PIP), from §4.5.
PIP_MATRIX: Dict[str, Dict[str, str]] = {
    # column -> {PIP1, PIP2, PIP3}
    "EW/F": {"PIP1": "Y", "PIP2": "Y", "PIP3": "Y"},
    "EW/TD": {"PIP1": "Y", "PIP2": "Y", "PIP3": "Y"},
    "EW/DGS": {"PIP1": "Y", "PIP2": "Y", "PIP3": "Y"},
    "PV/F": {"PIP1": "Y", "PIP2": "Y", "PIP3": "Y"},
    "PV/FM": {"PIP1": "N", "PIP2": "N", "PIP3": "N"},
    "PV/TD": {"PIP1": "Y", "PIP2": "Y", "PIP3": "Y"},
    "PV/TDM": {"PIP1": "Y", "PIP2": "N", "PIP3": "Y"},
    "PV/DGS": {"PIP1": "Y", "PIP2": "Y", "PIP3": "Y"},
    "FD/F": {"PIP1": "Y", "PIP2": "Y", "PIP3": "Y"},
    "FD/FM": {"PIP1": "N", "PIP2": "N", "PIP3": "N"},
    "FD/TD": {"PIP1": "Y", "PIP2": "Y", "PIP3": "Y"},
    "FD/DGS": {"PIP1": "Y", "PIP2": "Y", "PIP3": "Y"},
}


def table1_scaling(parallelism: int = 12) -> Dict[str, float]:
    """The 12-node throughput-scaling row of Table 1: speedup of each
    (app, system) pair relative to its own 1-node throughput."""

    def ratio(factory: Callable[[int], RunAtRate]) -> float:
        base = max_throughput(factory(1), **SWEEP).max_throughput
        top = max_throughput(factory(parallelism), **SWEEP).max_throughput
        return top / base if base > 0 else float("nan")

    return {
        "EW/F": ratio(lambda p: flink_event_window(p)),
        "EW/TD": ratio(lambda p: timely_event_window(p)),
        "EW/DGS": ratio(lambda p: flumina_event_window(p)),
        "PV/F": ratio(lambda p: flink_pageview(p)),
        "PV/FM": ratio(lambda p: flink_pageview_splan(p)),
        "PV/TD": ratio(lambda p: timely_pageview(p)),
        "PV/TDM": ratio(lambda p: timely_pageview(p, manual=True)),
        "PV/DGS": ratio(lambda p: flumina_pageview(p)),
        "FD/F": ratio(lambda p: flink_fraud(p)),
        "FD/FM": ratio(lambda p: flink_fraud_splan(p)),
        "FD/TD": ratio(lambda p: timely_fraud(p)),
        "FD/DGS": ratio(lambda p: flumina_fraud(p)),
    }

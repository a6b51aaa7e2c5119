"""Synthetic workload generators (paper §4.1).

The paper's inputs are synthetic; these builders produce the same
shapes with strictly increasing, collision-free timestamps (required by
the total order ``O``):

* value/barrier streams: ``values_per_barrier`` values per stream
  between consecutive barriers (the paper uses 10K; benchmarks default
  lower to keep simulations fast — the ratio is what matters);
* page-view streams with views concentrated on a small set of hot
  pages (the paper routes all views to two pages);
* transaction/rule streams for fraud detection (same shape as
  value/barrier).

Rates are in events per millisecond of simulated time.  Stream ``k``
offsets its timestamps by a distinct fraction of the event period so
no two events in dependent streams ever collide at any rate (barrier
and update timestamps land on whole period multiples; value and view
timestamps never do).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


from ..core.events import Event, ImplTag

def uniform_stream(
    itag: ImplTag,
    *,
    rate_per_ms: float,
    n_events: int,
    offset: float = 0.0,
    payload_fn=None,
    start_ms: float = 1.0,
) -> Tuple[Event, ...]:
    """Events at a constant rate with a per-stream phase offset."""
    if rate_per_ms <= 0:
        raise ValueError("rate must be positive")
    if n_events <= 0:
        raise ValueError(
            f"n_events must be positive, got {n_events} — a silently "
            "empty stream hides workload-construction bugs"
        )
    period = 1.0 / rate_per_ms
    out = []
    for i in range(n_events):
        ts = start_ms + i * period + offset
        payload = payload_fn(i) if payload_fn else 1
        out.append(Event(itag.tag, itag.stream, ts, payload))
    return tuple(out)


@dataclass(frozen=True)
class ValueBarrierWorkload:
    """Input shape of event-based windowing and fraud detection."""

    value_streams: Dict[ImplTag, Tuple[Event, ...]]
    barrier_stream: Tuple[Event, ...]
    barrier_itag: ImplTag

    @property
    def total_events(self) -> int:
        return sum(len(v) for v in self.value_streams.values()) + len(
            self.barrier_stream
        )

    def all_streams(self) -> List[Tuple[ImplTag, Tuple[Event, ...]]]:
        pairs = list(self.value_streams.items())
        pairs.append((self.barrier_itag, self.barrier_stream))
        return pairs


def value_barrier_workload(
    *,
    value_tag,
    barrier_tag,
    n_value_streams: int,
    values_per_barrier: int,
    n_barriers: int,
    value_rate_per_ms: float,
    value_payload_fn=None,
    barrier_payload_fn=None,
) -> ValueBarrierWorkload:
    """The §4.1 generator: each value stream carries
    ``values_per_barrier`` events between consecutive barriers."""
    period = 1.0 / value_rate_per_ms
    barrier_gap_ms = values_per_barrier * period
    values: Dict[ImplTag, Tuple[Event, ...]] = {}
    n_values = values_per_barrier * n_barriers
    # Fractional-period phase offsets: strictly inside (0, period), all
    # distinct, so values never collide with each other or with the
    # barriers (which sit on whole multiples of the period).
    denom = n_value_streams + 2
    for s in range(n_value_streams):
        itag = ImplTag(value_tag, f"v{s}")
        values[itag] = uniform_stream(
            itag,
            rate_per_ms=value_rate_per_ms,
            n_events=n_values,
            offset=(s + 1) * period / denom,
            payload_fn=value_payload_fn or (lambda i: 1),
        )
    bitag = ImplTag(barrier_tag, "b")
    barriers = tuple(
        Event(
            barrier_tag,
            "b",
            1.0 + k * barrier_gap_ms,
            (barrier_payload_fn or (lambda i: i))(k),
        )
        for k in range(1, n_barriers + 1)
    )
    return ValueBarrierWorkload(values, barriers, bitag)


@dataclass(frozen=True)
class PageViewWorkload:
    """Views (parallel streams, skewed to hot pages) + per-page updates."""

    view_streams: Dict[ImplTag, Tuple[Event, ...]]  # itag -> events
    update_streams: Dict[ImplTag, Tuple[Event, ...]]
    pages: Tuple[int, ...]

    @property
    def total_events(self) -> int:
        return sum(len(v) for v in self.view_streams.values()) + sum(
            len(v) for v in self.update_streams.values()
        )

    def all_streams(self) -> List[Tuple[ImplTag, Tuple[Event, ...]]]:
        return list(self.view_streams.items()) + list(self.update_streams.items())


def pageview_workload(
    *,
    view_tag_fn,
    update_tag_fn,
    n_pages: int,
    n_view_streams: int,
    views_per_update: int,
    n_updates_per_page: int,
    view_rate_per_ms: float,
) -> PageViewWorkload:
    """Views distributed over ``n_pages`` hot pages round-robin across
    ``n_view_streams`` parallel sources (paper: two hot pages get all
    the views), plus one update stream per page."""
    period = 1.0 / view_rate_per_ms
    views: Dict[ImplTag, Tuple[Event, ...]] = {}
    n_views = views_per_update * n_updates_per_page
    denom = n_view_streams + n_pages + 2
    for s in range(n_view_streams):
        page = s % n_pages
        itag = ImplTag(view_tag_fn(page), f"pv{s}")
        views[itag] = uniform_stream(
            itag,
            rate_per_ms=view_rate_per_ms,
            n_events=n_views,
            offset=(s + 1) * period / denom,
            payload_fn=lambda i: None,
        )
    update_gap = views_per_update * period
    updates: Dict[ImplTag, Tuple[Event, ...]] = {}
    for page in range(n_pages):
        itag = ImplTag(update_tag_fn(page), f"up{page}")
        updates[itag] = tuple(
            Event(
                itag.tag,
                itag.stream,
                1.0 + k * update_gap
                + (n_view_streams + page + 1) * period / denom,
                10_000 + k,  # new zip code
            )
            for k in range(1, n_updates_per_page + 1)
        )
    return PageViewWorkload(views, updates, tuple(range(n_pages)))

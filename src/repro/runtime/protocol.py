"""Substrate-independent synchronization-plan protocol (paper §3.4).

The join/fork worker state machine — selective-reordering mailbox,
join-request fan-out, fork-state fan-in, heartbeat relay — is the same
whether workers are simulated actors, OS threads, or OS processes.
This module holds the protocol once so every concrete runtime is just
transport plumbing around :class:`WorkerCore`:

* :mod:`repro.runtime.runtime` — one simulated actor per worker; the
  adapter adds only the virtual clock and the network/CPU cost model;
* :mod:`repro.runtime.process` — one worker-loop body for the real
  substrates: an OS process per worker over batched channels (escaping
  the GIL for real parallelism), node agents over TCP
  (:mod:`repro.runtime.cluster`), or every worker on the caller's
  thread from one run queue (:mod:`repro.runtime.threaded`).

A ``WorkerCore`` is driven by ``handle(msg)`` calls and talks to the
outside world through two injected callables:

* ``post(dst, msg)`` — send a protocol message to another worker;
* ``sink`` — an :class:`OutputSink` receiving outputs and counters.

Both are called from the worker's own execution context only: every
worker owns a private sink, and ships it once, at the end.

Every substrate reports one execution attempt as the same
:class:`AttemptOutcome`.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import attrgetter
from time import perf_counter as _perf
from time import time as _wall
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import RuntimeFault
from ..core.events import Event, Heartbeat, ImplTag
from ..core.program import DGSProgram
from ..plans.plan import PlanNode, SyncPlan
from .checkpoint import Checkpoint, CheckpointPredicate
from .faults import CrashRecord, WorkerFaultView
from .mailbox import NEG_INF_KEY, Buffered, Mailbox
from .messages import (
    EventMsg,
    EventRun,
    ForkStateMsg,
    HeartbeatMsg,
    JoinRequest,
    JoinResponse,
)
from .wire import MAX_RUN, event_runs

PostFn = Callable[[str, Any], None]

_NEG_INF = NEG_INF_KEY[0]

#: Sentinel for "start from the program's init()"; a real initial state
#: (a restored checkpoint) may legitimately be None-like, so restarts
#: cannot overload None.
INIT_STATE = object()


class RunStatsMixin:
    """Derived statistics shared by every substrate's result type
    (expects ``outputs``, ``events_in`` and ``wall_s`` attributes).

    Output multisets are the cross-backend equivalence currency
    (Theorem 2.4: determinism up to output reordering), so the
    normalization must be identical everywhere — keep it here only.
    """

    def output_multiset(self) -> Counter:
        return Counter(map(repr, self.outputs))

    @property
    def throughput_events_per_s(self) -> float:
        return self.events_in / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class AttemptOutcome(RunStatsMixin):
    """One execution attempt, the same record on every substrate.

    A crashed or quiesced attempt *returns* (``crashes`` non-empty /
    ``quiesce`` set, the output log truncated at whatever had been
    processed) rather than raising — deciding whether to recover or
    migrate is the driver's job (:mod:`repro.runtime.reconfigure`),
    not the substrate's."""

    outputs: List[Any] = field(default_factory=list)
    #: (order_key, value) log, populated only when record_keys is set.
    keyed_outputs: List[Tuple[tuple, Any]] = field(default_factory=list)
    checkpoints: List[Checkpoint] = field(default_factory=list)
    crashes: List[CrashRecord] = field(default_factory=list)
    events_in: int = 0
    events_processed: int = 0
    joins: int = 0
    wall_s: float = 0.0
    #: QuiesceRecord when the root stopped at a reconfiguration point.
    quiesce: Any = None
    #: The attempt's RunMetrics when the metrics plane was on (crashed
    #: and quiesced attempts report too — fault-path latency/backlog is
    #: exactly what the plane exists to see).  Each attempt carries its
    #: own latency epoch (stamped at that attempt's producer release),
    #: so a replayed event's recorded latency is its true recovery
    #: delay: restart to re-commit.
    metrics: Any = None
    #: Deployment facts of the real substrates ("" / 0 on the sim): the
    #: data plane and the batch policy ("" on the in-process substrate),
    #: the worker count, and the node-agent count of a cluster
    #: deployment (0 otherwise).
    transport: str = ""
    batch: str = ""
    n_workers: int = 0
    nodes: int = 0


class OutputSink:
    """Collects one execution's outputs and protocol counters.

    A plain in-memory accumulator, one per worker (the sim's subclass
    stamps outputs with virtual time).

    With ``record_keys=True`` every output is additionally logged as a
    ``(order_key, value)`` pair and root-join checkpoints are kept.
    The restart driver needs both: after a crash it commits
    exactly the outputs at or below the restored checkpoint's key and
    replays the rest (exactly-once output delivery, with the in-memory
    log standing in for a durable one).
    """

    __slots__ = (
        "outputs",
        "keyed_outputs",
        "checkpoints",
        "events_processed",
        "joins",
        "record_keys",
    )

    def __init__(self, record_keys: bool = False) -> None:
        self.outputs: List[Any] = []
        self.keyed_outputs: List[Tuple[tuple, Any]] = []
        self.checkpoints: List[Checkpoint] = []
        self.events_processed = 0
        self.joins = 0
        self.record_keys = record_keys

    def emit(self, outs: Sequence[Any], key: Optional[tuple] = None) -> None:
        if outs:
            self.outputs.extend(outs)
            if self.record_keys:
                self.keyed_outputs.extend((key, o) for o in outs)

    def checkpoint(self, ckpt: Checkpoint) -> None:
        self.checkpoints.append(ckpt)

    def drop_through(self, key: tuple) -> None:
        """Forget the outputs logged at or below ``key`` and the
        checkpoints taken there: the prefix a long-lived attempt's
        driver has committed (needs ``record_keys``)."""
        self.keyed_outputs = [kv for kv in self.keyed_outputs if kv[0] > key]
        self.outputs = [v for _, v in self.keyed_outputs]
        self.checkpoints = [c for c in self.checkpoints if c.key > key]

    def count_event(self) -> None:
        self.events_processed += 1

    def count_events(self, n: int) -> None:
        """Batch counter for the vectorized run path."""
        self.events_processed += n

    def count_join(self) -> None:
        self.joins += 1


class WorkerCore:
    """One plan worker's protocol state machine, substrate-free.

    Events and join requests pass through the selective-reordering
    mailbox; a synchronizing event at an internal node triggers a join
    request to both children, the joined state is updated and forked
    back down; leaves answer join requests by surrendering their state
    and block ("absorbed") until the fork returns it; an internal node
    answering its parent joins its own children first and re-forks on
    restore.  Heartbeats are relayed down the tree, but only for tags
    with nothing released-but-undispatched (a pending synchronizing
    event could still produce a join request with a smaller key than
    the relayed frontier).  The substrate installs a leaf's share of
    the initial state (``state`` + ``has_state``) before the first
    message.
    """

    def __init__(
        self,
        node: PlanNode,
        plan: SyncPlan,
        program: DGSProgram,
        post: PostFn,
        sink: OutputSink,
        *,
        checkpoint_predicate: Optional[CheckpointPredicate] = None,
        faults: Optional[WorkerFaultView] = None,
        reconfig: Optional[Any] = None,
        flush_hint: Optional[Callable[[], None]] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.node = node
        self.plan = plan
        self.program = program
        self.post = post
        self.sink = sink
        self.checkpoint_predicate = checkpoint_predicate
        self.faults = faults
        #: Called once at the end of every ``handle`` that posted
        #: join-critical messages (join requests, join responses,
        #: forked states).  Substrates with batched channels pass their
        #: flush here so synchronization traffic never waits out a
        #: batch window — joins block the whole subtree, so their
        #: latency is the protocol's critical path.  Once per
        #: ``handle``, not once per post: a fork and the next join's
        #: request to the same child then share a frame and a wake-up,
        #: as do the heartbeats relayed behind them.  Substrates with
        #: unbatched channels leave it None.
        self.flush_hint = flush_hint
        self._flush_due = False
        #: A RootReconfigView (repro.runtime.quiesce) when this worker
        #: is the root of an elastically-reconfigurable run; its
        #: maybe_quiesce hook may raise QuiesceSignal at a root join.
        self.reconfig = reconfig
        #: A WorkerMetrics (repro.runtime.metrics) when the metrics
        #: plane is on, else None.  Every hot-path hook below guards on
        #: it, so the disabled cost is one ``is None`` check.
        self.metrics = metrics
        self._join_t0 = 0.0

        ancestors = plan.ancestors_of(node.id)
        known = set(node.itags)
        for anc in ancestors:
            known |= plan.node(anc).itags
        self.mailbox = Mailbox(known, program.depends)
        self.is_leaf = node.is_leaf
        st = program.state_type(node.state_type)
        self.update = st.update
        self.update_batch = getattr(st, "update_batch", None)
        if not self.is_leaf:
            left, right = node.children
            self.join_fn = program.join_for(left.state_type, right.state_type, node.state_type)
            self.fork_fn = program.fork_for(node.state_type, left.state_type, right.state_type)
            tags_l = {t.tag for t in plan.subtree_itags(left.id)}
            tags_r = {t.tag for t in plan.subtree_itags(right.id)}
            self.pred_left = program.true_pred().restrict(tags_l)
            self.pred_right = program.true_pred().restrict(tags_r)
            self.children = (left.id, right.id)
        parent = plan.parent_of(node.id)
        self.parent_id = parent.id if parent else None

        self.state: Any = None
        self.has_state = False
        self._checkpoints_taken = 0
        self.pending: Deque[Buffered] = deque()
        self.blocked = False
        self._join_seq = 0
        self._current: Optional[Tuple[Tuple[str, int], Any, Dict[str, Any]]] = None
        self._absorb_restore: Optional[Tuple[str, int]] = None
        self._last_relayed: Dict[ImplTag, Any] = {}
        self._inflight_tags: Dict[ImplTag, int] = {}

    # -- entry point -----------------------------------------------------
    def handle(self, msg: Any) -> None:
        if type(msg) is EventRun:
            self._enqueue(self.mailbox.insert_run(msg))
        elif isinstance(msg, EventMsg):
            self._enqueue(self.mailbox.insert(msg.event.itag, msg.event.order_key, msg))
        elif isinstance(msg, HeartbeatMsg):
            if self.faults is not None and self.faults.should_drop_heartbeat(msg.key):
                return
            self._enqueue(self.mailbox.advance(msg.itag, msg.key))
        elif isinstance(msg, JoinRequest):
            self._enqueue(self.mailbox.insert(msg.itag, msg.key, msg))
        elif isinstance(msg, JoinResponse):
            self._on_join_response(msg)
        elif isinstance(msg, ForkStateMsg):
            self._on_fork_state(msg)
        else:  # pragma: no cover - defensive
            raise RuntimeFault(f"unexpected message {msg!r}")
        self._drain()
        self._relay_frontiers()
        if self._flush_due:
            self._flush_due = False
            if self.flush_hint is not None:
                self.flush_hint()

    def unprocessed(self) -> int:
        """Items still buffered or pending (event-level: a columnar run
        of ``n`` counts ``n``) — must be 0 after a drain."""
        n = self.mailbox.buffered_count()
        for b in self.pending:
            n += len(b.item) if type(b.item) is EventRun else 1
        return n

    def protocol_state(self) -> str:
        """Where this worker stands in the join/fork protocol: blocked,
        absorbed (a leaf whose state is up at a join, an internal node
        awaiting the fork back), and its outstanding join's request id
        and order key."""
        absorbed = not self.has_state if self.is_leaf else self._absorb_restore is not None
        join = None
        if self._current is not None:
            req_id, (kind, what), _states = self._current
            join = f"{req_id} at key {what.order_key if kind == 'event' else what.key}"
        return f"blocked={self.blocked}, absorbed={absorbed}, outstanding join={join}"

    def stall_state(self) -> str:
        """:meth:`protocol_state` plus what the worker still holds: the
        released-but-undispatched count, the per-tag buffered counts
        and every tag's timer (a tag whose timer stops short of a
        dependant's buffered key is what the dependant waits on)."""
        mb = self.mailbox
        tags = sorted(mb.itags, key=repr)
        buffered = {t: mb.buffered_count(t) for t in tags if not mb.buffer_empty(t)}
        timers = {t: mb.timer(t) for t in tags}
        return (
            f"{self.protocol_state()}, {len(self.pending)} released but "
            f"undispatched; buffered {buffered}; timers {timers}"
        )

    def _violation(self, what: str, msg: Any) -> RuntimeFault:
        return RuntimeFault(
            f"worker {self.node.id}: {what} ({self.protocol_state()}); "
            f"offending message: {msg!r}"
        )

    # -- protocol --------------------------------------------------------
    def _enqueue(self, released: List[Buffered]) -> None:
        for b in released:
            item = b.item
            n = len(item) if type(item) is EventRun else 1
            self._inflight_tags[b.itag] = self._inflight_tags.get(b.itag, 0) + n
        self.pending.extend(released)

    def _drain(self) -> None:
        if self.metrics is not None:
            self.metrics.note_backlog(len(self.pending))
        while self.pending and not self.blocked:
            buffered = self.pending.popleft()
            item = buffered.item
            if type(item) is EventRun:
                if self.is_leaf and self.faults is None:
                    self._inflight_tags[buffered.itag] -= len(item)
                    self._process_run(item)
                else:
                    # Fallback boundary: fault hooks need the per-event
                    # crash seam, and internal nodes join per event.
                    # Expand in place; the per-event items below repay
                    # the run's inflight count one by one.
                    self.pending.extendleft(
                        Buffered(buffered.itag, k, EventMsg(e))
                        for k, e in zip(
                            reversed(item.keys()), reversed(item.events())
                        )
                    )
                continue
            self._inflight_tags[buffered.itag] -= 1
            if isinstance(item, EventMsg):
                self._process_event(item.event)
            else:
                self._process_join_request(item)

    def _process_event(self, event: Event) -> None:
        if self.faults is not None:
            # May raise WorkerCrash (fail-stop at the event boundary:
            # nothing of this event has been applied yet).
            self.faults.note_event(event.ts)
        if self.is_leaf:
            if not self.has_state:
                raise self._violation("event while absorbed", event)
            self.state = self._apply(self.state, event)
        else:
            self._start_join(("event", event))

    def _apply(self, state: Any, event: Event) -> Any:
        """Run one event's ``update`` — the only place an event is
        counted, at a leaf and after a join alike."""
        self.sink.count_event()
        state, outs = self.update(state, event)
        self.sink.emit(outs, key=event.order_key)
        if self.metrics is not None:
            self.metrics.observe_event_latency(_wall(), event.ts)
        return state

    def _process_run(self, run: EventRun) -> None:
        """Vectorized leaf fast path: apply a whole released run in one
        dispatch.  Only reached when the node is a leaf and no fault
        view is armed (see ``_drain``); with an ``update_batch`` on the
        state type the operator sees the packed columns directly,
        otherwise we fold ``update`` over the run without going back
        through the mailbox machinery."""
        if not self.has_state:
            raise self._violation("event while absorbed", run)
        sink = self.sink
        n = len(run)
        sink.count_events(n)
        ub = self.update_batch
        if ub is not None:
            self.state, indexed = ub(self.state, run)
            if indexed:
                if sink.record_keys:
                    keys = run.keys()
                    for i, out in indexed:
                        sink.emit((out,), key=keys[i])
                else:
                    sink.emit([out for _, out in indexed])
        else:
            update = self.update
            state = self.state
            if sink.record_keys:
                keys = run.keys()
                for i, e in enumerate(run.events()):
                    state, outs = update(state, e)
                    if outs:
                        sink.emit(outs, key=keys[i])
            else:
                for e in run.events():
                    state, outs = update(state, e)
                    if outs:
                        sink.emit(outs)
            self.state = state
        if self.metrics is not None:
            self.metrics.observe_run_latency(_wall(), run.ts)

    def _process_join_request(self, req: JoinRequest) -> None:
        if self.is_leaf:
            if not self.has_state:
                raise self._violation("double absorb", req)
            self.post(
                req.reply_to, JoinResponse(req.req_id, req.side, self.state, self.unprocessed())
            )
            self.state = None
            self.has_state = False
            self.blocked = True
            self._flush_due = True
        else:
            self._start_join(("parent", req))

    def _start_join(self, ctx: Tuple[str, Any]) -> None:
        self._join_seq += 1
        req_id = (self.node.id, self._join_seq)
        itag = ctx[1].itag
        key = ctx[1].order_key if ctx[0] == "event" else ctx[1].key
        for side, child in zip(("left", "right"), self.children):
            self.post(child, JoinRequest(req_id, itag, key, self.node.id, side))
        self.blocked = True
        self._current = (req_id, ctx, {})
        if self.metrics is not None:
            self._join_t0 = _perf()
        self._flush_due = True

    def _on_join_response(self, msg: JoinResponse) -> None:
        if self._current is None or self._current[0] != msg.req_id:
            raise self._violation("unexpected join response", msg)
        req_id, ctx, states = self._current
        states[msg.side] = msg
        if len(states) < 2:
            return
        joined = self.join_fn(states["left"].state, states["right"].state)
        subtree_backlog = states["left"].backlog + states["right"].backlog
        self.sink.count_join()
        self._current = None
        m = self.metrics
        if m is not None:
            m.join_rtt.observe(_perf() - self._join_t0)
        if ctx[0] == "event":
            event: Event = ctx[1]
            joined = self._apply(joined, event)
            if (
                self.parent_id is None
                and self.checkpoint_predicate is not None
                and self.checkpoint_predicate(event, self._checkpoints_taken)
            ):
                # Appendix D.2: the root's joined state *is* a
                # consistent snapshot as of the triggering event.
                self._checkpoints_taken += 1
                self.sink.checkpoint(
                    Checkpoint(event.order_key, event.ts, joined)
                )
            if self.parent_id is None and self.reconfig is not None:
                # Elastic reconfiguration hook: the joined state is a
                # consistent snapshot, and the summed backlogs are the
                # cluster-wide queue depth at this instant.  When the
                # metrics plane is on, also hand over its backlog
                # high-water since the last join — the AutoScaler's
                # watermarks read the windowed peak, not just the
                # instant the join happened to sample.  May raise
                # QuiesceSignal (the substrate stops the attempt and
                # the driver migrates; the fork below never happens).
                self.reconfig.maybe_quiesce(
                    event,
                    subtree_backlog + self.unprocessed(),
                    joined,
                    backlog_hw=m.take_backlog_window() if m is not None else 0,
                )
            self._fork_down(req_id, joined)
            self.blocked = False
        else:
            req: JoinRequest = ctx[1]
            self.post(
                req.reply_to,
                JoinResponse(
                    req.req_id, req.side, joined, subtree_backlog + self.unprocessed()
                ),
            )
            self._absorb_restore = req_id
            self._flush_due = True

    def _on_fork_state(self, msg: ForkStateMsg) -> None:
        if self.is_leaf:
            if self.has_state:
                raise self._violation("fork state without absorption", msg)
            self.state = msg.state
            self.has_state = True
        else:
            sub = self._absorb_restore
            if sub is None:
                raise self._violation("fork state without absorption", msg)
            self._absorb_restore = None
            self._fork_down(sub, msg.state)
        self.blocked = False

    def _fork_down(self, req_id: Tuple[str, int], state: Any) -> None:
        s_l, s_r = self.fork_fn(state, self.pred_left, self.pred_right)
        for child, s in zip(self.children, (s_l, s_r)):
            self.post(child, ForkStateMsg(req_id, s))
        self._flush_due = True

    def _relay_frontiers(self) -> None:
        if self.is_leaf:
            return
        for itag in self.mailbox.itags:
            if self._inflight_tags.get(itag, 0) > 0:
                continue
            frontier = self.mailbox.frontier(itag)
            if frontier is None or frontier[0] == _NEG_INF:
                continue
            last = self._last_relayed.get(itag)
            if last is not None and last >= frontier:
                continue
            self._last_relayed[itag] = frontier
            for child in self.children:
                self.post(child, HeartbeatMsg(itag, frontier))


# ---------------------------------------------------------------------------
# Shared setup helpers
# ---------------------------------------------------------------------------

def initial_leaf_states(
    plan: SyncPlan, program: DGSProgram, root_state: Any = INIT_STATE
) -> Dict[str, Any]:
    """Fork the root state down the plan tree and return each leaf's
    share.  ``root_state`` defaults to ``init()``; crash recovery
    passes a restored checkpoint state instead (restarting the cluster
    from the snapshot).

    C2-consistency makes the forked distribution equivalent to the
    sequential state; running the forks in the coordinating parent
    means worker substrates only ever receive ready-made states.
    """
    states: Dict[str, Any] = {}

    def rec(node: PlanNode, state: Any) -> None:
        if node.is_leaf:
            states[node.id] = state
            return
        left, right = node.children
        fork = program.fork_for(node.state_type, left.state_type, right.state_type)
        pred_l = program.true_pred().restrict(
            {t.tag for t in plan.subtree_itags(left.id)}
        )
        pred_r = program.true_pred().restrict(
            {t.tag for t in plan.subtree_itags(right.id)}
        )
        s_l, s_r = fork(state, pred_l, pred_r)
        rec(left, s_l)
        rec(right, s_r)

    rec(plan.root, program.init() if root_state is INIT_STATE else root_state)
    return states


def end_timestamp(streams: Sequence[Any]) -> float:
    """Timestamp of the closing heartbeat: one past the last event
    (streams are timestamp-ordered, so each one's last event is its
    latest)."""
    return max((s.events[-1].ts for s in streams if s.events), default=0.0) + 1.0


def start_timestamp(streams: Sequence[Any]) -> float:
    """Timestamp of the attempt's earliest event (0.0 without events):
    where its heartbeat grids and its open-loop pacing begin.  Streams
    are timestamp-ordered, so each one's first event is its earliest."""
    return min((s.events[0].ts for s in streams if s.events), default=0.0)


def message_ts(msg: Any) -> float:
    """The timestamp a producer message (event or heartbeat) is due."""
    return msg.event.ts if isinstance(msg, EventMsg) else msg.key[0]


def _heartbeat_grid(
    interval: Optional[float], start_ts: float, end_ts: float
) -> Iterator[float]:
    """One stream's heartbeat times: the multiples of ``interval`` from
    the last one at or before ``start_ts`` up to ``end_ts``
    (exclusive), then ``end_ts`` itself — the closing heartbeat, the
    only one of a stream without an interval."""
    if interval:
        t = max(interval, start_ts // interval * interval)
        while t < end_ts:
            yield t
            t += interval
    yield end_ts


def _heartbeat_key_tail(itag: ImplTag) -> tuple:
    """What follows the timestamp in every heartbeat key of ``itag``."""
    return Heartbeat(itag.tag, itag.stream, 0).order_key[1:]


def producer_messages(stream: Any, end_ts: float, start_ts: float = 0.0) -> List[Any]:
    """One input stream's wire traffic, in order-key order.

    Interleaves the stream's events with periodic heartbeats plus the
    closing heartbeat at ``end_ts`` that lets every mailbox drain; this
    is the producer behaviour of every substrate (the simulated one
    injects it at each message's timestamp, the paced pump releases it
    against the wall clock, and the closed-loop pump posts a
    subsequence of it — see :func:`pump_producers`).  The heartbeat
    grid — multiples of the stream's interval — starts at the last grid
    point at or before ``start_ts`` (:func:`start_timestamp`): an
    attempt whose events begin at T (a service epoch, a recovery
    suffix) owes nobody the T/interval heartbeats of the dead time
    before it.  A grid point that coincides with an event's timestamp
    is not sent (the event itself carries that progress).

    Events and grid are both timestamp-ordered, so they merge by
    position.
    """
    events = stream.events
    itag = stream.itag
    key_tail = _heartbeat_key_tail(itag)
    times = [e.ts for e in events]
    msgs: List[Any] = []
    i = 0
    for t in _heartbeat_grid(stream.heartbeat_interval, start_ts, end_ts):
        j = bisect_left(times, t, i)
        msgs.extend(map(EventMsg, events[i:j]))
        i = j
        if i == len(times) or times[i] != t:
            msgs.append(HeartbeatMsg(itag, (t, *key_tail)))
    msgs.extend(map(EventMsg, events[i:]))
    return msgs


def pump_producers(
    plan: SyncPlan,
    streams: Sequence[Any],
    post: PostFn,
    *,
    pace: Optional[float] = None,
    before_sleep: Optional[Callable[[], None]] = None,
) -> None:
    """Post every stream's producer traffic to the worker owning it.

    Closed loop (``pace=None``): as fast as ``post`` accepts, in
    chunked rounds over all streams (:func:`_pump_closed`).  Open
    loop: the streams' :func:`producer_messages` merge into one
    schedule, stable on ``(ts, stream index, seq)`` so per-stream FIFO
    (a mailbox invariant) holds, replayed against the wall clock at
    ``pace`` timestamp units per second from the first event on;
    ``before_sleep`` lets a batching substrate flush before it waits.
    """
    start_ts, end_ts = start_timestamp(streams), end_timestamp(streams)

    if pace is None:
        _pump_closed(plan, streams, post, start_ts, end_ts)
        return
    sched = [
        (message_ts(msg), idx, seq, plan.owner_of(stream.itag).id, msg)
        for idx, stream in enumerate(streams)
        for seq, msg in enumerate(producer_messages(stream, end_ts, start_ts))
    ]
    sched.sort(key=lambda t: t[:3])
    t0 = time.monotonic()
    for ts, _idx, _seq, owner, msg in sched:
        delay = t0 + (ts - start_ts) / pace - time.monotonic()
        if delay > 0:
            if before_sleep is not None:
                before_sleep()
            time.sleep(delay)
        post(owner, msg)


_event_ts = attrgetter("ts")


class _Feed:
    """One stream's cursor in the closed-loop pump: the next event to
    post, the next heartbeat-grid point not yet behind a cut, and the
    timestamp of the last message posted."""

    __slots__ = ("events", "itag", "owner", "key_tail", "pos", "grid", "next_hb", "sent")

    def __init__(self, stream: Any, owner: str, start_ts: float, end_ts: float) -> None:
        self.events = stream.events
        self.itag = stream.itag
        self.owner = owner
        self.key_tail = _heartbeat_key_tail(stream.itag)
        self.pos = 0
        self.grid = _heartbeat_grid(stream.heartbeat_interval, start_ts, end_ts)
        self.next_hb: Optional[float] = next(self.grid)
        self.sent = float("-inf")


def _pump_closed(
    plan: SyncPlan, streams: Sequence[Any], post: PostFn, start_ts: float, end_ts: float
) -> None:
    """The closed-loop producer pump: chunked, run-native, interleaved.

    Each round picks a timestamp ``cut`` — the earliest point at which
    some unfinished stream has :data:`~repro.runtime.wire.MAX_RUN`
    events (or its last one) to post — and then, for every stream in
    turn, posts that stream's events with ``ts <= cut`` as columnar
    runs built straight from the ``stream.events`` slice
    (:func:`~repro.runtime.wire.event_runs`; what is not run-eligible
    travels as ``EventMsg``, order preserved) followed by **at most
    one** heartbeat: the last grid point ``<= cut``, if it lies after
    the stream's last posted message.  The round after the last event
    has ``cut = end_ts``, whose grid point is the closing heartbeat.
    So every leaf has work from the first chunk, no stream runs more
    than one chunk ahead of another, and a round costs one heartbeat
    per stream, not one per grid point.

    Safety: the messages posted for a stream are a *subsequence* of
    ``producer_messages(stream, end_ts, start_ts)`` — the same events
    in the same order, heartbeat keys from the same grid — and a grid
    heartbeat is left out only when a later message of the same stream
    follows within the same round.  ``Mailbox.insert``/``insert_run``/
    ``advance`` each move the tag's timer to the message's key, so the
    mailbox state after that later message is what the full sequence
    would have left; the dropped heartbeat could only have released
    dependants a few posts earlier.

    An event whose implementation tag is not its stream's raises
    :class:`RuntimeFault`, as on the simulated substrate.
    """
    feeds = [
        _Feed(s, plan.owner_of(s.itag).id, start_ts, end_ts) for s in streams
    ]
    while True:
        ends = [
            f.events[min(f.pos + MAX_RUN, len(f.events)) - 1].ts
            for f in feeds
            if f.pos < len(f.events)
        ]
        cut = min(ends) if ends else end_ts
        for f in feeds:
            events, itag = f.events, f.itag
            hi = bisect_right(
                events, cut, f.pos, min(f.pos + MAX_RUN, len(events)), key=_event_ts
            )
            if hi > f.pos:
                for item in event_runs(events[f.pos : hi]):
                    first = item.event(0) if type(item) is EventRun else item.event
                    if first.tag != itag.tag or first.stream != itag.stream:
                        raise RuntimeFault(
                            f"event {first!r} does not belong to stream {itag!r}"
                        )
                    post(f.owner, item)
                f.pos = hi
                f.sent = events[hi - 1].ts
            hb = None
            while f.next_hb is not None and f.next_hb <= cut:
                hb = f.next_hb
                f.next_hb = next(f.grid, None)
            if hb is not None and hb > f.sent:
                post(f.owner, HeartbeatMsg(itag, (hb, *f.key_tail)))
                f.sent = hb
        if not ends:
            return

"""The serving run log, and the one place serving runs feed their sinks.

The schedulers only *record* what happened while they simulate; this
module turns that record into every observability view afterwards:
:class:`~repro.telemetry.timeseries.TimeSeries`,
:class:`~repro.telemetry.querytrace.QueryTraceCapture`, tracer spans
and registry metrics. Because the simulation loops never call a sink,
observation cannot feed back into a schedule, and because every sink
reads the same log, the sinks cannot disagree with each other or with
the result.

A resilient run's log is a list of tuples, in simulation order, each
tagged by its first element:

* ``(SHED, qid, at)`` — a query shed before dispatch;
* ``(BATCH, size, batch_close, primary, hedge, hedge_won)`` — one
  dispatched batch: its primary :class:`Leg`, the hedge :class:`Leg`
  (``None`` when no duplicate was issued), and whether the hedge's
  response won;
* ``(ATTEMPT, qid, attempt, ready, outcome, end, tripped)`` — one
  member of the preceding batch: the attempt's outcome (``completed``,
  ``crash``, ``drop_response`` or ``timeout``), when it ended, and
  whether its lost response tripped the winner's breaker;
* ``(RETRY, qid, at)`` / ``(DROP, qid, at)`` — a failed attempt
  re-queued, or the query given up on;
* ``(SETTLE, qid, latency, completion)`` — a query completed.

:func:`replay` walks the log once and makes each sink's calls in the
order the simulation produced the events. Sink output depends on call
order (track creation, window eviction, float summation), so the order
is part of the contract; the committed baselines and golden CLI
outputs pin it byte for byte.

A plain :class:`~repro.runtime.scheduler.QueryScheduler` run logs one
``(start, first qid, size)`` row per batch, only while telemetry is
enabled, and :func:`replay_plain` turns the rows into its
``scheduler.*`` registry metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.telemetry.chrome_trace import (
    REPLICA_LANE_FAULT,
    REPLICA_PID_BASE,
    SHARD_PID_BASE,
)
from repro.telemetry.querytrace import AttemptEvent, HedgeLeg, ServiceParts

if TYPE_CHECKING:
    from repro.distserve.gather import GatherOutcome
    from repro.resilience.engine import (
        ResilientScheduler,
        ResilientScheduleResult,
    )
    from repro.resilience.faults import FaultPlan
    from repro.resilience.server import BatchFaults
    from repro.runtime.scheduler import QueryScheduler

__all__ = [
    "SHED", "BATCH", "ATTEMPT", "RETRY", "DROP", "SETTLE",
    "Leg", "emit_fault_windows", "replay", "replay_plain",
]

SHED, BATCH, ATTEMPT, RETRY, DROP, SETTLE = range(6)


class Leg(NamedTuple):
    """One dispatch of a batch to one replica: the primary or its hedge."""

    server: int  # replica index, in fleet order
    lane: int  # REPLICA_LANE_* tid of the replica process
    start: float
    service: float  # scheduled service seconds, gather included
    crash_at: Optional[float]  # in-flight crash instant, else None
    tripped: bool  # the crash tripped the replica's breaker
    degraded: bool
    faults: "BatchFaults"
    gather: Optional["GatherOutcome"]

    @property
    def finish(self) -> float:
        return self.start + self.service

    @property
    def end(self) -> float:
        """When the leg stopped occupying its replica."""
        return self.crash_at if self.crash_at is not None else self.finish

    def parts(self) -> ServiceParts:
        f, g = self.faults, self.gather
        return ServiceParts(
            base_s=f.base_s,
            pcie_extra_s=f.pcie_extra_s,
            slowdown_extra_s=f.slowdown_extra_s,
            straggler_extra_s=f.straggler_extra_s,
            gather_s=g.seconds if g is not None else 0.0,
            gather_pieces=g.pieces if g is not None else (),
        )


# -- fault windows ------------------------------------------------------------


def emit_fault_windows(
    ts, tracer, plan: "FaultPlan", names: Sequence[str], shard: bool
) -> None:
    """Every window ``plan`` injects on ``names`` (replicas or shards).

    Each window adds its seconds to ``faults.window_active_s``, so the
    monitor can correlate tail excursions with faults even in windows
    no dispatched batch sampled, and marks the server's state track
    (a replica only while crashed; a shard crashed or degraded). The
    tracer gets one span per window on the server's fault lane.
    """
    pid_base = SHARD_PID_BASE if shard else REPLICA_PID_BASE
    track = "shard" if shard else "replica"
    for index, name in enumerate(names):
        faults = plan.for_server(name)
        for kind, windows in (
            ("slowdown", faults.slowdowns),
            ("crash", faults.crashes),
            ("pcie", faults.pcie),
        ):
            for w in windows:
                if ts is not None:
                    ts.count_interval(
                        "faults.window_active_s", w.start_s, w.end_s
                    )
                    if shard or kind == "crash":
                        ts.mark_state_interval(
                            f"{track}.{name}", w.start_s, w.end_s,
                            "crashed" if kind == "crash" else "degraded",
                        )
                if tracer is None:
                    continue
                if shard:
                    label = "network" if kind == "pcie" else kind
                elif kind == "slowdown":
                    label = f"slowdown x{w.multiplier:g}"
                elif kind == "pcie":
                    label = f"pcie x{w.bandwidth_scale:g}"
                else:
                    label = kind
                tracer.add_span(
                    f"{name}.{label}", w.start_s, w.end_s - w.start_s,
                    category="distserve.fault" if shard else "resilience.fault",
                    tid=REPLICA_LANE_FAULT, pid=pid_base + index, process=name,
                )


# -- the resilient engine -----------------------------------------------------


def _crash(ts, name: str, leg: Leg) -> None:
    ts.count("faults.crash", leg.crash_at)
    ts.mark_state(f"replica.{name}", leg.crash_at, "crashed")
    if leg.tripped:
        ts.mark_state(f"replica.{name}", leg.crash_at, "breaker_open")


def _batch_timeseries(
    ts, names: List[str], size: int, p: Leg, h: Optional[Leg]
) -> None:
    start = p.start
    faults = p.faults
    if faults.slowdown:
        ts.count("faults.slowdown", start)
    if faults.straggler:
        ts.count("faults.straggler", start)
    if faults.pcie:
        ts.count("faults.pcie", start)
    name = names[p.server]
    if p.crash_at is not None:
        _crash(ts, name, p)
    if h is not None:
        ts.count("hedges", h.start, size)
        if h.crash_at is not None:
            _crash(ts, names[h.server], h)
    end = p.end
    ts.count("batches", start)
    ts.sample("batch_occupancy", start, size)
    # Known quirk, kept for the pinned monitor output: this samples the
    # dispatched size, while the plain loop's scheduler.queue_depth
    # gauge counts the queries waiting at dispatch.
    ts.sample("queue_depth", start, size)
    ts.count_interval("busy_s", start, end)
    ts.count_interval(f"replica.{name}.busy_s", start, end)
    if p.crash_at is None:
        ts.mark_state(
            f"replica.{name}", start, "degraded" if p.degraded else "healthy"
        )
    g = p.gather
    if g is not None and g.fanout:
        ts.sample("distserve.fanout", start, g.fanout)
        ts.observe("distserve.gather_s", start, g.seconds)
        if g.hedged:
            ts.count("distserve.hedges", start, g.hedged)
        if g.imputed:
            ts.count("distserve.imputed_lookups", start, g.imputed)
        if g.cached:
            ts.count("distserve.cached_lookups", start, g.cached)
        if g.partial:
            ts.count("faults.partial_gather", start)
        if g.blocked:
            ts.count("faults.blocked_gather", start)


def _batch_spans(
    tracer, names: List[str], size: int, p: Leg, h: Optional[Leg]
) -> None:
    if h is not None and h.crash_at is None:
        tracer.add_span(
            f"{names[h.server]}.hedge", h.start, h.service,
            category="resilience.hedge", tid=h.lane,
            pid=REPLICA_PID_BASE + h.server, process=names[h.server],
            batch=size,
        )
    tracer.add_span(
        f"{names[p.server]}.batch", p.start, p.end - p.start,
        category="resilience.server", tid=p.lane,
        pid=REPLICA_PID_BASE + p.server, process=names[p.server],
        batch=size, degraded=p.degraded, crashed=p.crash_at is not None,
    )


def replay(
    scheduler: "ResilientScheduler",
    log: list,
    arrivals: np.ndarray,
    result: "ResilientScheduleResult",
) -> None:
    """Feed one resilient run's log into every sink it has attached."""
    ts = scheduler.timeseries
    qt = scheduler.querytrace
    tracer = telemetry.get_tracer() if telemetry.enabled() else None
    names = [r.name for r in scheduler.replicas]
    gather = scheduler.gather

    if ts is not None:
        ts.count_many("arrivals", arrivals)
    emit_fault_windows(ts, tracer, scheduler.fault_plan, names, shard=False)
    if gather is not None:
        emit_fault_windows(
            ts, tracer, gather.fault_plan, gather.layout.names, shard=True
        )
    if qt is not None:
        qt.begin_run(arrivals)

    # State of the batch whose member rows follow its BATCH row.
    p = hedge = None
    batch_close = completion = 0.0
    winner = ""
    parts = None
    hedge_won = False
    for row in log:
        tag = row[0]
        if tag == ATTEMPT:
            _, qid, attempt, ready, outcome, end, tripped = row
            if ts is not None and outcome == "drop_response":
                ts.count("faults.dropped_response", completion)
                if tripped:
                    ts.mark_state(
                        f"replica.{winner}", completion, "breaker_open"
                    )
            if qt is not None:
                qt.attempt(qid, AttemptEvent(
                    attempt=attempt,
                    ready=ready,
                    batch_close=batch_close,
                    start=p.start,
                    end=end,
                    outcome=outcome,
                    server=names[p.server],
                    server_index=p.server,
                    lane=p.lane,
                    parts=parts,
                    hedge=hedge,
                    hedge_won=hedge_won,
                ))
        elif tag == SETTLE:
            _, qid, latency, at = row
            if ts is not None:
                ts.count("completions", at)
                ts.observe("latency_s", at, latency)
            if qt is not None:
                qt.settle(qid, float(latency), at)
        elif tag == BATCH:
            _, size, batch_close, p, h, hedge_won = row
            won = h if hedge_won else p
            winner = names[won.server]
            completion = won.finish
            if ts is not None:
                _batch_timeseries(ts, names, size, p, h)
            if tracer is not None:
                _batch_spans(tracer, names, size, p, h)
            if qt is not None:
                parts = p.parts()
                # Only a hedge that served its batch joins the causal
                # chain; a crashed one shows in the counters alone.
                hedge = None
                if h is not None and h.crash_at is None:
                    hedge = HedgeLeg(
                        start=h.start,
                        server=names[h.server],
                        server_index=h.server,
                        parts=h.parts(),
                    )
        elif tag == RETRY:
            if ts is not None:
                ts.count("retries", row[2])
        elif tag == DROP:
            if ts is not None:
                ts.count("dropped", row[2])
            if qt is not None:
                qt.drop(row[1], row[2])
        else:  # SHED
            if ts is not None:
                ts.count("shed", row[2])
            if qt is not None:
                qt.shed(row[1], row[2])

    if tracer is not None:
        _record_metrics(scheduler, result)


_RESULT_COUNTERS = (
    "queries", "completed", "shed", "dropped", "retries", "timeouts",
    "hedges", "hedge_wins", "failovers", "degraded_queries", "breaker_trips",
)


def _record_metrics(
    scheduler: "ResilientScheduler", result: "ResilientScheduleResult"
) -> None:
    registry = telemetry.get_registry()
    primary = scheduler.replicas[0]
    labels = dict(
        model=primary.service_model.model,
        platform=primary.service_model.platform,
    )

    def bump(name: str, amount: float) -> None:
        if amount:
            registry.counter(name, **labels).inc(amount)

    registry.counter("resilience.runs", **labels).inc()
    for key in _RESULT_COUNTERS:
        bump(f"resilience.{key}", getattr(result, key))
    for key, value in result.fault_counts.items():
        bump(f"resilience.faults.{key}", value)
    for key, value in result.gather_counts.items():
        bump(f"distserve.{key}", value)
    if len(result.latencies_s):
        registry.histogram(
            "resilience.query_latency_s", exact_cap=0, **labels
        ).observe_many(result.latencies_s)


# -- the plain batching loop --------------------------------------------------


def replay_plain(
    scheduler: "QueryScheduler",
    log: list,
    arrivals: np.ndarray,
    latencies: np.ndarray,
) -> None:
    """Registry metrics of one plain run from its ``(start, first query,
    size)`` batch rows."""
    registry = telemetry.get_registry()
    model = scheduler.service_model
    labels = dict(model=model.model, platform=model.platform)
    queue_gauge = registry.gauge("scheduler.queue_depth", **labels)
    occupancy_hist = registry.histogram(
        "scheduler.batch_occupancy",
        min_value=1.0,
        max_value=float(max(scheduler.policy.max_batch, 2)),
        exact_cap=0,
        **labels,
    )
    latency_hist = registry.histogram(
        "scheduler.query_latency_s", exact_cap=0, **labels
    )
    registry.counter("scheduler.runs", **labels).inc()
    for start, i, batch in log:
        # Queue depth at dispatch: everything that has arrived by
        # `start` but not yet left with an earlier batch.
        waiting = int(np.searchsorted(arrivals, start, side="right")) - i
        queue_gauge.set(max(waiting, batch))
        occupancy_hist.observe(batch)
        latency_hist.observe_many(latencies[i:i + batch])
    registry.counter("scheduler.queries", **labels).inc(len(arrivals))
    registry.counter("scheduler.batches", **labels).inc(len(log))

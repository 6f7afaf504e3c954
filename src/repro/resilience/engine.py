"""Resilient serving engine: the fault-aware discrete-event scheduler.

Generalizes :class:`~repro.runtime.scheduler.QueryScheduler` from one
perfect server to a fleet of fault-prone replicas with the standard
resilience policies (retries, hedging, circuit-breaker failover,
SLA-aware shedding, graceful degradation) layered on the same dynamic
batching discipline.

**Equivalence contract:** with one replica, a null
:class:`~repro.resilience.faults.FaultPlan`, and an empty
:class:`~repro.resilience.policies.ResiliencePolicy`, the engine's
batch formation, float arithmetic, and arrival generation replicate the
plain scheduler's loop operation-for-operation, so results are
*bit-identical* (a tier-1 golden test pins this).

Accounting invariant (property-tested): every issued query ends in
exactly one of completed / shed / dropped, and each completed query
contributes exactly one latency sample — no matter how many times it
was retried or hedged.

Observation: the loop never calls a sink. It appends what happened to
one run log, which :mod:`repro.telemetry.servelog` replays into the
attached TimeSeries, query trace, tracer and metrics registry after the
simulation.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.resilience.faults import FaultPlan
from repro.resilience.policies import ResiliencePolicy
from repro.resilience.server import Replica, ServerState
from repro.runtime.scheduler import (
    BatchingPolicy,
    ScheduleResult,
    check_run_args,
)
from repro.telemetry import servelog
from repro.telemetry.chrome_trace import (
    REPLICA_LANE_HEDGE,
    REPLICA_LANE_RETRY,
    REPLICA_LANE_SERVE,
)

if TYPE_CHECKING:
    from repro.distserve.gather import ShardGatherModel
    from repro.telemetry import TimeSeries
    from repro.telemetry.querytrace import QueryTraceCapture

__all__ = ["ResilientScheduler", "ResilientScheduleResult"]


@dataclass
class ResilientScheduleResult(ScheduleResult):
    """Outcome of one resilient simulation.

    Extends :class:`~repro.runtime.scheduler.ScheduleResult`:
    ``latencies_s`` holds only *completed* queries (one sample each, in
    query order); ``queries`` remains the number issued.
    """

    completed: int = 0
    shed: int = 0
    dropped: int = 0
    retries: int = 0
    timeouts: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    failovers: int = 0
    degraded_queries: int = 0
    breaker_trips: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    replica_batches: Dict[str, int] = field(default_factory=dict)
    #: Sharded-gather counters (``repro.distserve``); empty when the
    #: scheduler runs without a gather model.
    gather_counts: Dict[str, float] = field(default_factory=dict)

    @property
    def goodput_qps(self) -> float:
        """Completed (not merely issued) queries per second."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def accounting_ok(self) -> bool:
        """The conservation law every policy combination must obey."""
        return (
            self.completed + self.shed + self.dropped == self.queries
            and len(self.latencies_s) == self.completed
        )

    def rate_scalars(self) -> Dict[str, float]:
        """Flat scalar view for run-ledger records and SLO rules.

        Rates are fractions of *issued* queries, so records taken at
        different query counts stay comparable.
        """
        issued = max(self.queries, 1)
        scalars = {
            "completed": float(self.completed),
            "shed": float(self.shed),
            "dropped": float(self.dropped),
            "shed_rate": self.shed / issued,
            "drop_rate": self.dropped / issued,
            "goodput_qps": self.goodput_qps,
            "retries": float(self.retries),
            "timeouts": float(self.timeouts),
            "hedges": float(self.hedges),
            "hedge_wins": float(self.hedge_wins),
            "failovers": float(self.failovers),
            "degraded_queries": float(self.degraded_queries),
            "breaker_trips": float(self.breaker_trips),
        }
        for key in sorted(self.fault_counts):
            scalars[f"faults.{key}"] = float(self.fault_counts[key])
        for key in sorted(self.gather_counts):
            scalars[f"distserve.{key}"] = float(self.gather_counts[key])
        gathers = self.gather_counts.get("gathers", 0)
        if gathers:
            scalars["distserve.mean_fanout"] = (
                self.gather_counts.get("fanout_rpcs", 0) / gathers
            )
            scalars["distserve.partial_gather_rate"] = (
                self.gather_counts.get("partial_gathers", 0) / gathers
            )
        return scalars


class _Outcome:
    COMPLETED = 0
    SHED = 1
    DROPPED = 2


class ResilientScheduler:
    """Discrete-event simulation of a replicated, fault-prone fleet.

    ``replicas`` are tried in order: the first is the primary, later
    entries are failover / hedge targets (heterogeneous platforms are
    the interesting case — e.g. a T4 primary with a Broadwell standby).
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        policy: BatchingPolicy,
        resilience: Optional[ResiliencePolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        seed: int = 2020,
        timeseries: Optional["TimeSeries"] = None,
        gather: Optional["ShardGatherModel"] = None,
        querytrace: Optional["QueryTraceCapture"] = None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        names = [r.name for r in replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"replica names must be unique, got {names}")
        self.replicas = list(replicas)
        self.policy = policy
        self.resilience = resilience or ResiliencePolicy.none()
        self.fault_plan = fault_plan or FaultPlan.none()
        self.seed = seed
        # Optional sinks (windowed telemetry; the per-query causal trace
        # behind repro explain). run() fills them from its run log after
        # the simulation, so they cannot feed back into it.
        self.timeseries = timeseries
        self.querytrace = querytrace
        # Optional sharded-embedding gather model (repro.distserve):
        # adds the distribution overhead of each batch's gather fan-out
        # to its service time. A colocated single-shard layout adds
        # exactly 0.0, preserving the bit-identical contract.
        self.gather = gather

    # -- simulation ----------------------------------------------------------

    def run(
        self, arrival_qps: float, num_queries: int = 2000
    ) -> ResilientScheduleResult:
        """Simulate ``num_queries`` Poisson arrivals at ``arrival_qps``."""
        check_run_args(self.policy, arrival_qps, num_queries)

        rng = np.random.default_rng(self.seed)
        inter_arrivals = rng.exponential(1.0 / arrival_qps, size=num_queries)
        arrivals = np.cumsum(inter_arrivals)

        servers = [
            ServerState(spec, idx, self.fault_plan)
            for idx, spec in enumerate(self.replicas)
        ]
        res = self.resilience
        policy = self.policy
        grun = self.gather.start_run() if self.gather is not None else None
        # What happened, for repro.telemetry.servelog to feed the sinks
        # after the loop; kept only when something observes the run.
        log: Optional[list] = (
            []
            if self.timeseries is not None
            or self.querytrace is not None
            or telemetry.enabled()
            else None
        )
        # Per-shard gather pieces only feed the query trace.
        gather_pieces = self.querytrace is not None

        latencies = np.full(num_queries, np.nan)
        outcome = np.full(num_queries, -1, dtype=np.int8)
        batch_sizes: List[int] = []
        counters = {
            "retries": 0, "timeouts": 0, "hedges": 0, "hedge_wins": 0,
            "failovers": 0, "degraded": 0, "shed": 0, "dropped": 0,
            "completed": 0,
            "slowdown_batches": 0, "straggler_batches": 0,
            "pcie_batches": 0, "crashed_batches": 0, "dropped_responses": 0,
        }

        # Work heap: (ready time, query id, attempt). Attempt 0 entries
        # are the arrivals themselves; retries re-enter with a later
        # ready time. Ties resolve in query order, matching the plain
        # scheduler's scan.
        heap: List[Tuple[float, int, int]] = [
            (float(arrivals[i]), i, 0) for i in range(num_queries)
        ]
        heapq.heapify(heap)

        while heap:
            head_ready, head_qid, head_attempt = heapq.heappop(heap)

            server = self._route(servers, head_ready)
            if server is None:
                # Whole fleet is down/tripped: park the query until the
                # earliest recovery and try again.
                resume = min(s.next_available(head_ready) for s in servers)
                if resume <= head_ready:
                    resume = head_ready + 1e-9
                heapq.heappush(heap, (resume, head_qid, head_attempt))
                continue

            # -- batch formation (identical to QueryScheduler.run) ----------
            dispatch_at = max(head_ready + policy.batch_timeout_s,
                              server.free_at)
            members: List[Tuple[float, int, int]] = [
                (head_ready, head_qid, head_attempt)
            ]
            while (
                heap
                and len(members) < policy.max_batch
                and heap[0][0] <= dispatch_at
            ):
                ready, qid, attempt = heapq.heappop(heap)
                members.append((ready, qid, attempt))
            start = max(dispatch_at, server.free_at)
            if len(members) == policy.max_batch:
                start = max(members[-1][0], server.free_at)
            # The instant the batch stopped admitting members: the last
            # member's arrival when it filled, else the head timeout.
            batch_close = (
                members[-1][0]
                if len(members) == policy.max_batch
                else dispatch_at
            )

            if server.index != 0:
                counters["failovers"] += len(members)

            # -- SLA-aware load shedding ------------------------------------
            if res.shed is not None:
                floor_s = server.spec.service_model.seconds(1)
                kept = []
                for m in members:
                    if start + floor_s > arrivals[m[1]] + res.shed.deadline_s:
                        outcome[m[1]] = _Outcome.SHED
                        counters["shed"] += 1
                        if log is not None:
                            log.append((servelog.SHED, m[1], start))
                    else:
                        kept.append(m)
                members = kept
                if not members:
                    continue

            batch = len(members)

            # -- graceful degradation ---------------------------------------
            degraded = (
                res.degrade is not None
                and server.spec.degraded_model is not None
                and start - head_ready > res.degrade.queue_budget_s
            )
            if degraded:
                counters["degraded"] += batch

            service, faults = server.service_seconds(batch, start, degraded)
            gout = None
            if grun is not None:
                gout = grun.gather(batch, start, detail=gather_pieces)
                service = service + gout.seconds
            server.note_dispatch()
            finish = start + service
            if faults.slowdown:
                counters["slowdown_batches"] += 1
            if faults.straggler:
                counters["straggler_batches"] += 1
            if faults.pcie:
                counters["pcie_batches"] += 1

            # -- crash in flight --------------------------------------------
            crash = server.injector.crash_during(start, finish)
            crash_at = None
            tripped = False
            if crash is not None:
                crash_at = max(start, crash.start_s)
                counters["crashed_batches"] += 1
                server.free_at = crash.end_s
                tripped = server.record_failure(crash_at, res.breaker)
            else:
                server.free_at = finish

            # -- hedging ----------------------------------------------------
            hedge_finish = math.inf
            hedge_server = None
            hedge_leg = None
            if (
                res.hedge is not None
                and len(servers) > 1
                and (crash_at is not None
                     or finish > head_ready + res.hedge.delay_s)
            ):
                hedge_at = head_ready + res.hedge.delay_s
                hedge_server = self._route(
                    servers, hedge_at, exclude=server.index
                )
                if hedge_server is not None:
                    # The duplicate carries the whole batch, so it cannot
                    # be issued before the last member exists — without
                    # this bound a fast hedge could "complete" a query
                    # before it arrived.
                    h_start = max(hedge_at, members[-1][0],
                                  hedge_server.free_at)
                    h_service, h_faults = hedge_server.service_seconds(
                        batch, h_start
                    )
                    h_gout = None
                    if grun is not None:
                        h_gout = grun.gather(batch, h_start,
                                             detail=gather_pieces)
                        h_service = h_service + h_gout.seconds
                    hedge_server.note_dispatch()
                    h_finish = h_start + h_service
                    h_crash = hedge_server.injector.crash_during(
                        h_start, h_finish
                    )
                    counters["hedges"] += batch
                    h_crash_at = None
                    h_tripped = False
                    if h_crash is not None:
                        counters["crashed_batches"] += 1
                        hedge_server.free_at = h_crash.end_s
                        h_crash_at = max(h_start, h_crash.start_s)
                        h_tripped = hedge_server.record_failure(
                            h_crash_at, res.breaker
                        )
                    else:
                        hedge_server.free_at = h_finish
                        hedge_finish = h_finish
                    if log is not None:
                        hedge_leg = servelog.Leg(
                            hedge_server.index, REPLICA_LANE_HEDGE, h_start,
                            h_service, h_crash_at, h_tripped, False,
                            h_faults, h_gout,
                        )

            batch_sizes.append(batch)

            # -- per-query settlement ---------------------------------------
            primary_ok = crash_at is None
            hedge_ok = hedge_finish < math.inf
            hedge_won = hedge_ok and (not primary_ok or hedge_finish < finish)
            if hedge_won:
                counters["hedge_wins"] += batch
            winner = hedge_server if hedge_won else server
            completion = hedge_finish if hedge_won else finish
            if log is not None:
                # Retried work (a batch whose head attempt > 0) gets its
                # own lane so reissues don't overlap first-try serving.
                lane = (
                    REPLICA_LANE_RETRY if head_attempt > 0
                    else REPLICA_LANE_SERVE
                )
                log.append((
                    servelog.BATCH, batch, batch_close,
                    servelog.Leg(
                        server.index, lane, start, service, crash_at,
                        tripped, degraded, faults, gout,
                    ),
                    hedge_leg, hedge_won,
                ))

            for ready, qid, attempt in members:
                lost_trip = False
                if not primary_ok and not hedge_ok:
                    kind, end = "crash", crash_at
                elif winner.injector.should_drop(qid, attempt):
                    counters["dropped_responses"] += 1
                    lost_trip = winner.record_failure(completion, res.breaker)
                    detect = (
                        ready + res.retry.deadline_s
                        if res.retry is not None
                        else completion
                    )
                    kind, end = "drop_response", max(detect, completion)
                elif (
                    res.retry is not None
                    and completion > ready + res.retry.deadline_s
                ):
                    counters["timeouts"] += 1
                    kind, end = "timeout", ready + res.retry.deadline_s
                else:
                    kind, end = "completed", completion
                if log is not None:
                    log.append((
                        servelog.ATTEMPT, qid, attempt, ready, kind, end,
                        lost_trip,
                    ))
                if kind == "completed":
                    latencies[qid] = completion - arrivals[qid]
                    outcome[qid] = _Outcome.COMPLETED
                    counters["completed"] += 1
                    winner.record_success()
                    if log is not None:
                        log.append(
                            (servelog.SETTLE, qid, latencies[qid], completion)
                        )
                elif res.retry is not None and attempt < res.retry.max_retries:
                    # The attempt failed at `end`: retry after backoff ...
                    heapq.heappush(heap, (
                        end + res.retry.backoff_s(attempt), qid, attempt + 1
                    ))
                    counters["retries"] += 1
                    if log is not None:
                        log.append((servelog.RETRY, qid, end))
                else:
                    # ... or give up on the query.
                    outcome[qid] = _Outcome.DROPPED
                    counters["dropped"] += 1
                    if log is not None:
                        log.append((servelog.DROP, qid, end))

        end = max(s.free_at for s in servers)
        duration = max(float(end - arrivals[0] + inter_arrivals[0]), 0.0)
        done = latencies[~np.isnan(latencies)]
        result = ResilientScheduleResult(
            queries=num_queries,
            duration_s=duration,
            latencies_s=done,
            batch_sizes=batch_sizes,
            completed=counters["completed"],
            shed=counters["shed"],
            dropped=counters["dropped"],
            retries=counters["retries"],
            timeouts=counters["timeouts"],
            hedges=counters["hedges"],
            hedge_wins=counters["hedge_wins"],
            failovers=counters["failovers"],
            degraded_queries=counters["degraded"],
            breaker_trips=sum(s.breaker_trips for s in servers),
            fault_counts={
                "slowdown_batches": counters["slowdown_batches"],
                "straggler_batches": counters["straggler_batches"],
                "pcie_degraded_batches": counters["pcie_batches"],
                "crashed_batches": counters["crashed_batches"],
                "dropped_responses": counters["dropped_responses"],
            },
            replica_batches={s.name: s.batches for s in servers},
            gather_counts=(
                {k: v for k, v in grun.counts.items() if v}
                if grun is not None
                else {}
            ),
        )
        if log is not None:
            servelog.replay(self, log, arrivals, result)
        return result

    # -- helpers -------------------------------------------------------------

    def _route(
        self,
        servers: List[ServerState],
        t: float,
        exclude: Optional[int] = None,
    ) -> Optional[ServerState]:
        """First replica routable at ``t``, in fleet order."""
        for s in servers:
            if s.index != exclude and s.available(t):
                return s
        return None

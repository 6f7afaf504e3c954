"""serve_explain: fault scenarios run bare, observed, then explained.

Two scenarios: ``mixed`` (rm1 on t4 with a gtx1080ti fallback, so
retries, hedging, the breaker, shedding and degradation all fire) and
``shard_slowdown`` (rm2 on broadwell behind a sharded gather). Each is
run with every sink off, then with a TimeSeries, then with a TimeSeries
and a keep-all QueryTrace, and the last run is explained. ``resilience``,
``distserve``, ``telemetry`` and ``explain`` do nearly all the work; the
cost models only calibrate.

The sinks-off arm assembles the scenario from public constructors the
way ``run_monitored_scenario`` does, minus the TimeSeries; the check
that its result is bit-identical to the observed runs keeps the two
assemblies honest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional

from checks import Checks, PassResult, digest
from spans import NULL

from repro.core import SlaBudget
from repro.distserve import (
    GatherPolicy,
    LocalityAwarePlacement,
    ShardGatherModel,
    build_layout,
    split_shard_kwargs,
    synthesize_shard_plan,
)
from repro.explain import explain_scenario
from repro.models import DLRM, build_model
from repro.models.variants import degraded_variant
from repro.monitor import run_monitored_scenario, scenario_kwargs
from repro.resilience import (
    CircuitBreakerPolicy,
    DegradationPolicy,
    FaultPlan,
    HedgePolicy,
    Replica,
    ResiliencePolicy,
    ResilientScheduler,
    RetryPolicy,
    SheddingPolicy,
)
from repro.runtime import BatchingPolicy, InferenceSession, ServiceTimeModel
from repro.telemetry import QueryTraceCapture
from repro.workloads import ZipfIndices

QUERIES = 10_000
#: The first run of the scheduler's code paths is measurably slower
#: (about 15% on the sinks-off arm), so an untimed pass of this many
#: queries per scenario goes first.
WARMUP_QUERIES = 1_000
BATCH = 64
PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class Scenario:
    name: str
    model: str
    platform: str
    fallback: Optional[str]
    seed: int
    #: Layer that owns the bare simulation of this scenario.
    layer: str
    queries: int = QUERIES


def setup(seed: int) -> List[Scenario]:
    return [
        Scenario("mixed", "rm1", "t4", "gtx1080ti", seed, "resilience"),
        Scenario("shard_slowdown", "rm2", "broadwell", None, seed + 1,
                 "distserve"),
    ]


def warmup(scenarios: List[Scenario]) -> PassResult:
    return run_pass([replace(sc, queries=WARMUP_QUERIES) for sc in scenarios],
                    NULL)


def _calibrate(model, platform: str, rec) -> ServiceTimeModel:
    with rec.span("scheduler.calibration", metric="scheduler.calibration_ms",
                  model=model.name, platform=platform):
        session = InferenceSession(model, platform)
        knots = sorted({1, max(2, BATCH // 4), BATCH, 2 * BATCH})
        return ServiceTimeModel.from_profiles([session.profile(b) for b in knots])


def run_bare(sc: Scenario, rec):
    """The scenario with no TimeSeries and no QueryTrace attached."""
    model = build_model(sc.model)
    primary = _calibrate(model, sc.platform, rec)
    fallback = _calibrate(model, sc.fallback, rec) if sc.fallback else None
    degraded = (_calibrate(degraded_variant(model), sc.platform, rec)
                if isinstance(model, DLRM) else None)
    qps = 0.4 * BATCH / primary.seconds(BATCH)
    deadline = max(10.0 * primary.seconds(BATCH), 0.02)
    budget = SlaBudget(deadline, queue_fraction=0.5)
    horizon = sc.queries / qps
    synth = scenario_kwargs(sc.name)
    gather = None
    if synth.get("shard_faults"):
        _, shard_setup, shard_synth = split_shard_kwargs(synth)
        layout = build_layout(
            model,
            int(shard_setup.get("shards", 4)),
            sharding=str(shard_setup.get("sharding", "row")),
            placement=LocalityAwarePlacement(
                hot_k=int(shard_setup.get("hot_k", 1024))),
            distribution=ZipfIndices(alpha=float(shard_setup.get("alpha", 1.1))),
        )
        plan = synthesize_shard_plan(sc.seed, layout.names, horizon,
                                     target=layout.hottest().name, **shard_synth)
        gather = ShardGatherModel(layout, policy=GatherPolicy.none(),
                                  fault_plan=plan, seed=sc.seed)
        replica_plan = FaultPlan.none()
    else:
        names = [sc.platform] + ([sc.fallback] if fallback else [])
        replica_plan = FaultPlan.synthesize(sc.seed, names, horizon, **synth)
    policy = ResiliencePolicy(
        retry=RetryPolicy(deadline_s=deadline, max_retries=2),
        hedge=HedgePolicy(delay_s=0.5 * budget.queue_budget_s) if fallback else None,
        breaker=(CircuitBreakerPolicy(failure_threshold=2, cooldown_s=deadline)
                 if fallback else None),
        shed=SheddingPolicy(deadline_s=deadline),
        degrade=(DegradationPolicy(queue_budget_s=budget.queue_budget_s)
                 if degraded else None),
    )
    replicas = [Replica(sc.platform, primary, degraded_model=degraded)]
    if fallback:
        replicas.append(Replica(sc.fallback, fallback))
    scheduler = ResilientScheduler(
        replicas, BatchingPolicy(max_batch=BATCH), resilience=policy,
        fault_plan=replica_plan, seed=sc.seed, gather=gather,
    )
    metric = ("distserve.shard_bare_query_us" if sc.layer == "distserve"
              else "resilience.bare_query_us")
    with rec.span(f"{sc.layer}.run", metric=metric, per=sc.queries,
                  scenario=sc.name):
        return scheduler.run(qps, num_queries=sc.queries)


def _explain(exp) -> dict:
    return {
        "profiles": [exp.profile(p) for p in PERCENTILES],
        "what_if": exp.what_if_table(99.0),
        "faults": exp.fault_attribution(99.0),
    }


def _result_view(result) -> list:
    """Every simulated field of a ResilientScheduleResult."""
    return [
        result.queries, result.duration_s, result.latencies_s,
        list(result.batch_sizes), result.completed, result.shed,
        result.dropped, result.retries, result.timeouts, result.hedges,
        result.hedge_wins, result.failovers, result.degraded_queries,
        result.breaker_trips, result.fault_counts, result.replica_batches,
        result.gather_counts,
    ]


def run_pass(scenarios: List[Scenario], rec) -> PassResult:
    checks = Checks()
    t_bare = t_ts = t_qt = t_explain = 0.0
    attempts = retries = hedges = shed = completed = records = 0
    gather_legs = 0
    views = []
    for sc in scenarios:
        run_args = dict(queries=sc.queries, seed=sc.seed, fallback=sc.fallback)

        t0 = time.perf_counter()
        bare = run_bare(sc, rec)
        t1 = time.perf_counter()
        with rec.span("monitor.run_monitored_scenario", scenario=sc.name):
            observed = run_monitored_scenario(sc.model, sc.platform, sc.name,
                                              **run_args)
        t2 = time.perf_counter()
        capture = QueryTraceCapture(max_queries=sc.queries)
        with rec.span("explain.explain_scenario", scenario=sc.name):
            exp, traced = explain_scenario(sc.model, sc.platform, sc.name,
                                           capture=capture, **run_args)
        t3 = time.perf_counter()
        with rec.span("explain.analysis", metric="explain.analysis_ms",
                      scenario=sc.name):
            explained = _explain(exp)
        t4 = time.perf_counter()

        t_bare += t1 - t0
        t_ts += t2 - t1
        t_qt += t3 - t2
        t_explain += t4 - t3
        rec.sample("telemetry.timeseries_query_us",
                   (t2 - t1 - (t1 - t0)) / sc.queries * 1e6)
        rec.sample("telemetry.querytrace_query_us",
                   (t3 - t2 - (t2 - t1)) / sc.queries * 1e6)
        rec.sample("telemetry.observe_overhead_x", (t3 - t2) / (t1 - t0))

        view = digest(_result_view(bare))
        checks.check(digest(_result_view(observed.result)) == view,
                     f"{sc.name}: TimeSeries run differs from sinks-off run")
        checks.check(digest(_result_view(traced.result)) == view,
                     f"{sc.name}: QueryTrace run differs from sinks-off run")
        for label, result in (("bare", bare), ("observed", observed.result),
                              ("traced", traced.result)):
            checks.check(result.accounting_ok(),
                         f"{sc.name}: {label} run breaks accounting")
        kept = capture.records
        checks.check(len(kept) == bare.completed,
                     f"{sc.name}: keep-all trace kept {len(kept)} of "
                     f"{bare.completed} queries")
        broken = sum(1 for r in kept.values() if not r.conservation_ok())
        checks.check(broken == 0,
                     f"{sc.name}: {broken} queries' components do not sum "
                     "to their latency")

        attempts += bare.queries + bare.retries + bare.hedges
        retries += bare.retries
        hedges += bare.hedges
        shed += bare.shed
        completed += bare.completed
        records += len(kept)
        gather_legs += int(bare.gather_counts.get("fanout_rpcs", 0))
        views.append([sc.name, view, explained])

    rec.count("resilience.attempts", attempts)
    rec.count("resilience.retries", retries)
    rec.count("resilience.hedges", hedges)
    rec.count("resilience.shed", shed)
    rec.count("resilience.useful_ratio", completed / attempts)
    rec.count("distserve.gather_legs", gather_legs)
    rec.count("telemetry.querytrace_records", records)
    queries = sum(sc.queries for sc in scenarios)
    return PassResult(
        primary=queries / (t_qt + t_explain),
        secondary=queries / t_bare,
        wall_s=t_bare + t_ts + t_qt + t_explain,
        checks=checks,
        digest=digest(views),
    )

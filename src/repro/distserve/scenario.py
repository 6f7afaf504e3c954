"""The ``repro shard`` scenario: placement × gather-policy matrix.

Reproduces the sharded-serving headline (Lui et al., arXiv 2011.02084)
on the discrete-event serving stack: with locality-blind placement the
Zipf hot set is striped across every shard, so each gather's critical
path includes each shard and a single degraded shard drags the fleet
p99 — while locality-aware placement plus hot replication, hedged
RPCs, and a partial-gather policy bounds the tail under the *same*
injected shard faults.

Shard fault scenarios share the monitor ``SCENARIOS`` table: entries
whose kwargs carry ``shard_faults=True`` (plus optional layout keys)
are consumed here by :func:`split_shard_kwargs`, and windows are aimed
at the layout's *hottest* shard — deterministic and fair to every
placement (blind layouts tie, so the first shard is "hottest").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.distserve.gather import (
    GatherHedgePolicy,
    GatherPolicy,
    PartialGatherPolicy,
    ReplicatedReadPolicy,
    ShardGatherModel,
)
from repro.distserve.placement import (
    LocalityAwarePlacement,
    RoundRobinPlacement,
    ShardLayout,
)
from repro.distserve.topology import NetworkModel
from repro.resilience.faults import (
    DropSpec,
    FaultPlan,
    ServerFaults,
    StragglerSpec,
)

__all__ = [
    "SHARD_FAULTS_KEY",
    "SHARD_SETUP_KEYS",
    "split_shard_kwargs",
    "synthesize_shard_plan",
    "ShardCaseResult",
    "ShardMatrix",
    "run_shard_matrix",
    "default_shard_scenarios",
]

#: Marker key in a SCENARIOS entry: faults target shard servers, not
#: replicas. Consumers must pop it (and the setup keys) before handing
#: the rest to FaultPlan.synthesize.
SHARD_FAULTS_KEY = "shard_faults"

#: Layout keys a shard scenario entry (or override) may carry, each
#: with the type its value is coerced to.
SHARD_SETUP_KEYS = {
    "shards": int, "sharding": str, "alpha": float, "hot_k": int,
    "replicas": int,
}


def default_shard_scenarios() -> Dict[str, Dict[str, Any]]:
    """Shard entries for the shared monitor ``SCENARIOS`` table."""
    return {
        # The headline: one shard throttled hard mid-run + background
        # straggler jitter on every shard.
        "shard_slowdown": dict(
            shard_faults=True,
            slowdown_windows=1, slowdown_multiplier=8.0,
            straggler_probability=0.05,
        ),
        # A shard dies and recovers; without a partial policy gathers
        # block on it.
        "shard_crash": dict(
            shard_faults=True,
            slowdown_windows=0, crash_windows=1, crash_duration_frac=0.12,
            straggler_probability=0.02,
        ),
        # NIC/link degradation: the RPC bandwidth term collapses.
        "shard_network": dict(
            shard_faults=True,
            slowdown_windows=0, pcie_windows=1, pcie_scale=0.1,
            straggler_probability=0.05,
        ),
    }


def split_shard_kwargs(
    kwargs: Dict[str, Any]
) -> Tuple[bool, Dict[str, Any], Dict[str, Any]]:
    """(is_shard_scenario, layout setup kwargs, synthesize kwargs)."""
    rest = dict(kwargs)
    is_shard = bool(rest.pop(SHARD_FAULTS_KEY, False))
    setup = {k: rest.pop(k) for k in SHARD_SETUP_KEYS if k in rest}
    return is_shard, setup, rest


def synthesize_shard_plan(
    seed: int,
    shard_names: Sequence[str],
    horizon_s: float,
    *,
    target: Optional[str] = None,
    straggler_probability: float = 0.0,
    drop_probability: float = 0.0,
    **window_kwargs: Any,
) -> FaultPlan:
    """Seeded shard fault plan: windows on ``target``, rates everywhere.

    Unlike :meth:`FaultPlan.synthesize` (windows *and* rates on the
    targeted servers), shard scenarios aim the deterministic windows at
    one shard — the hottest, normally — while straggler/drop rates
    model fabric-wide background noise on every shard.
    """
    target = target if target is not None else shard_names[0]
    plan = FaultPlan.synthesize(
        seed, list(shard_names), horizon_s, targets=[target], **window_kwargs
    )
    if straggler_probability <= 0.0 and drop_probability <= 0.0:
        return plan
    servers: Dict[str, ServerFaults] = dict(plan.servers)
    for name in shard_names:
        existing = servers.get(name, ServerFaults())
        servers[name] = replace(
            existing,
            stragglers=StragglerSpec(probability=straggler_probability),
            drops=DropSpec(probability=drop_probability),
        )
    return FaultPlan(seed=seed, servers=servers)


@dataclass
class ShardCaseResult:
    """One matrix row: a placement/policy combination's run."""

    label: str
    layout: ShardLayout
    gather_policy: GatherPolicy
    result: Any  # ResilientScheduleResult
    timeseries: Any = None

    @property
    def p99_ms(self) -> float:
        return 1e3 * self.result.p99

    @property
    def p50_ms(self) -> float:
        return 1e3 * self.result.p50

    def gather_count(self, key: str) -> float:
        return float(self.result.gather_counts.get(key, 0))


@dataclass
class ShardMatrix:
    """The full ``repro shard`` run bundle."""

    model: str
    platform: str
    scenario: str
    seed: int
    queries: int
    qps: float
    batch_size: int
    shards: int
    sharding: str
    horizon_s: float
    plan: FaultPlan
    rows: List[ShardCaseResult]

    def row(self, label: str) -> ShardCaseResult:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(
            f"no matrix row {label!r} (have: {[r.label for r in self.rows]})"
        )

    def locality_win(self) -> bool:
        """The CI gate: full locality stack beats blind placement on p99."""
        return self.row("locality+policies").p99_ms < self.row("blind").p99_ms


#: Row labels, fixed order (CLI table + ledger tags rely on these).
_CASE_SINGLE = "single-node"
_CASE_BLIND = "blind"
_CASE_BLIND_HEDGE = "blind+hedge"
_CASE_AWARE = "locality"
_CASE_AWARE_FULL = "locality+policies"

#: Ledger fingerprint tag per row (kept short for slugs/keys).
CASE_TAGS = {
    _CASE_SINGLE: "shard-single",
    _CASE_BLIND: "shard-blind",
    _CASE_BLIND_HEDGE: "shard-blindh",
    _CASE_AWARE: "shard-loc",
    _CASE_AWARE_FULL: "shard-locp",
}


def run_shard_matrix(
    model_name: str,
    platform: str,
    scenario: str = "shard_slowdown",
    *,
    shards: int = 4,
    sharding: str = "row",
    batch_size: int = 64,
    queries: int = 1500,
    qps: Optional[float] = None,
    seed: int = 2020,
    alpha: float = 1.1,
    hot_k: int = 1024,
    replicas: int = 2,
    network: Optional[NetworkModel] = None,
    service_model=None,
    scenario_overrides: Optional[Dict[str, Any]] = None,
    with_timeseries: bool = False,
    window_s: Optional[float] = None,
) -> ShardMatrix:
    """Run the placement × gather-policy matrix under one shard scenario.

    Every row sees the same arrivals, the same single serving replica
    (no replica-level faults or policies — the matrix isolates the
    *distribution* layer), and the same seeded shard fault plan aimed
    at each layout's hottest shard.
    """
    from repro.monitor.scenario import Scenario
    from repro.resilience import Replica, ResilientScheduler
    from repro.runtime import BatchingPolicy
    from repro.telemetry import TimeSeries

    sc = Scenario(
        model_name, platform, scenario, batch_size=batch_size,
        queries=queries, qps=qps, seed=seed,
        overrides=scenario_overrides or {}, window_s=window_s,
        shards=shards, sharding=sharding, alpha=alpha, hot_k=hot_k,
        replicas=replicas,
    )
    if not sc.is_shard:
        raise ValueError(
            f"scenario {scenario!r} is not a shard scenario "
            f"(no {SHARD_FAULTS_KEY!r} marker)"
        )
    if service_model is None:
        service_model = sc.primary_model
    if network is None:
        network = NetworkModel()

    blind = RoundRobinPlacement()
    # The hot set is replicated on every shard (it is tiny); ``replicas``
    # only sets the replicated-*read* fan-out, so the aware layout stays
    # load-balanced regardless of how many holders a read races.
    aware = LocalityAwarePlacement(hot_k=sc.hot_k)

    # Policy time constants derive from the healthy gather cost of the
    # blind layout, so they are deterministic and scale with the model.
    probe = ShardGatherModel(
        sc.layout(blind), network=network
    ).start_run().gather(batch_size, 0.0)
    healthy_gather_s = max(probe.seconds, 1e-5)
    hedge = GatherHedgePolicy(delay_s=2.0 * healthy_gather_s)
    partial = PartialGatherPolicy(wait_budget_s=4.0 * healthy_gather_s)

    # Offered load is calibrated against the *sharded* service time
    # (model compute + healthy blind gather), so every row runs at the
    # same moderate utilization and p99 reflects fault handling, not
    # queueing collapse. The batching timeout is set to the batch fill
    # time so batches run near-full — gather fan-out cost scales with
    # batch size, and half-empty batches would hide it.
    peak = batch_size / (service_model.seconds(batch_size) + healthy_gather_s)
    qps = qps if qps else 0.8 * peak
    horizon = queries / qps
    batching = BatchingPolicy(
        max_batch=batch_size, batch_timeout_s=batch_size / qps
    )

    cases = [
        (_CASE_SINGLE, 1, blind, GatherPolicy.none()),
        (_CASE_BLIND, sc.shards, blind, GatherPolicy.none()),
        (_CASE_BLIND_HEDGE, sc.shards, blind, GatherPolicy(hedge=hedge)),
        (_CASE_AWARE, sc.shards, aware, GatherPolicy.none()),
        (
            _CASE_AWARE_FULL,
            sc.shards,
            aware,
            GatherPolicy(
                replicate=ReplicatedReadPolicy(replicas=sc.replicas),
                hedge=hedge,
                partial=partial,
            ),
        ),
    ]

    matrix_plan: Optional[FaultPlan] = None
    rows: List[ShardCaseResult] = []
    for label, n, placement, gather_policy in cases:
        layout = sc.layout(placement, n)
        if n == 1:
            plan = FaultPlan.none()
        else:
            plan = sc.shard_plan(layout, horizon)
            if matrix_plan is None:
                matrix_plan = plan
        gather = ShardGatherModel(
            layout, network=network, policy=gather_policy,
            fault_plan=plan, seed=seed,
        )
        ts = None
        if with_timeseries:
            ts = TimeSeries(window_s=window_s if window_s else horizon / 24.0)
        scheduler = ResilientScheduler(
            [Replica(platform, service_model)],
            batching,
            seed=seed,
            timeseries=ts,
            gather=gather,
        )
        rows.append(
            ShardCaseResult(
                label=label,
                layout=layout,
                gather_policy=gather_policy,
                result=scheduler.run(qps, num_queries=queries),
                timeseries=ts,
            )
        )

    return ShardMatrix(
        model=model_name,
        platform=platform,
        scenario=scenario,
        seed=seed,
        queries=queries,
        qps=qps,
        batch_size=batch_size,
        shards=sc.shards,
        sharding=sc.sharding,
        horizon_s=horizon,
        plan=matrix_plan if matrix_plan is not None else FaultPlan.none(),
        rows=rows,
    )


def matrix_records(matrix: ShardMatrix):
    """Ledger records for every matrix row, tagged per placement/policy.

    Fingerprints reuse the real platform fingerprint with the row tag
    appended to the platform field (``broadwell+shard-blind4``), so
    shard baselines never collide with the plain serving baselines.
    """
    from repro.ledger import fingerprint_for, record_schedule

    base = fingerprint_for(
        matrix.model, matrix.platform, matrix.batch_size, seed=matrix.seed
    )
    records = []
    for row in matrix.rows:
        tag = f"{CASE_TAGS[row.label]}{row.layout.num_shards}"
        fp = replace(base, platform=f"{base.platform}+{tag}")
        record = record_schedule(
            row.result,
            fp,
            matrix.batch_size,
            kind="shard",
            timeseries=row.timeseries,
            arrival_qps=matrix.qps,
        )
        for key, value in row.layout.scalars().items():
            record.scalars[f"layout.{key}"] = value
        records.append(record)
    return records

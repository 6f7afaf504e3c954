"""Named fault scenarios and the one serving-scenario assembly.

The scenario table is the single source of truth for what ``repro
resilience``, ``repro monitor``, ``repro explain`` and ``repro shard``
inject; the CLI parser lists its names from :mod:`repro.monitor.names`,
pinned equal to it. :class:`Scenario` is one validated serving
operating point — model, platforms, batching, load, faults, deadline
and shard layout — and the only place that turns one into service-time
models, a fault plan, a policy set and a resilient run. Every serving command and the golden tests go through it, so CLI
output and test pins cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro import telemetry
from repro.core import SlaBudget
from repro.distserve.gather import GatherPolicy, ShardGatherModel
from repro.distserve.placement import (
    SHARDING_KINDS,
    LocalityAwarePlacement,
    ShardLayout,
    build_layout,
)
from repro.distserve.scenario import (
    SHARD_SETUP_KEYS,
    default_shard_scenarios,
    split_shard_kwargs,
    synthesize_shard_plan,
)
from repro.hw import platform_by_name
from repro.models import DLRM, build_model
from repro.models.variants import degraded_variant
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
from repro.telemetry.timeseries import TimeSeries
from repro.workloads import ZipfIndices

__all__ = [
    "SCENARIOS",
    "scenario_kwargs",
    "service_model_for",
    "is_shard_scenario",
    "shard_scenario_names",
    "replica_scenario_names",
    "Scenario",
    "MonitoredScenario",
    "run_monitored_scenario",
]

#: FaultPlan.synthesize kwargs per named scenario. ``slowdown`` is the
#: canonical GPU-throttle case the acceptance tests pin (one window at
#: a high multiplier -> a tail excursion confined to that window).
#: Entries carrying ``shard_faults=True`` (registered from
#: ``repro.distserve``) target simulated *shard servers* instead of
#: replicas; ``repro shard`` runs them as a placement/policy matrix and
#: ``repro monitor`` runs them with fault-correlated alerting unchanged.
SCENARIOS: Dict[str, Dict[str, Any]] = {
    "slowdown": dict(slowdown_windows=1, slowdown_multiplier=4.0),
    "crash": dict(slowdown_windows=0, crash_windows=1,
                  crash_duration_frac=0.15),
    "drops": dict(slowdown_windows=0, drop_probability=0.05),
    "stragglers": dict(slowdown_windows=0, straggler_probability=0.08),
    "pcie": dict(slowdown_windows=0, pcie_windows=1, pcie_scale=0.2),
    "mixed": dict(slowdown_windows=1, slowdown_multiplier=3.0,
                  crash_windows=1, crash_duration_frac=0.08,
                  drop_probability=0.02, straggler_probability=0.04),
}
SCENARIOS.update(default_shard_scenarios())


def is_shard_scenario(name: str) -> bool:
    """Whether a scenario's faults target shard servers."""
    entry = SCENARIOS.get(name)
    return bool(entry and entry.get("shard_faults"))


def shard_scenario_names() -> tuple:
    return tuple(n for n in SCENARIOS if is_shard_scenario(n))


def replica_scenario_names() -> tuple:
    return tuple(n for n in SCENARIOS if not is_shard_scenario(n))


def scenario_kwargs(name: str, **overrides: Any) -> Dict[str, Any]:
    """The synthesize kwargs for one named scenario (plus overrides)."""
    try:
        base = dict(SCENARIOS[name])
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    base.update(overrides)
    return base


def service_model_for(model, platform: str, batch: int) -> ServiceTimeModel:
    """Calibrate a ServiceTimeModel for one (model, platform, batch)."""
    return ServiceTimeModel.calibrate(InferenceSession(model, platform), batch)


def _positive(name: str, value: Any, kind: type = float) -> None:
    ok = (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if kind is int
        else isinstance(value, (int, float)) and math.isfinite(value)
    )
    if not ok or value <= 0:
        article = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{name} must be {article} > 0, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """One serving operating point, validated once at construction.

    ``qps``, ``deadline_s`` and ``window_s`` default (``None``) to 40%
    of the primary's peak batch throughput, ten batch service times
    (at least 20 ms), and the horizon split into 24 windows. The shard
    layout keys (``shards`` .. ``replicas``) apply to shard scenarios;
    a scenario-table entry or override carrying one of them wins over
    the field. ``fallback`` of ``None`` or ``"none"`` means no standby.
    Service-time models are calibrated lazily, once per instance.
    """

    model: str
    platform: str
    scenario: str = "slowdown"
    fallback: Optional[str] = None
    batch_size: int = 64
    queries: int = 2000
    qps: Optional[float] = None
    seed: int = 2020
    overrides: Mapping[str, Any] = field(default_factory=dict)
    deadline_s: Optional[float] = None
    window_s: Optional[float] = None
    shards: int = 4
    sharding: str = "row"
    alpha: float = 1.1
    hot_k: int = 1024
    replicas: int = 2

    def __post_init__(self) -> None:
        def put(name: str, value: Any) -> None:
            object.__setattr__(self, name, value)

        if self.fallback is not None and self.fallback.lower() == "none":
            put("fallback", None)
        put("overrides", dict(self.overrides))
        is_shard, setup, synth = split_shard_kwargs(
            scenario_kwargs(self.scenario, **self.overrides)
        )
        for key, value in setup.items():
            put(key, SHARD_SETUP_KEYS[key](value))
        put("_is_shard", is_shard)
        put("_synth", synth)
        for name in (self.platform, self.fallback):
            if name is not None:
                platform_by_name(name)
        self.built_model  # unknown model names fail here
        for name in ("batch_size", "queries", "shards", "hot_k", "replicas"):
            _positive(name, getattr(self, name), int)
        for name in ("qps", "deadline_s", "window_s"):
            if getattr(self, name) is not None:
                _positive(name, getattr(self, name))
        _positive("alpha", self.alpha)
        if self.sharding not in SHARDING_KINDS:
            raise ValueError(
                f"sharding must be one of {SHARDING_KINDS}, got "
                f"{self.sharding!r}"
            )

    # -- calibration and derived load ---------------------------------------

    @cached_property
    def built_model(self):
        return build_model(self.model)

    @property
    def is_shard(self) -> bool:
        """Whether the faults target shard servers behind a gather."""
        return self._is_shard

    @property
    def degradable(self) -> bool:
        """Whether a degraded variant exists (DLRM models only)."""
        return isinstance(self.built_model, DLRM)

    @cached_property
    def primary_model(self) -> ServiceTimeModel:
        return service_model_for(self.built_model, self.platform, self.batch_size)

    @cached_property
    def fallback_model(self) -> Optional[ServiceTimeModel]:
        if self.fallback is None:
            return None
        return service_model_for(self.built_model, self.fallback, self.batch_size)

    @cached_property
    def degraded_model(self) -> Optional[ServiceTimeModel]:
        if not self.degradable:
            return None
        return service_model_for(
            degraded_variant(self.built_model), self.platform, self.batch_size
        )

    @property
    def peak_qps(self) -> float:
        """Full-batch throughput of the primary."""
        return self.batch_size / self.primary_model.seconds(self.batch_size)

    @property
    def arrival_qps(self) -> float:
        return self.qps if self.qps else 0.4 * self.peak_qps

    @property
    def deadline(self) -> float:
        seconds = self.primary_model.seconds(self.batch_size)
        return self.deadline_s or max(10.0 * seconds, 0.02)

    @property
    def horizon_s(self) -> float:
        return self.queries / self.arrival_qps

    @property
    def platforms(self) -> list:
        """Replica names: the primary, then the fallback if any."""
        return [self.platform] + ([self.fallback] if self.fallback else [])

    # -- assembly ------------------------------------------------------------

    def policies(self) -> ResiliencePolicy:
        """The full policy set; hedging and breaker failover need a
        fallback, degradation a degraded variant."""
        deadline = self.deadline
        queue_budget = SlaBudget(deadline, queue_fraction=0.5).queue_budget_s
        standby = self.fallback is not None
        return ResiliencePolicy(
            retry=RetryPolicy(deadline_s=deadline, max_retries=2),
            hedge=HedgePolicy(delay_s=0.5 * queue_budget) if standby else None,
            breaker=(
                CircuitBreakerPolicy(failure_threshold=2, cooldown_s=deadline)
                if standby else None
            ),
            shed=SheddingPolicy(deadline_s=deadline),
            degrade=(
                DegradationPolicy(queue_budget_s=queue_budget)
                if self.degradable else None
            ),
        )

    def fleet(self, policy: ResiliencePolicy) -> list:
        """The replicas; the degraded model only where ``policy`` uses it."""
        degraded = self.degraded_model if policy.degrade is not None else None
        fleet = [Replica(self.platform, self.primary_model,
                         degraded_model=degraded)]
        if self.fallback is not None:
            fleet.append(Replica(self.fallback, self.fallback_model))
        return fleet

    def layout(self, placement=None, num_shards: Optional[int] = None
               ) -> ShardLayout:
        """The embedding layout (default: locality-aware, ``shards``)."""
        if placement is None:
            placement = LocalityAwarePlacement(hot_k=self.hot_k)
        return build_layout(
            self.built_model,
            self.shards if num_shards is None else num_shards,
            sharding=self.sharding,
            placement=placement,
            distribution=ZipfIndices(alpha=self.alpha),
        )

    def shard_plan(self, layout: ShardLayout, horizon_s: float) -> FaultPlan:
        """Shard faults, windows aimed at ``layout``'s hottest shard."""
        return synthesize_shard_plan(
            self.seed, layout.names, horizon_s,
            target=layout.hottest().name, **self._synth,
        )

    def fault_plan(self) -> FaultPlan:
        """The seeded replica fault plan over the run's horizon."""
        return FaultPlan.synthesize(
            self.seed, self.platforms, self.horizon_s, **self._synth
        )

    def timeseries(self, target_windows: int = 24) -> TimeSeries:
        return TimeSeries(
            window_s=self.window_s or self.horizon_s / target_windows
        )

    def run(
        self,
        policy: Optional[ResiliencePolicy] = None,
        *,
        faults: bool = True,
        timeseries: Optional[TimeSeries] = None,
        querytrace: Any = None,
        spans: bool = False,
    ) -> "MonitoredScenario":
        """Run the resilient engine once with the requested sinks.

        ``policy`` defaults to the full set. ``faults=False`` runs the
        primary alone with nothing injected. A shard scenario keeps
        the replica fleet healthy and puts its faults on the shard
        servers behind a locality-aware gather. ``spans=True``
        captures the simulation's spans and metrics (calibration runs
        before the capture opens).
        """
        policy = self.policies() if policy is None else policy
        fleet = self.fleet(policy) if faults else self.fleet(policy)[:1]
        plan, replica_plan, gather = FaultPlan.none(), None, None
        if faults and self.is_shard:
            layout = self.layout()
            plan = self.shard_plan(layout, self.horizon_s)
            gather = ShardGatherModel(
                layout, policy=GatherPolicy.none(), fault_plan=plan,
                seed=self.seed,
            )
            replica_plan = FaultPlan.none()
        elif faults:
            plan = replica_plan = self.fault_plan()
        scheduler = ResilientScheduler(
            fleet,
            BatchingPolicy(max_batch=self.batch_size),
            resilience=policy,
            fault_plan=replica_plan,
            seed=self.seed,
            timeseries=timeseries,
            gather=gather,
            querytrace=querytrace,
        )
        tracer = registry = None
        if spans:
            with telemetry.capture() as (tracer, registry):
                result = scheduler.run(self.arrival_qps, self.queries)
        else:
            result = scheduler.run(self.arrival_qps, self.queries)
        return MonitoredScenario(
            model=self.model,
            platform=self.platform,
            scenario=self.scenario,
            seed=self.seed,
            queries=self.queries,
            qps=self.arrival_qps,
            deadline_s=self.deadline,
            window_s=timeseries.window_s if timeseries else self.window_s,
            horizon_s=self.horizon_s,
            result=result,
            timeseries=timeseries,
            plan=plan,
            fallback=self.fallback,
            spec=self,
            querytrace=querytrace,
            tracer=tracer,
            registry=registry,
        )


@dataclass
class MonitoredScenario:
    """One run of a :class:`Scenario`: the result plus its provenance."""

    model: str
    platform: str
    scenario: str
    seed: int
    queries: int
    qps: float
    deadline_s: float
    window_s: Optional[float]
    horizon_s: float
    result: Any  # ResilientScheduleResult
    timeseries: Optional[TimeSeries]
    plan: Any  # FaultPlan
    fallback: Optional[str] = None
    spec: Optional[Scenario] = None
    querytrace: Any = None
    tracer: Any = None
    registry: Any = None

    def fault_windows(self):
        """All injected (start_s, end_s, kind) windows, sorted by start."""
        windows = []
        for name, faults in self.plan.servers.items():
            for w in faults.slowdowns:
                windows.append((w.start_s, w.end_s, f"{name}.slowdown"))
            for w in faults.crashes:
                windows.append((w.start_s, w.end_s, f"{name}.crash"))
            for w in faults.pcie:
                windows.append((w.start_s, w.end_s, f"{name}.pcie"))
        return sorted(windows)

    def meta(self, **extra: Any) -> Dict[str, Any]:
        """Run metadata for reports, plus caller-specific ``extra``."""
        return dict(
            model=self.model, platform=self.platform, fallback=self.fallback,
            scenario=self.scenario, qps=self.qps, seed=self.seed,
            queries=self.queries, deadline_s=self.deadline_s, **extra,
        )

    def record(self, kind: str, attribution: Optional[Dict[str, float]] = None):
        """This run as a ledger record (with its windowed telemetry)."""
        from repro.ledger import fingerprint_for, record_schedule

        spec = self.spec
        return record_schedule(
            self.result,
            fingerprint_for(
                spec.built_model, spec.platform, spec.batch_size, spec.seed
            ),
            max_batch=spec.batch_size,
            kind=kind,
            timeseries=self.timeseries,
            attribution=attribution,
            arrival_qps=self.qps,
        )

    def write_trace(self, path: str, process_name: str) -> str:
        """Export the captured spans (``run(spans=True)``) as a Chrome
        trace, with counter tracks and query flows for attached sinks."""
        return telemetry.write_chrome_trace(
            path,
            self.tracer.sorted_spans(),
            process_name=process_name,
            metrics=self.registry.snapshot(),
            timeseries=self.timeseries,
            querytrace=self.querytrace,
        )


def run_monitored_scenario(
    model_name: str,
    platform: str,
    scenario: str,
    *,
    batch_size: int = 64,
    queries: int = 2000,
    qps: Optional[float] = None,
    seed: int = 2020,
    window_s: Optional[float] = None,
    fallback: Optional[str] = None,
    scenario_overrides: Optional[Dict[str, Any]] = None,
    target_windows: int = 24,
    querytrace: Any = None,
) -> MonitoredScenario:
    """Run one fault scenario under the full policy set with a
    :class:`TimeSeries` attached (window default: the horizon split
    into ``target_windows`` windows, so golden outputs are stable)."""
    sc = Scenario(
        model_name, platform, scenario, fallback=fallback,
        batch_size=batch_size, queries=queries, qps=qps, seed=seed,
        overrides=scenario_overrides or {}, window_s=window_s,
    )
    return sc.run(timeseries=sc.timeseries(target_windows),
                  querytrace=querytrace)

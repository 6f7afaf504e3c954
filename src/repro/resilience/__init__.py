"""Fault injection and resilient serving for the query scheduler.

Two halves, composable with the existing
:class:`~repro.runtime.scheduler.QueryScheduler`:

* :mod:`repro.resilience.faults` — seeded, deterministic fault
  injection: slowdown windows, heavy-tailed stragglers, lost responses,
  PCIe degradation, crash/recovery windows, all specified by a
  :class:`FaultPlan` reproducible from one seed.
* :mod:`repro.resilience.policies` / :mod:`repro.resilience.engine` —
  the serving policies real fleets answer faults with: deadline retries
  with exponential backoff, hedged requests, circuit-breaker failover
  across heterogeneous replicas, SLA-aware load shedding, and graceful
  degradation to a cheaper model variant.

See ``docs/resilience.md`` for the fault model and policy semantics.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.resilience.engine": (
        "ResilientScheduler", "ResilientScheduleResult",
    ),
    "repro.resilience.faults": (
        "CrashWindow", "DropSpec", "FaultInjector", "FaultPlan",
        "NetworkDegradationWindow", "PcieDegradationWindow", "ServerFaults",
        "SlowdownWindow", "StragglerSpec", "hashed_uniform",
    ),
    "repro.resilience.policies": (
        "CircuitBreakerPolicy", "DegradationPolicy", "HedgePolicy",
        "ResiliencePolicy", "RetryPolicy", "SheddingPolicy",
    ),
    "repro.resilience.server": ("Replica", "ServerState"),
})

__all__ = [
    # fault model
    "FaultPlan",
    "ServerFaults",
    "SlowdownWindow",
    "CrashWindow",
    "PcieDegradationWindow",
    "NetworkDegradationWindow",
    "StragglerSpec",
    "DropSpec",
    "FaultInjector",
    "hashed_uniform",
    # policies
    "ResiliencePolicy",
    "RetryPolicy",
    "HedgePolicy",
    "CircuitBreakerPolicy",
    "SheddingPolicy",
    "DegradationPolicy",
    # engine
    "Replica",
    "ServerState",
    "ResilientScheduler",
    "ResilientScheduleResult",
]

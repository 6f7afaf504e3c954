"""The named fault scenarios' keys, without the serving stack.

:data:`repro.monitor.scenario.SCENARIOS` maps each name to its fault
kwargs, and importing it loads numpy and the resilience and distserve
layers. The CLI parser needs only the names for ``choices=``, so they
are listed here too, in table order; ``tests/test_scenario.py`` pins
these tuples ``==`` to the table and its replica/shard split.
"""

from typing import Tuple

__all__ = ["REPLICA_SCENARIO_NAMES", "SCENARIO_NAMES", "SHARD_SCENARIO_NAMES"]

#: Scenarios whose faults target serving replicas (``repro resilience``).
REPLICA_SCENARIO_NAMES: Tuple[str, ...] = (
    "slowdown", "crash", "drops", "stragglers", "pcie", "mixed",
)
#: Scenarios whose faults target shard servers (``repro shard``).
SHARD_SCENARIO_NAMES: Tuple[str, ...] = (
    "shard_slowdown", "shard_crash", "shard_network",
)
#: Every scenario (``repro monitor`` / ``repro explain``).
SCENARIO_NAMES: Tuple[str, ...] = REPLICA_SCENARIO_NAMES + SHARD_SCENARIO_NAMES

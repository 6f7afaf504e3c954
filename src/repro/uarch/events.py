"""PMU-style event counters.

The paper reads these from hardware performance counters (TopDown via
perf); our pipeline model synthesizes the same counter set so the
analysis layer (:mod:`repro.core`) is written exactly as if against
PMU data.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

__all__ = ["PmuEvents"]


@dataclass
class PmuEvents:
    """Counter values accumulated over one profiled region."""

    cycles: float = 0.0
    instructions: float = 0.0
    uops_retired: float = 0.0
    avx_instructions: float = 0.0

    # Branch unit
    branch_instructions: float = 0.0
    branch_mispredicts: float = 0.0

    # Frontend
    icache_misses: float = 0.0
    dsb_uops: float = 0.0
    mite_uops: float = 0.0
    dsb_limited_cycles: float = 0.0
    mite_limited_cycles: float = 0.0
    frontend_latency_cycles: float = 0.0
    frontend_bandwidth_cycles: float = 0.0

    # Backend
    core_bound_cycles: float = 0.0
    memory_bound_cycles: float = 0.0
    bad_speculation_cycles: float = 0.0

    # Memory hierarchy (data side)
    l1d_accesses: float = 0.0
    l2_accesses: float = 0.0
    l3_accesses: float = 0.0
    dram_accesses: float = 0.0
    dram_bytes: float = 0.0
    dram_congested_cycles: float = 0.0

    # Execution-port occupancy histogram: fraction-of-cycles buckets
    # {0 units, 1-2 units, 3+ units} weighted by this region's cycles.
    port_cycles_0: float = 0.0
    port_cycles_1_2: float = 0.0
    port_cycles_3_plus: float = 0.0

    # -- derived metrics ----------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def i_mpki(self) -> float:
        """L1 instruction-cache misses per kilo-instruction (Fig 12)."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.icache_misses / self.instructions

    @property
    def branch_mpki(self) -> float:
        """Branch mispredicts per kilo-instruction (Fig 15)."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.branch_mispredicts / self.instructions

    @property
    def avx_fraction(self) -> float:
        """AVX share of retired instructions (Fig 9)."""
        if not self.instructions:
            return 0.0
        return self.avx_instructions / self.instructions

    @property
    def dram_congested_fraction(self) -> float:
        """Share of cycles under DRAM bandwidth congestion (Fig 14)."""
        if not self.cycles:
            return 0.0
        return self.dram_congested_cycles / self.cycles

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

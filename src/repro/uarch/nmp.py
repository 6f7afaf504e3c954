"""Near-memory processing (NMP) what-if model.

The paper's Fig 14 finding — RM2 is DRAM-bandwidth congested — is the
motivation it cites for TensorDimm/RecNMP-style designs: execute the
gather-and-pool *inside* the memory system, so the host sees one pooled
vector per (sample, table) instead of every embedding row. This module
models that design point on top of the existing CPU pipeline:

* each random gather stream is executed rank-locally with
  ``rank_parallelism``-way concurrency at the DIMM's internal bandwidth
  advantage (``internal_bandwidth_factor`` — rank-level bandwidth is
  not serialized over the channel pins);
* the channel then carries only the pooled output,
  ``pooling_factor = lookups`` fewer bytes;
* everything else (FC stacks, frontend, branches) is unchanged.

``NmpSystem.speedup`` reproduces the 1.5-4x gains the NMP papers
report for embedding-dominated models, and ~1x for FC-dominated ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.graph.graph import Graph
from repro.hw.platform import CpuSpec
from repro.ops.tables import stack_tables, table_from_graph
from repro.uarch.constants import DEFAULT_CONSTANTS, UarchConstants
from repro.uarch.pipeline import CpuModel
from repro.uarch.vectorized import CpuGraphProfile, profile_cells_cpu

__all__ = ["NmpConfig", "NmpSystem"]


@dataclass(frozen=True)
class NmpConfig:
    """A TensorDimm/RecNMP-style memory system."""

    #: Concurrent rank-local gather engines across the DIMM population.
    rank_parallelism: int = 4
    #: Rank-internal bandwidth relative to the channel's pin bandwidth.
    internal_bandwidth_factor: float = 2.0
    #: Fixed NMP command/launch latency per pooled output, ns.
    command_latency_ns: float = 40.0

    def __post_init__(self) -> None:
        if self.rank_parallelism < 1:
            raise ValueError("rank_parallelism must be >= 1")
        if self.internal_bandwidth_factor < 1.0:
            raise ValueError("internal bandwidth factor must be >= 1")


class NmpSystem:
    """A CPU whose memory system executes embedding pooling near memory."""

    def __init__(
        self,
        spec: CpuSpec,
        nmp: Optional[NmpConfig] = None,
        constants: Optional[UarchConstants] = None,
    ) -> None:
        self.spec = spec
        self.nmp = nmp if nmp is not None else NmpConfig()
        self.constants = constants if constants is not None else DEFAULT_CONSTANTS
        self.baseline = CpuModel(spec, self.constants)

    def profile_graph(self, graph: Graph, input_bytes: int = 0) -> CpuGraphProfile:
        stacked = stack_tables([table_from_graph(graph, [input_bytes])])
        return profile_cells_cpu(
            stacked, self.spec, self.constants, nmp=self.nmp
        )[0]

    def speedup(self, graph: Graph) -> float:
        """End-to-end model-computation speedup over the plain CPU."""
        base = self.baseline.profile_graph(graph).compute_seconds
        nmp = self.profile_graph(graph).compute_seconds
        return base / nmp if nmp > 0 else float("inf")

"""The CPU pipeline model: graphs -> cycles + PMU events.

``CpuModel.profile_graph`` profiles one operator graph on one CPU as a
one-cell evaluation of :func:`~repro.uarch.vectorized.profile_cells_cpu`:
the graph's workloads become a :class:`~repro.ops.tables.WorkloadTable`,
and the evaluator runs synthesis, branches, backend ports, data memory,
the shared frontend, and the additive stall assembly over it.

The result carries both wall-clock (cycles / frequency + dispatch
overheads) and the full PMU event set every figure of Section VI reads.
"""

from __future__ import annotations

from typing import List, Optional

from repro.graph.graph import Graph
from repro.hw.platform import CpuSpec
from repro.ops.tables import stack_tables, table_from_graph, table_from_workloads
from repro.ops.workload import OpWorkload
from repro.uarch.constants import DEFAULT_CONSTANTS, UarchConstants
from repro.uarch.vectorized import CpuGraphProfile, CpuOpProfile, profile_cells_cpu

__all__ = ["CpuOpProfile", "CpuGraphProfile", "CpuModel"]


class CpuModel:
    """Analytical single-thread inference model for one CPU spec."""

    def __init__(
        self, spec: CpuSpec, constants: Optional[UarchConstants] = None
    ) -> None:
        self.spec = spec
        self.constants = constants if constants is not None else DEFAULT_CONSTANTS

    def profile_graph(self, graph: Graph, input_bytes: int = 0) -> CpuGraphProfile:
        stacked = stack_tables([table_from_graph(graph, [input_bytes])])
        return profile_cells_cpu(stacked, self.spec, self.constants)[0]

    def profile_workloads(
        self,
        graph_name: str,
        names: List[str],
        kinds: List[str],
        workloads: List[OpWorkload],
        input_bytes: int = 0,
    ) -> CpuGraphProfile:
        """Profile hand-built workloads as one graph (nodes in order)."""
        stacked = stack_tables(
            [table_from_workloads(graph_name, names, kinds, workloads, [input_bytes])]
        )
        return profile_cells_cpu(stacked, self.spec, self.constants)[0]

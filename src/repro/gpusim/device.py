"""Whole-graph GPU execution model.

End-to-end GPU inference time =

  input staging + PCIe transfers (one per input tensor)
  + per-graph framework/synchronization overhead
  + sum of per-operator device times (launch + roofline).

``GpuModel`` profiles one graph as a one-cell evaluation of
:func:`~repro.gpusim.vectorized.profile_cells_gpu`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.graph.graph import Graph
from repro.hw.platform import GpuSpec
from repro.gpusim.vectorized import (
    GpuGraphProfile,
    GpuOpProfile,
    profile_cells_gpu,
)
from repro.ops.tables import stack_tables, table_from_graph, table_from_workloads
from repro.ops.workload import OpWorkload

__all__ = ["GpuOpProfile", "GpuGraphProfile", "GpuModel"]


class GpuModel:
    """Analytical inference model for one PCIe-attached GPU."""

    def __init__(self, spec: GpuSpec) -> None:
        self.spec = spec

    def profile_graph(
        self, graph: Graph, input_tensor_bytes: Optional[Sequence[int]] = None
    ) -> GpuGraphProfile:
        if input_tensor_bytes is None:
            input_tensor_bytes = [
                graph.spec_of(name).nbytes for name in graph.input_names
            ]
        stacked = stack_tables([table_from_graph(graph, input_tensor_bytes)])
        return profile_cells_gpu(stacked, self.spec)[0]

    def profile_workloads(
        self,
        graph_name: str,
        names: List[str],
        kinds: List[str],
        workloads: List[OpWorkload],
        input_tensor_bytes: Sequence[int] = (),
    ) -> GpuGraphProfile:
        """Profile hand-built workloads as one graph (nodes in order)."""
        stacked = stack_tables(
            [
                table_from_workloads(
                    graph_name, names, kinds, workloads, input_tensor_bytes
                )
            ]
        )
        return profile_cells_gpu(stacked, self.spec)[0]

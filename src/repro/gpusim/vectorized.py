"""The GPU cost model: workload tables -> per-kernel roofline times.

:func:`profile_cells_gpu` evaluates any number of stacked graphs
("cells") on one GPU on ``(cells, nodes)`` arrays; profiling one graph
is the one-cell case (:class:`~repro.gpusim.device.GpuModel`). Each
operator lowers to ``kernel_launches`` device kernels, each costing a
launch overhead plus the larger of

* compute time = flops / (peak * class_efficiency * arch * occupancy),
  where occupancy ``fill ** 0.6`` rises with per-kernel parallelism
  (output fp32 words per kernel; small kernels cannot fill the SMs,
  which is what makes small-batch inference GPU-hostile), and
* memory time = bytes / (bandwidth * pattern efficiency), plus a
  per-kernel latency floor for irregular gathers.

End-to-end GPU inference time adds one PCIe transfer per input tensor
(:meth:`~repro.gpusim.pcie.PcieModel.batch_transfer`, one call per cell)
and a fixed per-graph synchronization overhead; the split between data
communication and model computation is kept explicit because Fig 4
reports exactly that ratio. The occupancy pow runs as a per-node Python
loop (CPython's float pow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.gpusim import kernels as _kernels
from repro.gpusim.kernels import KernelCostModel, OpDeviceProfile
from repro.gpusim.pcie import PcieModel, TransferProfile
from repro.hw.platform import GpuSpec
from repro.ops.tables import StackedTables

__all__ = ["GpuOpProfile", "GpuGraphProfile", "profile_cells_gpu"]

#: Fixed per-inference framework overhead: stream setup, output
#: readback, device synchronization (seconds).
_SYNC_OVERHEAD_S = 15e-6


@dataclass
class GpuOpProfile:
    node_name: str
    op_kind: str
    device: OpDeviceProfile

    @property
    def seconds(self) -> float:
        return self.device.seconds


class GpuGraphProfile:
    """Whole-graph GPU profile.

    ``compute_seconds`` and per-kind times are eager; per-op
    :class:`GpuOpProfile` rows materialize lazily.
    """

    def __init__(
        self,
        platform: str,
        graph_name: str,
        transfer: TransferProfile,
        sync_seconds: float,
        compute_seconds: float,
        time_by_kind: Dict[str, float],
        arrays: Dict[str, np.ndarray],
        cell_index: int,
        names: List[str],
        kinds: List[str],
        wl_kinds: List[str],
    ) -> None:
        self.platform = platform
        self.graph_name = graph_name
        self.transfer = transfer
        self.sync_seconds = sync_seconds
        self.compute_seconds = compute_seconds
        self._time_by_kind = time_by_kind
        self._arrays = arrays
        self._cell = cell_index
        self._names = names
        self._kinds = kinds
        self._wl_kinds = wl_kinds
        self._op_profiles: Optional[List[GpuOpProfile]] = None

    @property
    def data_comm_seconds(self) -> float:
        """CPU-GPU communication + framework overhead (Fig 4)."""
        return self.transfer.seconds + self.sync_seconds

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.data_comm_seconds

    @property
    def data_comm_fraction(self) -> float:
        total = self.total_seconds
        return self.data_comm_seconds / total if total else 0.0

    def time_by_kind(self) -> Dict[str, float]:
        """Device seconds per operator kind (the Fig 6 GPU panels)."""
        return dict(self._time_by_kind)

    @property
    def op_profiles(self) -> List[GpuOpProfile]:
        if self._op_profiles is None:
            self._op_profiles = self._materialize()
        return self._op_profiles

    @property
    def kernel_launches(self) -> int:
        return sum(p.device.kernel_count for p in self.op_profiles)

    @property
    def launch_seconds(self) -> float:
        return sum(p.device.launch_seconds for p in self.op_profiles)

    def time_decomposition(self) -> Dict[str, float]:
        """Where the device time goes: launches vs math vs memory.

        Per-kernel time is launch + max(compute, memory); the max is
        attributed to whichever term binds.
        """
        out = {"launch": 0.0, "compute": 0.0, "memory": 0.0}
        for p in self.op_profiles:
            out["launch"] += p.device.launch_seconds
            if p.device.compute_seconds >= p.device.memory_seconds:
                out["compute"] += p.device.compute_seconds
            else:
                out["memory"] += p.device.memory_seconds
        return out

    def _materialize(self) -> List[GpuOpProfile]:
        i, n = self._cell, len(self._names)
        rows = {name: arr[i, :n].tolist() for name, arr in self._arrays.items()}
        return [
            GpuOpProfile(
                node_name=name,
                op_kind=kind,
                device=OpDeviceProfile(
                    op_kind=wl_kind, **{f: rows[f][j] for f in rows}
                ),
            )
            for j, (name, kind, wl_kind) in enumerate(
                zip(self._names, self._kinds, self._wl_kinds)
            )
        ]


def profile_cells_gpu(
    stacked: StackedTables, spec: GpuSpec
) -> List[GpuGraphProfile]:
    """Profile every stacked cell on one GPU spec."""
    st = stacked
    valid = st.valid
    cost_model = KernelCostModel(spec)
    pcie = PcieModel(spec)

    # Per-node class efficiency x architecture factor (dict lookups per
    # node; COMPUTE_EFFICIENCY is consulted at call time, so registered
    # kinds take effect immediately).
    ce_arch = np.zeros(valid.shape, dtype=np.float64)
    for i, cell in enumerate(st.cells):
        ce_arch[i, : cell.n] = [
            cost_model.class_efficiency(k) * cost_model.arch_factor
            for k in cell.wl_kinds
        ]

    with np.errstate(all="ignore"):
        kernels = np.maximum(st.kernel_launches, 0)
        active = valid & (kernels > 0)
        launch = (kernels * spec.kernel_launch_us) * 1e-6

        # parallel_items: output fp32 words per kernel, flop fallback.
        written = st.bytes_written / 4.0
        written = np.where(written <= 0, st.flops / 64.0, written)
        parallel_items = np.maximum(
            written / np.maximum(st.kernel_launches, 1), 1.0
        )
        capacity = spec.sm_count * _kernels._THREADS_PER_SM
        fill = parallel_items / (parallel_items + capacity)

    # Occupancy: sub-linear in fill, reflecting latency hiding — a
    # partially-filled machine still overlaps memory and math.
    occ = np.zeros(valid.shape, dtype=np.float64)
    for i, cell in enumerate(st.cells):
        fill_row = fill[i, : cell.n].tolist()
        occ[i, : cell.n] = [f ** 0.6 for f in fill_row]

    with np.errstate(all="ignore"):
        efficiency = ce_arch * occ
        peak_flops = spec.peak_fp32_tflops * 1e12
        compute = np.where(
            st.flops > 0, st.flops / (peak_flops * efficiency), 0.0
        )

        # Stream traffic is platform-independent; computed once per
        # stack and shared across every GPU spec (and repeated sweeps).
        seq_bytes, rand_bytes, has_gather = st.gpu_traffic()

        bw = spec.dram_bandwidth_gbps * 1e9
        rand_eff = _kernels._RANDOM_BW_EFFICIENCY.get(
            spec.ddr_type, _kernels._DEFAULT_RANDOM_BW_EFFICIENCY
        )
        memory = seq_bytes / (bw * _kernels._SEQUENTIAL_BW_EFFICIENCY) + (
            rand_bytes / (bw * rand_eff)
        )
        gather_latency = _kernels._GATHER_LATENCY_US.get(
            spec.ddr_type, _kernels._DEFAULT_GATHER_LATENCY_US
        )
        memory = np.where(
            has_gather, memory + (kernels * gather_latency) * 1e-6, memory
        )

        seconds = np.where(active, launch + np.maximum(compute, memory), 0.0)
        total_seconds = np.where(valid, seconds, 0.0).cumsum(axis=1)[:, -1]

    # Zero-kernel (view) ops cost nothing: launch is 0 * overhead.
    arrays = dict(
        kernel_count=np.where(active, kernels, 0),
        launch_seconds=launch,
        compute_seconds=np.where(active, compute, 0.0),
        memory_seconds=np.where(active, memory, 0.0),
    )

    profiles: List[GpuGraphProfile] = []
    for i, cell in enumerate(st.cells):
        transfer = pcie.batch_transfer(list(cell.input_nbytes))
        secs_row = seconds[i, : cell.n].tolist()
        time_by_kind: Dict[str, float] = {}
        for kind, sec in zip(cell.kinds, secs_row):
            time_by_kind[kind] = time_by_kind.get(kind, 0.0) + sec
        profile = GpuGraphProfile(
            platform=spec.microarchitecture,
            graph_name=cell.graph_name,
            transfer=transfer,
            sync_seconds=_SYNC_OVERHEAD_S,
            compute_seconds=float(total_seconds[i]),
            time_by_kind=time_by_kind,
            arrays=arrays,
            cell_index=i,
            names=cell.names,
            kinds=cell.kinds,
            wl_kinds=cell.wl_kinds,
        )
        profiles.append(profile)
        if telemetry.enabled():
            registry = telemetry.get_registry()
            labels = dict(platform=spec.microarchitecture, graph=cell.graph_name)
            registry.counter("gpusim.graphs_profiled", **labels).inc()
            registry.counter(
                "gpusim.kernel_launches", **labels
            ).inc(profile.kernel_launches)
            registry.counter(
                "gpusim.pcie_bytes", **labels
            ).inc(cell.total_input_bytes)
    return profiles

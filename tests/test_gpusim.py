"""Tests for the GPU performance model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import TensorSpec
from repro.hw import GTX_1080_TI, T4
from repro.gpusim import GpuModel, KernelCostModel, PcieModel
from repro.models import build_model
from repro.ops import FC, EmbeddingTable, SparseLengthsSum
from repro.ops.workload import MemoryStream, OpWorkload, RANDOM, SEQUENTIAL


class TestPcieModel:
    def test_latency_floor(self):
        pcie = PcieModel(GTX_1080_TI)
        assert pcie.transfer_seconds(0) == pytest.approx(
            GTX_1080_TI.pcie_latency_us * 1e-6
        )

    def test_bandwidth_dominates_large_transfers(self):
        pcie = PcieModel(GTX_1080_TI)
        one_gb = 1 << 30
        t = pcie.transfer_seconds(one_gb)
        wire = one_gb / (GTX_1080_TI.pcie_bandwidth_gbps * 1e9)
        assert t >= wire

    def test_per_tensor_latency_accumulates(self):
        """RM2's 33 input tensors pay 33 transfer latencies (Fig 4)."""
        pcie = PcieModel(GTX_1080_TI)
        many = pcie.batch_transfer([1024] * 33)
        one = pcie.batch_transfer([1024 * 33])
        assert many.seconds > one.seconds
        assert many.num_transfers == 33

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PcieModel(T4).transfer_seconds(-1)


def device(spec, workload):
    """Device profile of one op, profiled as a one-node graph."""
    profile = GpuModel(spec).profile_workloads(
        "g", ["n"], [workload.op_kind], [workload]
    )
    return profile.op_profiles[0].device


class TestKernelCostModel:
    def test_occupancy_monotonic_saturating(self):
        # Achieved flop rate per kernel rises with its output width
        # (SM fill) and stays below the fully-occupied ceiling.
        spec = GTX_1080_TI
        km = KernelCostModel(spec)
        ceiling = (
            spec.peak_fp32_tflops * 1e12 * km.class_efficiency("FC")
            * km.arch_factor
        )
        flops = 10**9
        rates = []
        for words in (10**2, 10**4, 10**6, 10**8):
            w = OpWorkload(
                op_kind="FC", flops=flops,
                streams=(MemoryStream(4 * words, words, 4, is_write=True),),
            )
            rates.append(flops / device(spec, w).compute_seconds)
        assert rates == sorted(rates)
        assert rates[-1] < ceiling

    def test_launch_floor(self):
        w = OpWorkload(op_kind="Concat", kernel_launches=750)
        p = device(GTX_1080_TI, w)
        assert p.seconds >= 750 * GTX_1080_TI.kernel_launch_us * 1e-6

    def test_small_kernels_low_efficiency(self):
        """Batch-1 GEMMs cannot fill the machine."""
        fc = FC(2048, 1024, "t")
        small = device(GTX_1080_TI, fc.workload([TensorSpec((1, 2048))]))
        large = device(GTX_1080_TI, fc.workload([TensorSpec((16384, 2048))]))
        flops_small = 2 * 1 * 2048 * 1024
        flops_large = 2 * 16384 * 2048 * 1024
        assert (flops_large / large.compute_seconds) > 5 * (
            flops_small / small.compute_seconds
        )

    def test_gather_memory_bound(self):
        table = EmbeddingTable(1_000_000, 32, "t")
        w = SparseLengthsSum(table).workload([TensorSpec((4096, 120), "int64")])
        p = device(GTX_1080_TI, w)
        assert p.memory_seconds > p.compute_seconds

    def test_gddr6_serves_gathers_better(self):
        table = EmbeddingTable(1_000_000, 32, "t")
        w = SparseLengthsSum(table).workload([TensorSpec((4096, 120), "int64")])
        pascal = device(GTX_1080_TI, w)
        turing = device(T4, w)
        # Despite 1080 Ti's higher raw bandwidth, GDDR6's better random
        # efficiency keeps T4 in the same league (paper Section IV #4).
        assert turing.memory_seconds < 1.5 * pascal.memory_seconds

    def test_turing_arch_bonus(self):
        km_t4 = KernelCostModel(T4)
        km_gtx = KernelCostModel(GTX_1080_TI)
        assert km_t4.arch_factor > km_gtx.arch_factor

    def test_zero_kernel_view_op_free(self):
        w = OpWorkload(op_kind="Reshape", kernel_launches=0)
        assert device(T4, w).seconds == 0.0


class TestGpuModel:
    def test_profile_graph_totals(self):
        model = build_model("rm1")
        gpu = GpuModel(GTX_1080_TI)
        profile = gpu.profile_graph(model.build_graph(64))
        assert profile.total_seconds == pytest.approx(
            profile.compute_seconds + profile.data_comm_seconds
        )
        assert 0 < profile.data_comm_fraction < 1

    def test_data_comm_fraction_grows_with_batch(self):
        """Fig 4: communication share rises with batch size."""
        model = build_model("rm2")
        gpu = GpuModel(GTX_1080_TI)
        fractions = [
            gpu.profile_graph(model.build_graph(b)).data_comm_fraction
            for b in (16, 1024, 16384)
        ]
        assert fractions[0] < fractions[-1]

    def test_embedding_models_suffer_most_data_comm(self):
        """Fig 4: lookup-heavy models pay the most for input offload."""
        gpu = GpuModel(GTX_1080_TI)
        rm2 = gpu.profile_graph(build_model("rm2").build_graph(4096))
        rm3 = gpu.profile_graph(build_model("rm3").build_graph(4096))
        assert rm2.data_comm_fraction > rm3.data_comm_fraction

    def test_time_by_kind_sums_to_compute(self):
        gpu = GpuModel(T4)
        profile = gpu.profile_graph(build_model("wnd").build_graph(256))
        assert sum(profile.time_by_kind().values()) == pytest.approx(
            profile.compute_seconds
        )

    def test_din_launch_dominated_at_small_batch(self):
        gpu = GpuModel(GTX_1080_TI)
        profile = gpu.profile_graph(build_model("din").build_graph(4))
        assert profile.kernel_launches > 2000

    @given(st.sampled_from([1, 16, 256, 4096]))
    @settings(max_examples=8)
    def test_gpu_time_monotonic_in_batch(self, batch):
        gpu = GpuModel(T4)
        model = build_model("ncf")
        t_small = gpu.profile_graph(model.build_graph(batch)).total_seconds
        t_big = gpu.profile_graph(model.build_graph(batch * 4)).total_seconds
        assert t_big >= t_small * 0.99

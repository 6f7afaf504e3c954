"""Property-based tests over the performance models.

Hypothesis generates arbitrary (but physically sensible) workloads and
configurations; the models must respect basic physics: non-negativity,
monotonicity in work, conservation of accounting identities.
"""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.hw import BROADWELL, CASCADE_LAKE, GTX_1080_TI, T4
from repro.gpusim import GpuModel
from repro.ops.workload import MemoryStream, OpWorkload, RANDOM, SEQUENTIAL
from repro.uarch import CpuModel, topdown_from_events


def workload_strategy():
    stream = st.builds(
        MemoryStream,
        footprint_bytes=st.integers(min_value=64, max_value=1 << 30),
        accesses=st.integers(min_value=1, max_value=1_000_000),
        granule_bytes=st.sampled_from([32, 64, 128, 256]),
        pattern=st.sampled_from([SEQUENTIAL, RANDOM]),
        locality=st.floats(min_value=0.0, max_value=1.0),
        is_write=st.booleans(),
        parallelism=st.integers(min_value=1, max_value=512),
    )
    return st.builds(
        OpWorkload,
        op_kind=st.sampled_from(["FC", "SparseLengthsSum", "Concat", "X"]),
        flops=st.integers(min_value=0, max_value=10**10),
        vector_fraction=st.floats(min_value=0.0, max_value=1.0),
        uses_fma=st.booleans(),
        scalar_ops=st.integers(min_value=0, max_value=10**7),
        streams=st.lists(stream, max_size=4).map(tuple),
        code_bytes=st.integers(min_value=128, max_value=512 * 1024),
        unique_code_blocks=st.integers(min_value=1, max_value=1000),
        branches=st.integers(min_value=0, max_value=10**7),
        branch_entropy=st.floats(min_value=0.0, max_value=1.0),
        kernel_launches=st.integers(min_value=1, max_value=4000),
        sequential_steps=st.integers(min_value=1, max_value=256),
    )


def cpu_op(spec, workload):
    profile = CpuModel(spec).profile_workloads(
        "g", ["n"], [workload.op_kind], [workload]
    )
    return profile.op_profiles[0]


def gpu_device(spec, workload):
    profile = GpuModel(spec).profile_workloads(
        "g", ["n"], [workload.op_kind], [workload]
    )
    return profile.op_profiles[0].device


class TestCpuModelProperties:
    @given(workload_strategy())
    def test_cycles_finite_positive_and_accounted(self, workload):
        cpu = CpuModel(BROADWELL)
        profile = cpu.profile_workloads("g", ["n0"], [workload.op_kind], [workload])
        (op,) = profile.op_profiles
        assert math.isfinite(op.cycles)
        assert op.cycles > 0
        assert op.cycles == pytest.approx(
            op.execution_cycles
            + op.memory_stall_cycles
            + op.frontend_stall_cycles
            + op.bad_speculation_cycles
        )
        for value in (
            op.execution_cycles,
            op.memory_stall_cycles,
            op.frontend_stall_cycles,
            op.bad_speculation_cycles,
        ):
            assert value >= 0

    @given(workload_strategy())
    def test_topdown_always_valid(self, workload):
        cpu = CpuModel(CASCADE_LAKE)
        profile = cpu.profile_workloads("g", ["n0"], [workload.op_kind], [workload])
        td = topdown_from_events(profile.events)
        td.validate()

    @given(
        workload_strategy(),
        st.integers(min_value=2, max_value=16),
    )
    def test_more_flops_never_faster(self, workload, factor):
        assume(workload.flops > 1000)
        cpu = CpuModel(BROADWELL)
        bigger = OpWorkload(
            op_kind=workload.op_kind,
            flops=workload.flops * factor,
            vector_fraction=workload.vector_fraction,
            uses_fma=workload.uses_fma,
            scalar_ops=workload.scalar_ops,
            streams=workload.streams,
            code_bytes=workload.code_bytes,
            unique_code_blocks=workload.unique_code_blocks,
            branches=workload.branches,
            branch_entropy=workload.branch_entropy,
            kernel_launches=workload.kernel_launches,
            sequential_steps=workload.sequential_steps,
        )
        base = cpu.profile_workloads("g", ["n"], [workload.op_kind], [workload])
        more = cpu.profile_workloads("g", ["n"], [workload.op_kind], [bigger])
        assert more.op_profiles[0].cycles >= base.op_profiles[0].cycles

    @given(workload_strategy())
    def test_events_nonnegative(self, workload):
        cpu = CpuModel(BROADWELL)
        profile = cpu.profile_workloads("g", ["n"], [workload.op_kind], [workload])
        for name, value in profile.events.as_dict().items():
            assert value >= 0, name


class TestComponentProperties:
    @given(workload_strategy())
    def test_instruction_mix_nonnegative(self, workload):
        for spec in (BROADWELL, CASCADE_LAKE):
            events = cpu_op(spec, workload).events
            assert events.instructions >= 0
            assert events.avx_instructions <= events.instructions + 1e-6

    @given(workload_strategy())
    def test_memory_profile_conserves_accesses(self, workload):
        op = cpu_op(BROADWELL, workload)
        e = op.events
        total_levels = (
            e.l1d_accesses + e.l2_accesses + e.l3_accesses + e.dram_accesses
        )
        total_streams = sum(s.accesses for s in workload.streams)
        assert total_levels == pytest.approx(total_streams, rel=1e-6, abs=1e-6)
        # Occupancy lies in [0, 1], so congestion never exceeds the stall.
        assert 0.0 <= e.dram_congested_cycles
        assert e.dram_congested_cycles <= op.memory_stall_cycles * (1 + 1e-12)

    @given(workload_strategy())
    def test_backend_histogram_simplex(self, workload):
        op = cpu_op(BROADWELL, workload)
        e = op.events
        total = e.port_cycles_0 + e.port_cycles_1_2 + e.port_cycles_3_plus
        assert total == pytest.approx(op.cycles, rel=1e-6)


class TestGpuModelProperties:
    @given(workload_strategy())
    def test_kernel_time_at_least_launch_floor(self, workload):
        for spec in (GTX_1080_TI, T4):
            profile = gpu_device(spec, workload)
            assert profile.seconds >= profile.launch_seconds
            assert profile.launch_seconds == pytest.approx(
                workload.kernel_launches * spec.kernel_launch_us * 1e-6
            )

    @given(workload_strategy(), st.integers(min_value=2, max_value=8))
    def test_gpu_compute_monotonic_in_flops(self, workload, factor):
        assume(workload.flops > 1000)
        bigger = OpWorkload(
            op_kind=workload.op_kind,
            flops=workload.flops * factor,
            vector_fraction=workload.vector_fraction,
            uses_fma=workload.uses_fma,
            scalar_ops=workload.scalar_ops,
            streams=workload.streams,
            code_bytes=workload.code_bytes,
            unique_code_blocks=workload.unique_code_blocks,
            branches=workload.branches,
            branch_entropy=workload.branch_entropy,
            kernel_launches=workload.kernel_launches,
            sequential_steps=workload.sequential_steps,
        )
        assert (
            gpu_device(T4, bigger).compute_seconds
            >= gpu_device(T4, workload).compute_seconds
        )

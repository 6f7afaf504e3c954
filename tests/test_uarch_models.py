"""Tests for the CPU microarchitecture component models.

Synthesis, branch, backend and memory behaviour are checked through
one-op profiles of the full CPU model: each test asserts on the PMU
events or op-profile fields its mechanism drives.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import BROADWELL, CASCADE_LAKE
from repro.ops.workload import MemoryStream, OpWorkload, RANDOM, SEQUENTIAL
from repro.uarch import (
    CodeRegion,
    CpuModel,
    DEFAULT_CONSTANTS,
    FrontendModel,
)


def make_workload(**kwargs):
    defaults = dict(op_kind="X", flops=10_000, vector_fraction=0.9, uses_fma=True)
    defaults.update(kwargs)
    return OpWorkload(**defaults)


def profile_op(workload, spec=BROADWELL, constants=DEFAULT_CONSTANTS):
    """One-op profile of ``workload`` on ``spec``."""
    profile = CpuModel(spec, constants).profile_workloads(
        "g", ["n"], [workload.op_kind], [workload]
    )
    (op,) = profile.op_profiles
    return op


def gather(parallelism, accesses=10_000):
    return make_workload(
        streams=(
            MemoryStream(4 << 30, accesses, 128, RANDOM, 0.1,
                         parallelism=parallelism),
        )
    )


class TestSynthesize:
    def test_wider_simd_fewer_vector_instructions(self):
        w = make_workload()
        bdw = profile_op(w, BROADWELL).events
        clx = profile_op(w, CASCADE_LAKE).events
        assert clx.avx_instructions < bdw.avx_instructions
        assert clx.instructions < bdw.instructions  # Fig 11

    def test_vnni_reduces_fma_instructions_only(self):
        fma = make_workload(uses_fma=True)
        plain = make_workload(uses_fma=False)

        def clx_over_bdw(w):
            return (
                profile_op(w, CASCADE_LAKE).events.avx_instructions
                / profile_op(w, BROADWELL).events.avx_instructions
            )

        # Ratio of CLX/BDW vector instructions is lower for FMA ops
        # (VNNI bonus) than for plain vector ops.
        assert clx_over_bdw(fma) < clx_over_bdw(plain)

    def test_avx_fraction_tracks_vector_fraction(self):
        lo = profile_op(make_workload(vector_fraction=0.1)).events
        hi = profile_op(make_workload(vector_fraction=0.97)).events
        assert hi.avx_fraction > lo.avx_fraction

    def test_random_streams_cost_per_access_loads(self):
        seq = make_workload(
            streams=(MemoryStream(1 << 20, 1024, 64, SEQUENTIAL),)
        )
        rand = make_workload(
            streams=(MemoryStream(1 << 20, 1024, 64, RANDOM),)
        )
        assert (
            profile_op(rand).events.avx_instructions
            >= profile_op(seq).events.avx_instructions
        )

    def test_stores_counted(self):
        bare = profile_op(make_workload()).events
        w = make_workload(
            streams=(MemoryStream(4096, 64, 64, SEQUENTIAL, is_write=True),)
        )
        stored = profile_op(w).events
        # Stores add instructions but no (vector) loads.
        assert stored.instructions > bare.instructions
        assert stored.avx_instructions == bare.avx_instructions


class TestBranchModel:
    def test_zero_entropy_never_mispredicts(self):
        op = profile_op(make_workload(branches=10_000, branch_entropy=0.0))
        assert op.events.branch_mispredicts == 0
        assert op.bad_speculation_cycles == 0

    def test_cascade_lake_mispredicts_less(self):
        w = make_workload(branches=10_000, branch_entropy=0.3)
        bdw = profile_op(w, BROADWELL)
        clx = profile_op(w, CASCADE_LAKE)
        assert clx.events.branch_mispredicts < bdw.events.branch_mispredicts
        assert clx.bad_speculation_cycles < bdw.bad_speculation_cycles  # Fig 15

    def test_rate_scales_with_entropy(self):
        def mispredicts(entropy):
            w = make_workload(branches=10_000, branch_entropy=entropy)
            return profile_op(w).events.branch_mispredicts

        assert mispredicts(0.4) == pytest.approx(2 * mispredicts(0.2))

    def test_invalid_entropy_rejected(self):
        with pytest.raises(ValueError):
            make_workload(branches=10, branch_entropy=1.5)


class TestBackendModel:
    def test_execution_at_least_issue_limited(self):
        op = profile_op(make_workload())
        issue_cycles = op.events.uops_retired / BROADWELL.issue_width
        assert op.execution_cycles >= issue_cycles
        assert 0 <= op.core_bound_cycles <= op.execution_cycles

    def test_port_histogram_is_distribution(self):
        op = profile_op(make_workload(flops=1_000_000))
        e = op.events
        parts = (e.port_cycles_0, e.port_cycles_1_2, e.port_cycles_3_plus)
        assert all(p >= 0 for p in parts)
        assert sum(parts) == pytest.approx(op.cycles)

    def test_stall_cycles_dilute_port_usage(self):
        # Same uops; mispredicts add bad-speculation cycles with idle
        # ports, diluting the 3+-busy share.
        busy = profile_op(
            make_workload(flops=1_000_000, branches=100_000, branch_entropy=0.0)
        )
        stalled = profile_op(
            make_workload(flops=1_000_000, branches=100_000, branch_entropy=1.0)
        )
        assert stalled.events.uops_retired == busy.events.uops_retired
        assert stalled.cycles > busy.cycles
        assert (
            stalled.events.port_cycles_3_plus / stalled.cycles
            < busy.events.port_cycles_3_plus / busy.cycles
        )


class TestMemoryModel:
    def test_l1_resident_stream_no_stall(self):
        w = make_workload(streams=(MemoryStream(8 * 1024, 100, 64, SEQUENTIAL),))
        op = profile_op(w)
        assert op.memory_stall_cycles == 0
        assert op.events.dram_accesses == 0

    def test_giant_gather_hits_dram(self):
        op = profile_op(gather(parallelism=80))
        assert op.events.dram_accesses > 5000
        assert op.memory_stall_cycles > 0

    def test_more_parallel_lookups_higher_occupancy(self):
        # With a zero congestion threshold, congested cycles are exactly
        # the memory stall scaled by the offcore-queue occupancy.
        constants = dataclasses.replace(
            DEFAULT_CONSTANTS, dram_congestion_threshold=0.0
        )

        def occupancy(parallelism):
            op = profile_op(gather(parallelism), constants=constants)
            return op.events.dram_congested_cycles / op.memory_stall_cycles

        assert occupancy(120) > occupancy(80) > occupancy(1)  # Fig 14 driver

    def test_congestion_rule_threshold(self):
        low = profile_op(gather(parallelism=1))
        high = profile_op(gather(parallelism=120))
        assert low.events.dram_congested_cycles == 0.0
        assert high.events.dram_congested_cycles > 0.0

    def test_gather_mlp_caps_at_offcore_depth(self):
        def stall(parallelism):
            return profile_op(gather(parallelism, accesses=1000)).memory_stall_cycles

        # Beyond the offcore request depth, more lookups hide nothing.
        assert stall(100_000) == stall(10_000_000)
        assert stall(100_000) < stall(4)

    def test_sequential_dram_stream_bandwidth_bound(self):
        nbytes = 1 << 30
        w = make_workload(
            streams=(MemoryStream(nbytes, nbytes // 64, 64, SEQUENTIAL),)
        )
        op = profile_op(w)
        bytes_per_cycle = BROADWELL.dram_bandwidth_gbps / BROADWELL.frequency_ghz
        assert op.memory_stall_cycles >= nbytes / bytes_per_cycle * 0.9


class TestFrontendModel:
    def _region(self, name, code_bytes, instructions, entries=1, blocks=1,
                branches=0, mispredicts=0):
        return CodeRegion(
            name=name,
            code_bytes=code_bytes,
            unique_blocks=blocks,
            entries=entries,
            instructions=instructions,
            uops=instructions * 1.05,
            branches=branches,
            mispredicts=mispredicts,
        )

    def test_small_code_is_dsb_resident(self):
        fm = FrontendModel(BROADWELL, DEFAULT_CONSTANTS)
        profiles = fm.analyze([self._region("hot", 2048, 1_000_000)])
        assert profiles["hot"].dsb_resident
        assert profiles["hot"].icache_misses == 0

    def test_huge_code_misses_icache(self):
        fm = FrontendModel(BROADWELL, DEFAULT_CONSTANTS)
        profiles = fm.analyze(
            [self._region("din", 240_000, 1_000_000, entries=10_000, blocks=750)]
        )
        p = profiles["din"]
        assert not p.l1i_resident
        assert p.icache_misses > 0
        assert p.latency_cycles > 0

    def test_dsb_residency_is_per_region(self):
        """The DSB swaps between operators: any loop that fits the uop
        cache decodes from it, regardless of other regions; only a
        monolithic unrolled region (DIN) exceeds it and uses MITE."""
        fm = FrontendModel(BROADWELL, DEFAULT_CONSTANTS)
        regions = [
            self._region("loop_a", 4096, 10_000_000),
            self._region("loop_b", 4096, 1_000),
            self._region("unrolled", 240_000, 5_000_000, blocks=750),
        ]
        profiles = fm.analyze(regions)
        assert profiles["loop_a"].dsb_resident
        assert profiles["loop_b"].dsb_resident
        assert not profiles["unrolled"].dsb_resident
        assert profiles["unrolled"].mite_uops > 0

    def test_branchy_resident_code_dsb_limited(self):
        fm = FrontendModel(BROADWELL, DEFAULT_CONSTANTS)
        profiles = fm.analyze(
            [self._region("sls", 2048, 100_000, branches=20_000, mispredicts=500)]
        )
        p = profiles["sls"]
        assert p.dsb_limited_cycles > 0
        assert p.mite_limited_cycles == 0

    def test_dispatch_instructions_scale_with_entries(self):
        fm = FrontendModel(BROADWELL, DEFAULT_CONSTANTS)
        p1 = fm.analyze([self._region("a", 2048, 1000, entries=1)])["a"]
        p100 = fm.analyze([self._region("a", 2048, 1000, entries=100)])["a"]
        assert p100.dispatch_instructions == pytest.approx(
            100 * p1.dispatch_instructions
        )

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=15)
    def test_stall_cycles_never_negative(self, n_regions):
        fm = FrontendModel(CASCADE_LAKE, DEFAULT_CONSTANTS)
        rng = np.random.default_rng(n_regions)
        regions = [
            self._region(
                f"r{i}",
                int(rng.integers(128, 100_000)),
                int(rng.integers(100, 10_000_000)),
                entries=int(rng.integers(1, 1000)),
                branches=int(rng.integers(0, 10_000)),
                mispredicts=int(rng.integers(0, 100)),
            )
            for i in range(n_regions)
        ]
        for p in fm.analyze(regions).values():
            assert p.latency_cycles >= 0
            assert p.dsb_limited_cycles >= 0
            assert p.mite_limited_cycles >= 0

"""Tests for the cache simulation substrate.

Includes the trace-driven/analytical cross-validation that justifies
using the closed-form residency model in the fast path.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw import BROADWELL, CASCADE_LAKE
from repro.ops.workload import MemoryStream, OpWorkload, RANDOM, SEQUENTIAL
from repro.uarch import (
    AnalyticalHierarchy,
    CacheHierarchy,
    CpuModel,
    SetAssociativeCache,
)


class TestSetAssociativeCache:
    def test_cold_miss_then_hit(self):
        c = SetAssociativeCache(64 * 8 * 4, ways=4)
        assert not c.access(0)
        assert c.access(0)

    def test_same_line_same_tag(self):
        c = SetAssociativeCache(64 * 8 * 4, ways=4)
        c.access(0)
        assert c.access(63)  # same 64B line
        assert not c.access(64)  # next line

    def test_lru_eviction_order(self):
        # 1 set x 2 ways: third distinct line in the set evicts the LRU.
        c = SetAssociativeCache(64 * 2, ways=2)
        c.access(0)       # line A
        c.access(64)      # line B
        c.access(0)       # touch A (B is now LRU)
        c.access(128)     # line C evicts B
        assert c.access(0)
        assert not c.access(64)

    def test_capacity_respected(self):
        c = SetAssociativeCache(64 * 16, ways=4)  # 16 lines
        for i in range(32):
            c.access(i * 64)
        hits = sum(c.access(i * 64) for i in range(32))
        assert hits <= 16

    def test_working_set_within_capacity_all_hits(self):
        c = SetAssociativeCache(64 * 64, ways=8)
        addrs = [i * 64 for i in range(32)]
        for a in addrs:
            c.access(a)
        assert all(c.access(a) for a in addrs)

    def test_invalidate(self):
        c = SetAssociativeCache(64 * 8, ways=2)
        c.access(0)
        assert c.invalidate(0)
        assert not c.probe(0)
        assert not c.invalidate(0)

    def test_too_small_cache_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(64, ways=4)

    def test_miss_rate(self):
        c = SetAssociativeCache(64 * 8, ways=2)
        c.access(0)
        c.access(0)
        assert c.miss_rate == pytest.approx(0.5)


class TestCacheHierarchy:
    def _small(self, inclusive):
        return CacheHierarchy(
            l1_bytes=64 * 8,
            l2_bytes=64 * 32,
            l3_bytes=64 * 128,
            inclusive=inclusive,
            l1_ways=2,
            l2_ways=4,
            l3_ways=8,
        )

    @pytest.mark.parametrize("inclusive", [True, False])
    def test_first_access_is_dram(self, inclusive):
        h = self._small(inclusive)
        assert h.access(0) == "dram"

    @pytest.mark.parametrize("inclusive", [True, False])
    def test_immediate_reuse_hits_l1(self, inclusive):
        h = self._small(inclusive)
        h.access(0)
        assert h.access(0) == "l1"

    def test_l1_victim_hits_l2(self):
        h = self._small(inclusive=True)
        h.access(0)
        # Evict line 0 from tiny L1 (2-way, 4 sets) with two conflicting lines.
        h.access(256)
        h.access(512)
        assert h.access(0) == "l2"

    def test_exclusive_l3_is_victim_cache(self):
        h = self._small(inclusive=False)
        h.access(0)
        # Before any L2 eviction, the line is in L2 but NOT in L3.
        assert not h.l3.probe(0)

    def test_inclusive_l3_holds_everything(self):
        h = self._small(inclusive=True)
        for i in range(8):
            h.access(i * 64)
        for i in range(8):
            assert h.l3.probe(i * 64)

    def test_exclusive_hierarchy_total_capacity_exceeds_inclusive(self):
        """Victim L3 + L2 hold more unique lines than inclusive L2/L3."""
        n_lines = 150  # > L3 capacity (128), < L2+L3 (160)
        addrs = [i * 64 for i in range(n_lines)]
        results = {}
        for inclusive in (True, False):
            h = self._small(inclusive)
            for a in addrs:
                h.access(a)
            # Second sweep: count DRAM re-misses.
            counts = h.run_trace(addrs)
            results[inclusive] = counts["dram"]
        assert results[False] <= results[True]

    def test_run_trace_counts_sum(self):
        h = self._small(inclusive=True)
        counts = h.run_trace(range(0, 64 * 50, 64))
        assert sum(counts.values()) == 50

    def test_for_cpu_uses_table2_sizes(self):
        h = CacheHierarchy.for_cpu(BROADWELL)
        assert h.l1.capacity_bytes == 32 * 1024
        assert h.l2.capacity_bytes == 256 * 1024
        assert h.inclusive
        h2 = CacheHierarchy.for_cpu(CASCADE_LAKE)
        assert h2.l2.capacity_bytes == 1024 * 1024
        assert not h2.inclusive


class TestAnalyticalHierarchy:
    def test_l1_resident_sequential(self):
        a = AnalyticalHierarchy(BROADWELL)
        levels = a.classify(MemoryStream(16 * 1024, 100, 64, SEQUENTIAL))
        assert levels.l1 == 100

    def test_llc_overflow_goes_to_dram(self):
        a = AnalyticalHierarchy(BROADWELL)
        big = 1024 * 1024 * 1024  # 1 GB
        levels = a.classify(MemoryStream(big, 1000, 64, SEQUENTIAL, locality=0.0))
        assert levels.dram == 1000

    def test_conservation_of_accesses(self):
        a = AnalyticalHierarchy(BROADWELL)
        for pattern in (SEQUENTIAL, RANDOM):
            for footprint in (1024, 10**6, 10**9):
                levels = a.classify(
                    MemoryStream(footprint, 500, 64, pattern, locality=0.3)
                )
                assert levels.total == pytest.approx(500)

    def test_random_locality_reduces_dram(self):
        a = AnalyticalHierarchy(BROADWELL)
        big = 1024**3
        cold = a.classify(MemoryStream(big, 1000, 128, RANDOM, locality=0.0))
        warm = a.classify(MemoryStream(big, 1000, 128, RANDOM, locality=0.4))
        assert warm.dram < cold.dram

    def test_small_random_table_hits_cache(self):
        """A table under the LLC size (DIN/NCF tables) mostly hits."""
        a = AnalyticalHierarchy(BROADWELL)
        levels = a.classify(
            MemoryStream(20 * 1024 * 1024, 1000, 256, RANDOM, locality=0.2)
        )
        assert levels.dram < 100

    def test_exclusive_l3_effective_capacity(self):
        assert CASCADE_LAKE.l3_effective_kb == 22 * 1024 + 1024
        assert BROADWELL.l3_effective_kb == 40 * 1024

    @given(
        footprint_kb=st.sampled_from([8, 64, 512, 4096, 262144]),
        locality=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_levels_never_negative(self, footprint_kb, locality):
        a = AnalyticalHierarchy(CASCADE_LAKE)
        levels = a.classify(
            MemoryStream(footprint_kb * 1024, 1000, 64, RANDOM, locality=locality)
        )
        assert levels.l1 >= 0 and levels.l2 >= 0
        assert levels.l3 >= 0 and levels.dram >= 0
        assert levels.total == pytest.approx(1000, rel=1e-6)


class TestClassifyMatchesEvaluator:
    """``classify`` is the scalar reference for the evaluator's per-stream
    level split: a one-stream op profiled by ``CpuModel`` must report
    exactly the accesses ``classify`` assigns to each level."""

    #: Footprints resident in L1, L2, L3 and DRAM on both CPUs.
    FOOTPRINTS = {
        "l1": 16 * 1024,
        "l2": 128 * 1024,
        "l3": 8 * 1024 * 1024,
        "dram": 1024**3,
    }

    @pytest.mark.parametrize("spec", [BROADWELL, CASCADE_LAKE], ids=["bdw", "clx"])
    @pytest.mark.parametrize("pattern", [RANDOM, SEQUENTIAL])
    @pytest.mark.parametrize("level", sorted(FOOTPRINTS))
    def test_level_split_equals_classify(self, spec, pattern, level):
        reference = AnalyticalHierarchy(spec)
        model = CpuModel(spec)
        for locality in (0.0, 0.2, 0.6):
            for accesses in (1000, 4097):
                stream = MemoryStream(
                    self.FOOTPRINTS[level], accesses, 64, pattern,
                    locality=locality,
                )
                workload = OpWorkload("SparseLengthsSum", flops=100,
                                      streams=(stream,))
                events = model.profile_workloads(
                    "g", ["n"], [workload.op_kind], [workload]
                ).op_profiles[0].events
                levels = reference.classify(stream)
                assert (
                    events.l1d_accesses, events.l2_accesses,
                    events.l3_accesses, events.dram_accesses,
                ) == (levels.l1, levels.l2, levels.l3, levels.dram)


class TestTraceCrossValidation:
    """The closed-form model should agree with the trace simulator on
    the DRAM-traffic *ordering* of representative embedding streams."""

    def _trace_dram_rate(self, rows, row_bytes, n_accesses, rng):
        h = CacheHierarchy(
            l1_bytes=32 * 1024,
            l2_bytes=256 * 1024,
            l3_bytes=2 * 1024 * 1024,  # scaled-down LLC
            inclusive=True,
        )
        table_bytes = rows * row_bytes
        indices = rng.integers(0, rows, size=n_accesses)
        counts = {"l1": 0, "l2": 0, "l3": 0, "dram": 0}
        for idx in indices:
            level = h.access(int(idx) * row_bytes)
            counts[level] += 1
        return counts["dram"] / n_accesses

    def test_bigger_tables_miss_more(self):
        rng = np.random.default_rng(3)
        small = self._trace_dram_rate(1_000, 128, 4000, rng)
        large = self._trace_dram_rate(200_000, 128, 4000, rng)
        assert large > small

    def test_analytical_agrees_on_ordering(self):
        spec = BROADWELL.with_overrides(l3_mb=2.0)
        a = AnalyticalHierarchy(spec)
        small = a.classify(MemoryStream(1_000 * 128, 4000, 128, RANDOM))
        large = a.classify(MemoryStream(200_000 * 128, 4000, 128, RANDOM))
        assert large.dram > small.dram

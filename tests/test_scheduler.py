"""Tests for the query-scheduling simulation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SpeedupStudy
from repro.models import build_model
from repro.runtime import (
    BatchingPolicy,
    InferenceSession,
    QueryScheduler,
    ScheduleResult,
    ServiceTimeModel,
)


@pytest.fixture(scope="module")
def sweep():
    models = {n: build_model(n) for n in ("rm2", "rm3")}
    return SpeedupStudy(models=models, batch_sizes=[1, 16, 256, 4096]).run()


class TestServiceTimeModel:
    def test_exact_at_profiled_points(self, sweep):
        stm = ServiceTimeModel(sweep, "rm3", "t4")
        for batch in (1, 16, 256, 4096):
            assert stm.seconds(batch) == pytest.approx(
                sweep.total_seconds("rm3", "t4", batch)
            )

    def test_interpolation_monotonic(self, sweep):
        stm = ServiceTimeModel(sweep, "rm3", "broadwell")
        times = [stm.seconds(b) for b in (1, 3, 16, 40, 256, 1000, 4096)]
        assert times == sorted(times)

    def test_extrapolates_beyond_top_knot(self, sweep):
        """Past the top knot each query adds the last segment's marginal
        cost; below the first knot the model is flat."""
        stm = ServiceTimeModel(sweep, "rm2", "broadwell")
        top = sweep.total_seconds("rm2", "broadwell", 4096)
        marginal = (top - sweep.total_seconds("rm2", "broadwell", 256)) / (
            4096 - 256
        )
        assert stm.seconds(8192) == pytest.approx(top + 4096 * marginal)
        assert stm.seconds(4096) < stm.seconds(8192) < stm.seconds(10 ** 9)
        below = ServiceTimeModel.__new__(ServiceTimeModel)
        below._set_knots([4, 16], [1.0, 2.0])
        assert below.seconds(1) == below.seconds(4) == 1.0

    def test_calibrated_model_throughput_stays_bounded(self):
        """rm1 on the T4 calibrated at 128 (knots 1/32/128/256): past 256
        latency keeps rising, and throughput stays under one query per
        marginal second (~277k QPS)."""
        stm = ServiceTimeModel.calibrate(
            InferenceSession(build_model("rm1"), "t4"), 128
        )
        assert stm._batches == [1, 32, 128, 256]
        assert stm.seconds(256) < stm.seconds(512) < stm.seconds(4096)
        assert stm.comm_seconds(256) < stm.comm_seconds(512)
        marginal = (stm.seconds(256) - stm.seconds(128)) / 128
        for batch in (256, 512, 4096, 10 ** 6):
            assert batch / stm.seconds(batch) < 1 / marginal

    def test_one_knot_model_is_flat(self):
        stm = ServiceTimeModel.__new__(ServiceTimeModel)
        stm._set_knots([8], [0.5], [0.1])
        assert stm.seconds(1) == stm.seconds(8) == stm.seconds(10 ** 6) == 0.5
        assert stm.comm_seconds(10 ** 6) == 0.1

    @given(
        st.lists(st.integers(1, 1 << 16), min_size=1, max_size=6, unique=True),
        st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        st.lists(st.integers(1, 1 << 20), min_size=2, max_size=8),
    )
    def test_seconds_non_decreasing_for_increasing_knots(
        self, batches, steps, probes
    ):
        batches = sorted(batches)
        times = list(np.cumsum(steps[: len(batches)]))
        stm = ServiceTimeModel.__new__(ServiceTimeModel)
        stm._set_knots(batches, times)
        probes = sorted(probes)
        seconds = [stm.seconds(b) for b in probes]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(seconds, seconds[1:]))

    def test_invalid_batch(self, sweep):
        stm = ServiceTimeModel(sweep, "rm2", "t4")
        for bad in (0, -1, -100):
            with pytest.raises(ValueError, match="batch size must be >= 1"):
                stm.seconds(bad)

    def test_comm_seconds_interpolates(self, sweep):
        stm = ServiceTimeModel(sweep, "rm2", "t4")
        for batch in (1, 16, 256, 4096):
            assert stm.comm_seconds(batch) == pytest.approx(
                sweep.profile("rm2", "t4", batch).data_comm_seconds
            )
        assert 0.0 < stm.comm_seconds(64) < stm.seconds(64)
        assert stm.comm_seconds(8192) > stm.comm_seconds(4096)

    def test_rejects_bad_knots(self, sweep):
        stm = ServiceTimeModel(sweep, "rm2", "t4")
        with pytest.raises(ValueError, match="empty knots"):
            stm._set_knots([], [])
        with pytest.raises(ValueError, match="non-monotone"):
            stm._set_knots([1, 16, 16, 256], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="non-monotone"):
            stm._set_knots([16, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            stm._set_knots([1, 16], [1.0, float("nan")])
        with pytest.raises(ValueError, match=">= 1"):
            stm._set_knots([0, 16], [1.0, 2.0])


class TestBatchingPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchingPolicy(batch_timeout_s=-1)


class TestScheduler:
    def _scheduler(self, sweep, model="rm3", platform="t4", **policy_kwargs):
        policy = BatchingPolicy(**policy_kwargs)
        return QueryScheduler(ServiceTimeModel(sweep, model, platform), policy)

    def test_all_queries_served(self, sweep):
        result = self._scheduler(sweep).run(arrival_qps=5000, num_queries=500)
        assert result.queries == 500
        assert len(result.latencies_s) == 500
        assert np.all(result.latencies_s > 0)

    def test_percentiles_ordered(self, sweep):
        result = self._scheduler(sweep).run(arrival_qps=5000, num_queries=800)
        assert result.p50 <= result.p95 <= result.p99

    def test_latency_grows_with_load(self, sweep):
        scheduler = self._scheduler(sweep, max_batch=256)
        light = scheduler.run(arrival_qps=1000, num_queries=800)
        heavy = scheduler.run(arrival_qps=40000, num_queries=800)
        assert heavy.p99 > light.p99

    def test_batches_fill_under_load(self, sweep):
        scheduler = self._scheduler(sweep, max_batch=256, batch_timeout_s=0.001)
        light = scheduler.run(arrival_qps=500, num_queries=400)
        heavy = scheduler.run(arrival_qps=100_000, num_queries=2000)
        assert heavy.mean_batch_size > 4 * light.mean_batch_size
        assert max(heavy.batch_sizes) <= 256

    def test_batch_cap_respected(self, sweep):
        scheduler = self._scheduler(sweep, max_batch=8)
        result = scheduler.run(arrival_qps=50_000, num_queries=500)
        assert max(result.batch_sizes) <= 8

    def test_sla_check(self, sweep):
        result = self._scheduler(sweep).run(arrival_qps=1000, num_queries=400)
        assert result.meets_sla(10.0)
        assert not result.meets_sla(1e-9)

    def test_deterministic_with_seed(self, sweep):
        stm = ServiceTimeModel(sweep, "rm3", "t4")
        policy = BatchingPolicy()
        r1 = QueryScheduler(stm, policy, seed=3).run(2000, 300)
        r2 = QueryScheduler(stm, policy, seed=3).run(2000, 300)
        np.testing.assert_array_equal(r1.latencies_s, r2.latencies_s)

    def test_invalid_inputs(self, sweep):
        scheduler = self._scheduler(sweep)
        for bad_qps in (0, -5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="arrival rate"):
                scheduler.run(arrival_qps=bad_qps)
        for bad_n in (0, -1):
            with pytest.raises(ValueError, match="at least one query"):
                scheduler.run(arrival_qps=100, num_queries=bad_n)
        with pytest.raises(ValueError, match="integer"):
            scheduler.run(arrival_qps=100, num_queries=12.5)

    def test_max_load_under_sla(self, sweep):
        scheduler = self._scheduler(sweep, max_batch=256)
        capacity = scheduler.max_load_under_sla(
            sla_seconds=0.1, num_queries=500
        )
        assert capacity > 0

    def test_gpu_sustains_more_load_than_cpu_for_fc_model(self, sweep):
        """The at-scale version of Fig 3: under a loose SLA the GPU
        server sustains far more RM3 load than a Broadwell server."""
        gpu = self._scheduler(sweep, "rm3", "t4", max_batch=1024)
        cpu = self._scheduler(sweep, "rm3", "broadwell", max_batch=1024)
        sla = 0.25
        gpu_cap = gpu.max_load_under_sla(sla, num_queries=600)
        cpu_cap = cpu.max_load_under_sla(sla, num_queries=600)
        assert gpu_cap > 2 * cpu_cap

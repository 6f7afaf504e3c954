"""Tests for the windowed time-series telemetry layer.

Covers window bucketing (point, vectorized, and interval recording),
the four track types, ring eviction, the lossless and compact
serializations, Perfetto counter export, and — the merge contract the
at-scale story depends on — property tests that merging randomly
window-split shards reproduces the single-series result exactly,
including the histograms' exact-regime state (an empty window is a
strict no-op, never an exactness downgrade).
"""

import json

import numpy as np
import pytest

from repro.telemetry import TimeSeries, TimeSeriesSummary
from repro.telemetry.chrome_trace import (
    COUNTER_PID,
    timeseries_to_counter_events,
)


def _filled_series(seed: int = 7, window_s: float = 0.5) -> TimeSeries:
    """A small series exercising every track type."""
    rng = np.random.default_rng(seed)
    ts = TimeSeries(window_s=window_s)
    times = rng.uniform(0.0, 6.0, size=200)
    ts.count_many("arrivals", times)
    lat = rng.exponential(0.004, size=200)
    ts.observe_many("latency_s", times, lat)
    for t in times[::10]:
        ts.sample("queue_depth", t, float(rng.integers(0, 50)))
        ts.mark_state("replica.health", t, "healthy")
    ts.count_interval("busy_s", 1.2, 3.7)
    ts.mark_state_interval("replica.health", 4.0, 5.2, "degraded")
    ts.count("faults.slowdown", 2.6)
    return ts


class TestWindowing:
    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(window_s=0.0)
        with pytest.raises(ValueError):
            TimeSeries(window_s=float("nan"))
        with pytest.raises(ValueError):
            TimeSeries(window_s=1.0, max_windows=0)

    def test_window_index_floor_and_clamp(self):
        ts = TimeSeries(window_s=0.25, origin_s=1.0)
        assert ts.window_index(1.0) == 0
        assert ts.window_index(1.249) == 0
        assert ts.window_index(1.25) == 1
        assert ts.window_index(0.0) == 0  # clamped below origin
        assert ts.window_bounds(2) == (1.5, 1.75)

    def test_count_many_matches_looped_count(self):
        rng = np.random.default_rng(3)
        times = rng.uniform(0.0, 10.0, size=500)
        a = TimeSeries(window_s=0.3)
        a.count_many("n", times)
        b = TimeSeries(window_s=0.3)
        for t in times:
            b.count("n", t)
        assert a.to_state() == b.to_state()

    def test_observe_many_matches_looped_observe(self):
        rng = np.random.default_rng(4)
        times = rng.uniform(0.0, 5.0, size=300)
        values = rng.exponential(0.01, size=300)
        a = TimeSeries(window_s=0.5)
        a.observe_many("v", times, values)
        b = TimeSeries(window_s=0.5)
        for t, v in zip(times, values):
            b.observe("v", t, v)
        sa, sb = a.summary(), b.summary()
        assert sa.window_indices() == sb.window_indices()
        for i in sa.window_indices():
            ha, hb = sa.histogram_summary("v", i), sb.histogram_summary("v", i)
            if hb is None:
                assert ha is None
                continue
            assert ha["count"] == hb["count"]
            # Vectorized summation can differ from the loop by one ULP.
            assert ha["sum"] == pytest.approx(hb["sum"])
            for key in ("p50", "p95", "p99"):
                assert ha[key] == hb[key]

    def test_observe_many_misaligned_rejected(self):
        ts = TimeSeries(window_s=1.0)
        with pytest.raises(ValueError, match="align"):
            ts.observe_many("v", [0.1, 0.2], [1.0])

    def test_count_interval_integrates_to_duration(self):
        # A busy period spanning several windows must contribute its
        # exact per-window overlap: the track integrates to the true
        # busy seconds and each cell stays <= window_s (rho <= 1).
        ts = TimeSeries(window_s=0.5)
        ts.count_interval("busy_s", 0.7, 2.9)
        total = sum(
            ts.counter_value("busy_s", i) for i in ts.window_indices()
        )
        assert total == pytest.approx(2.2)
        assert ts.counter_value("busy_s", 1) == pytest.approx(0.3)
        assert ts.counter_value("busy_s", 2) == pytest.approx(0.5)
        assert ts.counter_value("busy_s", 5) == pytest.approx(0.4)
        assert ts.summary().utilization(2) == pytest.approx(1.0)

    def test_count_interval_empty_is_noop(self):
        ts = TimeSeries(window_s=0.5)
        ts.count_interval("busy_s", 1.0, 1.0)
        assert ts.window_indices() == []

    def test_track_kind_conflict_rejected(self):
        ts = TimeSeries(window_s=1.0)
        ts.count("x", 0.1)
        with pytest.raises(ValueError, match="counter track"):
            ts.sample("x", 0.2, 1.0)

    def test_ring_eviction_keeps_trailing_windows(self):
        ts = TimeSeries(window_s=1.0, max_windows=4)
        for t in range(10):
            ts.count("n", t + 0.5)
        assert ts.window_indices() == [6, 7, 8, 9]
        assert ts.evicted_windows == 6
        assert ts.summary().evicted_windows == 6


class TestStateTracks:
    def test_health_timeline_accumulates(self):
        ts = _filled_series()
        s = ts.summary()
        degraded = [
            i for i in s.window_indices()
            if "degraded" in s.states("replica.health", i)
        ]
        # mark_state_interval(4.0, 5.2) at 0.5 s windows -> windows 8-10.
        assert degraded == [8, 9, 10]

    def test_fault_tracks_by_prefix(self):
        s = _filled_series().summary()
        assert s.fault_tracks() == ["faults.slowdown"]
        assert s.fault_activity(5) == 1.0  # the count at 2.6 s / 0.5 s windows
        assert s.fault_activity(0) == 0.0


class TestSerialization:
    def test_state_roundtrip_is_lossless(self):
        ts = _filled_series()
        state = json.loads(json.dumps(ts.to_state()))
        back = TimeSeries.from_state(state)
        assert back.to_state() == ts.to_state()
        assert back.summary().rows == ts.summary().rows

    def test_state_version_checked(self):
        state = _filled_series().to_state()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            TimeSeries.from_state(state)
        with pytest.raises(ValueError, match="version"):
            TimeSeriesSummary.from_compact_state({"version": 99})

    def test_compact_state_roundtrips_to_summary(self):
        ts = _filled_series()
        compact = json.loads(json.dumps(ts.compact_state()))
        summary = TimeSeriesSummary.from_compact_state(compact)
        live = ts.summary()
        assert summary.window_indices() == live.window_indices()
        for i in live.window_indices():
            assert summary.counter("arrivals", i) == live.counter("arrivals", i)
            assert summary.gauge("queue_depth", i) == live.gauge("queue_depth", i)
            assert summary.states("replica.health", i) == live.states(
                "replica.health", i
            )
            lat_live = live.histogram_summary("latency_s", i)
            lat_back = summary.histogram_summary("latency_s", i)
            if lat_live is None:
                assert lat_back is None
            else:
                for key in ("count", "sum", "p50", "p95", "p99"):
                    assert lat_back[key] == pytest.approx(lat_live[key])

    def test_summary_rows_are_contiguous_and_ascending(self):
        """Windows between recorded ones get an empty row; a zero-valued
        counter or a zero-count window contributes no value."""
        ts = TimeSeries(window_s=0.5)
        ts.count("c", 0.1)
        ts.count("c", 1.2, 0.0)
        ts.observe("h", 2.7, 0.0)
        ts.count("c", 3.3)
        summary = ts.summary()
        assert list(summary.rows) == [0, 1, 2, 3, 4, 5, 6]
        assert summary.rows[2] == {}
        assert summary.rows[5]["h"]["count"] == 1
        assert summary.counter("c", 6) == 1.0

    def test_compact_state_is_byte_stable(self):
        a = json.dumps(_filled_series().compact_state(), sort_keys=True)
        b = json.dumps(_filled_series().compact_state(), sort_keys=True)
        assert a == b


class TestMerge:
    def test_mismatched_windowing_rejected(self):
        with pytest.raises(ValueError, match="windowing"):
            TimeSeries(window_s=1.0).merge(TimeSeries(window_s=0.5))
        with pytest.raises(ValueError, match="windowing"):
            TimeSeries(window_s=1.0).merge(
                TimeSeries(window_s=1.0, origin_s=5.0)
            )

    def test_merge_empty_series_is_exact_noop(self):
        # The empty-shard merge must not touch any state — in
        # particular it must not tip exact-regime histograms into
        # bucket interpolation.
        ts = _filled_series()
        before = ts.to_state()
        ts.merge(TimeSeries(window_s=ts.window_s))
        assert ts.to_state() == before
        for i in ts.window_indices():
            hist = ts.window_histogram("latency_s", i)
            if hist is not None:
                assert hist.is_exact

    def test_merge_into_empty_adopts_full_state(self):
        ts = _filled_series()
        empty = TimeSeries(window_s=ts.window_s)
        empty.merge(ts)
        assert empty.to_state() == ts.to_state()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_window_split_shards_merge_to_single_series(self, seed):
        # Property: split a run's events by window across two shards
        # (each window's events land wholly on one shard — the per-
        # replica sharding the engine produces), merge, and the result
        # is state-identical to recording everything into one series.
        rng = np.random.default_rng(seed)
        window_s = 0.4
        times = rng.uniform(0.0, 8.0, size=400)
        values = rng.exponential(0.005, size=400)
        whole = TimeSeries(window_s=window_s)
        shards = [TimeSeries(window_s=window_s) for _ in range(2)]
        owner = {}
        for t, v in zip(times, values):
            index = whole.window_index(t)
            shard = shards[owner.setdefault(index, int(rng.integers(0, 2)))]
            for dest in (whole, shard):
                dest.count("arrivals", t)
                dest.observe("latency_s", t, v)
                dest.sample("queue_depth", t, v * 1e3)
                dest.mark_state("health", t, "healthy")
        merged = shards[0].merge(shards[1])
        assert merged.to_state() == whole.to_state()
        # Exactness preserved: no shard window crossed the exact cap.
        for i in whole.window_indices():
            a = merged.window_histogram("latency_s", i)
            b = whole.window_histogram("latency_s", i)
            if b is not None:
                assert a.is_exact == b.is_exact

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_value_split_counters_and_gauges_merge_exactly(self, seed):
        # Counters and gauges are plain additive cells, so even a
        # value-level split (both shards contribute to the same
        # window) must merge to the single-series state.
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.0, 5.0, size=300)
        whole = TimeSeries(window_s=0.25)
        shards = [TimeSeries(window_s=0.25) for _ in range(3)]
        for k, t in enumerate(times):
            shard = shards[int(rng.integers(0, 3))]
            for dest in (whole, shard):
                dest.count("n", t)
                dest.count_interval("busy_s", t, t + 0.01)
                dest.sample("depth", t, float(k % 17))
                dest.mark_state("health", t, "a" if k % 3 else "b")
        merged = shards[0].merge(shards[1]).merge(shards[2])
        sm, sw = merged.summary(), whole.summary()
        assert sm.window_indices() == sw.window_indices()
        for i in sw.window_indices():
            assert sm.counter("n", i) == sw.counter("n", i)
            assert sm.counter("busy_s", i) == pytest.approx(
                sw.counter("busy_s", i)
            )
            assert sm.states("health", i) == sw.states("health", i)
            gm, gw = sm.gauge("depth", i), sw.gauge("depth", i)
            if gw is None:
                assert gm is None
            else:
                assert gm["count"] == gw["count"]
                assert gm["mean"] == pytest.approx(gw["mean"])
                assert gm["min"] == gw["min"]
                assert gm["max"] == gw["max"]


class TestCounterExport:
    def test_counter_events_shapes(self):
        ts = _filled_series()
        events = timeseries_to_counter_events(ts)
        assert events, "expected counter events"
        for e in events:
            assert e["ph"] == "C"
            assert e["pid"] == COUNTER_PID
            assert set(e) >= {"name", "ts", "args"}
        names = {e["name"] for e in events}
        assert {"arrivals", "busy_s", "faults.slowdown"} <= names
        # Histogram tracks export multi-series percentile args.
        lat = [e for e in events if e["name"] == "latency_s"]
        assert lat and set(lat[0]["args"]) == {"p50", "p95", "p99"}
        # State tracks have no numeric counter representation.
        assert "replica.health" not in names

    def test_track_filter(self):
        ts = _filled_series()
        events = timeseries_to_counter_events(ts, tracks=["arrivals"])
        assert {e["name"] for e in events} == {"arrivals"}

    def test_summary_and_live_exports_match(self):
        ts = _filled_series()
        assert timeseries_to_counter_events(ts) == timeseries_to_counter_events(
            ts.summary()
        )

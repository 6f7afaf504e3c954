"""Tests for the telemetry building blocks (repro.telemetry)."""

import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import (
    MODELED_TID,
    MetricsRegistry,
    NoopTracer,
    Span,
    StreamingHistogram,
    Tracer,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry disabled and empty."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


class TestStreamingHistogram:
    def test_exact_quantiles_match_numpy(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(mean=-7.0, sigma=1.2, size=1000)
        h = StreamingHistogram(exact_cap=2000)
        h.observe_many(values)
        assert h.is_exact
        for p in (0, 10, 50, 90, 95, 99, 100):
            assert h.quantile(p) == pytest.approx(
                np.percentile(values, p), rel=1e-12
            )

    def test_bucketed_quantiles_close_to_numpy(self):
        rng = np.random.default_rng(11)
        values = rng.lognormal(mean=-7.0, sigma=1.0, size=20000)
        h = StreamingHistogram(exact_cap=0, growth=1.05)
        h.observe_many(values)
        assert not h.is_exact
        for p in (50, 90, 95, 99):
            exact = np.percentile(values, p)
            # Log buckets bound relative error by the growth factor.
            assert h.quantile(p) == pytest.approx(exact, rel=0.05)

    def test_cap_overflow_switches_to_buckets(self):
        h = StreamingHistogram(exact_cap=10)
        h.observe_many([1.0] * 10)
        assert h.is_exact
        h.observe(1.0)
        assert not h.is_exact
        assert h.count == 11

    def test_stats_and_extremes(self):
        h = StreamingHistogram()
        h.observe_many([1e-12, 0.5, 2e5])  # under- and overflow included
        assert h.count == 3
        assert h.min == 1e-12
        assert h.max == 2e5
        assert h.mean == pytest.approx((1e-12 + 0.5 + 2e5) / 3)
        assert h.quantile(0) == 1e-12
        assert h.quantile(100) == 2e5

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            StreamingHistogram().quantile(50)

    def test_negative_observation_rejected(self):
        with pytest.raises(ValueError):
            StreamingHistogram().observe(-1.0)

    def test_merge(self):
        a, b = StreamingHistogram(), StreamingHistogram()
        a.observe_many([0.001, 0.002])
        b.observe_many([0.004, 0.008])
        a.merge(b)
        assert a.count == 4
        assert a.max == 0.008
        assert a.quantile(50) == pytest.approx(
            np.percentile([0.001, 0.002, 0.004, 0.008], 50), rel=1e-12
        )

    def test_merge_mismatched_buckets_rejected(self):
        with pytest.raises(ValueError):
            StreamingHistogram(growth=1.05).merge(StreamingHistogram(growth=1.2))

    def test_snapshot(self):
        h = StreamingHistogram()
        h.observe_many([0.001] * 10)
        snap = h.snapshot().as_dict()
        assert snap["count"] == 10
        assert snap["p50"] == pytest.approx(0.001)
        assert snap["mean"] == pytest.approx(0.001)


class TestMetricsRegistry:
    def test_counter_identity_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", model="rm1")
        b = reg.counter("hits", model="rm1")
        c = reg.counter("hits", model="rm2")
        a.inc(2)
        b.inc(3)
        assert a is b and a is not c
        assert a.value == 5.0
        assert c.value == 0.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_tracks_min_max_mean(self):
        g = MetricsRegistry().gauge("depth")
        for v in (3, 9, 6):
            g.set(v)
        assert g.value == 6
        assert g.min == 3
        assert g.max == 9
        assert g.mean == pytest.approx(6.0)
        assert g.samples == 3

    def test_snapshot_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(4)
        reg.histogram("h").observe(0.5)
        snap = {r["name"]: r for r in reg.snapshot()}
        assert snap["a"]["value"] == 4.0
        assert snap["h"]["count"] == 1
        reg.reset()
        snap = {r["name"]: r for r in reg.snapshot()}
        assert snap["a"]["value"] == 0.0
        assert snap["h"]["count"] == 0

    def test_find_does_not_create(self):
        reg = MetricsRegistry()
        assert reg.find("nope") is None
        assert len(reg) == 0

    def test_thread_safety_of_counters(self):
        reg = MetricsRegistry()
        counter = reg.counter("n")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000.0


class TestTracer:
    def test_span_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.span("outer", category="test"):
            with tracer.span("inner-1"):
                pass
            with tracer.span("inner-2"):
                pass
        spans = tracer.sorted_spans()
        assert [s.name for s in spans] == ["outer", "inner-1", "inner-2"]
        outer = spans[0]
        assert outer.depth == 0 and outer.parent_id is None
        for inner in spans[1:]:
            assert inner.depth == 1
            assert inner.parent_id == outer.span_id
            assert outer.start_s <= inner.start_s
            assert inner.end_s <= outer.end_s

    def test_span_attrs_and_set(self):
        tracer = Tracer()
        with tracer.span("s", category="c", fixed=1) as span:
            span.set(dynamic=2)
        recorded = tracer.spans()[0]
        assert recorded.attrs == {"fixed": 1, "dynamic": 2}
        assert recorded.category == "c"

    def test_add_span_manual_clock(self):
        tracer = Tracer()
        span = tracer.add_span("op", start_s=1.5, duration_s=0.25, category="FC")
        assert span.end_s == 1.75
        assert span.tid == MODELED_TID
        assert tracer.spans() == [span]

    def test_decorator(self):
        tracer = Tracer()

        @tracer.trace(category="fn")
        def answer():
            return 42

        assert answer() == 42
        assert tracer.spans()[0].category == "fn"
        assert "answer" in tracer.spans()[0].name

    def test_clear_resets_epoch(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        with tracer.span("b"):
            pass
        assert tracer.spans()[0].start_s >= 0.0

    def test_threaded_recording(self):
        tracer = Tracer()

        def work(i):
            with tracer.span(f"w{i}"):
                pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == 16
        assert len({s.span_id for s in tracer.spans()}) == 16


class TestChromeTraceExport:
    def test_schema_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.add_span("op1", 0.0, 0.001, category="FC", seconds=0.001)
        tracer.add_span("op2", 0.001, 0.002, category="Relu")
        path = str(tmp_path / "t.trace.json")
        telemetry.write_chrome_trace(path, tracer.spans())

        with open(path) as fh:
            doc = json.load(fh)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 2
        for event in events:
            for key in ("ph", "ts", "dur", "pid", "tid", "name"):
                assert key in event
        assert events[0]["dur"] == pytest.approx(1000.0)  # microseconds
        # load_chrome_trace validates the same invariants.
        assert telemetry.load_chrome_trace(path)["traceEvents"]

    def test_metrics_ride_along(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        path = str(tmp_path / "t.trace.json")
        telemetry.write_chrome_trace(path, [], metrics=reg.snapshot())
        doc = telemetry.load_chrome_trace(path)
        assert doc["otherData"]["metrics"][0]["value"] == 3.0

    def test_invalid_trace_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [{"ph": "X", "name": "x"}]}))
        with pytest.raises(ValueError):
            telemetry.load_chrome_trace(str(path))


class TestGlobalState:
    def test_disabled_by_default_and_noop(self):
        assert not telemetry.enabled()
        tracer = telemetry.get_tracer()
        assert isinstance(tracer, NoopTracer)
        with tracer.span("x") as s:
            s.set(attr=1)
        tracer.add_span("y", 0.0, 1.0)
        assert len(tracer) == 0
        assert tracer.spans() == []

    def test_noop_decorator_returns_function_unwrapped(self):
        def fn():
            return 1

        assert NoopTracer().trace()(fn) is fn

    def test_capture_enables_and_restores(self):
        assert not telemetry.enabled()
        with telemetry.capture() as (tracer, registry):
            assert telemetry.enabled()
            assert telemetry.get_tracer() is tracer
            with tracer.span("inside"):
                pass
            registry.counter("c").inc()
        assert not telemetry.enabled()
        # Data recorded under capture stays readable afterwards.
        assert len(tracer) == 1
        assert registry.counter("c").value == 1.0

    def test_capture_fresh_clears_previous_data(self):
        with telemetry.capture() as (tracer, _):
            with tracer.span("first"):
                pass
        with telemetry.capture() as (tracer, _):
            pass
        assert len(tracer) == 0

    def test_span_equality_for_noop_add(self):
        span = Span(name="n", category="c", start_s=0.0, end_s=1.0)
        assert span.duration_s == 1.0


class TestHistogramState:
    """Lossless serialize / merge surface added for the run ledger."""

    def test_round_trip_exact_regime(self):
        h = StreamingHistogram()
        h.observe_many([0.001, 0.004, 0.0002, 0.9])
        restored = StreamingHistogram.from_state(h.to_state())
        for q in (1, 25, 50, 75, 99):
            assert restored.quantile(q) == h.quantile(q)
        assert restored.count == h.count
        assert restored.mean == h.mean
        assert restored.min == h.min
        assert restored.max == h.max

    def test_round_trip_bucketed_regime(self):
        rng = np.random.default_rng(7)
        h = StreamingHistogram(exact_cap=16)
        h.observe_many(rng.lognormal(-6, 0.5, size=500))
        restored = StreamingHistogram.from_state(h.to_state())
        for q in (5, 50, 95, 99):
            assert restored.quantile(q) == h.quantile(q)
        assert restored.count == h.count
        assert restored.total == h.total

    def test_empty_round_trip(self):
        restored = StreamingHistogram.from_state(StreamingHistogram().to_state())
        assert restored.count == 0
        with pytest.raises(ValueError):
            restored.quantile(50)
        # And an empty restored histogram still accepts observations.
        restored.observe(0.001)
        assert restored.quantile(50) == pytest.approx(0.001)

    def test_state_is_json_serializable(self):
        h = StreamingHistogram()
        h.observe_many([0.001, 0.002])
        state = json.loads(json.dumps(h.to_state()))
        assert StreamingHistogram.from_state(state).quantile(50) == h.quantile(50)

    def test_observe_many_empty_is_noop(self):
        h = StreamingHistogram()
        h.observe_many([])
        h.observe_many(np.array([]))
        assert h.count == 0

    def test_version_mismatch_rejected(self):
        state = StreamingHistogram().to_state()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            StreamingHistogram.from_state(state)

    def test_bad_bucket_index_rejected(self):
        h = StreamingHistogram(exact_cap=0)
        h.observe(0.001)
        state = h.to_state()
        state["counts"] = [[10**9, 1]]
        with pytest.raises(ValueError):
            StreamingHistogram.from_state(state)

    def test_merge_empty_preserves_exact_regime(self):
        a = StreamingHistogram()
        a.observe_many([0.001, 0.002, 0.003])
        empty = StreamingHistogram(exact_cap=0)  # exact list is None
        a.merge(empty)
        # Merging an empty shard must not degrade a to the bucket regime.
        assert a.quantile(50) == pytest.approx(0.002, rel=1e-12)
        assert a.count == 3

    def test_merge_matches_concatenated_stream(self):
        """Percentiles of a merge == percentiles of the combined stream."""
        rng = np.random.default_rng(2020)
        shards = [rng.lognormal(-6, 0.7, size=n) for n in (50, 200, 7)]
        merged = StreamingHistogram()
        for shard in shards:
            h = StreamingHistogram()
            h.observe_many(shard)
            merged.merge(StreamingHistogram.from_state(h.to_state()))
        combined = np.concatenate(shards)
        assert merged.count == combined.size
        for q in (1, 10, 50, 90, 99):
            assert merged.quantile(q) == pytest.approx(
                float(np.percentile(combined, q)), rel=1e-12
            )

    def test_merge_matches_concatenated_stream_bucketed(self):
        rng = np.random.default_rng(11)
        shards = [rng.lognormal(-6, 0.7, size=n) for n in (300, 500)]
        merged = StreamingHistogram(exact_cap=32)
        for shard in shards:
            h = StreamingHistogram(exact_cap=32)
            h.observe_many(shard)
            merged.merge(h)
        combined = np.concatenate(shards)
        one_pass = StreamingHistogram(exact_cap=32)
        one_pass.observe_many(combined)
        # Beyond the exact cap both sides land in identical buckets, so
        # the merge is indistinguishable from one pass over the stream.
        for q in (5, 50, 95, 99):
            assert merged.quantile(q) == one_pass.quantile(q)


class TestSnapshotOrdering:
    def test_snapshot_order_is_registration_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("zeta").inc(1)
        a.counter("alpha", labels={"k": "2"}).inc(2)
        a.counter("alpha", labels={"k": "1"}).inc(3)
        a.gauge("alpha").set(4)
        # Same metrics, reversed registration order.
        b.gauge("alpha").set(4)
        b.counter("alpha", labels={"k": "1"}).inc(3)
        b.counter("alpha", labels={"k": "2"}).inc(2)
        b.counter("zeta").inc(1)
        snap_a, snap_b = a.snapshot(), b.snapshot()
        assert snap_a == snap_b
        assert json.dumps(snap_a, sort_keys=True) == json.dumps(
            snap_b, sort_keys=True
        )

    def test_snapshot_sorted_by_name_then_labels(self):
        r = MetricsRegistry()
        r.counter("b").inc()
        r.counter("a", labels={"x": "2"}).inc()
        r.counter("a", labels={"x": "10"}).inc()
        names = [(m["name"], tuple(sorted(m["labels"].items())))
                 for m in r.snapshot()]
        assert names == sorted(names)

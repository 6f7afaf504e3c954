"""Tests for the serving run log and the sinks it feeds.

Every observability sink of a serving run (TimeSeries, QueryTrace,
tracer spans) is filled from one run log after the simulation, so the
sinks must agree with the result counters and with each other. The
simulation loops themselves must not call a sink at all.
"""

import inspect

import pytest

from repro.monitor.scenario import Scenario
from repro.resilience import ResilientScheduler
from repro.runtime import QueryScheduler
from repro.telemetry import QueryTraceCapture

QUERIES = 900


def _total(ts, name):
    return sum(ts.counter_value(name, i) for i in ts.window_indices())


@pytest.fixture(
    scope="module",
    params=[("mixed", "gtx1080ti"), ("shard_slowdown", None)],
    ids=["mixed+fallback", "shard_slowdown"],
)
def observed(request):
    scenario, fallback = request.param
    sc = Scenario(
        "rm1", "t4", scenario, fallback=fallback, queries=QUERIES, seed=2020
    )
    capture = QueryTraceCapture(max_queries=QUERIES)
    return sc.run(timeseries=sc.timeseries(), querytrace=capture, spans=True)


class TestSinksAgree:
    def test_timeseries_totals_match_result_and_capture(self, observed):
        ts, result, capture = (
            observed.timeseries, observed.result, observed.querytrace
        )
        assert ts.evicted_windows == 0
        assert _total(ts, "completions") == result.completed
        assert _total(ts, "shed") == result.shed
        assert _total(ts, "dropped") == result.dropped
        assert _total(ts, "retries") == result.retries
        assert capture.completed == result.completed
        assert capture.shed_queries == result.shed
        assert capture.dropped_queries == result.dropped
        assert len(capture.records) == result.completed
        if observed.scenario == "mixed":
            # The fault mix must exercise the failure paths.
            assert result.retries > 0 and result.shed > 0

    def test_replica_busy_time_matches_batch_spans(self, observed):
        ts = observed.timeseries
        spans = observed.tracer.spans()
        names = [r.name for r in observed.spec.fleet(observed.spec.policies())]
        for name in names:
            busy = _total(ts, f"replica.{name}.busy_s")
            batch_s = sum(
                s.end_s - s.start_s for s in spans if s.name == f"{name}.batch"
            )
            assert busy == pytest.approx(batch_s, rel=1e-9, abs=1e-12)
        assert _total(ts, "busy_s") > 0


class TestLoopsDoNotObserve:
    """The simulation loops only append to the run log."""

    SINK_CALLS = (
        "timeseries", "querytrace", "get_tracer", "get_registry",
        "add_span", ".count(", ".sample(", ".observe", ".mark_state",
        ".settle(", ".shed(", ".drop(", ".attempt(",
    )

    @pytest.mark.parametrize(
        "run", [ResilientScheduler.run, QueryScheduler.run],
        ids=["resilient", "plain"],
    )
    def test_no_sink_call_in_run(self, run):
        body = inspect.getsource(run)
        # The resilient loop decides *whether* to keep a log from the
        # attached sinks; past that line nothing may touch them.
        body = body[body.index("while "):]
        for call in self.SINK_CALLS:
            assert call not in body, call

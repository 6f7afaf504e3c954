"""Tests for per-query critical-path capture and ``repro explain``.

Pins the tentpole contracts: capture is strictly observational (bit-
identical schedules with capture on or off, across the resilient
scheduler and the sharded gather path), every retained
decomposition sums *exactly* (``==``) to its measured latency, the
reservoir's tail-biased retention is deterministic and bounded, and the
acceptance scenario — the 5x GPU throttle — attributes its p99 to the
fault-correlated service component with a what-if bound consistent with
an actual fault-disabled rerun. The ``repro explain`` CLI surfaces
(text/json, HTML report, Perfetto flow events, ledger records and
attribution diffs) ride along.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.explain import Explanation, explain_scenario, render_html
from repro.ledger import diff_records, load_records
from repro.monitor import run_monitored_scenario
from repro.resilience.faults import hashed_uniform
from repro.telemetry.chrome_trace import (
    load_chrome_trace,
    querytrace_flow_events,
    write_chrome_trace,
)
from repro.telemetry.querytrace import (
    COMPONENTS,
    AttemptEvent,
    QueryTraceCapture,
    ServiceParts,
    decompose_attempts,
)

QUERIES = 1200
SEED = 2020
THROTTLE = {"slowdown_multiplier": 5.0}


@pytest.fixture(scope="module")
def throttle():
    """The acceptance scenario: one 5x GPU-throttle window on rm1/t4."""
    return explain_scenario(
        "rm1", "t4", "slowdown", queries=QUERIES, seed=SEED,
        scenario_overrides=THROTTLE,
    )


@pytest.fixture(scope="module")
def shard_run():
    """The sharded-gather scenario: per-shard annotation must survive."""
    return explain_scenario(
        "rm2", "broadwell", "shard_slowdown", queries=600, seed=SEED,
    )


def _monitored(scenario, *, capture, queries=600, **kwargs):
    return run_monitored_scenario(
        "rm1", "t4", scenario, queries=queries, seed=SEED,
        querytrace=capture, **kwargs,
    )


class TestObservational:
    """Capture on vs off must be bit-identical — the PR 6 contract."""

    def test_resilient_scheduler_bit_identical(self):
        base = _monitored("mixed", capture=None, fallback="gtx1080ti")
        qt = QueryTraceCapture()
        traced = _monitored("mixed", capture=qt, fallback="gtx1080ti")
        assert np.array_equal(
            base.result.latencies_s, traced.result.latencies_s
        )
        assert base.result.batch_sizes == traced.result.batch_sizes
        assert base.result.hedges == traced.result.hedges
        assert len(qt.records) == traced.result.completed

    def test_shard_gather_bit_identical(self):
        def run(capture):
            return run_monitored_scenario(
                "rm2", "broadwell", "shard_slowdown",
                queries=400, seed=SEED, querytrace=capture,
            )

        base = run(None)
        qt = QueryTraceCapture()
        traced = run(qt)
        assert np.array_equal(
            base.result.latencies_s, traced.result.latencies_s
        )
        assert base.result.gather_counts == traced.result.gather_counts


class TestConservation:
    """Every decomposition sums exactly to its measured latency."""

    @pytest.mark.parametrize("seed", [7, 123, 2020])
    @pytest.mark.parametrize("scenario,overrides", [
        ("slowdown", THROTTLE),
        ("mixed", None),
    ])
    def test_exact_sum_across_runs(self, scenario, overrides, seed):
        qt = QueryTraceCapture()
        ms = run_monitored_scenario(
            "rm1", "t4", scenario, queries=400, seed=seed,
            querytrace=qt, scenario_overrides=overrides,
        )
        assert len(qt.records) == ms.result.completed
        for rec in qt.records.values():
            assert rec.conservation_ok()
            assert all(rec.components[k] >= 0.0 for k in COMPONENTS)

    def test_intervals_cover_arrival_to_completion(self, throttle):
        exp, _ = throttle
        for rec in exp.records:
            assert rec.intervals[0][1] == rec.arrival
            assert rec.intervals[-1][2] == rec.completion
            for prev, cur in zip(rec.intervals, rec.intervals[1:]):
                assert cur[1] == prev[2]  # contiguous, no gaps/overlap
            assert all(hi > lo for _, lo, hi, _ in rec.intervals)

    @given(
        arrival=st.floats(0.0, 10.0, allow_nan=False),
        queue_w=st.floats(0.0, 1e-2),
        batch_w=st.floats(0.0, 1e-2),
        service_w=st.floats(1e-7, 1e-1),
    )
    @settings(max_examples=200, deadline=None)
    def test_balance_property(self, arrival, queue_w, batch_w, service_w):
        """The residue balancer holds on adversarial float chains."""
        ready = arrival + queue_w
        close = ready + batch_w
        completion = close + service_w
        latency = completion - arrival  # telescoped, ulps of residue
        attempt = AttemptEvent(
            attempt=0, ready=ready, batch_close=close, start=close,
            end=completion, outcome="completed", server="t4",
            server_index=0, lane=0,
            parts=ServiceParts(base_s=service_w),
        )
        comps, _, _ = decompose_attempts(
            arrival, completion, latency, [attempt]
        )
        assert math.fsum(comps[k] for k in COMPONENTS) == latency


class TestReservoir:
    """Tail-biased, deterministic, bounded retention."""

    def _all_latencies(self):
        qt = QueryTraceCapture()
        _monitored("slowdown", capture=qt, scenario_overrides=THROTTLE)
        return {qid: rec.latency for qid, rec in qt.records.items()}

    def test_threshold_splits_tail_and_sample(self):
        full = self._all_latencies()
        thr = float(np.percentile(sorted(full.values()), 60.0))
        qt = QueryTraceCapture(
            tail_threshold_s=thr, sample_rate=0.05, seed=SEED
        )
        _monitored("slowdown", capture=qt, scenario_overrides=THROTTLE)
        expected = {
            qid for qid, lat in full.items()
            if lat >= thr or hashed_uniform(SEED, qid) < 0.05
        }
        assert set(qt.records) == expected
        for qid, rec in qt.records.items():
            if rec.latency >= thr:
                assert rec.reason == "tail"
            else:
                assert rec.reason == "sample"
                assert hashed_uniform(SEED, qid) < 0.05
        # Aggregates still cover every completed query.
        assert qt.completed == len(full)

    def test_retention_deterministic(self):
        def retained():
            qt = QueryTraceCapture(tail_threshold_s=0.002, sample_rate=0.1)
            _monitored("slowdown", capture=qt, scenario_overrides=THROTTLE)
            return {qid: rec.reason for qid, rec in qt.records.items()}

        assert retained() == retained()

    def test_max_queries_cap_keeps_highest_latency(self):
        full = self._all_latencies()
        qt = QueryTraceCapture(max_queries=64)
        _monitored("slowdown", capture=qt, scenario_overrides=THROTTLE)
        assert len(qt.records) == 64
        assert qt.evicted == len(full) - 64
        kept = np.sort([r.latency for r in qt.records.values()])
        top = np.sort(sorted(full.values()))[-64:]
        assert np.array_equal(kept, top)

    def test_samples_evicted_before_tail(self):
        full = self._all_latencies()
        thr = float(np.percentile(sorted(full.values()), 90.0))
        tail_qids = {qid for qid, lat in full.items() if lat >= thr}
        cap = len(tail_qids) + 8
        qt = QueryTraceCapture(
            tail_threshold_s=thr, sample_rate=1.0, max_queries=cap
        )
        _monitored("slowdown", capture=qt, scenario_overrides=THROTTLE)
        assert qt.evicted > 0
        retained_tail = {
            qid for qid, rec in qt.records.items() if rec.reason == "tail"
        }
        # Eviction consumed the uniform sample; no tail record was lost.
        assert retained_tail == tail_qids

    def test_aggregates_independent_of_retention(self):
        def totals(**kwargs):
            qt = QueryTraceCapture(**kwargs)
            _monitored("slowdown", capture=qt, scenario_overrides=THROTTLE)
            return qt.component_totals

        assert totals() == totals(max_queries=32)

    def test_validation(self):
        with pytest.raises(ValueError, match="sample_rate"):
            QueryTraceCapture(sample_rate=1.5)
        with pytest.raises(ValueError, match="max_queries"):
            QueryTraceCapture(max_queries=0)


class TestExplanationEngine:
    def test_profile_structure(self, throttle):
        exp, _ = throttle
        assert exp.cutoff(50.0) <= exp.cutoff(95.0) <= exp.cutoff(99.0)
        prof = exp.profile(99.0)
        assert prof["queries"] > 0
        shares = [
            prof["components"][k]["share"] for k in COMPONENTS
        ]
        assert sum(shares) == pytest.approx(1.0)
        assert all(s >= 0.0 for s in shares)

    def test_mean_profile_is_exact_aggregate(self, throttle):
        exp, _ = throttle
        means = exp.capture.mean_components()
        prof = exp.mean_profile()
        for k in COMPONENTS:
            assert prof["components"][k]["seconds"] == means[k]
        assert prof["queries"] == exp.capture.completed

    def test_throttle_attributes_to_fault_correlated_service(self, throttle):
        """The acceptance criterion: the 5x throttle's p99 is dominated
        by a component whose tail seconds overlap the fault window."""
        exp, _ = throttle
        name, top = exp.top_component(99.0)
        assert name == "service"
        assert top["fault_overlap_share"] >= 0.5
        fa = exp.fault_attribution(99.0)
        assert fa["ok"]
        assert fa["excursion_share"] >= 0.5
        assert fa["top_component"] == "service"

    def test_what_if_bound_matches_fault_disabled_rerun(self, throttle):
        """Zeroing fault-window mass must land near the p99 of an
        actual rerun with the throttle disabled (direct-effect bound:
        queueing relief is not re-simulated, so allow a band)."""
        exp, ms = throttle
        wi = exp.what_if("fault_windows", 99.0)
        assert wi["observed_s"] == pytest.approx(
            float(np.percentile(ms.result.latencies_s, 99.0))
        )
        assert wi["bound_s"] < wi["observed_s"]
        disabled = run_monitored_scenario(
            "rm1", "t4", "slowdown", queries=QUERIES, seed=SEED,
            scenario_overrides={"slowdown_multiplier": 1.0},
        )
        actual = float(np.percentile(disabled.result.latencies_s, 99.0))
        assert 0.7 * actual <= wi["bound_s"] <= 1.1 * actual

    def test_what_if_table_sorted_and_bounded(self, throttle):
        exp, _ = throttle
        rows = exp.what_if_table(99.0)
        assert rows
        knobs = [r["component"] for r in rows]
        assert "fault_windows" in knobs
        wins = [r["improvement_s"] for r in rows]
        assert wins == sorted(wins, reverse=True)
        assert all(w >= 0.0 for w in wins)

    def test_what_if_unknown_component(self, throttle):
        exp, _ = throttle
        with pytest.raises(ValueError, match="unknown component"):
            exp.what_if("network_jitter")

    def test_top_queries_ranked(self, throttle):
        exp, _ = throttle
        rows = exp.top_queries(5)
        assert len(rows) == 5
        lats = [r["latency_s"] for r in rows]
        assert lats == sorted(lats, reverse=True)
        assert all(r["dominant"] in COMPONENTS for r in rows)

    def test_attribution_section_flat_floats(self, throttle):
        exp, _ = throttle
        section = exp.attribution_section()
        assert len(section) == 2 * len(COMPONENTS) + 1
        assert all(isinstance(v, float) for v in section.values())
        assert section["p99.service_s"] > 0.0
        assert 0.0 <= section["p99.fault_overlap_share"] <= 1.0

    def test_no_fault_windows_gate_fails(self, throttle):
        exp, ms = throttle
        bare = Explanation(exp.capture, ms.result, fault_windows=())
        fa = bare.fault_attribution(99.0)
        assert not fa["ok"]
        assert fa["excursion_share"] == 0.0

    def test_shard_scenario_annotates_gather_shard(self, shard_run):
        exp, _ = shard_run
        prof = exp.profile(99.0)
        gather = prof["components"]["gather_network"]
        assert gather["seconds"] > 0.0
        assert gather["top_shard"] is not None
        assert gather["top_shard"]["shard"].startswith("shard")
        assert 0.0 < gather["top_shard"]["share"] <= 1.0


class TestFlowEvents:
    def test_trace_round_trips_with_flow_events(self, throttle, tmp_path):
        exp, _ = throttle
        path = tmp_path / "explain.trace.json"
        write_chrome_trace(str(path), [], querytrace=exp.capture)
        doc = load_chrome_trace(str(path))
        phases = {}
        for event in doc["traceEvents"]:
            phases.setdefault(event["ph"], []).append(event)
        retained = len(exp.capture.records)
        assert len(phases["s"]) == retained
        assert len(phases["f"]) == retained
        assert len(phases["t"]) >= retained
        for ph in ("s", "t", "f"):
            assert all("id" in e for e in phases[ph])
        # t/f bind to the *end* of their enclosing slice.
        assert all(e.get("bp") == "e" for e in phases["t"] + phases["f"])

    def test_flow_ids_thread_arrival_to_completion(self, throttle):
        exp, _ = throttle
        events = querytrace_flow_events(exp.capture)
        by_qid = {}
        for event in events:
            if event.get("ph") in ("s", "t", "f"):
                by_qid.setdefault(event["id"], []).append(event)
        rec = exp.records[0]
        chain = sorted(by_qid[rec.qid], key=lambda e: e["ts"])
        assert chain[0]["ph"] == "s"
        assert chain[-1]["ph"] == "f"
        assert chain[0]["ts"] == pytest.approx(rec.arrival * 1e6)
        assert chain[-1]["ts"] == pytest.approx(rec.completion * 1e6)

    def test_validator_rejects_flow_event_without_id(self, tmp_path):
        path = tmp_path / "broken.trace.json"
        path.write_text(json.dumps({
            "traceEvents": [
                {"ph": "s", "ts": 0.0, "pid": 3, "tid": 1, "name": "q"},
            ],
        }))
        with pytest.raises(ValueError, match="missing.*id"):
            load_chrome_trace(str(path))


class TestCli:
    CI_ARGS = [
        "explain", "--model", "rm1", "--platform", "t4",
        "--scenario", "slowdown", "--queries", str(QUERIES),
        "--seed", str(SEED), "--slowdown-multiplier", "5.0",
    ]

    def test_golden_run(self, capsys, tmp_path):
        """The CI smoke invocation: profiles, what-if table, report,
        and the fault-attribution gate in one pass."""
        report = tmp_path / "explain.html"
        code = main(self.CI_ARGS + [
            "--what-if", "all", "--report", str(report),
            "--expect-fault-attribution",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "explain: rm1/t4, scenario 'slowdown'" in out
        assert "p99 tail:" in out and "what-if p99 bounds" in out
        assert "injected fault windows:" in out
        assert "fault attribution gate: PASS" in out
        html = report.read_text(encoding="utf-8")
        assert html.startswith("<!DOCTYPE html>") and "<svg" in html

    def test_json_document(self, capsys):
        code = main(self.CI_ARGS + [
            "--format", "json", "--expect-fault-attribution",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["gate"]["ok"]
        assert doc["fault_attribution"]["ok"]
        assert set(doc["profiles"]) == {"p50", "p95", "p99"}
        assert doc["coverage"]["retained"] <= doc["coverage"]["completed"]
        assert doc["what_if"]

    def test_focused_what_if(self, capsys):
        code = main(self.CI_ARGS + ["--what-if", "service"])
        out = capsys.readouterr().out
        assert code == 0
        assert "what-if zero service:" in out
        assert "queueing relief not re-simulated" in out

    def test_unknown_what_if_knob(self):
        with pytest.raises(SystemExit, match="unknown what-if knob"):
            main(self.CI_ARGS + ["--what-if", "cosmic_rays"])

    def test_gate_fails_without_fault_windows(self, capsys):
        code = main([
            "explain", "--model", "rm1", "--platform", "t4",
            "--scenario", "stragglers", "--queries", "600",
            "--seed", str(SEED), "--expect-fault-attribution",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL: fault attribution gate" in out

    def test_trace_and_record(self, capsys, tmp_path):
        trace = tmp_path / "explain.trace.json"
        ledger = tmp_path / "ledger"
        code = main(self.CI_ARGS + [
            "--trace", str(trace), "--record-dir", str(ledger),
        ])
        assert code == 0
        doc = load_chrome_trace(str(trace))
        assert any(e["ph"] == "s" for e in doc["traceEvents"])
        records = load_records(ledger)
        assert len(records) == 1
        record = records[0]
        assert record.kind == "explain"
        assert record.has_timeseries()
        assert record.attribution is not None
        assert record.attribution["p99.service_s"] > 0.0

    def _record_one(self, tmp_path, name, multiplier):
        ledger = tmp_path / name
        assert main(self.CI_ARGS[:-2] + [
            "--slowdown-multiplier", multiplier,
            "--record-dir", str(ledger),
        ]) == 0
        return load_records(ledger)[0]

    def test_diff_reports_attribution_shift(self, tmp_path):
        """`repro diff` must attribute a throttle change to the
        critical-path component that absorbed it."""
        mild = self._record_one(tmp_path, "mild", "2.0")
        harsh = self._record_one(tmp_path, "harsh", "5.0")
        diff = diff_records(mild, harsh, tolerance=0.05)
        movers = [e for e in diff.entries if e.level == "attribution"]
        assert movers
        assert any(e.significant for e in movers)
        assert any("critical path:" in line for line in diff.attribute())
        # Round-trip: the attribution section survives serialization.
        assert harsh.attribution is not None
        reloaded = type(harsh).from_dict(json.loads(harsh.to_json()))
        assert reloaded.attribution == harsh.attribution

    def test_attribution_level_skipped_with_caveat(self, tmp_path, capsys):
        with_attr = self._record_one(tmp_path, "attr", "5.0")
        bare = with_attr.from_dict(
            {**json.loads(with_attr.to_json()), "attribution": None}
        )
        diff = diff_records(bare, with_attr, tolerance=0.05)
        assert not [e for e in diff.entries if e.level == "attribution"]
        assert any("attribution level skipped" in c for c in diff.caveats)

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "bert"])

    def test_defaults(self):
        args = build_parser().parse_args(["characterize", "rm2"])
        assert args.platform == "broadwell"
        assert args.batch == 16


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "RM2" in out and "DIEN" in out

    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "Broadwell" in out and "Turing" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "rm2", "--platform", "clx"]) == 0
        out = capsys.readouterr().out
        assert "topdown" in out
        assert "SparseLengthsSum" in out

    def test_characterize_gpu(self, capsys):
        assert main(["characterize", "wnd", "--platform", "t4", "--batch", "256"]) == 0
        out = capsys.readouterr().out
        assert "dominant operator" in out
        assert "topdown" not in out  # no PMU events on GPU platforms

    def test_sweep_subset(self, capsys):
        assert main(["sweep", "--models", "ncf", "--batches", "16", "1024"]) == 0
        out = capsys.readouterr().out
        assert "ncf" in out and "t4" in out

    def test_breakdown(self, capsys):
        assert main(["breakdown", "din", "--platform", "t4", "--batch", "1024"]) == 0
        out = capsys.readouterr().out
        assert "Concat" in out

    def test_optimal(self, capsys):
        assert main(["optimal", "--batches", "16", "4096"]) == 0
        out = capsys.readouterr().out
        assert "cascade_lake" in out or "t4" in out

    def test_topdown(self, capsys):
        assert main(["topdown", "--batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "retiring" in out and "i-MPKI" in out


class TestTraceCommand:
    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        """The acceptance-criterion invocation, end to end."""
        import collections
        import json

        from repro.models import build_model
        from repro.runtime import InferenceSession

        out = str(tmp_path / "out.trace.json")
        assert main([
            "trace", "--model", "dlrm_rm2", "--platform", "cascade-lake",
            "--batch-size", "64", "-o", out, "--queries", "128", "--no-run",
        ]) == 0
        with open(out) as fh:
            doc = json.load(fh)
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert events
        for event in events:
            for key in ("ph", "ts", "dur", "pid", "tid", "name"):
                assert key in event

        # Per-kind span durations reproduce op_time_by_kind exactly.
        sums = collections.defaultdict(float)
        for event in events:
            sums[event["cat"]] += event["args"]["seconds"]
        profile = InferenceSession(
            build_model("dlrm_rm2"), "cascade-lake"
        ).profile(64)
        for kind, expected in profile.op_time_by_kind.items():
            assert abs(sums[kind] - expected) < 1e-9

        # Scheduler metrics rode along in the metrics report.
        with open(str(tmp_path / "out.metrics.json")) as fh:
            metrics = json.load(fh)
        names = {r["name"] for r in metrics}
        assert {"scheduler.queue_depth", "scheduler.batch_occupancy",
                "scheduler.query_latency_s"} <= names
        stdout = capsys.readouterr().out
        assert "trace:" in stdout and "scheduler:" in stdout

    def test_trace_unknown_model_exits_cleanly(self, tmp_path, user_error):
        assert "unknown model" in user_error(
            ["trace", "--model", "bert", "-o", str(tmp_path / "x.json")]
        )

    def test_metrics_table(self, capsys):
        assert main([
            "metrics", "--model", "rm1", "--platform", "broadwell",
            "--batch-size", "8", "--queries", "64", "--no-run",
        ]) == 0
        out = capsys.readouterr().out
        assert "scheduler.query_latency_s" in out
        assert "pmu.cycles" in out

    def test_metrics_json_and_csv(self, capsys):
        import json

        assert main([
            "metrics", "--model", "rm1", "--platform", "t4",
            "--batch-size", "8", "--queries", "0", "--no-run",
            "--format", "json",
        ]) == 0
        records = json.loads(capsys.readouterr().out)
        assert any(r["name"] == "gpusim.kernel_launches" for r in records)

        assert main([
            "metrics", "--model", "rm1", "--platform", "t4",
            "--batch-size", "8", "--queries", "0", "--no-run",
            "--format", "csv",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("metric,type,labels")


class TestResilienceCommand:
    def test_policy_matrix_table(self, capsys):
        assert main([
            "resilience", "--model", "rm1", "--queries", "250",
            "--seed", "5", "--scenario", "slowdown",
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario 'slowdown'" in out
        assert "no faults" in out
        assert "faults, no policy" in out
        assert "faults + hedge" in out
        assert "faults + all" in out
        assert "p99 ms" in out
        assert "injected" in out

    def test_no_fallback_shrinks_matrix(self, capsys):
        assert main([
            "resilience", "--model", "rm1", "--fallback", "none",
            "--queries", "200", "--scenario", "drops",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults + retry" in out
        assert "faults + hedge" not in out  # no standby to hedge to

    def test_trace_export(self, capsys, tmp_path):
        import json

        trace = str(tmp_path / "resilience.trace.json")
        assert main([
            "resilience", "--model", "rm1", "--queries", "200",
            "--scenario", "crash", "--trace", trace,
        ]) == 0
        with open(trace) as fh:
            doc = json.load(fh)
        names = {e.get("name", "") for e in doc["traceEvents"]}
        assert any(".batch" in n for n in names)
        assert any(".crash" in n for n in names)
        out = capsys.readouterr().out
        assert "trace:" in out

    def test_unknown_model_exits_cleanly(self, user_error):
        assert "unknown model" in user_error(
            ["resilience", "--model", "bert", "--queries", "50"]
        )


class TestLedgerCommands:
    def _record(self, out_dir, split=False, models=("rm1",)):
        argv = [
            "record", "--models", *models, "--platforms", "broadwell",
            "--batch-size", "64", "--queries", "200", "--seed", "2020",
            "--out", str(out_dir),
        ]
        if split:
            argv.append("--split")
        return main(argv)

    def test_record_appends_jsonl(self, capsys, tmp_path):
        assert self._record(tmp_path / "runs") == 0
        out = capsys.readouterr().out
        assert "rm1|broadwell|b64" in out
        assert (tmp_path / "runs" / "ledger.jsonl").exists()

    def test_record_split_writes_per_record_files(self, capsys, tmp_path):
        assert self._record(tmp_path, split=True) == 0
        assert (tmp_path / "rm1_broadwell_b64.json").exists()

    def test_record_unknown_platform_exits_cleanly(self, tmp_path, user_error):
        assert "unknown platform" in user_error(
            ["record", "--platforms", "tpu", "--out", str(tmp_path)]
        )

    def test_diff_two_paths_clean(self, capsys, tmp_path):
        self._record(tmp_path / "a")
        capsys.readouterr()
        self._record(tmp_path / "b")
        capsys.readouterr()
        assert main([
            "diff", str(tmp_path / "a"), str(tmp_path / "b"),
            "--fail-on-regression",
        ]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_diff_against_flags_perturbed_record(self, capsys, tmp_path):
        import json

        self._record(tmp_path / "base", split=True)
        self._record(tmp_path / "cand", split=True)
        capsys.readouterr()
        path = tmp_path / "cand" / "rm1_broadwell_b64.json"
        doc = json.loads(path.read_text())
        doc["scalars"]["total_seconds"] *= 2.0
        path.write_text(json.dumps(doc))
        assert main([
            "diff", str(tmp_path / "cand"), "--against",
            str(tmp_path / "base"), "--fail-on-regression",
        ]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        # Without the gate flag the same diff is informational.
        assert main([
            "diff", str(tmp_path / "cand"), "--against", str(tmp_path / "base"),
        ]) == 0

    def test_diff_gate_trips_on_coverage_gap(self, capsys, tmp_path):
        self._record(tmp_path / "base", models=("rm1", "ncf"))
        self._record(tmp_path / "cand", models=("rm1",))
        capsys.readouterr()
        assert main([
            "diff", str(tmp_path / "cand"), "--against",
            str(tmp_path / "base"), "--fail-on-regression",
        ]) == 1
        assert "not covered" in capsys.readouterr().out

    def test_diff_json_format(self, capsys, tmp_path):
        import json

        self._record(tmp_path / "a")
        capsys.readouterr()
        assert main([
            "diff", str(tmp_path / "a"), str(tmp_path / "a"),
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 0

    def test_diff_needs_candidate_or_against(self, tmp_path):
        self._record(tmp_path / "a")
        with pytest.raises(SystemExit):
            main(["diff", str(tmp_path / "a")])

    def test_diff_missing_path_exits_cleanly(self, tmp_path, user_error):
        assert "no such" in user_error(
            ["diff", str(tmp_path / "nope"), str(tmp_path / "nope")]
        )

    def test_check_pass_warn_fail_exit_codes(self, capsys, tmp_path):
        self._record(tmp_path / "runs")
        capsys.readouterr()
        rules = tmp_path / "slo.toml"
        rules.write_text(
            '[[rule]]\nmetric = "p99_latency_s"\nmax = 1.0\n'
        )
        assert main([
            "check", str(tmp_path / "runs"), "--rules", str(rules),
        ]) == 0
        assert "PASS" in capsys.readouterr().out
        rules.write_text(
            '[[rule]]\nmetric = "p99_latency_s"\nmax = 1e-12\n'
            'severity = "warn"\n'
        )
        assert main([
            "check", str(tmp_path / "runs"), "--rules", str(rules),
        ]) == 1
        capsys.readouterr()
        rules.write_text(
            '[[rule]]\nmetric = "p99_latency_s"\nmax = 1e-12\n'
        )
        assert main([
            "check", str(tmp_path / "runs"), "--rules", str(rules),
        ]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_check_bad_rules_exit_cleanly(self, tmp_path, user_error):
        self._record(tmp_path / "runs")
        rules = tmp_path / "bad.toml"
        rules.write_text('[[rule]]\nmetric = "nope"\nmax = 1\n')
        assert "unknown metric" in user_error(
            ["check", str(tmp_path / "runs"), "--rules", str(rules)]
        )

    def test_committed_ci_gate_passes(self, capsys):
        # The exact gate CI runs, against the committed artifacts.
        assert main([
            "check", "baselines", "--rules", "ci/slo.toml",
        ]) == 0

    def test_sweep_record_dir(self, capsys, tmp_path):
        assert main([
            "sweep", "--models", "rm1", "--batches", "1", "64",
            "--record-dir", str(tmp_path / "led"),
        ]) == 0
        assert "recorded 8 run records" in capsys.readouterr().out
        assert (tmp_path / "led" / "ledger.jsonl").exists()

    def test_resilience_record_dir(self, capsys, tmp_path):
        assert main([
            "resilience", "--model", "rm1", "--queries", "200",
            "--record-dir", str(tmp_path / "led"),
        ]) == 0
        assert "recorded all-policies run" in capsys.readouterr().out
        from repro.ledger import load_records

        records = load_records(tmp_path / "led")
        assert records[0].kind == "resilience"
        assert records[0].has_latency()


class TestTraceSchedulerModes:
    def test_scheduler_mode_exports_batch_spans(self, capsys, tmp_path):
        import json

        out = str(tmp_path / "sched.trace.json")
        assert main([
            "trace", "--scheduler", "--model", "rm1", "--queries", "200",
            "-o", out,
        ]) == 0
        with open(out) as fh:
            doc = json.load(fh)
        names = {e.get("name", "") for e in doc["traceEvents"]}
        assert any(".batch" in n for n in names)
        assert "scheduler:" in capsys.readouterr().out

    def test_resilience_mode_exports_fault_spans(self, capsys, tmp_path):
        import json

        out = str(tmp_path / "res.trace.json")
        assert main([
            "trace", "--resilience", "--model", "rm1", "--queries", "200",
            "-o", out,
        ]) == 0
        with open(out) as fh:
            doc = json.load(fh)
        names = {e.get("name", "") for e in doc["traceEvents"]}
        assert any(".batch" in n for n in names)
        assert any(".slowdown" in n or ".straggler" in n for n in names)
        assert "injected" in capsys.readouterr().out

    def test_modes_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--scheduler", "--resilience"])

"""Contract registry + differential fuzz driver.

Covers registry completeness, seeded determinism (same seed -> same
example sequence), corpus serialization/replay, and the CLI surface.
"""

import json

import pytest

from repro.analysis.contracts import (
    CONTRACTS,
    ContractViolation,
    contract_by_name,
)
from repro.analysis.fuzz import (
    MAX_EXAMPLES,
    MIN_EXAMPLES,
    examples_for_budget,
    replay_file,
    run_contract,
    run_fuzz,
)

class TestRegistry:
    def test_at_least_eight_contracts(self):
        assert len(CONTRACTS) >= 8

    def test_names_unique_and_described(self):
        names = [c.name for c in CONTRACTS]
        assert len(set(names)) == len(names)
        for contract in CONTRACTS:
            assert contract.invariant
            assert contract.cost > 0

    def test_contract_by_name(self):
        assert contract_by_name("lowering_agreement").name == (
            "lowering_agreement"
        )
        with pytest.raises(KeyError):
            contract_by_name("nope")

    def test_expected_oracles_registered(self):
        names = {c.name for c in CONTRACTS}
        assert {
            "lowering_agreement", "optimizer_numerics",
            "verifier_spec_inference",
            "ledger_byte_stability", "scheduler_conservation",
            "single_shard_colocation", "timeseries_merge_lossless",
        } <= names


class TestBudgeting:
    def test_counts_are_clamped_and_deterministic(self):
        counts = examples_for_budget(60.0, CONTRACTS)
        assert counts == examples_for_budget(60.0, CONTRACTS)
        for name, n in sorted(counts.items()):
            assert MIN_EXAMPLES <= n <= MAX_EXAMPLES, (name, n)

    def test_budget_scales_counts(self):
        small = examples_for_budget(1.0, CONTRACTS)
        large = examples_for_budget(600.0, CONTRACTS)
        assert all(
            small[c.name] <= large[c.name] for c in CONTRACTS
        )

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            examples_for_budget(0.0, CONTRACTS)


class TestDeterminism:
    @pytest.mark.parametrize(
        "name", ["lowering_agreement", "scheduler_conservation",
                 "timeseries_merge_lossless"]
    )
    def test_same_seed_same_example_stream(self, name):
        contract = contract_by_name(name)
        first = run_contract(contract, seed=2020, max_examples=12,
                             corpus_dir=None)
        second = run_contract(contract, seed=2020, max_examples=12,
                              corpus_dir=None)
        assert first.passed and second.passed
        assert first.digest == second.digest
        assert first.examples == second.examples == 12

    def test_different_seed_different_stream(self):
        contract = contract_by_name("lowering_agreement")
        a = run_contract(contract, seed=1, max_examples=12, corpus_dir=None)
        b = run_contract(contract, seed=2, max_examples=12, corpus_dir=None)
        assert a.digest != b.digest

    def test_stream_does_not_depend_on_earlier_contracts(self, tmp_path):
        """Hypothesis draws constants from the local modules imported so
        far, and the package imports lazily; in fresh interpreters, a
        contract's stream is the same alone and after another one."""
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")

        def digest(*names):
            argv = ["fuzz", "--budget", "2", "--seed", "2020", "--json",
                    "--corpus-dir", str(tmp_path)]
            for name in names:
                argv += ["--contract", name]
            proc = subprocess.run(
                [sys.executable, "-c",
                 f"import sys; sys.path.insert(0, {src!r}); "
                 f"from repro.cli import main; sys.exit(main({argv!r}))"],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)["contracts"][-1]["digest"]

        alone = digest("timeseries_merge_lossless")
        assert alone == digest("ledger_byte_stability",
                               "timeseries_merge_lossless")

    def test_report_digest_covers_all_contracts(self):
        cheap = [contract_by_name("lowering_agreement"),
                 contract_by_name("timeseries_merge_lossless")]
        report = run_fuzz(budget_s=1.0, seed=7, contracts=cheap,
                          corpus_dir=None)
        assert report.ok
        assert len(report.results) == 2
        assert report.digest  # stable combined digest
        again = run_fuzz(budget_s=1.0, seed=7, contracts=cheap,
                         corpus_dir=None)
        assert report.digest == again.digest


class TestFailurePath:
    def test_violation_shrinks_and_serializes(self, tmp_path):
        # A contract that fails whenever either coordinate is >= 3:
        # hypothesis must shrink to the minimal (3, 0) example and the
        # driver must serialize exactly that.
        from hypothesis import strategies as st

        from repro.analysis.contracts import Contract

        def check(example):
            if example["a"] >= 3 or example["b"] >= 3:
                raise ContractViolation(f"boom on {example}")

        contract = Contract(
            "synthetic_failure", "a and b stay below 3",
            lambda: st.fixed_dictionaries(
                {"a": st.integers(0, 100), "b": st.integers(0, 100)}
            ),
            check, cost=0.001,
        )
        result = run_contract(contract, seed=2020, max_examples=50,
                              corpus_dir=tmp_path)
        assert not result.passed
        shrunk = result.failing_example
        assert shrunk in ({"a": 3, "b": 0}, {"a": 0, "b": 3})
        corpus = tmp_path / "synthetic_failure_2020.json"
        assert result.corpus_file == str(corpus)
        payload = json.loads(corpus.read_text())
        assert payload["contract"] == "synthetic_failure"
        assert payload["seed"] == 2020
        assert payload["example"] == shrunk
        assert "boom" in payload["error"]
        # The serialized example replays to the same violation.
        with pytest.raises(ContractViolation):
            check(payload["example"])

    def test_replay_unknown_contract_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(
            {"contract": "nope", "seed": 1, "example": {}, "error": "x"}
        ))
        with pytest.raises(KeyError):
            replay_file(path)

    def test_clean_run_writes_no_corpus(self, tmp_path):
        contract = contract_by_name("lowering_agreement")
        result = run_contract(contract, seed=2020, max_examples=6,
                              corpus_dir=tmp_path)
        assert result.passed
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_fuzz_json_clean(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "fuzz", "--budget", "4", "--seed", "2020", "--json",
            "--corpus-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["contracts"]) == len(CONTRACTS)
        assert list(tmp_path.iterdir()) == []

    def test_fuzz_contract_selection(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "fuzz", "--budget", "1", "--seed", "7", "--json",
            "--contract", "lowering_agreement",
            "--contract", "timeseries_merge_lossless",
            "--corpus-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        names = [c["contract"] for c in payload["contracts"]]
        assert names == ["lowering_agreement", "timeseries_merge_lossless"]

    def test_fuzz_unknown_contract_is_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["fuzz", "--contract", "nope"])

    def test_fuzz_list(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        for contract in CONTRACTS:
            assert contract.name in out

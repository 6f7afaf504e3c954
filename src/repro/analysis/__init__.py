"""Static analysis: graph IR verification and codebase lint.

Two engines share one diagnostics vocabulary:

* the **graph verifier** (:func:`verify_graph`) re-derives every node's
  output spec from per-op inference rules — symbolic in the batch
  dimension — and checks wiring, shapes, dtypes, dead tensors, cycles,
  and output reachability before a graph is cached or simulated;
* the **codebase linter** (:func:`lint_paths`) enforces the repo's
  determinism/concurrency invariants (rules ``REP001``–``REP007``) over
  Python sources via AST analysis.

All surface through ``repro lint`` / ``repro verify`` on the CLI and
are documented in ``docs/static_analysis.md``.

The *dynamic* counterpart — the contract registry and differential
fuzzer behind ``repro fuzz`` — lives in :mod:`repro.analysis.contracts`
and :mod:`repro.analysis.fuzz`. Those modules import :mod:`hypothesis`
(a dev/test dependency), so they are deliberately not imported here;
access them as submodules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.diagnostics": (
        "ERROR", "NOTE", "WARNING", "Diagnostic", "DiagnosticReport",
    ),
    "repro.analysis.linter": (
        "LINT_RULES", "LintRule", "lint_paths", "lint_source",
    ),
    "repro.analysis.shape_rules": (
        "BATCH", "SHAPE_RULES", "RuleError", "SymDim", "SymSpec", "shape_rule",
    ),
    "repro.analysis.verifier": (
        "GraphVerifyError", "assert_equivalent", "assert_verified",
        "check_equivalence", "inferred_output_specs", "verify_graph",
    ),
})

__all__ = [
    # diagnostics
    "ERROR",
    "WARNING",
    "NOTE",
    "Diagnostic",
    "DiagnosticReport",
    # verifier
    "GraphVerifyError",
    "verify_graph",
    "assert_verified",
    "inferred_output_specs",
    "check_equivalence",
    "assert_equivalent",
    # shape rules
    "SymDim",
    "SymSpec",
    "BATCH",
    "RuleError",
    "SHAPE_RULES",
    "shape_rule",
    # linter
    "LintRule",
    "LINT_RULES",
    "lint_source",
    "lint_paths",
]

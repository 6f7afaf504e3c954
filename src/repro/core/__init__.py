"""Cross-stack characterization (the paper's contribution)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.claims": (
        "Claim", "ClaimContext", "ClaimResult", "PAPER_CLAIMS",
        "evaluate_claims",
    ),
    "repro.core.classification": (
        "BottleneckShift", "ModelClass", "classify_breakdown",
        "classify_profile", "find_bottleneck_shifts",
        "reference_classification",
    ),
    "repro.core.crossstack": ("CrossStackReport", "characterize"),
    "repro.core.energy": (
        "EnergyEstimate", "efficiency_grid", "energy_per_inference",
    ),
    "repro.core.export": (
        "records_to_json", "suite_to_records", "sweep_to_csv",
        "sweep_to_records",
    ),
    "repro.core.features": (
        "FEATURE_NAMES", "FeatureMatrix", "build_feature_matrix",
    ),
    "repro.core.operator_breakdown": (
        "OperatorBreakdown", "breakdown_for", "framework_comparison",
    ),
    "repro.core.regression": (
        "BOTTLENECK_TARGETS", "RegressionResult", "fit_bottleneck_regression",
        "fit_linear", "run_fig16_study",
    ),
    "repro.core.report": (
        "format_seconds", "render_grid", "render_table", "to_csv",
    ),
    "repro.core.roofline": (
        "RooflinePoint", "graph_workload", "roofline_point",
    ),
    "repro.core.scaling": (
        "ScalingFit", "crossover_batch", "crossover_table", "fit_scaling",
    ),
    "repro.core.sla": (
        "SlaBudget", "SlaOperatingPoint", "max_batch_under_sla",
        "sla_frontier",
    ),
    "repro.core.speedup": (
        "BASELINE_PLATFORM", "OptimalCell", "SpeedupStudy", "SweepResult",
    ),
    "repro.core.topdown_analysis": (
        "TOPDOWN_BATCH_SIZE", "MicroarchReport", "collect_report",
        "collect_suite",
    ),
})

__all__ = [
    "characterize",
    "CrossStackReport",
    "Claim",
    "ClaimContext",
    "ClaimResult",
    "PAPER_CLAIMS",
    "evaluate_claims",
    "ModelClass",
    "classify_breakdown",
    "classify_profile",
    "reference_classification",
    "BottleneckShift",
    "find_bottleneck_shifts",
    "SlaOperatingPoint",
    "SlaBudget",
    "max_batch_under_sla",
    "sla_frontier",
    "ScalingFit",
    "fit_scaling",
    "crossover_batch",
    "crossover_table",
    "RooflinePoint",
    "graph_workload",
    "roofline_point",
    "EnergyEstimate",
    "energy_per_inference",
    "efficiency_grid",
    "sweep_to_records",
    "sweep_to_csv",
    "suite_to_records",
    "records_to_json",
    "SpeedupStudy",
    "SweepResult",
    "OptimalCell",
    "BASELINE_PLATFORM",
    "OperatorBreakdown",
    "breakdown_for",
    "framework_comparison",
    "MicroarchReport",
    "collect_report",
    "collect_suite",
    "TOPDOWN_BATCH_SIZE",
    "FEATURE_NAMES",
    "FeatureMatrix",
    "build_feature_matrix",
    "BOTTLENECK_TARGETS",
    "RegressionResult",
    "fit_bottleneck_regression",
    "fit_linear",
    "run_fig16_study",
    "render_table",
    "render_grid",
    "to_csv",
    "format_seconds",
]

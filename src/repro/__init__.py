"""repro — Cross-Stack Workload Characterization of Deep Recommendation Systems.

A full-system reproduction of Hsia et al., IISWC 2020: the eight-model
recommendation suite (NCF, DLRM RM1-3, WnD, MT-WnD, DIN, DIEN), an
operator-graph runtime with a functional NumPy executor, analytical
CPU-microarchitecture (TopDown) and GPU performance models for the four
Table II platforms, and the cross-stack characterization pipeline that
regenerates every table and figure of the paper's evaluation.

Quick start::

    from repro import characterize
    report = characterize("rm2", "broadwell", batch_size=16)
    print("\\n".join(report.summary_lines()))
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.crossstack": ("CrossStackReport", "characterize"),
    "repro.core.operator_breakdown": (
        "OperatorBreakdown", "breakdown_for", "framework_comparison",
    ),
    "repro.core.regression": ("run_fig16_study",),
    "repro.core.speedup": ("SpeedupStudy", "SweepResult"),
    "repro.core.topdown_analysis": (
        "MicroarchReport", "collect_report", "collect_suite",
    ),
    "repro.graph.builder": ("GraphBuilder",),
    "repro.graph.executor": ("execute",),
    "repro.graph.graph": ("Graph",),
    "repro.graph.tensor": ("TensorSpec",),
    "repro.hw.platform": (
        "BROADWELL", "CASCADE_LAKE", "GTX_1080_TI", "PLATFORMS", "T4",
        "platform_by_name",
    ),
    "repro.models.names": ("MODEL_ORDER",),
    "repro.models.zoo": ("build_all_models", "build_model"),
    "repro.runtime.session": ("InferenceProfile", "InferenceSession"),
    "repro.uarch.events": ("PmuEvents",),
    "repro.uarch.pipeline": ("CpuModel",),
    "repro.uarch.topdown": ("TopDownBreakdown", "topdown_from_events"),
    "repro.gpusim.device": ("GpuModel",),
    "repro.workloads.generator": ("QueryGenerator", "paper_batch_sizes"),
})

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # top-level characterization
    "characterize",
    "CrossStackReport",
    "SpeedupStudy",
    "SweepResult",
    "OperatorBreakdown",
    "breakdown_for",
    "framework_comparison",
    "MicroarchReport",
    "collect_report",
    "collect_suite",
    "run_fig16_study",
    # models & workloads
    "MODEL_ORDER",
    "build_model",
    "build_all_models",
    "QueryGenerator",
    "paper_batch_sizes",
    # graph & runtime
    "Graph",
    "GraphBuilder",
    "TensorSpec",
    "execute",
    "InferenceSession",
    "InferenceProfile",
    # hardware & simulators
    "PLATFORMS",
    "BROADWELL",
    "CASCADE_LAKE",
    "GTX_1080_TI",
    "T4",
    "platform_by_name",
    "CpuModel",
    "GpuModel",
    "PmuEvents",
    "TopDownBreakdown",
    "topdown_from_events",
]

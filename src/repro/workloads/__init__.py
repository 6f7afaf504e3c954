"""Synthetic query workloads (batch grids, index distributions)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.distributions": (
        "IndexDistribution", "UniformIndices", "ZipfIndices", "hot_keys",
        "hot_mass",
    ),
    "repro.workloads.generator": (
        "QueryGenerator", "operator_breakdown_batch_sizes",
        "paper_batch_sizes",
    ),
    "repro.workloads.traces": (
        "DiurnalTrace", "TraceInterval", "TraceReplay", "replay",
    ),
})

__all__ = [
    "DiurnalTrace",
    "TraceInterval",
    "TraceReplay",
    "replay",
    "IndexDistribution",
    "UniformIndices",
    "ZipfIndices",
    "hot_keys",
    "hot_mass",
    "QueryGenerator",
    "paper_batch_sizes",
    "operator_breakdown_batch_sizes",
]

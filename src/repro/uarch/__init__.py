"""Analytical CPU microarchitecture simulator (TopDown-style)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.uarch.caches": (
        "AnalyticalHierarchy", "CacheHierarchy", "LevelAccesses",
        "SetAssociativeCache",
    ),
    "repro.uarch.constants": ("DEFAULT_CONSTANTS", "UarchConstants"),
    "repro.uarch.events": ("PmuEvents",),
    "repro.uarch.frontend": (
        "CodeRegion", "FrontendModel", "FrontendProfile",
    ),
    "repro.uarch.multicore": ("CoreScalingPoint", "MulticoreModel"),
    "repro.uarch.nmp": ("NmpConfig", "NmpSystem"),
    "repro.uarch.pipeline": ("CpuGraphProfile", "CpuModel", "CpuOpProfile"),
    "repro.uarch.topdown": ("TopDownBreakdown", "topdown_from_events"),
    "repro.uarch.tracesim": ("EmbeddingTraceStudy", "TraceStudyResult"),
})

__all__ = [
    "CpuModel",
    "CpuGraphProfile",
    "CpuOpProfile",
    "PmuEvents",
    "TopDownBreakdown",
    "topdown_from_events",
    "FrontendModel",
    "FrontendProfile",
    "CodeRegion",
    "SetAssociativeCache",
    "CacheHierarchy",
    "AnalyticalHierarchy",
    "LevelAccesses",
    "UarchConstants",
    "DEFAULT_CONSTANTS",
    "EmbeddingTraceStudy",
    "TraceStudyResult",
    "MulticoreModel",
    "CoreScalingPoint",
    "NmpConfig",
    "NmpSystem",
]

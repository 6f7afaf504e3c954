"""Analytical CPU microarchitecture simulator (TopDown-style)."""

from repro.uarch.caches import (
    AnalyticalHierarchy,
    CacheHierarchy,
    LevelAccesses,
    SetAssociativeCache,
)
from repro.uarch.constants import DEFAULT_CONSTANTS, UarchConstants
from repro.uarch.events import PmuEvents
from repro.uarch.frontend import CodeRegion, FrontendModel, FrontendProfile
from repro.uarch.pipeline import CpuGraphProfile, CpuModel, CpuOpProfile
from repro.uarch.multicore import CoreScalingPoint, MulticoreModel
from repro.uarch.nmp import NmpConfig, NmpSystem
from repro.uarch.topdown import TopDownBreakdown, topdown_from_events
from repro.uarch.tracesim import EmbeddingTraceStudy, TraceStudyResult

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

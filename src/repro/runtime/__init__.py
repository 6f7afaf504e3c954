"""Execution runtime: sessions, plus at-scale query scheduling."""

from repro.runtime.graph_cache import (
    GraphCache,
    GraphCacheStats,
    clear_graph_cache,
    get_graph,
    graph_cache_stats,
    signature_digest,
)
from repro.runtime.scheduler import (
    BatchingPolicy,
    QueryScheduler,
    ScheduleResult,
    ServiceTimeModel,
)
from repro.runtime.session import (
    InferenceProfile,
    InferenceSession,
    data_comm_span,
    profile_spans,
)
from repro.runtime.timeline import Timeline, TimelineSpan, timeline_from_profile

__all__ = [
    "InferenceSession",
    "InferenceProfile",
    "profile_spans",
    "data_comm_span",
    "Timeline",
    "TimelineSpan",
    "timeline_from_profile",
    "ServiceTimeModel",
    "BatchingPolicy",
    "QueryScheduler",
    "ScheduleResult",
    "GraphCache",
    "GraphCacheStats",
    "get_graph",
    "clear_graph_cache",
    "graph_cache_stats",
    "signature_digest",
]

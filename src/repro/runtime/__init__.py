"""Execution runtime: sessions, plus at-scale query scheduling."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runtime.graph_cache": (
        "GraphCache", "GraphCacheStats", "clear_graph_cache", "get_graph",
        "graph_cache_stats", "signature_digest",
    ),
    "repro.runtime.scheduler": (
        "BatchingPolicy", "QueryScheduler", "ScheduleResult",
        "ServiceTimeModel",
    ),
    "repro.runtime.session": (
        "InferenceProfile", "InferenceSession", "data_comm_span",
        "profile_spans",
    ),
    "repro.runtime.timeline": (
        "Timeline", "TimelineSpan", "timeline_from_profile",
    ),
})

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

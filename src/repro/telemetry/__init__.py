"""Cross-stack telemetry: span tracing, metrics, and trace export.

One substrate instruments every execution layer of the reproduction —
the functional graph executor, inference sessions, the at-scale query
scheduler, and the CPU/GPU performance models. It is **disabled by
default and zero-cost when disabled**: instrumentation sites guard on
:func:`enabled` (one attribute read) or go through the no-op tracer,
so profiling timings and tier-1 test runtimes are unaffected.

Typical use::

    from repro import telemetry

    with telemetry.capture() as (tracer, registry):
        session.profile(64)                       # records spans + metrics
    telemetry.write_chrome_trace("out.trace.json", tracer.sorted_spans(),
                                 metrics=registry.snapshot())

or imperatively: :func:`enable` / :func:`disable` around any workload,
then read :func:`get_tracer` / :func:`get_registry`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple, Union

from repro._lazy import lazy_exports
from repro.telemetry.metrics import Counter, Gauge, MetricsRegistry
from repro.telemetry.tracer import MODELED_TID, NoopTracer, Span, Tracer

# The state functions below need only the tracer and the registry; the
# exporters, serving views and histogram are imported on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.chrome_trace": (
        "chrome_trace_document", "load_chrome_trace", "querytrace_flow_events",
        "spans_to_trace_events", "timeseries_to_counter_events",
        "write_chrome_trace",
    ),
    "repro.telemetry.histogram": ("HistogramSnapshot", "StreamingHistogram"),
    "repro.telemetry.querytrace": (
        "COMPONENTS", "AttemptEvent", "QueryTraceCapture", "QueryTraceRecord",
        "ServiceParts", "decompose_attempts",
    ),
    "repro.telemetry.report": (
        "metrics_csv", "metrics_json", "metrics_table", "render_metrics",
        "summarize_spans", "write_metrics_report",
    ),
    "repro.telemetry.timeseries": ("TimeSeries", "TimeSeriesSummary"),
})

__all__ = [
    # state management
    "enable",
    "disable",
    "enabled",
    "capture",
    "get_tracer",
    "get_registry",
    "reset",
    # building blocks
    "Tracer",
    "NoopTracer",
    "Span",
    "MODELED_TID",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "StreamingHistogram",
    "HistogramSnapshot",
    "TimeSeries",
    "TimeSeriesSummary",
    # per-query causal tracing (repro explain substrate)
    "COMPONENTS",
    "AttemptEvent",
    "QueryTraceCapture",
    "QueryTraceRecord",
    "ServiceParts",
    "decompose_attempts",
    # exporters
    "spans_to_trace_events",
    "timeseries_to_counter_events",
    "querytrace_flow_events",
    "chrome_trace_document",
    "write_chrome_trace",
    "load_chrome_trace",
    "metrics_table",
    "metrics_json",
    "metrics_csv",
    "render_metrics",
    "write_metrics_report",
    "summarize_spans",
]


class _TelemetryState:
    """Process-global switch + backing tracer/registry."""

    __slots__ = ("enabled", "tracer", "registry")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.registry = MetricsRegistry()


_STATE = _TelemetryState()
_NOOP_TRACER = NoopTracer()


def enabled() -> bool:
    """Whether instrumentation is currently recording (the fast guard)."""
    return _STATE.enabled


def enable() -> None:
    """Turn recording on (tracer + registry keep any prior contents)."""
    _STATE.enabled = True


def disable() -> None:
    """Turn recording off; recorded spans/metrics stay readable."""
    _STATE.enabled = False


def get_tracer() -> Union[Tracer, NoopTracer]:
    """The active tracer — the shared no-op instance while disabled."""
    return _STATE.tracer if _STATE.enabled else _NOOP_TRACER


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry (always real, so results
    recorded under :func:`enable` stay readable after :func:`disable`)."""
    return _STATE.registry


def reset() -> None:
    """Drop all recorded spans and metric registrations."""
    _STATE.tracer.clear()
    _STATE.registry.clear()


@contextmanager
def capture(fresh: bool = True) -> Iterator[Tuple[Tracer, MetricsRegistry]]:
    """Enable telemetry for a block and hand back (tracer, registry).

    ``fresh=True`` (default) starts from empty buffers; the previous
    enabled/disabled state is restored on exit, but the recorded data
    stays readable through the yielded handles.
    """
    if fresh:
        reset()
    was_enabled = _STATE.enabled
    enable()
    try:
        yield _STATE.tracer, _STATE.registry
    finally:
        _STATE.enabled = was_enabled

"""Span recording for traced benchmark runs.

A :class:`Recorder` keeps spans (name, start, end, parent, run id) and
per-layer samples in memory; :func:`chrome_trace` turns the spans into a
Chrome-trace document once the run ends. Untraced runs use
:data:`NULL`, whose methods do nothing, so workload code calls the same
API either way and pays nothing when tracing is off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

#: Multiplier from seconds to a metric's unit, keyed by name suffix.
_SCALE = {"_s": 1.0, "_ms": 1e3, "_us": 1e6}


def unit_scale(metric: str) -> float:
    for suffix, scale in _SCALE.items():
        if metric.endswith(suffix):
            return scale
    raise ValueError(f"metric {metric!r} has no time-unit suffix")


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "args")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 run: int, args: Dict) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.args = args


class Recorder:
    """In-memory span tree plus named sample series and exact counts."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.run_id = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, metric: Optional[str] = None, per: float = 1,
             **args) -> Iterator[None]:
        """Time the enclosed call; with ``metric``, also record its
        duration divided by ``per`` as one sample in the metric's unit."""
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, parent, self.run_id, args)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
        if metric is not None:
            self.sample(metric, (record.end - record.start) / per
                        * unit_scale(metric))

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def count(self, name: str, value: float) -> None:
        """Record a per-pass count. Counts are exact, so every pass of
        one seed reports the same value; the pass digest covers them."""
        self.counts[name] = value


class _NullRecorder:
    enabled = False
    run_id = 0

    @contextmanager
    def span(self, name: str, metric: Optional[str] = None, per: float = 1,
             **args) -> Iterator[None]:
        yield

    def sample(self, metric: str, value: float) -> None:
        pass

    def count(self, name: str, value: float) -> None:
        pass


NULL = _NullRecorder()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child_time)]


def chrome_trace(spans: Sequence[Span], origin: float) -> Dict:
    """Complete ("X") events, one thread per pass, self time in args."""
    events = []
    for span, self_s in zip(spans, self_times(spans)):
        args = dict(span.args)
        args["self_us"] = round(self_s * 1e6, 3)
        if span.parent is not None:
            args["parent"] = spans[span.parent].name
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3),
            "pid": 1,
            "tid": span.run,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Total and self seconds per span name, for the run summary."""
    out: Dict[str, Dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
        entry["n"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += self_s
    return out


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples above it.

    That is the (n - 10)th smallest sample; below 20 samples it would
    fall under the median, so the maximum is reported instead.
    """
    ordered = sorted(values)
    if len(ordered) < 20:
        return ordered[-1]
    return ordered[len(ordered) - 11]

"""Simulated-clock time-series telemetry: ring-buffered windowed tracks.

The metrics registry and run ledger summarize a whole run into one
number per metric — a p99 spike during a ten-second GPU throttle window
is invisible in a five-minute aggregate. This module adds the
time-resolved layer: a :class:`TimeSeries` buckets events into fixed
windows of *simulated* time (the discrete-event schedulers' clock, not
wall clock) and keeps one accumulator per (track, window):

* **counter** tracks — arrivals, completions, fault activity (also
  interval counters: server busy-seconds split across the windows a
  batch overlaps, the direct M/M/1 utilization signal);
* **gauge** tracks — queue depth, batch occupancy (count/sum/min/max
  and the last-set value per window);
* **histogram** tracks — per-window
  :class:`~repro.telemetry.histogram.StreamingHistogram`\\ s, so every
  window answers exact p50/p95/p99 (and violating-fraction) queries
  while small and degrades gracefully past ``exact_cap``;
* **state** tracks — categorical per-replica health timelines
  (``healthy`` / ``degraded`` / ``crashed`` / ``breaker_open``), one
  occurrence count per state per window.

Windows are ring-buffered: past ``max_windows`` distinct windows the
oldest are evicted (counted in :attr:`TimeSeries.evicted_windows`), so
memory stays bounded on arbitrarily long simulations.

Serialization mirrors the histogram machinery: :meth:`TimeSeries.
to_state` is lossless (per-window histogram states ride along via
``StreamingHistogram.to_state``), while :meth:`TimeSeries.
compact_state` collapses each window histogram to
``[count, sum, p50, p95, p99]`` — the byte-stable form a
:class:`~repro.ledger.RunRecord` embeds. :class:`TimeSeriesSummary`
is the read-side view both forms (and the monitor / dashboard layers)
share.

Merging follows the PR 5 contract window by window: folding in an
empty shard — or an empty *window* of a shard — is a no-op that
preserves the target's exact quantile regime.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.histogram import StreamingHistogram

__all__ = ["TimeSeries", "TimeSeriesSummary", "DEFAULT_WINDOW_QUANTILES"]

#: Quantiles every histogram track summarizes per window.
DEFAULT_WINDOW_QUANTILES = (50.0, 95.0, 99.0)

#: Serialized-state version (bumped on incompatible layout changes).
STATE_VERSION = 1


class _CounterTrack:
    kind = "counter"

    __slots__ = ("windows",)

    def __init__(self) -> None:
        self.windows: Dict[int, float] = {}

    def add(self, index: int, amount: float) -> None:
        self.windows[index] = self.windows.get(index, 0.0) + amount

    def merge_window(self, index: int, value: float) -> None:
        if value:
            self.add(index, float(value))

    def state_rows(self) -> List[List[Any]]:
        return [[i, self.windows[i]] for i in sorted(self.windows)]

    def load_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        for index, value in rows:
            self.windows[int(index)] = float(value)


class _GaugeTrack:
    kind = "gauge"

    __slots__ = ("windows",)

    def __init__(self) -> None:
        # window -> [count, sum, min, max, last]
        self.windows: Dict[int, List[float]] = {}

    def sample(self, index: int, value: float) -> None:
        value = float(value)
        cell = self.windows.get(index)
        if cell is None:
            self.windows[index] = [1, value, value, value, value]
        else:
            cell[0] += 1
            cell[1] += value
            if value < cell[2]:
                cell[2] = value
            if value > cell[3]:
                cell[3] = value
            cell[4] = value

    def merge_window(self, index: int, cell: Sequence[float]) -> None:
        count = int(cell[0])
        if count == 0:
            # Empty shard window: folding it in must change nothing.
            return
        mine = self.windows.get(index)
        if mine is None:
            self.windows[index] = [count, *map(float, cell[1:5])]
        else:
            mine[0] += count
            mine[1] += float(cell[1])
            mine[2] = min(mine[2], float(cell[2]))
            mine[3] = max(mine[3], float(cell[3]))
            mine[4] = float(cell[4])  # later shard wins the last-set value

    def state_rows(self) -> List[List[Any]]:
        return [[i, list(self.windows[i])] for i in sorted(self.windows)]

    def load_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        for index, cell in rows:
            self.windows[int(index)] = [
                int(cell[0]), float(cell[1]), float(cell[2]),
                float(cell[3]), float(cell[4]),
            ]


class _HistogramTrack:
    kind = "histogram"

    __slots__ = ("windows", "hist_kwargs")

    def __init__(self, hist_kwargs: Optional[Mapping[str, Any]] = None) -> None:
        self.windows: Dict[int, StreamingHistogram] = {}
        self.hist_kwargs = dict(hist_kwargs or {})

    def _hist(self, index: int) -> StreamingHistogram:
        hist = self.windows.get(index)
        if hist is None:
            hist = self.windows[index] = StreamingHistogram(**self.hist_kwargs)
        return hist

    def observe(self, index: int, value: float) -> None:
        self._hist(index).observe(value)

    def observe_many(self, index: int, values: Sequence[float]) -> None:
        self._hist(index).observe_many(values)

    def merge_window(self, index: int, other: StreamingHistogram) -> None:
        if other.count == 0:
            # Preserve the exact regime of an existing window; never
            # materialize a new empty one.
            return
        mine = self.windows.get(index)
        if mine is None:
            # Adopt a copy so the shard stays independently usable.
            self.windows[index] = StreamingHistogram.from_state(other.to_state())
        else:
            mine.merge(other)

    def state_rows(self) -> List[List[Any]]:
        return [[i, self.windows[i].to_state()] for i in sorted(self.windows)]

    def load_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        for index, state in rows:
            self.windows[int(index)] = StreamingHistogram.from_state(state)

    def compact_rows(self) -> List[List[Any]]:
        rows = []
        for i in sorted(self.windows):
            hist = self.windows[i]
            if hist.count == 0:
                continue
            rows.append(
                [i, [hist.count, hist.total]
                 + [hist.quantile(q) for q in DEFAULT_WINDOW_QUANTILES]]
            )
        return rows


class _StateTrack:
    kind = "state"

    __slots__ = ("windows",)

    def __init__(self) -> None:
        # window -> {state name: occurrence count}
        self.windows: Dict[int, Dict[str, int]] = {}

    def mark(self, index: int, state: str, count: int = 1) -> None:
        cell = self.windows.setdefault(index, {})
        cell[state] = cell.get(state, 0) + count

    def merge_window(self, index: int, cell: Mapping[str, int]) -> None:
        if not cell:
            return
        for state, count in cell.items():
            self.mark(index, state, int(count))

    def state_rows(self) -> List[List[Any]]:
        return [
            [i, {k: self.windows[i][k] for k in sorted(self.windows[i])}]
            for i in sorted(self.windows)
        ]

    def load_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        for index, cell in rows:
            self.windows[int(index)] = {
                str(k): int(v) for k, v in dict(cell).items()
            }


_TRACK_TYPES = {
    "counter": _CounterTrack,
    "gauge": _GaugeTrack,
    "histogram": _HistogramTrack,
    "state": _StateTrack,
}


class TimeSeries:
    """Windowed multi-track telemetry on a simulated clock.

    One instance covers one simulation run: the schedulers emit into it
    with the event times they already compute, so collection changes
    no arithmetic and no RNG draws (the fault-off bit-identical
    guarantee is pinned in tests).
    """

    def __init__(
        self,
        window_s: float,
        max_windows: int = 4096,
        origin_s: float = 0.0,
    ) -> None:
        if not math.isfinite(window_s) or window_s <= 0:
            raise ValueError(f"window_s must be positive and finite, got {window_s}")
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        self.window_s = float(window_s)
        self.max_windows = int(max_windows)
        self.origin_s = float(origin_s)
        self.evicted_windows = 0
        self._tracks: Dict[str, Any] = {}
        self._min_window: Optional[int] = None
        self._max_window: Optional[int] = None
        self._lock = threading.Lock()

    # -- windows -------------------------------------------------------------

    def window_index(self, t: float) -> int:
        """The window covering simulated time ``t`` (clamped below origin)."""
        return max(int(math.floor((t - self.origin_s) / self.window_s)), 0)

    def window_start(self, index: int) -> float:
        return self.origin_s + index * self.window_s

    def window_bounds(self, index: int) -> Tuple[float, float]:
        start = self.window_start(index)
        return (start, start + self.window_s)

    def window_indices(self) -> List[int]:
        """Contiguous index range [min seen, max seen] (empty if no data)."""
        if self._min_window is None:
            return []
        return list(range(self._min_window, self._max_window + 1))

    def _note_window(self, index: int) -> None:
        if self._min_window is None:
            self._min_window = self._max_window = index
            return
        if index > self._max_window:
            self._max_window = index
        if index < self._min_window:
            self._min_window = index
        span = self._max_window - self._min_window + 1
        if span > self.max_windows:
            cutoff = self._max_window - self.max_windows + 1
            self._evict_below(cutoff)

    def _evict_below(self, cutoff: int) -> None:
        for track in self._tracks.values():
            for index in [i for i in track.windows if i < cutoff]:
                del track.windows[index]
        self.evicted_windows += cutoff - self._min_window
        self._min_window = cutoff

    # -- track access --------------------------------------------------------

    def _track(self, name: str, kind: str, **kwargs: Any):
        track = self._tracks.get(name)
        if track is None:
            with self._lock:
                track = self._tracks.get(name)
                if track is None:
                    track = _TRACK_TYPES[kind](**kwargs) if kwargs else (
                        _TRACK_TYPES[kind]()
                    )
                    self._tracks[name] = track
        if track.kind != kind:
            raise ValueError(
                f"track {name!r} is a {track.kind} track, not {kind}"
            )
        return track

    def track_names(self, kind: Optional[str] = None) -> List[str]:
        return sorted(
            name for name, t in self._tracks.items()
            if kind is None or t.kind == kind
        )

    def track_kind(self, name: str) -> str:
        return self._tracks[name].kind

    # -- recording -----------------------------------------------------------

    def count(self, name: str, t: float, amount: float = 1.0) -> None:
        """Add ``amount`` to counter track ``name`` at time ``t``."""
        index = self.window_index(t)
        self._track(name, "counter").add(index, float(amount))
        self._note_window(index)

    def count_many(self, name: str, times: Sequence[float]) -> None:
        """Add one count per time in ``times`` (vectorized bucketing)."""
        arr = np.asarray(times, dtype=float)
        if arr.size == 0:
            return
        indices = np.maximum(
            np.floor((arr - self.origin_s) / self.window_s).astype(np.intp), 0
        )
        track = self._track(name, "counter")
        counts = np.bincount(indices)
        for index in np.nonzero(counts)[0]:
            track.add(int(index), float(counts[index]))
        self._note_window(int(indices.min()))
        self._note_window(int(indices.max()))

    def count_interval(self, name: str, start: float, end: float) -> None:
        """Add the seconds of [start, end) overlapping each window.

        This is how server busy time lands: a batch spanning three
        windows contributes its per-window overlap to each, so the
        track integrates to true busy seconds and per-window
        ``busy / window_s`` is the utilization (the M/M/1 rho).
        """
        if end <= start:
            return
        first = self.window_index(start)
        last = self.window_index(max(end - 1e-12, start))
        track = self._track(name, "counter")
        for index in range(first, last + 1):
            lo, hi = self.window_bounds(index)
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                track.add(index, overlap)
        self._note_window(first)
        self._note_window(last)

    def sample(self, name: str, t: float, value: float) -> None:
        """Record one gauge sample (queue depth, occupancy) at ``t``."""
        index = self.window_index(t)
        self._track(name, "gauge").sample(index, value)
        self._note_window(index)

    def observe(self, name: str, t: float, value: float, **hist_kwargs: Any) -> None:
        """Record one histogram observation into ``t``'s window."""
        index = self.window_index(t)
        self._track(name, "histogram", hist_kwargs=hist_kwargs).observe(
            index, value
        )
        self._note_window(index)

    def observe_many(
        self,
        name: str,
        times: Sequence[float],
        values: Sequence[float],
        **hist_kwargs: Any,
    ) -> None:
        """Record ``values[k]`` into the window covering ``times[k]``."""
        t_arr = np.asarray(times, dtype=float)
        v_arr = np.asarray(values, dtype=float)
        if t_arr.size != v_arr.size:
            raise ValueError(
                f"times and values must align, got {t_arr.size} vs {v_arr.size}"
            )
        if t_arr.size == 0:
            return
        indices = np.maximum(
            np.floor((t_arr - self.origin_s) / self.window_s).astype(np.intp), 0
        )
        track = self._track(name, "histogram", hist_kwargs=hist_kwargs)
        for index in np.unique(indices):
            track.observe_many(int(index), v_arr[indices == index])
        self._note_window(int(indices.min()))
        self._note_window(int(indices.max()))

    def mark_state(self, name: str, t: float, state: str, count: int = 1) -> None:
        """Record a categorical state occurrence (health timelines)."""
        index = self.window_index(t)
        self._track(name, "state").mark(index, state, count)
        self._note_window(index)

    def mark_state_interval(
        self, name: str, start: float, end: float, state: str
    ) -> None:
        """Mark ``state`` in every window [start, end) touches."""
        if end <= start:
            return
        first = self.window_index(start)
        last = self.window_index(max(end - 1e-12, start))
        track = self._track(name, "state")
        for index in range(first, last + 1):
            track.mark(index, state)
        self._note_window(first)
        self._note_window(last)

    # -- reading -------------------------------------------------------------

    def window_histogram(self, name: str, index: int) -> Optional[StreamingHistogram]:
        track = self._tracks.get(name)
        if track is None or track.kind != "histogram":
            return None
        return track.windows.get(index)

    def counter_value(self, name: str, index: int) -> float:
        track = self._tracks.get(name)
        if track is None or track.kind != "counter":
            return 0.0
        return track.windows.get(index, 0.0)

    def summary(self) -> "TimeSeriesSummary":
        """Collapse to the plain-data per-window view (see module doc)."""
        return TimeSeriesSummary.from_compact_state(self.compact_state())

    # -- merging -------------------------------------------------------------

    def merge(self, other: "TimeSeries") -> "TimeSeries":
        """Fold a shard in, window by window (empty windows are no-ops)."""
        if other.window_s != self.window_s or other.origin_s != self.origin_s:
            raise ValueError(
                "cannot merge time series with different windowing: "
                f"{self.window_s}s@{self.origin_s} vs "
                f"{other.window_s}s@{other.origin_s}"
            )
        for name, track in sorted(other._tracks.items()):
            kind = track.kind
            kwargs = (
                {"hist_kwargs": track.hist_kwargs} if kind == "histogram" else {}
            )
            mine = self._track(name, kind, **kwargs)
            for index in sorted(track.windows):
                mine.merge_window(index, track.windows[index])
                self._note_window(index)
        return self

    # -- serialization -------------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Lossless JSON-safe dump (histograms keep full state)."""
        return {
            "version": STATE_VERSION,
            "window_s": self.window_s,
            "origin_s": self.origin_s,
            "max_windows": self.max_windows,
            "evicted_windows": self.evicted_windows,
            "tracks": {
                name: {"type": track.kind, "windows": track.state_rows()}
                for name, track in sorted(self._tracks.items())
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "TimeSeries":
        version = state.get("version")
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported time-series state version {version!r}; this "
                f"build reads version {STATE_VERSION}"
            )
        ts = cls(
            window_s=float(state["window_s"]),
            max_windows=int(state.get("max_windows", 4096)),
            origin_s=float(state.get("origin_s", 0.0)),
        )
        ts.evicted_windows = int(state.get("evicted_windows", 0))
        for name, payload in state.get("tracks", {}).items():
            kind = payload["type"]
            if kind not in _TRACK_TYPES:
                raise ValueError(f"unknown track type {kind!r} for {name!r}")
            track = ts._track(name, kind)
            track.load_rows(payload.get("windows", []))
            for index in track.windows:
                ts._note_window(index)
        return ts

    def compact_state(self) -> Dict[str, Any]:
        """Byte-stable compact dump for run-ledger records.

        Counter / gauge / state tracks serialize in full (they are
        already small); histogram tracks collapse to per-window
        ``[count, sum, p50, p95, p99]``. The result round-trips through
        :meth:`TimeSeriesSummary.from_compact_state`.
        """
        tracks: Dict[str, Any] = {}
        for name, track in sorted(self._tracks.items()):
            if track.kind == "histogram":
                tracks[name] = {
                    "type": "histogram_summary",
                    "windows": track.compact_rows(),
                }
            else:
                tracks[name] = {
                    "type": track.kind,
                    "windows": track.state_rows(),
                }
        return {
            "version": STATE_VERSION,
            "window_s": self.window_s,
            "origin_s": self.origin_s,
            "evicted_windows": self.evicted_windows,
            "tracks": tracks,
        }


class TimeSeriesSummary:
    """Plain-data per-window view shared by live and persisted series.

    ``rows`` maps window index to ``{track: value}`` where the value is
    a float (counter), ``{count, mean, min, max, last}`` (gauge),
    ``{count, sum, p50, p95, p99}`` (histogram), or
    ``{state: occurrences}`` (state). The monitor and dashboard layers
    only ever read this shape, so they work identically on a live
    :class:`TimeSeries` and on the compact section of a persisted
    :class:`~repro.ledger.RunRecord`.
    """

    def __init__(
        self,
        window_s: float,
        origin_s: float,
        rows: Dict[int, Dict[str, Any]],
        track_kinds: Optional[Dict[str, str]] = None,
        evicted_windows: int = 0,
    ) -> None:
        self.window_s = float(window_s)
        self.origin_s = float(origin_s)
        self.rows = rows
        self.track_kinds = dict(track_kinds or {})
        self.evicted_windows = int(evicted_windows)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_compact_state(cls, state: Mapping[str, Any]) -> "TimeSeriesSummary":
        """Rebuild the summary view from :meth:`TimeSeries.compact_state`."""
        version = state.get("version")
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported time-series state version {version!r}; this "
                f"build reads version {STATE_VERSION}"
            )
        rows: Dict[int, Dict[str, Any]] = {}
        kinds: Dict[str, str] = {}

        def row(index: int) -> Dict[str, Any]:
            return rows.setdefault(int(index), {})

        for name, payload in state.get("tracks", {}).items():
            kind = payload["type"]
            windows = payload.get("windows", [])
            if kind == "histogram_summary":
                kinds[name] = "histogram"
                for index, cell in windows:
                    count, total = cell[0], cell[1]
                    value = {"count": int(count), "sum": float(total)}
                    for q, v in zip(DEFAULT_WINDOW_QUANTILES, cell[2:]):
                        value[f"p{q:g}"] = float(v)
                    row(index)[name] = value
            elif kind == "counter":
                kinds[name] = "counter"
                for index, value in windows:
                    if value:
                        row(index)[name] = float(value)
            elif kind == "gauge":
                kinds[name] = "gauge"
                for index, cell in windows:
                    count = int(cell[0])
                    if count == 0:
                        continue
                    row(index)[name] = {
                        "count": count,
                        "mean": float(cell[1]) / count,
                        "min": float(cell[2]),
                        "max": float(cell[3]),
                        "last": float(cell[4]),
                    }
            elif kind == "state":
                kinds[name] = "state"
                for index, cell in windows:
                    if cell:
                        row(index)[name] = {
                            str(k): int(v) for k, v in dict(cell).items()
                        }
            else:
                raise ValueError(f"unknown track type {kind!r} for {name!r}")
        if rows:
            rows = {i: rows.get(i, {}) for i in range(min(rows), max(rows) + 1)}
        return cls(
            window_s=float(state["window_s"]),
            origin_s=float(state.get("origin_s", 0.0)),
            rows=rows,
            track_kinds=kinds,
            evicted_windows=int(state.get("evicted_windows", 0)),
        )

    # -- reading -------------------------------------------------------------

    def window_indices(self) -> List[int]:
        return sorted(self.rows)

    def window_start(self, index: int) -> float:
        return self.origin_s + index * self.window_s

    def track_names(self, kind: Optional[str] = None) -> List[str]:
        return sorted(
            n for n, k in self.track_kinds.items() if kind is None or k == kind
        )

    def counter(self, name: str, index: int) -> float:
        value = self.rows.get(index, {}).get(name)
        return float(value) if isinstance(value, (int, float)) else 0.0

    def gauge(self, name: str, index: int) -> Optional[Dict[str, float]]:
        value = self.rows.get(index, {}).get(name)
        return value if isinstance(value, dict) else None

    def histogram_summary(self, name: str, index: int) -> Optional[Dict[str, float]]:
        value = self.rows.get(index, {}).get(name)
        return value if isinstance(value, dict) else None

    def percentile(self, name: str, index: int, p: float) -> Optional[float]:
        cell = self.histogram_summary(name, index)
        if cell is None:
            return None
        return cell.get(f"p{p:g}")

    def states(self, name: str, index: int) -> Dict[str, int]:
        value = self.rows.get(index, {}).get(name)
        return dict(value) if isinstance(value, dict) else {}

    def fault_tracks(self) -> List[str]:
        """Counter tracks recording fault-injection activity."""
        return [
            n for n in self.track_names("counter") if n.startswith("faults.")
        ]

    def fault_activity(self, index: int) -> float:
        """Total fault events recorded in one window (0 = clean)."""
        return sum(self.counter(n, index) for n in self.fault_tracks())

    def utilization(self, index: int, busy_track: str = "busy_s") -> float:
        """Per-window server utilization: busy seconds / window length."""
        return self.counter(busy_track, index) / self.window_s

"""Streaming histograms for latency-style metrics.

A :class:`StreamingHistogram` accumulates observations into fixed
geometric (log-spaced) buckets so memory stays bounded no matter how
long the stream runs — the property the scheduler needs to report
p50/p95/p99 without keeping per-query latency lists alive.

Two quantile regimes:

* while the observation count is at or below ``exact_cap`` the raw
  values are retained and :meth:`quantile` is *exact* (matches
  ``numpy.percentile`` with linear interpolation);
* past the cap the raw values are dropped and quantiles are
  interpolated within log buckets, with relative error bounded by the
  bucket ``growth`` factor (5 % by default).

Histograms serialize losslessly (:meth:`StreamingHistogram.to_state` /
:meth:`StreamingHistogram.from_state`): the state carries the bucket
configuration, sparse bucket counts, and — while still in the exact
regime — the retained raw values, so a deserialized histogram answers
every quantile query identically to the original, and per-shard run
records can be merged into one fleet-wide distribution.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence

__all__ = ["HistogramSnapshot", "StreamingHistogram"]


class HistogramSnapshot:
    """Immutable point-in-time view of a histogram's statistics."""

    __slots__ = ("count", "total", "min", "max", "quantiles")

    def __init__(
        self,
        count: int,
        total: float,
        min_value: float,
        max_value: float,
        quantiles: Dict[float, float],
    ) -> None:
        self.count = count
        self.total = total
        self.min = min_value
        self.max = max_value
        self.quantiles = quantiles

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }
        for q, value in sorted(self.quantiles.items()):
            out[f"p{q:g}"] = value
        return out


class StreamingHistogram:
    """Fixed log-bucket histogram with exact quantiles on demand.

    Buckets span ``[min_value, max_value)`` geometrically with ratio
    ``growth``; observations outside the range land in underflow /
    overflow buckets (their exact min/max are still tracked, so
    extreme quantiles stay honest).
    """

    DEFAULT_QUANTILES = (50.0, 95.0, 99.0)

    def __init__(
        self,
        min_value: float = 1e-9,
        max_value: float = 1e4,
        growth: float = 1.05,
        exact_cap: int = 4096,
    ) -> None:
        if min_value <= 0 or max_value <= min_value:
            raise ValueError("need 0 < min_value < max_value")
        if growth <= 1.0:
            raise ValueError("bucket growth factor must be > 1")
        if exact_cap < 0:
            raise ValueError("exact_cap must be non-negative")
        self.min_value = min_value
        self.max_value = max_value
        self.growth = growth
        self.exact_cap = exact_cap
        self._log_growth = math.log(growth)
        self._num_buckets = (
            int(math.ceil(math.log(max_value / min_value) / self._log_growth)) + 2
        )  # +2 for underflow/overflow edge buckets
        self._counts = [0] * self._num_buckets
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._exact: Optional[List[float]] = [] if exact_cap > 0 else None
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _bucket_index(self, value: float) -> int:
        if value < self.min_value:
            return 0
        if value >= self.max_value:
            return self._num_buckets - 1
        return 1 + int(math.log(value / self.min_value) / self._log_growth)

    def _bucket_bounds(self, index: int) -> "tuple[float, float]":
        if index <= 0:
            return (0.0, self.min_value)
        if index >= self._num_buckets - 1:
            return (self.max_value, self.max_value)
        lo = self.min_value * self.growth ** (index - 1)
        return (lo, lo * self.growth)

    def observe(self, value: float) -> None:
        """Record one observation (non-negative; latencies, sizes...)."""
        value = float(value)
        if value < 0 or math.isnan(value):
            raise ValueError(f"histogram observations must be >= 0, got {value}")
        with self._lock:
            self._counts[self._bucket_index(value)] += 1
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if self._exact is not None:
                self._exact.append(value)
                if len(self._exact) > self.exact_cap:
                    self._exact = None  # fall back to bucket interpolation

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations in one vectorized pass.

        Equivalent to calling :meth:`observe` per value, but bucket
        indices are computed with NumPy and the lock is taken once —
        the scheduler records whole dispatched batches this way instead
        of looping per query. NumPy is imported here, its only use, so
        the ledger and the CLI's telemetry state load without it.
        """
        import numpy as np

        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size == 0:
            return
        if np.isnan(arr).any() or (arr < 0).any():
            raise ValueError("histogram observations must be >= 0 and not NaN")
        # Vectorized _bucket_index: 0 under range, last bucket at/over
        # max, else 1 + floor(log(v / min) / log(growth)).
        indices = np.zeros(arr.shape, dtype=np.intp)
        in_range = arr >= self.min_value
        indices[in_range] = 1 + (
            np.log(arr[in_range] / self.min_value) / self._log_growth
        ).astype(np.intp)
        indices[arr >= self.max_value] = self._num_buckets - 1
        bucket_counts = np.bincount(indices, minlength=self._num_buckets)
        with self._lock:
            for i in np.nonzero(bucket_counts)[0]:
                self._counts[i] += int(bucket_counts[i])
            self._count += arr.size
            self._total += float(arr.sum())
            self._min = min(self._min, float(arr.min()))
            self._max = max(self._max, float(arr.max()))
            if self._exact is not None:
                self._exact.extend(arr.tolist())
                if len(self._exact) > self.exact_cap:
                    self._exact = None  # fall back to bucket interpolation

    # -- reading ------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def is_exact(self) -> bool:
        """Whether quantiles are still computed from retained raw values."""
        return self._exact is not None

    def quantile(self, p: float) -> float:
        """Value at percentile ``p`` (0-100).

        Exact while under ``exact_cap`` observations; bucket-interpolated
        (relative error <= ``growth`` - 1) afterwards.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self._count == 0:
            raise ValueError("cannot take a quantile of an empty histogram")
        if self._exact is not None:
            return _exact_percentile(self._exact, p)
        rank = (p / 100.0) * (self._count - 1)
        target = rank + 1.0  # 1-based cumulative position, fractional
        cumulative = 0
        for index, count in enumerate(self._counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lo, hi = self._bucket_bounds(index)
                # Linear interpolation by position within the bucket.
                within = (target - cumulative - 1.0) / count if count > 1 else 0.5
                value = lo + (hi - lo) * within
                return min(max(value, self._min), self._max)
            cumulative += count
        return self._max

    def fraction_above(self, threshold: float) -> float:
        """Fraction of observations strictly above ``threshold``.

        The burn-rate monitor's per-window error rate for latency SLOs:
        exact while raw values are retained, otherwise interpolated
        within the bucket containing the threshold (error bounded by
        the bucket ``growth`` factor).
        """
        if self._count == 0:
            return 0.0
        threshold = float(threshold)
        if self._exact is not None:
            return sum(1 for v in self._exact if v > threshold) / self._count
        if threshold < self._min:
            return 1.0
        if threshold >= self._max:
            return 0.0
        cut = self._bucket_index(threshold)
        above = sum(self._counts[cut + 1:])
        in_bucket = self._counts[cut]
        if in_bucket:
            lo, hi = self._bucket_bounds(cut)
            lo = max(lo, self._min)
            hi = min(hi, self._max) if hi > lo else hi
            if hi > lo:
                above += in_bucket * max(0.0, min(1.0, (hi - threshold) / (hi - lo)))
        return min(above / self._count, 1.0)

    def snapshot(
        self, quantiles: Sequence[float] = DEFAULT_QUANTILES
    ) -> HistogramSnapshot:
        qs = (
            {q: self.quantile(q) for q in quantiles}
            if self._count
            else {q: 0.0 for q in quantiles}
        )
        return HistogramSnapshot(
            count=self._count,
            total=self._total,
            min_value=self.min,
            max_value=self.max,
            quantiles=qs,
        )

    # -- serialization ------------------------------------------------------

    #: Version tag written into every serialized state dict.
    STATE_VERSION = 1

    def to_state(self) -> Dict[str, object]:
        """Lossless, JSON-safe dump of the full histogram state.

        Bucket counts are stored sparsely as ``[index, count]`` pairs;
        raw values survive while the histogram is still in the exact
        regime, so ``from_state(h.to_state())`` answers every
        :meth:`quantile` query identically to ``h``.
        """
        with self._lock:
            return {
                "version": self.STATE_VERSION,
                "min_value": self.min_value,
                "max_value": self.max_value,
                "growth": self.growth,
                "exact_cap": self.exact_cap,
                "counts": [
                    [i, c] for i, c in enumerate(self._counts) if c
                ],
                "count": self._count,
                "total": self._total,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "exact": list(self._exact) if self._exact is not None else None,
            }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "StreamingHistogram":
        """Rebuild a histogram from :meth:`to_state` output."""
        version = state.get("version")
        if version != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported histogram state version {version!r}; this "
                f"build reads version {cls.STATE_VERSION}"
            )
        hist = cls(
            min_value=float(state["min_value"]),
            max_value=float(state["max_value"]),
            growth=float(state["growth"]),
            exact_cap=int(state["exact_cap"]),
        )
        for index, count in state["counts"]:
            if not 0 <= index < hist._num_buckets:
                raise ValueError(
                    f"bucket index {index} out of range for "
                    f"{hist._num_buckets} buckets"
                )
            hist._counts[index] = int(count)
        hist._count = int(state["count"])
        hist._total = float(state["total"])
        hist._min = math.inf if state["min"] is None else float(state["min"])
        hist._max = -math.inf if state["max"] is None else float(state["max"])
        exact = state["exact"]
        hist._exact = None if exact is None else [float(v) for v in exact]
        return hist

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * self._num_buckets
            self._count = 0
            self._total = 0.0
            self._min = math.inf
            self._max = -math.inf
            self._exact = [] if self.exact_cap > 0 else None

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Accumulate another histogram with identical bucketing."""
        if (
            other.min_value != self.min_value
            or other.max_value != self.max_value
            or other.growth != self.growth
        ):
            raise ValueError("cannot merge histograms with different buckets")
        with self._lock:
            if other._count == 0:
                # Nothing to fold in — and crucially, merging an empty
                # shard must not degrade this histogram's exact regime.
                return self
            for i, c in enumerate(other._counts):
                self._counts[i] += c
            self._count += other._count
            self._total += other._total
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
            if self._exact is not None and other._exact is not None:
                self._exact.extend(other._exact)
                if len(self._exact) > self.exact_cap:
                    self._exact = None
            else:
                self._exact = None
        return self


def _exact_percentile(values: List[float], p: float) -> float:
    """``numpy.percentile(..., method="linear")`` without numpy."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

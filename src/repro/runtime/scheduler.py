"""At-scale inference scheduling simulation (DeepRecSys-style).

The paper's systems evaluation measures isolated inferences; its
companion system (DeepRecSys, cited as the model source) schedules a
*query stream* across heterogeneous hardware under tail-latency SLAs.
This module closes that loop with a discrete-event simulation:

* queries arrive by a Poisson process,
* a batching queue accumulates queries until ``max_batch`` or
  ``batch_timeout`` (the standard dynamic-batching policy),
* a server executes each batch with the service time the performance
  models predict for that (platform, batch size),
* the simulator reports throughput and latency percentiles.

Service-time lookup interpolates between profiled batch sizes, so one
:class:`~repro.core.speedup.SweepResult` parameterizes any policy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.telemetry import servelog

if TYPE_CHECKING:  # avoid runtime circularity with repro.core
    from repro.core.speedup import SweepResult
    from repro.runtime.session import InferenceProfile, InferenceSession

__all__ = [
    "ServiceTimeModel",
    "BatchingPolicy",
    "ScheduleResult",
    "QueryScheduler",
    "check_run_args",
]


class ServiceTimeModel:
    """Interpolated end-to-end latency for one (model, platform).

    Also carries the data-communication component of each knot when the
    source profiles provide it, so fault models that degrade the
    transfer path (PCIe events) can scale exactly that term.
    """

    def __init__(self, sweep: "SweepResult", model: str, platform: str) -> None:
        self.model = model
        self.platform = platform
        batches = sorted(sweep.batch_sizes)
        self._set_knots(
            batches,
            [sweep.total_seconds(model, platform, b) for b in batches],
            [sweep.profile(model, platform, b).data_comm_seconds
             for b in batches],
        )

    def _set_knots(
        self,
        batches: List[int],
        times: List[float],
        comm_times: Optional[List[float]] = None,
    ) -> None:
        if not batches:
            raise ValueError(
                "cannot build a service-time model from empty knots: "
                "no profiled batch sizes"
            )
        if any(b < 1 for b in batches):
            raise ValueError(f"batch-size knots must be >= 1, got {batches}")
        if any(b >= nxt for b, nxt in zip(batches, batches[1:])):
            raise ValueError(
                "batch-size knots must be strictly increasing "
                f"(non-monotone knots: {batches})"
            )
        if any(not math.isfinite(t) or t < 0 for t in times):
            raise ValueError(
                f"service-time knots must be finite and non-negative: {times}"
            )
        self._batches = batches
        self._times = times
        self._comm_times = comm_times
        # Interpolation runs per dispatched batch; precompute the
        # log-batch knots so `seconds()` does no log of the knots.
        self._log_batches = [math.log(b) for b in batches]

    @classmethod
    def from_profiles(
        cls, profiles: Sequence["InferenceProfile"]
    ) -> "ServiceTimeModel":
        """Build directly from profiles of one (model, platform).

        Lets callers (e.g. ``repro trace``) parameterize a scheduler
        from a handful of targeted profiles without running a full
        cross-platform sweep.
        """
        if len(profiles) < 2:
            raise ValueError("need profiles at >= 2 batch sizes to interpolate")
        names = {(p.model_name, p.platform_name) for p in profiles}
        if len(names) != 1:
            raise ValueError(
                f"profiles span multiple (model, platform) pairs: {sorted(names)}"
            )
        by_batch = {p.batch_size: p.total_seconds for p in profiles}
        if len(by_batch) < 2:
            raise ValueError("profiles must cover >= 2 distinct batch sizes")
        by_batch_comm = {p.batch_size: p.data_comm_seconds for p in profiles}
        model = cls.__new__(cls)
        model.model, model.platform = next(iter(names))
        model._set_knots(
            sorted(by_batch),
            [by_batch[b] for b in sorted(by_batch)],
            [by_batch_comm[b] for b in sorted(by_batch)],
        )
        return model

    @classmethod
    def calibrate(
        cls, session: "InferenceSession", batch_size: int
    ) -> "ServiceTimeModel":
        """The one calibration recipe for a ``max_batch=batch_size`` server.

        Profiles the batch sizes dynamic batching actually dispatches —
        a lone query, a quarter batch, a full batch — plus twice the
        batch so a full batch is interpolated, never extrapolated.
        """
        knots = sorted({1, max(2, batch_size // 4), batch_size, 2 * batch_size})
        return cls.from_profiles([session.profile(b) for b in knots])

    def _interpolate(self, values: List[float], batch_size: int) -> float:
        """Log-linear interpolation between knots.

        Below the first knot the value is flat (a batch never costs less
        than the smallest profiled one). Above the top knot it grows by
        the last segment's per-query marginal cost, floored at zero:
        ``t_top + (b - b_top) * max(0, (t_top - t_prev) / (b_top - b_prev))``.
        Holding it flat instead would let throughput grow without bound
        past the profiled grid. A one-knot model stays flat.
        """
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        batches = self._batches
        if batch_size <= batches[0]:
            return values[0]
        if batch_size >= batches[-1]:
            if len(batches) == 1:
                return values[-1]
            marginal = (values[-1] - values[-2]) / (batches[-1] - batches[-2])
            return values[-1] + (batch_size - batches[-1]) * max(0.0, marginal)
        hi = bisect_left(batches, batch_size)
        lo = hi - 1
        # Interpolate in log-batch space (latency curves are smooth there).
        logs = self._log_batches
        t = (math.log(batch_size) - logs[lo]) / (logs[hi] - logs[lo])
        return float(values[lo] * (1 - t) + values[hi] * t)

    def seconds(self, batch_size: int) -> float:
        """Latency of one batch (see :meth:`_interpolate`)."""
        return self._interpolate(self._times, batch_size)

    def comm_seconds(self, batch_size: int) -> float:
        """Data-communication component of one batch's latency.

        0.0 when the source knots carried no communication split (e.g.
        a model built directly from total times).
        """
        if self._comm_times is None:
            return 0.0
        return self._interpolate(self._comm_times, batch_size)


@dataclass(frozen=True)
class BatchingPolicy:
    """Dynamic batching: dispatch at ``max_batch`` or after ``timeout``."""

    max_batch: int = 64
    batch_timeout_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        # An infinite timeout never closes a partial batch: the batching
        # loop would stall and report an infinite duration.
        if not math.isfinite(self.batch_timeout_s) or self.batch_timeout_s < 0:
            raise ValueError(
                "batch timeout must be finite and non-negative, got "
                f"{self.batch_timeout_s!r}"
            )


def check_run_args(
    policy: BatchingPolicy, arrival_qps: float, num_queries: int
) -> None:
    """The run-argument boundary every scheduler loop shares.

    Re-checks the policy too: one constructed through pickling or
    ``__new__`` (or mutated past its frozen guard) skipped
    ``__post_init__``.
    """
    if isinstance(num_queries, bool) or not isinstance(
        num_queries, (int, np.integer)
    ):
        raise ValueError(f"num_queries must be an integer, got {num_queries!r}")
    if num_queries < 1:
        raise ValueError(f"need at least one query, got {num_queries}")
    if not math.isfinite(arrival_qps) or arrival_qps <= 0:
        raise ValueError(
            f"arrival rate must be a positive finite QPS, got {arrival_qps!r}"
        )
    policy.__post_init__()


@dataclass
class ScheduleResult:
    """Outcome of one simulated query stream."""

    queries: int
    duration_s: float
    latencies_s: np.ndarray = field(repr=False)
    batch_sizes: List[int] = field(repr=False)

    @property
    def throughput_qps(self) -> float:
        return self.queries / self.duration_s if self.duration_s > 0 else 0.0

    def percentile(self, p: float) -> float:
        if len(self.latencies_s) == 0:
            raise ValueError(
                "no latencies recorded: the simulation completed zero "
                "queries, so percentiles are undefined"
            )
        return float(np.percentile(self.latencies_s, p))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean_batch_size(self) -> float:
        return float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0

    def meets_sla(self, sla_seconds: float, percentile: float = 99.0) -> bool:
        return self.percentile(percentile) <= sla_seconds

    # -- run-ledger exports --------------------------------------------------

    def latency_histogram(self, exact_cap: int = 4096):
        """Completed-query latencies as a serializable StreamingHistogram.

        Under ``exact_cap`` observations the histogram's quantiles match
        ``percentile()`` exactly, so a persisted
        :class:`~repro.ledger.RunRecord` reproduces this run's p50/p95/
        p99 from histogram state alone — and shard records merge.
        """
        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram(exact_cap=exact_cap)
        hist.observe_many(self.latencies_s)
        return hist

    def occupancy_histogram(self, max_batch: int):
        """Dispatched batch sizes as a histogram (queue-depth regime)."""
        from repro.telemetry import StreamingHistogram

        hist = StreamingHistogram(
            min_value=1.0, max_value=float(max(max_batch, 2)) * 2.0
        )
        hist.observe_many(np.asarray(self.batch_sizes, dtype=float))
        return hist


class QueryScheduler:
    """Discrete-event simulation of one perfect batching server.

    For faults, failover replicas, serving policies or observability
    sinks, run :class:`~repro.resilience.ResilientScheduler`: with one
    replica and nothing injected it is bit-identical to this loop.
    """

    def __init__(
        self,
        service_model: ServiceTimeModel,
        policy: BatchingPolicy,
        seed: int = 2020,
    ) -> None:
        self.service_model = service_model
        self.policy = policy
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def run(self, arrival_qps: float, num_queries: int = 2000) -> ScheduleResult:
        """Simulate ``num_queries`` Poisson arrivals at ``arrival_qps``."""
        check_run_args(self.policy, arrival_qps, num_queries)
        inter_arrivals = self._rng.exponential(1.0 / arrival_qps, size=num_queries)
        arrivals = np.cumsum(inter_arrivals)
        # (start, first query, size) per batch, for the registry metrics
        # repro.telemetry.servelog derives after the loop.
        log: Optional[list] = [] if telemetry.enabled() else None

        policy = self.policy
        latencies = np.empty(num_queries)
        batch_sizes: List[int] = []
        server_free_at = 0.0
        i = 0
        while i < num_queries:
            # Collect a batch: the head query opens the window; whatever
            # arrives before (head + timeout) joins, up to max_batch —
            # but the server being busy extends the window for free.
            head_arrival = arrivals[i]
            dispatch_at = max(head_arrival + policy.batch_timeout_s, server_free_at)
            j = i + 1
            while (
                j < num_queries
                and j - i < policy.max_batch
                and arrivals[j] <= dispatch_at
            ):
                j += 1
            batch = j - i
            start = max(dispatch_at, server_free_at)
            # If the batch filled before the timeout, dispatch early.
            if batch == policy.max_batch:
                start = max(arrivals[j - 1], server_free_at)
            service = self.service_model.seconds(batch)
            finish = start + service
            latencies[i:j] = finish - arrivals[i:j]
            batch_sizes.append(batch)
            if log is not None:
                log.append((start, i, batch))
            server_free_at = finish
            i = j

        duration = float(server_free_at - arrivals[0] + inter_arrivals[0])
        if log is not None:
            servelog.replay_plain(self, log, arrivals, latencies)
        return ScheduleResult(
            queries=num_queries,
            duration_s=duration,
            latencies_s=latencies,
            batch_sizes=batch_sizes,
        )

    def max_load_under_sla(
        self,
        sla_seconds: float,
        percentile: float = 99.0,
        num_queries: int = 2000,
        qps_grid: Optional[Sequence[float]] = None,
    ) -> float:
        """Largest tested arrival rate whose tail latency meets the SLA."""
        if qps_grid is None:
            # Geometric grid anchored at the server's best-case capacity.
            peak = self.policy.max_batch / self.service_model.seconds(
                self.policy.max_batch
            )
            qps_grid = [peak * f for f in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95)]
        best = 0.0
        for qps in qps_grid:
            result = self.run(qps, num_queries)
            if result.meets_sla(sla_seconds, percentile):
                best = max(best, qps)
        return best

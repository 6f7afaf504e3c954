"""Inference sessions: one API over models, platforms, and both halves
of the reproduction (functional execution and performance modeling).

``InferenceSession`` binds a model to a platform spec. ``run`` executes
the graph numerically (NumPy); ``profile`` produces an
:class:`InferenceProfile` with end-to-end latency split the way the
paper reports it (model computation vs data communication), per-op
times for the Fig 6 breakdowns, and — on CPUs — the full PMU event set
for Section VI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro import telemetry
from repro.graph import Graph, execute
from repro.runtime import graph_cache
from repro.gpusim import GpuGraphProfile
from repro.hw import PlatformSpec, platform_by_name
from repro.models import RecommendationModel
from repro.telemetry import MODELED_TID, Span
from repro.uarch import CpuGraphProfile, PmuEvents, UarchConstants
from repro.workloads import QueryGenerator

__all__ = [
    "InferenceProfile",
    "InferenceSession",
    "profile_spans",
    "data_comm_span",
]


@dataclass
class InferenceProfile:
    """End-to-end inference characterization at one (model, batch, platform)."""

    model_name: str
    platform_name: str
    platform_kind: str  # "cpu" | "gpu"
    batch_size: int
    #: Model computation seconds (operator execution).
    compute_seconds: float
    #: Data loading / CPU-GPU communication seconds.
    data_comm_seconds: float
    #: Seconds per operator kind (compute side only).
    op_time_by_kind: Dict[str, float]
    #: PMU events (CPU platforms only).
    events: Optional[PmuEvents] = None
    #: Raw underlying profile for deeper inspection.
    raw: Union[CpuGraphProfile, GpuGraphProfile, None] = None

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.data_comm_seconds

    @property
    def data_comm_fraction(self) -> float:
        total = self.total_seconds
        return self.data_comm_seconds / total if total else 0.0

    @property
    def throughput_qps(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.batch_size / self.total_seconds

    def dominant_operator(self) -> str:
        """The operator kind with the largest time share (Fig 6 talk-track)."""
        if not self.op_time_by_kind:
            return ""
        return max(self.op_time_by_kind.items(), key=lambda kv: kv[1])[0]

    def summary_scalars(self) -> Dict[str, float]:
        """End-to-end scalars for run-ledger records and SLO rules.

        PMU-derived metrics (i-MPKI, branch MPKI, AVX fraction, IPC)
        appear only on CPU platforms, matching :attr:`events`.
        """
        scalars = {
            "total_seconds": self.total_seconds,
            "compute_seconds": self.compute_seconds,
            "data_comm_seconds": self.data_comm_seconds,
            "data_comm_fraction": self.data_comm_fraction,
            "throughput_qps": self.throughput_qps,
        }
        if self.events is not None:
            scalars.update(
                i_mpki=self.events.i_mpki,
                branch_mpki=self.events.branch_mpki,
                avx_fraction=self.events.avx_fraction,
                ipc=self.events.ipc,
                dram_congested_fraction=self.events.dram_congested_fraction,
            )
        return scalars


def data_comm_span(profile: InferenceProfile, t0: float = 0.0) -> Optional[Span]:
    """The leading data-load / transfer phase as a tracer span."""
    if profile.data_comm_seconds <= 0:
        return None
    return Span(
        name="<data comm>",
        category="DataComm",
        start_s=t0,
        end_s=t0 + profile.data_comm_seconds,
        tid=MODELED_TID,
        attrs={
            "seconds": profile.data_comm_seconds,
            "model": profile.model_name,
            "platform": profile.platform_name,
        },
    )


def profile_spans(profile: InferenceProfile, t0: float = 0.0) -> List[Span]:
    """Per-operator modeled-time spans for a profiled inference.

    Operators execute in topological order on a single stream (the
    paper's single-threaded CPU / single-GPU setting), so spans are
    laid out serially after the data-communication phase. Span
    ``category`` is the operator kind and ``attrs["seconds"]`` keeps
    the exact modeled duration, so per-kind sums reproduce
    :attr:`InferenceProfile.op_time_by_kind` bit-for-bit.
    """
    raw = profile.raw
    if raw is None:
        raise ValueError("profile carries no per-op data")
    cursor = t0 + profile.data_comm_seconds
    spans: List[Span] = []
    for op in raw.op_profiles:
        seconds = op.seconds
        spans.append(
            Span(
                name=op.node_name,
                category=op.op_kind,
                start_s=cursor,
                end_s=cursor + seconds,
                tid=MODELED_TID,
                attrs={"seconds": seconds, "op_kind": op.op_kind},
            )
        )
        cursor += seconds
    return spans


class InferenceSession:
    """A model bound to one platform.

    Graphs are platform-independent, so sessions share them through the
    process-level :mod:`~repro.runtime.graph_cache`: in a four-platform
    sweep each ``(model, batch)`` graph is built once, not four times.
    """

    def __init__(
        self,
        model: RecommendationModel,
        platform: Union[str, PlatformSpec],
        constants: Optional[UarchConstants] = None,
    ) -> None:
        self.model = model
        self.platform = (
            platform_by_name(platform) if isinstance(platform, str) else platform
        )
        if constants is not None and self.platform.kind != "cpu":
            raise ValueError("uarch constants only apply to CPU platforms")
        self._constants = constants

    def graph(self, batch_size: int) -> Graph:
        return graph_cache.get_graph(self.model, batch_size)

    # -- functional execution ------------------------------------------------

    def run(self, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Numerically execute one batch (platform-independent math)."""
        batch_size = next(iter(feeds.values())).shape[0]
        with telemetry.get_tracer().span(
            "session.run",
            category="session",
            model=self.model.name,
            platform=self.platform.name,
            batch_size=batch_size,
        ):
            outputs = execute(self.graph(batch_size), feeds)
        if telemetry.enabled():
            telemetry.get_registry().counter(
                "session.runs",
                model=self.model.name,
                platform=self.platform.name,
            ).inc()
        return outputs

    def run_generated(self, batch_size: int, seed: int = 2020) -> Dict[str, np.ndarray]:
        feeds = QueryGenerator(self.model, seed=seed).generate(batch_size)
        return self.run(feeds)

    # -- performance modeling --------------------------------------------------

    def profile(self, batch_size: int) -> InferenceProfile:
        """Model one inference: a one-cell evaluation of the cost model
        over the cached workload table (no tensor data is allocated)."""
        from repro.runtime import specmode

        with telemetry.get_tracer().span(
            "session.profile",
            category="session",
            model=self.model.name,
            platform=self.platform.name,
            batch_size=batch_size,
        ):
            profile = specmode.profile_spec(
                self.model, self.platform, batch_size, constants=self._constants
            )
        if telemetry.enabled():
            self._record_profile_telemetry(profile)
        return profile

    def _record_profile_telemetry(self, profile: InferenceProfile) -> None:
        """Emit modeled-time spans, per-kind histograms, and PMU counters."""
        tracer = telemetry.get_tracer()
        lead = data_comm_span(profile)
        if lead is not None:
            tracer.add_spans([lead])
        tracer.add_spans(profile_spans(profile))

        registry = telemetry.get_registry()
        labels = dict(model=profile.model_name, platform=profile.platform_name)
        registry.counter("session.profiles", **labels).inc()
        registry.histogram(
            "session.data_comm_seconds", **labels
        ).observe(profile.data_comm_seconds)
        for kind, seconds in profile.op_time_by_kind.items():
            registry.histogram(
                "session.op_seconds", kind=kind, **labels
            ).observe(seconds)
        if profile.events is not None:
            for event, value in profile.events.as_dict().items():
                registry.counter(f"pmu.{event}", **labels).inc(value)

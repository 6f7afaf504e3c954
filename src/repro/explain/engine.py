"""Critical-path latency attribution over captured query traces.

:class:`Explanation` consumes a
:class:`~repro.telemetry.querytrace.QueryTraceCapture` after a run and
answers the question the monitors (PR 6) cannot: not *that* p99
excursed, but *why* — how much of the tail is queue wait vs. service
vs. shard fan-out vs. straggler wait vs. retry backoff. Three views:

* **Attribution profiles** (:meth:`profile`): mean component seconds
  and shares over the queries at or above a latency percentile, with
  per-shard annotation for gather-derived components ("62% of p99 is
  gather_network on shard 3").
* **What-if bounds** (:meth:`what_if`): re-walk the decomposition with
  one component zeroed and recompute the percentile. This bounds the
  *direct* win of eliminating that component: queueing relief is not
  re-simulated, so the bound is optimistic for components that also
  cause downstream queueing (the semantics docs/observability.md
  states). The special knob ``"fault_windows"`` zeroes only interval
  mass overlapping injected fault windows.
* **Fault-window overlap** (:meth:`fault_attribution`): how much of
  the tail excursion (latency above the run median) lies in component
  intervals overlapping injected fault windows — the strict check the
  CI explain smoke step enforces.

Sampling bounds: profiles at or above the capture's tail threshold are
exact; below it they are estimates from the seeded uniform sample.
Mean attribution is always exact (the capture aggregates every
completed query regardless of retention). What-if adjusts only
retained queries, which for upper percentiles makes the bound
conservative when below-threshold queries were sampled away.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.querytrace import (
    COMPONENTS,
    QueryTraceCapture,
    QueryTraceRecord,
)

__all__ = ["Explanation", "explain_scenario"]

#: Percentiles every profile table reports.
PERCENTILES = (50.0, 95.0, 99.0)


def _window_overlap(
    lo: float,
    hi: float,
    windows: Sequence[Tuple[float, float, str]],
    slack_s: float,
) -> float:
    """Seconds of ``[lo, hi]`` inside any (slack-expanded) fault window,
    clamped to the interval width so overlapping windows never double
    count."""
    total = 0.0
    for ws, we, _kind in windows:
        total += max(0.0, min(hi, we + slack_s) - max(lo, ws - slack_s))
    return min(total, hi - lo)


class Explanation:
    """Attribution engine over one run's query-trace capture."""

    def __init__(
        self,
        capture: QueryTraceCapture,
        result: Any,
        *,
        fault_windows: Sequence[Tuple[float, float, str]] = (),
        meta: Optional[Dict[str, Any]] = None,
        fault_slack_s: float = 0.0,
    ) -> None:
        self.capture = capture
        self.result = result
        self.fault_windows = tuple(fault_windows)
        self.meta = dict(meta or {})
        self.fault_slack_s = float(fault_slack_s)
        self._records: List[QueryTraceRecord] = sorted(
            capture.records.values(), key=lambda r: r.qid
        )
        lat = np.asarray(result.latencies_s, dtype=float)
        self._sorted_lat = np.sort(lat)

    @classmethod
    def of(cls, ms: Any, fault_slack_s: Optional[float] = None) -> "Explanation":
        """Explain a :class:`~repro.monitor.MonitoredScenario` run with a
        query trace attached. ``fault_slack_s`` defaults to the run's
        telemetry window, so batches that started inside a fault window
        but finished just after it still count as overlapping."""
        return cls(
            ms.querytrace,
            ms.result,
            fault_windows=ms.fault_windows(),
            meta=ms.meta(horizon_s=ms.horizon_s),
            fault_slack_s=ms.window_s if fault_slack_s is None else fault_slack_s,
        )

    # -- record selection ---------------------------------------------------

    @property
    def records(self) -> List[QueryTraceRecord]:
        return self._records

    def cutoff(self, percentile: float) -> float:
        if not len(self._sorted_lat):
            return 0.0
        return float(np.percentile(self._sorted_lat, percentile))

    def tail_records(self, percentile: float) -> List[QueryTraceRecord]:
        cut = self.cutoff(percentile)
        return [r for r in self._records if r.latency >= cut]

    def _record_overlap(self, rec: QueryTraceRecord) -> Dict[str, float]:
        """Per-component seconds of this query's intervals overlapping
        injected fault windows."""
        out = {k: 0.0 for k in COMPONENTS}
        if not self.fault_windows:
            return out
        for label, lo, hi, _shard in rec.intervals:
            out[label] += _window_overlap(
                lo, hi, self.fault_windows, self.fault_slack_s
            )
        return out

    # -- attribution profiles ----------------------------------------------

    def profile(self, percentile: float) -> Dict[str, Any]:
        """Mean component attribution over the queries at or above the
        given latency percentile of the full run."""
        tail = self.tail_records(percentile)
        return self._profile_over(tail, percentile, self.cutoff(percentile))

    def mean_profile(self) -> Dict[str, Any]:
        """Exact mean attribution over *all* completed queries, from
        the capture's retention-independent aggregates."""
        means = self.capture.mean_components()
        total = sum(means[k] for k in COMPONENTS)
        components = {}
        for k in COMPONENTS:
            components[k] = {
                "seconds": means[k],
                "share": (means[k] / total) if total > 0.0 else 0.0,
                "top_shard": self._top_shard(self.capture.shard_totals, k),
            }
        return {
            "percentile": None,
            "cutoff_s": 0.0,
            "queries": self.capture.completed,
            "mean_latency_s": total,
            "components": components,
        }

    def _profile_over(
        self,
        records: List[QueryTraceRecord],
        percentile: Optional[float],
        cutoff: float,
    ) -> Dict[str, Any]:
        n = len(records)
        sums = {k: 0.0 for k in COMPONENTS}
        overlaps = {k: 0.0 for k in COMPONENTS}
        shard_sums: Dict[str, Dict[str, float]] = {}
        for rec in records:
            for k in COMPONENTS:
                sums[k] += rec.components[k]
            rec_overlap = self._record_overlap(rec)
            for k in COMPONENTS:
                overlaps[k] += rec_overlap[k]
            for comp, shards in rec.shard_seconds.items():
                dst = shard_sums.setdefault(comp, {})
                for name, secs in shards.items():
                    dst[name] = dst.get(name, 0.0) + secs
        total = sum(sums[k] for k in COMPONENTS)
        components = {}
        for k in COMPONENTS:
            mean = sums[k] / n if n else 0.0
            components[k] = {
                "seconds": mean,
                "share": (sums[k] / total) if total > 0.0 else 0.0,
                "fault_overlap_share": (
                    overlaps[k] / sums[k] if sums[k] > 0.0 else 0.0
                ),
                "top_shard": self._top_shard(shard_sums, k),
            }
        return {
            "percentile": percentile,
            "cutoff_s": cutoff,
            "queries": n,
            "mean_latency_s": total / n if n else 0.0,
            "components": components,
        }

    @staticmethod
    def _top_shard(
        shard_sums: Dict[str, Dict[str, float]], component: str
    ) -> Optional[Dict[str, Any]]:
        shards = shard_sums.get(component)
        if not shards:
            return None
        name = max(sorted(shards), key=lambda s: shards[s])
        total = sum(shards[s] for s in sorted(shards))
        return {
            "shard": name,
            "seconds": shards[name],
            "share": shards[name] / total if total > 0.0 else 0.0,
        }

    def top_component(self, percentile: float = 99.0) -> Tuple[str, Dict]:
        """The component contributing the most seconds at a percentile."""
        prof = self.profile(percentile)
        comps = prof["components"]
        name = max(COMPONENTS, key=lambda k: comps[k]["seconds"])
        return name, comps[name]

    # -- what-if bounds -----------------------------------------------------

    def what_if(
        self, component: str, percentile: float = 99.0
    ) -> Dict[str, Any]:
        """Bound the percentile improvement from zeroing one component.

        ``component`` is a name from
        :data:`~repro.telemetry.querytrace.COMPONENTS`, or
        ``"fault_windows"`` to zero only the interval mass overlapping
        injected fault windows. The bound re-walks retained queries
        with the component removed and recomputes the percentile over
        the full latency population; it does not re-simulate queueing
        relief, so treat it as the *direct* contribution of the knob.
        """
        if component != "fault_windows" and component not in COMPONENTS:
            raise ValueError(
                f"unknown component {component!r}; choose from "
                f"{COMPONENTS + ('fault_windows',)}"
            )
        base = self._sorted_lat
        if not len(base):
            return {
                "component": component,
                "percentile": percentile,
                "observed_s": 0.0,
                "bound_s": 0.0,
                "improvement_s": 0.0,
                "coverage": 0.0,
            }
        adjusted = base.copy()
        used: Dict[float, int] = {}
        for rec in self._records:
            if component == "fault_windows":
                overlap = self._record_overlap(rec)
                value = min(
                    sum(overlap[k] for k in COMPONENTS), rec.latency
                )
            else:
                value = rec.components[component]
            if value <= 0.0:
                continue
            idx = int(np.searchsorted(base, rec.latency, side="left"))
            idx += used.get(rec.latency, 0)
            used[rec.latency] = used.get(rec.latency, 0) + 1
            if idx < len(adjusted):
                adjusted[idx] = rec.latency - value
        observed = float(np.percentile(base, percentile))
        bound = float(np.percentile(adjusted, percentile))
        return {
            "component": component,
            "percentile": percentile,
            "observed_s": observed,
            "bound_s": bound,
            "improvement_s": observed - bound,
            "coverage": (
                len(self._records) / self.capture.completed
                if self.capture.completed else 0.0
            ),
        }

    def what_if_table(self, percentile: float = 99.0) -> List[Dict[str, Any]]:
        """What-if bounds for every component with nonzero mass, plus
        the fault-window knob when faults were injected. Sorted by
        improvement, largest first."""
        rows = []
        totals = self.capture.component_totals
        for k in COMPONENTS:
            if totals[k] > 0.0:
                rows.append(self.what_if(k, percentile))
        if self.fault_windows:
            rows.append(self.what_if("fault_windows", percentile))
        rows.sort(key=lambda r: r["improvement_s"], reverse=True)
        return rows

    # -- fault-window attribution (the CI gate) -----------------------------

    def fault_attribution(
        self, percentile: float = 99.0, majority: float = 0.5
    ) -> Dict[str, Any]:
        """Attribute the tail excursion to fault-window overlap.

        The excursion of a tail query is its latency above the run
        median; the attributed share is how much of that excursion lies
        in component intervals overlapping injected fault windows. The
        check passes when the share reaches ``majority`` *and* the top
        p-percentile component is itself fault-correlated (most of its
        tail seconds overlap the windows).
        """
        top_name, top = self.top_component(percentile)
        baseline = self.cutoff(50.0)
        excursion = 0.0
        overlap_mass = 0.0
        for rec in self.tail_records(percentile):
            exc = max(rec.latency - baseline, 0.0)
            if exc <= 0.0:
                continue
            rec_overlap = self._record_overlap(rec)
            overlap_mass += min(
                sum(rec_overlap[k] for k in COMPONENTS), exc
            )
            excursion += exc
        share = overlap_mass / excursion if excursion > 0.0 else 0.0
        top_correlated = top.get("fault_overlap_share", 0.0) >= majority
        return {
            "percentile": percentile,
            "majority": majority,
            "baseline_s": baseline,
            "excursion_s": excursion,
            "overlap_s": overlap_mass,
            "excursion_share": share,
            "top_component": top_name,
            "top_component_share": top["share"],
            "top_fault_overlap_share": top.get("fault_overlap_share", 0.0),
            "top_is_fault_correlated": top_correlated,
            "windows": len(self.fault_windows),
            "ok": bool(
                self.fault_windows and share >= majority and top_correlated
            ),
        }

    # -- per-query drill-down -----------------------------------------------

    def top_queries(self, n: int = 5) -> List[Dict[str, Any]]:
        """The ``n`` slowest retained queries with their decomposition."""
        ranked = sorted(
            self._records, key=lambda r: (-r.latency, r.qid)
        )[:max(n, 0)]
        out = []
        for rec in ranked:
            out.append({
                "qid": rec.qid,
                "latency_s": rec.latency,
                "arrival_s": rec.arrival,
                "completion_s": rec.completion,
                "attempts": len(rec.attempts),
                "dominant": rec.dominant_component(),
                "components": {
                    k: rec.components[k] for k in COMPONENTS
                },
            })
        return out

    # -- exports ------------------------------------------------------------

    def attribution_section(self) -> Dict[str, float]:
        """Flat float map for the optional RunRecord ``attribution``
        section (``repro diff`` compares it as its own level)."""
        out: Dict[str, float] = {}
        means = self.capture.mean_components()
        for k in COMPONENTS:
            out[f"mean.{k}_s"] = float(means[k])
        p99 = self.profile(99.0)
        for k in COMPONENTS:
            out[f"p99.{k}_s"] = float(p99["components"][k]["seconds"])
        if self.fault_windows:
            out["p99.fault_overlap_share"] = float(
                self.fault_attribution(99.0)["excursion_share"]
            )
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON document (the ``--format json`` payload)."""
        doc: Dict[str, Any] = {
            "meta": dict(self.meta),
            "coverage": self.capture.coverage(),
            "profiles": {
                f"p{p:g}": self.profile(p) for p in PERCENTILES
            },
            "mean": self.mean_profile(),
            "what_if": self.what_if_table(99.0),
            "top_queries": self.top_queries(5),
            "fault_windows": [
                {"start_s": ws, "end_s": we, "kind": kind}
                for ws, we, kind in self.fault_windows
            ],
        }
        if self.fault_windows:
            doc["fault_attribution"] = self.fault_attribution(99.0)
        return doc


def explain_scenario(
    model: str,
    platform: str,
    scenario: str,
    *,
    capture: Optional[QueryTraceCapture] = None,
    fault_slack_s: Optional[float] = None,
    **scenario_kwargs: Any,
) -> Tuple[Explanation, Any]:
    """Run one monitored scenario under query-trace capture and explain
    it. Returns ``(explanation, monitored_scenario)``; ``scenario_kwargs``
    are :func:`~repro.monitor.run_monitored_scenario`'s keywords.
    """
    from repro.monitor import run_monitored_scenario

    qt = capture if capture is not None else QueryTraceCapture()
    ms = run_monitored_scenario(
        model, platform, scenario, querytrace=qt, **scenario_kwargs
    )
    return Explanation.of(ms, fault_slack_s), ms

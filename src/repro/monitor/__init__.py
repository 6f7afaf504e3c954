"""Windowed serving monitor: regime drift, tail excursions, burn rates.

Consumes the per-window view a
:class:`~repro.telemetry.timeseries.TimeSeries` produces (live, or
rehydrated from the compact section of a persisted
:class:`~repro.ledger.RunRecord`) and layers the analyses end-of-run
aggregates cannot express:

* **queue-regime drift** — window-over-window M/M/1-style utilization
  shifts (:mod:`repro.monitor.analysis`);
* **fault-correlated tail excursions** — per-window p99 spikes checked
  against fault-injection activity in the same windows;
* **SLO burn rates** — ``ci/slo.toml`` latency rules evaluated
  per-window with fast/slow burn thresholds
  (:mod:`repro.monitor.burnrate`), the Google-SRE-style multiwindow
  alerting policy;
* **rendering** — text / markdown / HTML timelines and dashboards
  (:mod:`repro.monitor.report`) behind ``repro monitor`` and
  ``repro report``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.monitor.analysis": (
        "Alert", "classify_regime", "detect_regime_shifts",
        "detect_tail_excursions", "utilization_series",
    ),
    "repro.monitor.burnrate": (
        "BurnRateConfig", "evaluate_burn_rates", "window_error_fractions",
    ),
    "repro.monitor.report": ("MonitorReport",),
    "repro.monitor.scenario": (
        "SCENARIOS", "MonitoredScenario", "run_monitored_scenario",
        "scenario_kwargs",
    ),
})

__all__ = [
    "Alert",
    "BurnRateConfig",
    "MonitorReport",
    "MonitoredScenario",
    "SCENARIOS",
    "classify_regime",
    "detect_regime_shifts",
    "detect_tail_excursions",
    "evaluate_burn_rates",
    "run_monitored_scenario",
    "scenario_kwargs",
    "utilization_series",
    "window_error_fractions",
]

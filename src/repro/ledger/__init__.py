"""Experiment run ledger: persisted records, diffs, and SLO gating.

The ledger closes the loop the telemetry layer opened: spans and
metrics describe *one* process; the ledger makes a whole run — config
fingerprint, metrics snapshot, operator breakdown, TopDown stack,
latency histograms — a durable, schema-versioned artifact that later
sessions (and CI) can diff against.

Three pieces:

* :mod:`repro.ledger.record` — :class:`RunRecord` capture and
  canonical-JSON round-trip;
* :mod:`repro.ledger.diff` — cross-stack differential attribution
  with relative-tolerance noise gating (``repro diff``);
* :mod:`repro.ledger.slo` — declarative threshold rules with
  pass/warn/fail exit codes (``repro check``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ledger.diff": (
        "DEFAULT_TOLERANCE", "DeltaEntry", "RunDiff", "diff_against_baselines",
        "diff_records",
    ),
    "repro.ledger.record": (
        "LATENCY_HISTOGRAM", "OCCUPANCY_HISTOGRAM", "SCHEMA_VERSION",
        "ConfigFingerprint", "RunRecord", "SchemaVersionError",
        "fingerprint_for", "merged_histogram", "platform_key",
        "record_profile", "record_run", "record_schedule", "record_sweep",
    ),
    "repro.ledger.slo": (
        "SLO_METRICS", "SloCheck", "SloReport", "SloRule", "evaluate",
        "load_rules", "parse_rules",
    ),
    "repro.ledger.store": ("RunLedger", "index_by_key", "load_records"),
})

__all__ = [
    "SCHEMA_VERSION",
    "LATENCY_HISTOGRAM",
    "OCCUPANCY_HISTOGRAM",
    "SchemaVersionError",
    "ConfigFingerprint",
    "RunRecord",
    "platform_key",
    "fingerprint_for",
    "record_profile",
    "record_schedule",
    "record_run",
    "record_sweep",
    "merged_histogram",
    "RunLedger",
    "load_records",
    "index_by_key",
    "DEFAULT_TOLERANCE",
    "DeltaEntry",
    "RunDiff",
    "diff_records",
    "diff_against_baselines",
    "SloRule",
    "SloCheck",
    "SloReport",
    "SLO_METRICS",
    "load_rules",
    "parse_rules",
    "evaluate",
]

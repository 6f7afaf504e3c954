"""Command-line interface: ``python -m repro <command>``.

Commands mirror the characterization workflow:

* ``models`` / ``platforms`` — list what's available.
* ``characterize`` — full cross-stack report for one configuration.
* ``sweep`` — Fig 3-style speedup table over the platform space.
* ``optimal`` — Fig 5 optimal-platform grid.
* ``topdown`` — Fig 8-style TopDown table for both CPUs.
* ``breakdown`` — Fig 6-style operator shares for one configuration.
* ``trace`` — run a characterization with telemetry on and export a
  Chrome/Perfetto trace plus a metrics report; ``--scheduler`` /
  ``--resilience`` trace the serving simulation (per-batch and
  fault-window spans) instead.
* ``metrics`` — list every registered metric after an instrumented run.
* ``record`` — persist run records (config fingerprint + cross-stack
  metrics) to a ledger directory for later diffing.
* ``diff`` — cross-stack differential between run records (``A B`` or
  ``--against baselines/``) with noise gating and attribution.
* ``check`` — evaluate declarative SLO rules (TOML) against run
  records; exit 0/1/2 for pass/warn/fail.
* ``resilience`` — inject a fault scenario into the scheduler
  simulation and compare tail latency with each resilience policy
  on/off.
* ``monitor`` — run one fault scenario with windowed time-series
  telemetry attached: per-window timeline, regime-shift / tail-
  excursion detection, and SLO burn-rate alerts (``--rules``).
* ``explain`` — critical-path latency attribution for one fault
  scenario.
* ``shard`` — sharded-gather placement x gather-policy matrix.
* ``report`` — render the time-series section of a persisted run
  record as a markdown or self-contained HTML dashboard.
* ``lint`` — run the REPnnn determinism/concurrency linter over source
  paths (text/JSON output; nonzero exit for CI gating).
* ``verify`` — statically verify every zoo model graph (raw and
  optimized) with the shape/dtype verifier.

Every serving command (``resilience``, ``monitor``, ``explain``,
``shard``, ``trace --scheduler|--resilience``) is parse →
:class:`~repro.monitor.scenario.Scenario` → run → render. User errors
exit 2 with one ``error:`` line: bad counts at argparse, the rest from
:func:`main`.

Module level imports only what :func:`build_parser` needs (names, no
numpy); each ``_cmd_*`` handler imports the layers it runs, so a command
loads only those (``docs/performance.md``, "Cold start").
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.report import render_grid, render_table
from repro.hw import PLATFORM_ORDER, PLATFORMS
from repro.models.names import MODEL_ORDER
from repro.monitor.names import (
    REPLICA_SCENARIO_NAMES,
    SCENARIO_NAMES,
    SHARD_SCENARIO_NAMES,
)

if TYPE_CHECKING:
    from repro import telemetry
    from repro.runtime import InferenceSession, ScheduleResult

__all__ = ["main", "build_parser"]

_PAPER_BATCHES = [1, 16, 256, 4096, 16384]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Cross-stack workload characterization of deep recommendation "
            "systems (IISWC 2020 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the eight-model suite")
    sub.add_parser("platforms", help="list the Table II platforms")

    p = sub.add_parser("characterize", help="cross-stack report for one config")
    p.add_argument("model", choices=MODEL_ORDER)
    p.add_argument("--platform", default="broadwell")
    p.add_argument("--batch", type=_positive_int, default=16)

    p = sub.add_parser("sweep", help="speedup-over-Broadwell table (Fig 3)")
    p.add_argument("--models", nargs="*", default=None, choices=MODEL_ORDER)
    p.add_argument("--batches", nargs="+", type=_positive_int,
                   default=_PAPER_BATCHES)
    _add_sink_args(
        p, text_only=True,
        record_dir="also append one run record per sweep cell to this ledger",
    )
    p.add_argument("--seed", type=int, default=2020,
                   help="seed stamped into recorded fingerprints")

    p = sub.add_parser("optimal", help="optimal-platform grid (Fig 5)")
    p.add_argument("--batches", nargs="+", type=_positive_int,
                   default=_PAPER_BATCHES)

    p = sub.add_parser("topdown", help="TopDown table on both CPUs (Fig 8)")
    p.add_argument("--batch", type=_positive_int, default=16)

    p = sub.add_parser("breakdown", help="operator time shares (Fig 6)")
    p.add_argument("model", choices=MODEL_ORDER)
    p.add_argument("--platform", default="broadwell")
    p.add_argument("--batch", type=_positive_int, default=64)

    sub.add_parser(
        "claims", help="verify every encoded paper claim against the models"
    )

    p = sub.add_parser(
        "trace",
        help="characterize with telemetry on; export Chrome/Perfetto trace",
    )
    _add_telemetry_run_args(p)
    p.add_argument("-o", "--output", default=None,
                   help="trace path (default <model>_<platform>.trace.json)")
    p.add_argument("--metrics-output", default=None,
                   help="metrics JSON path (default <trace stem>.metrics.json)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--scheduler", action="store_true",
        help="trace the serving simulation (per-batch scheduler spans) "
        "instead of the characterization",
    )
    mode.add_argument(
        "--resilience", action="store_true",
        help="like --scheduler, with an injected fault scenario so the "
        "trace shows fault windows and policy reactions",
    )

    p = sub.add_parser(
        "metrics", help="list all registered metrics after an instrumented run"
    )
    _add_telemetry_run_args(p)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")

    p = sub.add_parser(
        "resilience",
        help="policy matrix under injected faults: p99 with each policy on/off",
    )
    _add_serving_args(
        p, model="rm2", platform="t4", queries=800,
        scenarios=REPLICA_SCENARIO_NAMES, fallback="broadwell",
        fallback_help="standby platform for failover/hedging ('none' "
        "disables)",
    )
    p.add_argument("--deadline-ms", type=float, default=None,
                   dest="deadline_ms",
                   help="SLA deadline (default: 10x the batch service time)")
    _add_sink_args(
        p, text_only=True,
        trace="write a Perfetto trace of the all-policies run to this path",
        record_dir="append a run record of the all-policies run to this "
        "ledger",
    )

    p = sub.add_parser(
        "monitor",
        help="windowed serving timeline with regime/tail/burn-rate alerts",
    )
    _add_serving_args(
        p, model="rm1", platform="t4", queries=1200, scenarios=SCENARIO_NAMES,
        window_help="telemetry window (default: horizon / 24 windows)",
    )
    p.add_argument("--rules", default=None,
                   help="TOML SLO rules file; latency rules get windowed "
                   "fast/slow burn-rate evaluation")
    _add_sink_args(
        p,
        trace="write a Perfetto trace (spans + time-series counter "
        "tracks) to this path",
        record_dir="append a run record (with its compact time-series "
        "section) to this ledger",
        report="also write a dashboard to this path (.html -> HTML, "
        "else markdown)",
    )
    p.add_argument("--expect-fault-alert", action="store_true",
                   dest="expect_fault_alert",
                   help="exit nonzero unless at least one fault-correlated "
                   "alert fires (CI smoke gate)")

    p = sub.add_parser(
        "explain",
        help="critical-path latency attribution for one fault scenario",
    )
    _add_serving_args(
        p, model="rm1", platform="t4", queries=1200, scenarios=SCENARIO_NAMES,
        window_help="telemetry window (default: horizon / 24 windows); "
        "also the fault-overlap slack",
    )
    p.add_argument("--what-if", default=None, dest="what_if",
                   help="bound the p99 win of zeroing one component "
                   "(or 'fault_windows', or 'all' for the full table)")
    p.add_argument("--top-queries", type=int, default=5, dest="top_queries",
                   help="slowest retained queries to list (0 disables)")
    p.add_argument("--tail-threshold-ms", type=float, default=None,
                   dest="tail_threshold_ms",
                   help="keep every query at or above this latency "
                   "(default: keep all)")
    p.add_argument("--sample-rate", type=float, default=0.02,
                   dest="sample_rate",
                   help="seeded uniform keep probability below the tail "
                   "threshold")
    p.add_argument("--max-queries", type=int, default=10_000,
                   dest="max_queries",
                   help="hard cap on retained query records (reservoir "
                   "bound)")
    _add_sink_args(
        p,
        trace="write a Perfetto trace with per-query flow events "
        "threading each query across its attempts",
        record_dir="append a run record carrying the attribution section "
        "to this ledger",
        report="also write an explain report to this path (.html -> "
        "HTML, else markdown)",
    )
    p.add_argument("--expect-fault-attribution", action="store_true",
                   dest="expect_fault_attribution",
                   help="exit nonzero unless a majority of the p99 excursion "
                   "overlaps injected fault windows and the top component "
                   "is fault-correlated (CI smoke gate)")

    p = sub.add_parser(
        "shard",
        help="sharded-gather placement x gather-policy matrix under "
        "injected shard faults",
    )
    _add_serving_args(
        p, model="rm2", platform="broadwell", queries=1500,
        scenarios=SHARD_SCENARIO_NAMES, scenario="shard_slowdown",
        with_fallback=False, platform_help="serving platform",
        qps_help="arrival rate (default: 80%% of the sharded peak — model "
        "compute plus the healthy blind gather)",
    )
    p.add_argument("--shards", type=int, default=4,
                   help="simulated shard servers holding the embedding tables")
    p.add_argument("--sharding", choices=["row", "table", "column"],
                   default="row")
    p.add_argument("--alpha", type=float, default=1.1,
                   help="Zipf skew of the embedding index distribution")
    p.add_argument("--hot-k", type=int, default=1024, dest="hot_k",
                   help="hot rows per table replicated by locality-aware "
                   "placement")
    p.add_argument("--replicas", type=int, default=2,
                   help="holders a replicated read races (fastest-of-R)")
    _add_sink_args(
        p,
        record_dir="write one tagged run record per matrix row to this "
        "ledger",
    )
    p.add_argument("--split", action="store_true",
                   help="with --record-dir: one file per record (baseline "
                   "layout)")
    p.add_argument("--expect-locality-win", action="store_true",
                   dest="expect_locality_win",
                   help="exit nonzero unless locality-aware placement + "
                   "gather policies beats blind placement on p99 (CI smoke "
                   "gate)")

    p = sub.add_parser(
        "report", help="render a recorded time-series section as a dashboard",
    )
    p.add_argument("records",
                   help="run-record file (.json/.jsonl) or ledger directory")
    p.add_argument("-o", "--output", default=None,
                   help="dashboard path (default: stdout)")
    p.add_argument("--format", choices=["md", "html", "text", "json"],
                   default=None,
                   help="default: from the output extension, else md")
    p.add_argument("--rules", default=None,
                   help="TOML SLO rules file for burn-rate re-evaluation "
                   "(lower-bound error fractions from the compact summary)")

    p = sub.add_parser(
        "record", help="persist cross-stack run records to a ledger directory",
    )
    p.add_argument("--models", nargs="*", default=None, choices=MODEL_ORDER,
                   help="models to record (default: all eight)")
    p.add_argument("--platforms", nargs="*", default=["broadwell"],
                   help="platform keys to record (default: broadwell)")
    p.add_argument("--batch-size", type=_positive_int, default=64,
                   dest="batch_size")
    p.add_argument("--queries", type=int, default=300,
                   help="scheduler-simulation queries per record (0 = "
                   "profile only)")
    p.add_argument("--qps", type=float, default=None,
                   help="arrival rate (default: half the server's peak "
                   "capacity)")
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--out", default="runs",
                   help="ledger directory (default: runs/)")
    p.add_argument("--split", action="store_true",
                   help="write one pretty-printed <model>_<platform>_b<N>.json "
                   "per record (the baselines/ layout) instead of appending "
                   "to ledger.jsonl")

    p = sub.add_parser(
        "diff", help="cross-stack differential between run records",
    )
    p.add_argument("baseline",
                   help="baseline record file/dir — or the candidate when "
                   "--against is used")
    p.add_argument("candidate", nargs="?", default=None,
                   help="candidate record file/dir (omit with --against)")
    p.add_argument("--against", default=None,
                   help="baseline directory; every candidate record is "
                   "matched to its baseline by fingerprint key")
    p.add_argument("--tolerance", type=float, default=None,
                   help="relative noise gate (default 0.05 = 5%%)")
    p.add_argument("--fail-on-regression", action="store_true",
                   dest="fail_on_regression",
                   help="exit nonzero if any regression (or coverage gap) "
                   "is found")
    _add_sink_args(p)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="show every compared metric, not just significant "
                   "movers")

    p = sub.add_parser(
        "check", help="evaluate declarative SLO rules against run records",
    )
    p.add_argument("records", help="record file (.json/.jsonl) or directory")
    p.add_argument("--rules", required=True,
                   help="TOML rules file ([[rule]] tables; see "
                   "repro.ledger.slo)")
    _add_sink_args(p)

    p = sub.add_parser(
        "lint", help="REPnnn determinism/concurrency lint over source paths",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on any diagnostic, warnings included")
    _add_sink_args(p)
    p.add_argument("--select", default=None,
                   help="comma-separated rule ids to enable (default: all)")

    p = sub.add_parser(
        "fuzz", help="differential fuzzing of cross-implementation contracts",
    )
    p.add_argument("--budget", type=float, default=60.0,
                   help="time budget in seconds, split across contracts to "
                   "derive deterministic example counts (default: 60)")
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--contract", action="append", default=None,
                   help="contract name to fuzz (repeatable; default: all)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report instead of text")
    p.add_argument("--corpus-dir", default=".fuzz",
                   help="directory for shrunk failure repro files (default: "
                   ".fuzz)")
    p.add_argument("--list", action="store_true",
                   help="list registered contracts and exit")

    p = sub.add_parser(
        "verify", help="statically verify zoo model graphs (raw + optimized)",
    )
    p.add_argument("--models", nargs="*", default=None, choices=MODEL_ORDER,
                   help="models to verify (default: all eight)")
    p.add_argument("--batches", nargs="*", type=_positive_int,
                   default=[1, 64, 16384])
    _add_sink_args(p)
    return parser


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_serving_args(
    p: argparse.ArgumentParser,
    *,
    model: str,
    platform: str,
    queries: int,
    scenarios,
    scenario: str = "slowdown",
    with_fallback: bool = True,
    fallback: Optional[str] = None,
    fallback_help: str = "standby platform for failover/hedging "
    "(default: none)",
    platform_help: str = "primary platform",
    qps_help: str = "arrival rate (default: 40%% of the primary's peak "
    "capacity)",
    window_help: Optional[str] = None,
) -> None:
    """The flags naming a serving scenario (the fault and window knobs
    only where ``window_help`` is given)."""
    p.add_argument("--model", default=model, help="model name (aliases ok)")
    p.add_argument("--platform", default=platform, help=platform_help)
    if with_fallback:
        p.add_argument("--fallback", default=fallback, help=fallback_help)
    p.add_argument("--batch-size", type=_positive_int, default=64,
                   dest="batch_size")
    p.add_argument("--queries", type=_positive_int, default=queries)
    p.add_argument("--qps", type=float, default=None, help=qps_help)
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--scenario", default=scenario, choices=sorted(scenarios))
    if window_help is not None:
        p.add_argument("--slowdown-multiplier", type=float, default=None,
                       dest="slowdown_multiplier",
                       help="override the scenario's GPU-throttle multiplier")
        p.add_argument("--window-ms", type=float, default=None,
                       dest="window_ms", help=window_help)


def _add_sink_args(
    p: argparse.ArgumentParser, text_only: bool = False, **helps: str
) -> None:
    """``--format text|json`` (unless ``text_only``) plus one path flag
    per ``helps`` entry (``trace``, ``record_dir``, ``report``)."""
    if not text_only:
        p.add_argument("--format", choices=["text", "json"], default="text")
    for dest, help_text in helps.items():
        p.add_argument("--" + dest.replace("_", "-"), default=None, dest=dest,
                       help=help_text)


def _add_telemetry_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="rm2", help="model name (aliases ok)")
    p.add_argument("--platform", default="broadwell")
    p.add_argument("--batch-size", type=_positive_int, default=64,
                   dest="batch_size")
    p.add_argument("--queries", type=int, default=512,
                   help="queries in the scheduler simulation (0 disables it)")
    p.add_argument("--qps", type=float, default=None,
                   help="arrival rate (default: half the server's peak "
                   "capacity)")
    p.add_argument("--no-run", action="store_true",
                   help="skip the functional NumPy execution of one batch")
    p.add_argument("--seed", type=int, default=2020,
                   help="scheduler-simulation seed")


def _cmd_models(args) -> str:
    from repro.models import build_all_models

    rows = [
        [m.info.display_name, name, m.info.application_domain,
         m.total_embedding_tables(), f"{m.lookups_per_table():.0f}"]
        for name, m in build_all_models().items()
    ]
    return render_table(
        ["model", "key", "domain", "tables", "lookups/table"], rows
    )


def _cmd_platforms(args) -> str:
    rows = [
        [key, spec.name, spec.microarchitecture, spec.kind,
         f"{spec.dram_bandwidth_gbps} GB/s", f"{spec.tdp_w} W"]
        for key, spec in PLATFORMS.items()
    ]
    return render_table(["key", "name", "uarch", "kind", "mem BW", "TDP"], rows)


def _cmd_characterize(args) -> str:
    from repro.core import characterize

    report = characterize(args.model, args.platform, args.batch)
    lines = report.summary_lines()
    lines.append("operator breakdown:")
    for op, share in report.operator_breakdown.top(6):
        lines.append(f"  {op:20s} {share * 100:5.1f}%")
    return "\n".join(lines)


def _cmd_sweep(args) -> str:
    from repro.core import SpeedupStudy
    from repro.models import build_model

    names = args.models if args.models else MODEL_ORDER
    models = {n: build_model(n) for n in names}
    sweep = SpeedupStudy(models=models, batch_sizes=args.batches).run()
    rows = [
        [model, batch]
        + [round(sweep.speedup(model, p, batch), 2) for p in PLATFORM_ORDER]
        for model in names for batch in args.batches
    ]
    table = render_table(
        ["model", "batch"] + list(PLATFORM_ORDER), rows, float_format="{:.2f}"
    )
    if args.record_dir:
        from repro.ledger import RunLedger, record_sweep

        ledger = RunLedger(args.record_dir)
        records = record_sweep(sweep, seed=args.seed)
        for record in records:
            path = ledger.append(record)
        table += f"\nrecorded {len(records)} run records -> {path}"
    return table


def _cmd_optimal(args) -> str:
    from repro.core import SpeedupStudy

    sweep = SpeedupStudy(batch_sizes=args.batches).run()
    cells = {
        (cell.model, cell.batch_size): f"{cell.platform} {cell.speedup:.1f}x"
        for cell in SpeedupStudy.optimal_platform_grid(sweep)
    }
    return render_grid(MODEL_ORDER, args.batches, cells)


def _cmd_topdown(args) -> str:
    from repro.core import collect_suite

    rows = []
    for cpu, reports in collect_suite(batch_size=args.batch).items():
        for model in MODEL_ORDER:
            td = reports[model].topdown
            rows.append(
                [cpu, model]
                + [f"{v:.2f}" for v in (td.retiring, td.bad_speculation,
                                        td.frontend_bound, td.backend_bound)]
                + [f"{reports[model].i_mpki:.1f}"]
            )
    return render_table(
        ["cpu", "model", "retiring", "bad_spec", "frontend", "backend", "i-MPKI"],
        rows,
    )


def _cmd_breakdown(args) -> str:
    from repro.core import breakdown_for
    from repro.models import build_model
    from repro.runtime import InferenceSession

    session = InferenceSession(build_model(args.model), args.platform)
    breakdown = breakdown_for(session.profile(args.batch))
    rows = [[op, f"{share * 100:.1f}%"] for op, share in breakdown.top(10)]
    return render_table(
        ["operator", "share"], rows,
        title=f"{args.model} on {args.platform}, batch {args.batch}",
    )


def _traced_characterization(args) -> Tuple[
    InferenceSession, Optional[ScheduleResult], telemetry.Tracer,
    telemetry.MetricsRegistry,
]:
    """Shared `trace` / `metrics` body: one instrumented characterization.

    Profiles the requested configuration (recording spans + metrics),
    optionally executes one batch numerically, and runs a dynamic-
    batching scheduler simulation parameterized by profiles of the same
    configuration. Calibration profiles for the service-time model are
    taken with telemetry off so the exported trace carries exactly one
    modeled timeline — the requested batch size's.
    """
    from repro import telemetry
    from repro.models import build_model
    from repro.runtime import (
        BatchingPolicy,
        InferenceSession,
        QueryScheduler,
        ServiceTimeModel,
    )

    session = InferenceSession(build_model(args.model), args.platform)
    batch = args.batch_size
    service_model = None
    if args.queries > 0:
        service_model = ServiceTimeModel.calibrate(session, batch)

    result = None
    with telemetry.capture() as (tracer, registry):
        session.profile(batch)
        if not args.no_run:
            session.run_generated(batch)
        if service_model is not None:
            scheduler = QueryScheduler(
                service_model, BatchingPolicy(max_batch=batch), seed=args.seed,
            )
            peak = batch / service_model.seconds(batch)
            qps = args.qps if args.qps else 0.5 * peak
            with tracer.span(
                "scheduler.simulate", category="scheduler",
                arrival_qps=qps, queries=args.queries,
            ):
                result = scheduler.run(qps, num_queries=args.queries)
    return session, result, tracer, registry


def _span_lines(out: str, spans) -> List[str]:
    """The trace-path line plus the hottest spans table."""
    from repro import telemetry

    lines = [
        f"trace:   {out}  ({len(spans)} spans; open in chrome://tracing "
        "or ui.perfetto.dev)",
        "",
        "hottest spans (by total seconds):",
    ]
    for entry in telemetry.summarize_spans(spans, top=8):
        lines.append(
            f"  {entry['name'][:28]:28s} {entry['category']:18s} "
            f"x{entry['count']:<4d} {entry['seconds'] * 1e6:12.1f} us"
        )
    return lines


def _cmd_trace_scheduler(args) -> str:
    """``trace --scheduler`` / ``--resilience``: trace the serving loop.

    The legacy :class:`QueryScheduler` simulation emits metrics but no
    per-batch spans, so both modes run a single-replica
    :class:`~repro.monitor.scenario.Scenario` (whose engine instruments
    every server busy period) at half the server's peak load.
    ``--resilience`` additionally injects the ``slowdown`` scenario
    plus 5% stragglers with retry/shedding enabled so the exported
    trace shows fault windows and policy reactions.
    """
    from dataclasses import replace

    from repro.monitor.scenario import Scenario
    from repro.resilience import ResiliencePolicy

    sc = Scenario(
        args.model, args.platform, batch_size=args.batch_size,
        queries=args.queries if args.queries > 0 else 512, qps=args.qps or None,
        seed=args.seed, overrides={"straggler_probability": 0.05},
    )
    if not args.qps:
        sc = replace(sc, qps=0.5 * sc.peak_qps)
    mode = "resilience" if args.resilience else "scheduler"
    if args.resilience:
        full = sc.policies()
        ms = sc.run(
            ResiliencePolicy(retry=full.retry, shed=full.shed), spans=True
        )
    else:
        ms = sc.run(ResiliencePolicy.none(), faults=False, spans=True)

    name = sc.built_model.name
    out = args.output
    if out is None:
        out = f"{name}_{args.platform}.{mode}.trace.json".replace(" ", "_")
    ms.write_trace(out, f"repro {mode}: {name} on {args.platform}")
    result = ms.result
    lines = _span_lines(out, ms.tracer.sorted_spans()) + [
        "",
        f"{mode}: {result.completed}/{result.queries} completed at "
        f"{ms.qps:.0f} QPS, p50/p99 = {result.p50 * 1e3:.3f} / "
        f"{result.p99 * 1e3:.3f} ms",
    ]
    if args.resilience:
        lines.append(f"injected: {_injected(result) or 'none'}")
    return "\n".join(lines)


def _cmd_trace(args) -> str:
    from repro import telemetry

    if args.scheduler or args.resilience:
        return _cmd_trace_scheduler(args)
    session, result, tracer, registry = _traced_characterization(args)
    name = f"{session.model.name}_{session.platform.name}".replace(" ", "_")
    out = args.output or f"{name}.trace.json"
    metrics_out = args.metrics_output
    if metrics_out is None:
        stem = out[: -len(".trace.json")] if out.endswith(".trace.json") else (
            os.path.splitext(out)[0]
        )
        metrics_out = f"{stem}.metrics.json"

    snapshot = registry.snapshot()
    spans = tracer.sorted_spans()
    telemetry.write_chrome_trace(
        out, spans,
        process_name=f"repro: {session.model.name} on {session.platform.name}",
        metrics=snapshot,
    )
    telemetry.write_metrics_report(metrics_out, snapshot)

    lines = _span_lines(out, spans)
    lines.insert(1, f"metrics: {metrics_out}  ({len(snapshot)} metrics)")
    if result is not None:
        lines += [
            "",
            f"scheduler: {result.queries} queries, "
            f"{result.throughput_qps:.0f} QPS, mean batch "
            f"{result.mean_batch_size:.1f}, p50/p95/p99 = "
            f"{result.p50 * 1e3:.3f} / {result.p95 * 1e3:.3f} / "
            f"{result.p99 * 1e3:.3f} ms",
        ]
    return "\n".join(lines)


def _cmd_metrics(args) -> str:
    from repro import telemetry

    _, _, _, registry = _traced_characterization(args)
    return telemetry.render_metrics(registry.snapshot(), args.format)


def _scenario(args, **fields):
    """The validated serving Scenario a command's flags name."""
    from repro.monitor.scenario import Scenario

    overrides = {}
    if getattr(args, "slowdown_multiplier", None) is not None:
        overrides["slowdown_multiplier"] = args.slowdown_multiplier
    window_ms = getattr(args, "window_ms", None)
    return Scenario(
        args.model, args.platform, args.scenario,
        fallback=args.fallback, batch_size=args.batch_size,
        queries=args.queries, qps=args.qps or None, seed=args.seed,
        overrides=overrides,
        window_s=window_ms * 1e-3 if window_ms else None,
        **fields,
    )


def _injected(result) -> str:
    return ", ".join(f"{k}={v}" for k, v in result.fault_counts.items() if v)


def _ms(result, percentile: float) -> str:
    """A completed-query percentile in ms, ``nan`` when none completed."""
    value = result.percentile(percentile) if result.completed else float("nan")
    return f"{value * 1e3:.2f}"


def _write_sinks(args, ms, kind: str, process: str, *, recorded: str,
                 trace_note: str = "", attribution=None,
                 report=None) -> List[str]:
    """Write a serving run's ``--trace`` / ``--record-dir`` /
    ``--report`` outputs; return their stdout lines. ``report`` is
    ``(label, render)`` with ``render(html: bool) -> str``."""
    lines = []
    if args.trace:
        ms.write_trace(args.trace, f"repro {kind}: {process}")
        lines.append(
            f"trace: {args.trace}  (open in chrome://tracing or "
            f"ui.perfetto.dev{trace_note})"
        )
    if args.record_dir:
        from repro.ledger import RunLedger

        path = RunLedger(args.record_dir).append(ms.record(kind, attribution))
        lines.append(f"recorded {recorded} run -> {path}")
    if report is not None and args.report:
        label, render = report
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render(args.report.endswith(".html")))
        lines.append(f"{label}: {args.report}")
    return lines


#: ``repro resilience`` rows after "no faults": the members of the
#: Scenario's full policy set each one enables (``None``: all of them).
#: A row whose members the fleet cannot support (no fallback, no
#: degraded variant) is skipped.
_POLICY_ROWS = (
    ("faults, no policy", ()),
    ("faults + retry", ("retry",)),
    ("faults + hedge", ("hedge",)),
    ("faults + failover", ("retry", "breaker")),
    ("faults + degrade/shed", ("shed", "degrade")),
    ("faults + all", None),
)


def _cmd_resilience(args) -> str:
    from repro.resilience import ResiliencePolicy

    deadline_ms = args.deadline_ms
    sc = _scenario(args, deadline_s=deadline_ms * 1e-3 if deadline_ms else None)
    full = sc.policies()
    runs = [("no faults", sc.run(ResiliencePolicy.none(), faults=False))]
    for label, members in _POLICY_ROWS:
        if members is None:
            runs.append((label, sc.run(full, spans=bool(args.trace))))
        elif all(getattr(full, m) is not None for m in members):
            policy = ResiliencePolicy(**{m: getattr(full, m) for m in members})
            runs.append((label, sc.run(policy)))

    rows = []
    for label, ms in runs:
        r = ms.result
        rows.append(
            [label, r.completed, r.shed, r.dropped, _ms(r, 50), _ms(r, 99),
             r.retries, r.hedges, r.failovers, r.degraded_queries]
        )
    names = "+".join(sc.platforms)
    lines = [
        f"scenario '{args.scenario}' on {args.model}/{names}: "
        f"{args.queries} queries at {sc.arrival_qps:.0f} QPS "
        f"(deadline {sc.deadline * 1e3:.1f} ms, seed {args.seed})",
        render_table(
            ["policy", "ok", "shed", "drop", "p50 ms", "p99 ms",
             "retries", "hedges", "failover", "degraded"],
            rows,
        ),
    ]
    last = runs[-1][1]
    if last.result.fault_counts:
        lines.append(
            f"injected (all-policies run): {_injected(last.result) or 'none'}"
        )
    lines += _write_sinks(
        args, last, "resilience", f"{args.model} on {names}",
        recorded="all-policies",
    )
    return "\n".join(lines)


def _cmd_shard(args) -> Tuple[str, int]:
    from repro.distserve import matrix_records, run_shard_matrix

    matrix = run_shard_matrix(
        args.model, args.platform, args.scenario,
        **{k: getattr(args, k) for k in (
            "shards", "sharding", "batch_size", "queries", "qps", "seed",
            "alpha", "hot_k", "replicas",
        )},
    )
    rows = [
        [r.label, r.layout.num_shards, r.result.completed,
         _ms(r.result, 50), _ms(r.result, 99),
         f"{r.layout.load_imbalance():.2f}",
         int(r.gather_count("hedged_rpcs")),
         int(r.gather_count("replicated_reads")),
         int(r.gather_count("imputed_lookups")
             + r.gather_count("cached_lookups")),
         int(r.gather_count("blocked_gathers"))]
        for r in matrix.rows
    ]
    win = matrix.locality_win()
    lines = [
        f"scenario '{matrix.scenario}' on {matrix.model}/{matrix.platform}: "
        f"{matrix.queries} queries at {matrix.qps:.0f} QPS across "
        f"{matrix.shards} {matrix.sharding}-sharded servers "
        f"(seed {matrix.seed})",
        render_table(
            ["placement/policy", "shards", "ok", "p50 ms", "p99 ms",
             "load imb", "hedges", "repl reads", "degraded", "blocked"],
            rows,
        ),
        f"p99 blind {matrix.row('blind').p99_ms:.2f} ms vs locality+policies "
        f"{matrix.row('locality+policies').p99_ms:.2f} ms -> locality win: "
        f"{'yes' if win else 'NO'}",
    ]
    if args.record_dir:
        from repro.ledger import RunLedger

        ledger = RunLedger(args.record_dir)
        for record in matrix_records(matrix):
            path = ledger.write(record) if args.split else ledger.append(record)
            lines.append(f"recorded {record.fingerprint.key} -> {path}")
    code = int(args.expect_locality_win and not win)
    if code:
        lines.append(
            "FAIL: locality-aware placement + gather policies did not "
            "beat blind placement on p99"
        )
    if args.format == "json":
        import json as _json

        keys = ("model", "platform", "scenario", "seed", "qps", "shards",
                "sharding")
        payload = {k: getattr(matrix, k) for k in keys}
        payload["locality_win"] = win
        payload["rows"] = [
            {"label": r.label, "p50_ms": r.p50_ms, "p99_ms": r.p99_ms,
             "gather_counts": dict(r.result.gather_counts),
             "layout": r.layout.scalars()}
            for r in matrix.rows
        ]
        return _json.dumps(payload, indent=2), code
    return "\n".join(lines), code


def _monitor_alerts(summary, source, rules_path: Optional[str]):
    """All windowed analyses over one summary, in a stable order."""
    from repro.monitor import (
        detect_regime_shifts,
        detect_tail_excursions,
        evaluate_burn_rates,
    )

    alerts = list(detect_regime_shifts(summary))
    alerts += detect_tail_excursions(summary)
    if rules_path:
        from repro.ledger import load_rules

        alerts += evaluate_burn_rates(source, load_rules(rules_path))
    return alerts


def _cmd_monitor(args) -> Tuple[str, int]:
    from repro.monitor import MonitorReport

    sc = _scenario(args)
    ms = sc.run(timeseries=sc.timeseries(), spans=bool(args.trace))
    summary = ms.timeseries.summary()
    # Burn rates read the live TimeSeries: per-window histograms make
    # the error fractions exact rather than percentile lower bounds.
    alerts = _monitor_alerts(summary, ms.timeseries, args.rules)
    result = ms.result
    nan = float("nan")
    report = MonitorReport(
        summary,
        alerts,
        meta=ms.meta(batch_size=args.batch_size),
        scalars={
            "completed": float(result.completed),
            "shed": float(result.shed),
            "dropped": float(result.dropped),
            "p50_s": result.p50 if result.completed else nan,
            "p99_s": result.p99 if result.completed else nan,
        },
        fault_windows=ms.fault_windows(),
    )
    extra = _write_sinks(
        args, ms, "monitor", f"{ms.model} on {ms.platform}",
        recorded="monitored",
        report=("dashboard", lambda html: (
            report.render_html() if html else report.render_markdown()
        )),
    )
    code = int(args.expect_fault_alert
               and not any(a.fault_correlated for a in alerts))
    if code:
        extra.append("FAIL: no fault-correlated alert fired")
    if args.format == "json":
        return report.to_json(), code
    return "\n".join([report.render_text()] + extra), code


def _cmd_explain(args) -> Tuple[str, int]:
    from repro.explain import Explanation, render_html, render_markdown
    from repro.explain import render_text as render_explain_text
    from repro.telemetry.querytrace import COMPONENTS, QueryTraceCapture

    what_if_knobs = COMPONENTS + ("fault_windows", "all")
    if args.what_if is not None and args.what_if not in what_if_knobs:
        raise ValueError(
            f"unknown what-if knob {args.what_if!r}; choose from "
            f"{', '.join(what_if_knobs)}"
        )
    threshold = args.tail_threshold_ms
    capture = QueryTraceCapture(
        tail_threshold_s=None if threshold is None else threshold * 1e-3,
        sample_rate=args.sample_rate,
        seed=args.seed,
        max_queries=args.max_queries,
    )
    sc = _scenario(args)
    ms = sc.run(
        timeseries=sc.timeseries(), querytrace=capture, spans=bool(args.trace)
    )
    exp = Explanation.of(ms)
    extra = _write_sinks(
        args, ms, "explain", f"{ms.model} on {ms.platform}",
        recorded="explained", trace_note="; flow arrows thread each query",
        attribution=exp.attribution_section() if args.record_dir else None,
        report=("report", lambda html: (
            render_html if html else render_markdown
        )(exp, top_queries=args.top_queries)),
    )
    if args.what_if and args.what_if != "all":
        wi = exp.what_if(args.what_if, 99.0)
        extra.append(
            f"what-if zero {wi['component']}: p99 "
            f"{wi['observed_s'] * 1e3:.3f} ms -> bound "
            f"{wi['bound_s'] * 1e3:.3f} ms "
            f"(win {wi['improvement_s'] * 1e3:.3f} ms; direct effect "
            "only, queueing relief not re-simulated)"
        )
    code = 0
    if args.expect_fault_attribution:
        fa = exp.fault_attribution(99.0)
        share = (
            f"{fa['excursion_share']:.0%} of the p99 excursion in fault "
            "windows"
        )
        top = f"component '{fa['top_component']}'"
        if fa["ok"]:
            extra.append(
                f"fault attribution gate: PASS ({share}; top {top} "
                "fault-correlated)"
            )
        else:
            verdict = "is" if fa["top_is_fault_correlated"] else "is NOT"
            extra.append(
                f"FAIL: fault attribution gate ({share}, need >= "
                f"{fa['majority']:.0%}; top {top} {verdict} fault-correlated)"
            )
            code = 1
    if args.format == "json":
        import json as _json

        doc = exp.to_dict()
        if args.expect_fault_attribution:
            doc["gate"] = {"ok": code == 0}
        return _json.dumps(doc, indent=2, sort_keys=True), code
    text = render_explain_text(exp, top_queries=args.top_queries)
    return "\n".join([text] + extra), code


def _cmd_report(args) -> str:
    from repro.ledger import load_records
    from repro.monitor import MonitorReport

    windowed = [r for r in load_records(args.records) if r.has_timeseries()]
    if not windowed:
        raise ValueError(
            f"no record under {args.records!r} carries a "
            "time-series section (record one with `repro monitor "
            "--record-dir`)"
        )
    record = windowed[0]
    summary = record.timeseries_summary()
    alerts = _monitor_alerts(summary, summary, args.rules)
    # Injected windows are not persisted; reconstruct coarse
    # (window-aligned) spans from the recorded fault-activity tracks.
    fault_windows = []
    for track in summary.fault_tracks():
        runs: List[List[int]] = []
        for i in summary.window_indices():
            if summary.counter(track, i) <= 0:
                continue
            if runs and i == runs[-1][1] + 1:
                runs[-1][1] = i
            else:
                runs.append([i, i])
        fault_windows += [
            (summary.window_start(first),
             summary.window_start(last) + summary.window_s, track)
            for first, last in runs
        ]
    fp = record.fingerprint
    report = MonitorReport(
        summary,
        alerts,
        meta={
            "model": fp.model, "platform": fp.platform, "seed": fp.seed,
            "batch_size": fp.batch_size,
            "qps": record.scalars.get("arrival_qps"), "kind": record.kind,
        },
        scalars=dict(record.scalars),
        fault_windows=sorted(fault_windows),
    )
    fmt = args.format
    if fmt is None:
        fmt = "html" if (args.output or "").endswith(".html") else "md"
    doc = {
        "md": report.render_markdown,
        "html": report.render_html,
        "text": report.render_text,
        "json": report.to_json,
    }[fmt]()
    if not args.output:
        return doc
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(doc)
    extras = len(windowed) - 1
    note = f" (+{extras} more windowed record(s) ignored)" if extras else ""
    return f"dashboard: {args.output}  [{fp.key}]{note}"


def _cmd_record(args) -> str:
    from repro.ledger import RunLedger, record_run

    names = args.models if args.models else MODEL_ORDER
    for platform in args.platforms:
        if platform not in PLATFORMS:
            raise KeyError(
                f"unknown platform {platform!r} "
                f"(choose from {', '.join(PLATFORMS)})"
            )
    ledger = RunLedger(args.out)
    lines = []
    for name in names:
        for platform in args.platforms:
            record = record_run(
                name, platform, batch_size=args.batch_size,
                seed=args.seed, queries=args.queries, qps=args.qps,
            )
            path = ledger.write(record) if args.split else ledger.append(record)
            detail = f"{record.scalars['total_seconds'] * 1e3:.3f} ms/batch"
            if record.has_latency():
                detail += f", p99 {record.percentile(99.0) * 1e3:.3f} ms"
            lines.append(
                f"{record.fingerprint.key:24s} {record.kind:8s} "
                f"{detail}  -> {path}"
            )
    lines.append(f"{len(names) * len(args.platforms)} records in {args.out}/")
    return "\n".join(lines)


def _cmd_diff(args) -> Tuple[str, int]:
    import json as _json

    from repro.ledger import (
        DEFAULT_TOLERANCE,
        diff_against_baselines,
        diff_records,
        load_records,
    )

    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    if args.against is not None:
        if args.candidate is not None:
            raise ValueError(
                "give either two positional paths or --against, not both"
            )
        diffs, unmatched = diff_against_baselines(
            load_records(args.baseline), load_records(args.against), tolerance
        )
    else:
        if args.candidate is None:
            raise ValueError("need a candidate path (or --against <baselines>)")
        a = load_records(args.baseline)
        b = load_records(args.candidate)
        if len(a) != 1 or len(b) != 1:
            diffs, unmatched = diff_against_baselines(b, a, tolerance)
        else:
            diffs, unmatched = [diff_records(a[0], b[0], tolerance)], []

    regressions = sum(len(d.regressions) for d in diffs)
    gaps = [u for u in unmatched if "not covered" in u]
    failed = args.fail_on_regression and (regressions > 0 or bool(gaps))
    if args.format == "json":
        payload = {
            "tolerance": tolerance,
            "regressions": regressions,
            "unmatched": unmatched,
            "diffs": [d.to_dict() for d in diffs],
        }
        return _json.dumps(payload, indent=2, sort_keys=True), int(failed)
    lines = [d.render_text(verbose=args.verbose) for d in diffs]
    lines.extend(f"! {u}" for u in unmatched)
    lines.append(
        f"{len(diffs)} configuration(s) compared at {tolerance:.0%} "
        f"tolerance: {regressions} regression(s), "
        f"{sum(len(d.improvements) for d in diffs)} improvement(s)"
    )
    if failed:
        lines.append("FAIL: regression gate tripped")
    return "\n".join(lines), int(failed)


def _cmd_check(args) -> Tuple[str, int]:
    from repro.ledger import evaluate, load_records, load_rules

    report = evaluate(load_rules(args.rules), load_records(args.records))
    text = report.to_json() if args.format == "json" else report.render_text()
    return text, report.exit_code()


def _cmd_lint(args) -> Tuple[str, int]:
    from repro.analysis import lint_paths

    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(f"no such path: {', '.join(missing)}")
    report = lint_paths(args.paths, select=select)
    text = report.to_json() if args.format == "json" else report.render_text()
    return text, report.exit_code(strict=args.strict)


def _cmd_fuzz(args) -> Tuple[str, int]:
    import json as _json

    from repro.analysis.contracts import CONTRACTS, contract_by_name
    from repro.analysis.fuzz import run_fuzz

    if args.list:
        rows = [c.describe() for c in CONTRACTS]
        if args.json:
            return _json.dumps(rows, indent=2, sort_keys=True), 0
        table = render_table(
            ["contract", "cost_s", "invariant"],
            [[r["name"], r["cost_s"], r["invariant"]] for r in rows],
            title=f"{len(rows)} registered contracts",
        )
        return table, 0
    contracts = None
    if args.contract:
        contracts = [contract_by_name(n) for n in args.contract]
    report = run_fuzz(
        budget_s=args.budget, seed=args.seed, contracts=contracts,
        corpus_dir=args.corpus_dir,
    )
    text = (
        _json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json else report.render_text()
    )
    return text, 0 if report.ok else 1


def _cmd_verify(args) -> Tuple[str, int]:
    import json as _json

    from repro.analysis import verify_graph
    from repro.graph import optimize
    from repro.models import build_model

    rows = []
    records = []
    failures = 0
    for name in args.models if args.models else MODEL_ORDER:
        model = build_model(name)
        for batch in args.batches:
            graph = model.build_graph(batch)
            for label, g in (("raw", graph), ("optimized", optimize(graph))):
                report = verify_graph(g)
                status = "ok" if report.clean else (
                    "WARN" if report.ok else "FAIL"
                )
                failures += not report.ok
                rows.append(
                    [name, batch, label, len(g), status,
                     "; ".join(d.rule for d in report) or "-"]
                )
                records.append({
                    "model": name, "batch": batch, "graph": label,
                    "nodes": len(g), "status": status,
                    "diagnostics": [d.to_dict() for d in report],
                })
    if args.format == "json":
        return _json.dumps(records, indent=2, sort_keys=True), int(failures > 0)
    table = render_table(
        ["model", "batch", "graph", "nodes", "status", "diagnostics"],
        rows,
        title=f"graph verifier: {len(rows)} graphs, {failures} failure(s)",
    )
    return table, int(failures > 0)


def _cmd_claims(args) -> str:
    from repro.core import evaluate_claims

    results = evaluate_claims()
    rows = [
        ["PASS" if r.passed else "FAIL", r.claim.figure, r.claim.claim_id,
         r.measured]
        for r in results
    ]
    passed = sum(r.passed for r in results)
    return render_table(
        ["status", "figure", "claim", "measured"],
        rows,
        title=f"Paper-claim ledger: {passed}/{len(results)} claims hold",
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["_cmd_" + args.command]
    try:
        result = handler(args)
    except (KeyError, ValueError, OSError) as exc:
        # User errors (unknown names, invalid values, unreadable or
        # unwritable paths) end in one stderr line and exit 2, like
        # argparse's usage errors, never a traceback.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2) from None
    # Gate commands return (text, exit_code); the rest return text.
    text, code = result if isinstance(result, tuple) else (result, 0)
    try:
        print(text)
    except BrokenPipeError:  # e.g. `repro sweep | head`
        return 0
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

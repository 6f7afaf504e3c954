"""Declarative registry of cross-implementation contracts.

The stack pins several pairs of independent implementations to the same
answer: raw vs optimized graph numerics, the plain vs gather-augmented scheduler path,
framework lowerings vs their cost totals, live :class:`TimeSeries` vs
shard-merged state, run-ledger records vs their re-recorded twins.
Each invariant here is a named, self-describing oracle: a hypothesis
strategy producing a random *JSON-serializable* example dict, and a
``check`` that raises :class:`ContractViolation` when the invariant
breaks on that example.

Examples are plain dicts so the fuzz driver (:mod:`repro.analysis.fuzz`)
can digest them for determinism checks and serialize shrunk failures to
the ``.fuzz/`` corpus without custom encoders; each ``check``
reconstructs real models/plans/policies from the dict.

This module imports :mod:`hypothesis` — a dev/test dependency — so the
package ``__init__`` deliberately does not import it eagerly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np
from hypothesis import strategies as st

__all__ = [
    "CONTRACTS",
    "Contract",
    "ContractViolation",
    "contract_by_name",
]


class ContractViolation(AssertionError):
    """A contract's invariant failed on a concrete example."""


@dataclass(frozen=True)
class Contract:
    """One named invariant: example strategy + oracle.

    ``cost`` is the approximate seconds one ``check`` call takes; the
    fuzz driver divides its time budget by it to choose a deterministic
    per-contract example count (never wall-clock cutoffs, which would
    break same-seed reproducibility).
    """

    name: str
    invariant: str
    strategy: Callable[[], st.SearchStrategy]
    check: Callable[[Mapping[str, Any]], None]
    cost: float

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "invariant": self.invariant,
                "cost_s": self.cost}


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise ContractViolation(detail)


# -- shared strategies -----------------------------------------------------

_DIMS = (8, 16, 32)


def _model_specs() -> st.SearchStrategy:
    """Random small model configs across the three architecture families
    (MLP-tower DLRM, attention DIN, recurrent DIEN)."""
    dlrm = st.builds(
        lambda dense, tables, dim, lookups, hidden, top, locality: {
            "family": "dlrm", "num_dense_features": dense,
            "num_tables": tables, "embedding_dim": dim,
            "lookups_per_table": lookups, "hidden": hidden,
            "top_hidden": top, "lookup_locality": locality,
        },
        st.integers(4, 16), st.integers(2, 6), st.sampled_from(_DIMS),
        st.integers(2, 8), st.integers(8, 64), st.integers(8, 64),
        st.sampled_from((0.0, 0.15, 0.4)),
    )
    din = st.builds(
        lambda lookups, dim, tables, hidden, out: {
            "family": "din", "behavior_lookups": lookups,
            "embedding_dim": dim, "num_profile_tables": tables,
            "attention_hidden": hidden, "out_hidden": out,
        },
        st.integers(4, 40), st.sampled_from(_DIMS), st.integers(2, 6),
        st.integers(8, 36), st.integers(8, 64),
    )
    # DIEN's attention contracts the AUGRU hidden state against the
    # behavior embeddings, so hidden_dim must equal embedding_dim.
    dien = st.builds(
        lambda seq, dim, tables, out: {
            "family": "dien", "sequence_length": seq,
            "embedding_dim": dim, "hidden_dim": dim,
            "num_profile_tables": tables, "out_hidden": out,
        },
        st.integers(4, 20), st.sampled_from(_DIMS),
        st.integers(2, 4), st.integers(8, 64),
    )
    return st.one_of(dlrm, din, dien)


def _build_model(spec: Mapping[str, Any]):
    from repro.models import DIEN, DIN, DLRM, DLRMConfig, ModelInfo

    family = spec["family"]
    if family == "dlrm":
        dim = spec["embedding_dim"]
        config = DLRMConfig(
            name="fuzz_dlrm",
            num_dense_features=spec["num_dense_features"],
            num_tables=spec["num_tables"],
            rows_per_table=4096,
            embedding_dim=dim,
            lookups_per_table=spec["lookups_per_table"],
            bottom_mlp=(spec["hidden"], dim),
            top_mlp=(spec["top_hidden"], 1),
            lookup_locality=spec["lookup_locality"],
        )
        info = ModelInfo(
            "fuzz_dlrm", "Fuzz-DLRM", "synthetic", "none",
            "differential fuzzing", "randomly configured MLP-tower DLRM",
        )
        return DLRM(config, info)
    if family == "din":
        return DIN(
            behavior_lookups=spec["behavior_lookups"],
            behavior_rows=4096,
            embedding_dim=spec["embedding_dim"],
            num_profile_tables=spec["num_profile_tables"],
            profile_rows=2048,
            attention_hidden=spec["attention_hidden"],
            output_layers=(spec["out_hidden"], 1),
        )
    if family == "dien":
        return DIEN(
            sequence_length=spec["sequence_length"],
            behavior_rows=4096,
            embedding_dim=spec["embedding_dim"],
            hidden_dim=spec["hidden_dim"],
            num_profile_tables=spec["num_profile_tables"],
            profile_rows=2048,
            output_layers=(spec["out_hidden"], 1),
        )
    raise ValueError(f"unknown model family {family!r}")


# -- 1. framework lowering agreement ---------------------------------------

_LOWERED_KINDS = (
    "FC", "SparseLengthsSum", "Concat", "Sum", "Relu", "Sigmoid",
    "LocalActivation", "AUGRU", "AttentionScores", "DotInteraction",
    "FusedFC", "GroupedSparseLengthsSum", "BatchMatMul",
)


def _lowering_examples() -> st.SearchStrategy:
    seconds = st.floats(1e-9, 1.0, allow_nan=False, allow_infinity=False)
    return st.fixed_dictionaries({
        "framework": st.sampled_from(("caffe2", "tensorflow")),
        "platform_kind": st.sampled_from(("cpu", "gpu")),
        "time_by_kind": st.dictionaries(
            st.sampled_from(_LOWERED_KINDS), seconds, min_size=1, max_size=8
        ),
    })


def _check_lowering(example: Mapping[str, Any]) -> None:
    from repro.frameworks import CAFFE2, TENSORFLOW

    lowering = CAFFE2 if example["framework"] == "caffe2" else TENSORFLOW
    time_by_kind = example["time_by_kind"]
    lowered = lowering.lower(time_by_kind, example["platform_kind"])
    for kind in sorted(lowered):
        _require(
            lowered[kind] >= 0.0,
            f"lowered kind {kind!r} has negative seconds {lowered[kind]}",
        )
    total_in = sum(time_by_kind[k] for k in sorted(time_by_kind))
    total_out = sum(lowered[k] for k in sorted(lowered))
    expected = total_in * lowering.runtime_overhead
    _require(
        abs(total_out - expected) <= 1e-9 * max(expected, 1e-30),
        f"lowering changed total cost: in={total_in!r} "
        f"overhead={lowering.runtime_overhead!r} out={total_out!r}",
    )


# -- 2. optimized == raw numerics ------------------------------------------


def _optimizer_examples() -> st.SearchStrategy:
    return st.fixed_dictionaries({
        "model": _model_specs(),
        "batch": st.integers(1, 16),
        "feed_seed": st.integers(0, 2**16),
    })


def _check_optimizer(example: Mapping[str, Any]) -> None:
    from repro.graph.executor import execute
    from repro.graph.passes import optimize
    from repro.workloads.generator import QueryGenerator

    model = _build_model(example["model"])
    batch = example["batch"]
    graph = model.build_graph(batch)
    optimized = optimize(graph)
    feeds = QueryGenerator(model, seed=example["feed_seed"]).generate(batch)
    base = list(execute(graph, feeds).values())
    opt = list(execute(optimized, feeds).values())
    _require(
        len(base) == len(opt),
        f"output arity changed: {len(base)} vs {len(opt)}",
    )
    for i, (a, b) in enumerate(zip(base, opt)):
        try:
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)
        except AssertionError as exc:
            raise ContractViolation(
                f"optimized output {i} diverges from raw: {exc}"
            ) from exc


# -- 3. verifier-inferred specs == executed shapes -------------------------


def _verifier_examples() -> st.SearchStrategy:
    return st.fixed_dictionaries({
        "model": _model_specs(),
        "batch": st.integers(1, 16),
        "feed_seed": st.integers(0, 2**16),
    })


def _check_verifier(example: Mapping[str, Any]) -> None:
    from repro.analysis.verifier import inferred_output_specs
    from repro.graph.executor import execute
    from repro.workloads.generator import QueryGenerator

    model = _build_model(example["model"])
    batch = example["batch"]
    graph = model.build_graph(batch)
    specs = inferred_output_specs(graph, batch)
    feeds = QueryGenerator(model, seed=example["feed_seed"]).generate(batch)
    outputs = execute(graph, feeds)
    _require(
        sorted(specs) == sorted(outputs),
        f"output names drifted: inferred={sorted(specs)} "
        f"executed={sorted(outputs)}",
    )
    for name in sorted(specs):
        _require(
            tuple(specs[name].shape) == tuple(outputs[name].shape),
            f"output {name!r}: inferred shape {specs[name].shape} != "
            f"executed shape {outputs[name].shape}",
        )
        _require(
            specs[name].dtype == str(outputs[name].dtype),
            f"output {name!r}: inferred dtype {specs[name].dtype!r} != "
            f"executed dtype {outputs[name].dtype!s}",
        )


# -- 4. ledger records byte-stable -----------------------------------------


def _ledger_examples() -> st.SearchStrategy:
    return st.fixed_dictionaries({
        "model": st.sampled_from(("ncf", "rm1", "din")),
        "platform": st.sampled_from(("broadwell", "t4")),
        "batch": st.sampled_from((1, 16, 128)),
        "seed": st.integers(0, 2**16),
    })


def _check_ledger(example: Mapping[str, Any]) -> None:
    from repro.ledger.record import RunRecord, record_profile

    args = (example["model"], example["platform"], example["batch"])
    first = record_profile(*args, seed=example["seed"]).to_json()
    second = record_profile(*args, seed=example["seed"]).to_json()
    _require(
        first == second,
        "re-recording the same configuration changed the record bytes",
    )
    roundtrip = RunRecord.from_json(first).to_json()
    _require(
        roundtrip == first,
        "from_json/to_json round trip changed the record bytes",
    )


# -- 5. scheduler conservation under faults × policies ---------------------


def _scheduler_examples() -> st.SearchStrategy:
    policy = st.fixed_dictionaries({
        "retry": st.one_of(st.none(), st.fixed_dictionaries({
            "deadline_s": st.sampled_from((0.05, 0.2, 1.0)),
            "max_retries": st.integers(0, 3),
        })),
        "hedge": st.one_of(st.none(), st.fixed_dictionaries({
            "delay_s": st.sampled_from((0.0, 0.01, 0.05)),
        })),
        "breaker": st.one_of(st.none(), st.fixed_dictionaries({
            "failure_threshold": st.integers(1, 4),
            "cooldown_s": st.sampled_from((0.02, 0.1)),
        })),
        "shed": st.one_of(st.none(), st.fixed_dictionaries({
            "deadline_s": st.sampled_from((0.02, 0.1, 0.5)),
        })),
        "degrade": st.one_of(st.none(), st.fixed_dictionaries({
            "queue_budget_s": st.sampled_from((0.0, 0.01, 0.1)),
        })),
    })
    faults = st.fixed_dictionaries({
        "slowdown_windows": st.integers(0, 2),
        "slowdown_multiplier": st.sampled_from((2.0, 5.0)),
        "crash_windows": st.integers(0, 2),
        "pcie_windows": st.integers(0, 1),
        "straggler_probability": st.sampled_from((0.0, 0.1, 0.3)),
        "drop_probability": st.sampled_from((0.0, 0.1)),
    })
    return st.fixed_dictionaries({
        "num_queries": st.integers(20, 150),
        "qps": st.sampled_from((50.0, 200.0, 1000.0)),
        "num_replicas": st.integers(1, 3),
        "max_batch": st.sampled_from((1, 8, 64)),
        "base_ms": st.sampled_from((0.5, 2.0, 10.0)),
        "policy": policy,
        "faults": faults,
        "seed": st.integers(0, 2**16),
    })


def _synthetic_stm(base_ms: float, scale: float = 1.0):
    from repro.runtime.scheduler import ServiceTimeModel
    from repro.runtime.session import InferenceProfile

    profiles = [
        InferenceProfile(
            model_name="fuzz", platform_name="sim", platform_kind="cpu",
            batch_size=b,
            compute_seconds=scale * base_ms * 1e-3 * (1.0 + 0.05 * b),
            data_comm_seconds=scale * base_ms * 1e-4 * b,
            op_time_by_kind={"FC": scale * base_ms * 1e-3},
        )
        for b in (1, 64)
    ]
    return ServiceTimeModel.from_profiles(profiles)


def _build_policy(spec: Mapping[str, Any]):
    from repro.resilience.policies import (
        CircuitBreakerPolicy,
        DegradationPolicy,
        HedgePolicy,
        ResiliencePolicy,
        RetryPolicy,
        SheddingPolicy,
    )

    retry = spec["retry"]
    hedge = spec["hedge"]
    breaker = spec["breaker"]
    shed = spec["shed"]
    degrade = spec["degrade"]
    return ResiliencePolicy(
        retry=RetryPolicy(**retry) if retry else None,
        hedge=HedgePolicy(**hedge) if hedge else None,
        breaker=CircuitBreakerPolicy(**breaker) if breaker else None,
        shed=SheddingPolicy(**shed) if shed else None,
        degrade=DegradationPolicy(**degrade) if degrade else None,
    )


def _check_scheduler(example: Mapping[str, Any]) -> None:
    from repro.resilience.engine import ResilientScheduler
    from repro.resilience.faults import FaultPlan
    from repro.resilience.server import Replica
    from repro.runtime.scheduler import BatchingPolicy

    stm = _synthetic_stm(example["base_ms"])
    cheap = _synthetic_stm(example["base_ms"], scale=0.25)
    names = [f"r{i}" for i in range(example["num_replicas"])]
    replicas = [Replica(n, stm, degraded_model=cheap) for n in names]
    horizon = 2.0 * example["num_queries"] / example["qps"] + 1.0
    plan = FaultPlan.synthesize(
        example["seed"], names, horizon, **example["faults"]
    )
    result = ResilientScheduler(
        replicas,
        BatchingPolicy(max_batch=example["max_batch"]),
        resilience=_build_policy(example["policy"]),
        fault_plan=plan,
        seed=example["seed"],
    ).run(example["qps"], num_queries=example["num_queries"])
    _require(
        result.accounting_ok(),
        f"query accounting broke conservation: completed={result.completed} "
        f"shed={result.shed} dropped={result.dropped} "
        f"issued={result.queries} latencies={len(result.latencies_s)}",
    )


# -- 5b. query-trace decomposition: exact sum, zero perturbation ------------


def _querytrace_examples() -> st.SearchStrategy:
    # The scheduler strategy (faults x policies x fleet shapes) plus a
    # shard axis: 0 runs the plain replica path, 2/4 put a sharded
    # gather model (with its own synthesized shard fault plan) behind
    # the fleet so gather/partial-wait intervals get exercised too.
    return _scheduler_examples().flatmap(
        lambda base: st.fixed_dictionaries({
            **{k: st.just(v) for k, v in base.items()},
            "shards": st.sampled_from((0, 2, 4)),
        })
    )


def _check_querytrace(example: Mapping[str, Any]) -> None:
    import math

    from repro.resilience.engine import ResilientScheduler
    from repro.resilience.faults import FaultPlan
    from repro.resilience.server import Replica
    from repro.runtime.scheduler import BatchingPolicy
    from repro.telemetry.querytrace import COMPONENTS, QueryTraceCapture

    stm = _synthetic_stm(example["base_ms"])
    cheap = _synthetic_stm(example["base_ms"], scale=0.25)
    names = [f"r{i}" for i in range(example["num_replicas"])]
    horizon = 2.0 * example["num_queries"] / example["qps"] + 1.0
    plan = FaultPlan.synthesize(
        example["seed"], names, horizon, **example["faults"]
    )
    gather = None
    if example["shards"]:
        from repro.distserve.gather import GatherPolicy, ShardGatherModel
        from repro.distserve.placement import build_layout
        from repro.distserve.scenario import synthesize_shard_plan
        from repro.models import build_model

        layout = build_layout(build_model("ncf"), example["shards"])
        shard_plan = synthesize_shard_plan(
            example["seed"], layout.names, horizon, target=layout.names[0]
        )
        gather = ShardGatherModel(
            layout, policy=GatherPolicy.none(),
            fault_plan=shard_plan, seed=example["seed"],
        )

    def run(capture):
        return ResilientScheduler(
            [Replica(n, stm, degraded_model=cheap) for n in names],
            BatchingPolicy(max_batch=example["max_batch"]),
            resilience=_build_policy(example["policy"]),
            fault_plan=plan,
            seed=example["seed"],
            gather=gather,
            querytrace=capture,
        ).run(example["qps"], num_queries=example["num_queries"])

    base = run(None)
    qt = QueryTraceCapture()  # default: keep every completed query
    traced = run(qt)
    _require(
        np.array_equal(base.latencies_s, traced.latencies_s),
        "query-trace capture perturbed latencies (observational "
        "contract broken)",
    )
    _require(
        base.batch_sizes == traced.batch_sizes,
        "query-trace capture perturbed batch assembly",
    )
    _require(
        len(qt.records) == traced.completed,
        f"keep-all capture retained {len(qt.records)} records for "
        f"{traced.completed} completed queries",
    )
    for qid in sorted(qt.records):
        rec = qt.records[qid]
        _require(
            all(rec.components[k] >= 0.0 for k in COMPONENTS),
            f"query {qid}: negative component in {rec.components!r}",
        )
        _require(
            rec.conservation_ok(),
            f"query {qid}: components sum to "
            f"{math.fsum(rec.components[k] for k in COMPONENTS)!r} "
            f"but measured latency is {rec.latency!r}",
        )


# -- 6. single-shard colocation bit-identical ------------------------------


def _colocation_examples() -> st.SearchStrategy:
    return st.fixed_dictionaries({
        "model": st.sampled_from(("ncf", "rm1", "rm2", "din")),
        "num_queries": st.integers(20, 120),
        "qps": st.sampled_from((100.0, 500.0)),
        "max_batch": st.sampled_from((8, 64)),
        "seed": st.integers(0, 2**16),
    })


def _check_colocation(example: Mapping[str, Any]) -> None:
    from repro.distserve.gather import GatherPolicy, ShardGatherModel
    from repro.distserve.placement import build_layout
    from repro.models import build_model
    from repro.resilience.engine import ResilientScheduler
    from repro.resilience.faults import FaultPlan
    from repro.resilience.server import Replica
    from repro.runtime.scheduler import BatchingPolicy, ServiceTimeModel
    from repro.runtime.session import InferenceSession

    model = build_model(example["model"])
    session = InferenceSession(model, "broadwell")
    stm = ServiceTimeModel.from_profiles([
        session.profile(b) for b in (1, 64)
    ])
    gather = ShardGatherModel(
        build_layout(model, 1),
        policy=GatherPolicy.full(),
        fault_plan=FaultPlan.none(),
        seed=example["seed"],
    )

    def run(with_gather):
        return ResilientScheduler(
            [Replica("primary", stm)],
            BatchingPolicy(max_batch=example["max_batch"]),
            seed=example["seed"],
            gather=gather if with_gather else None,
        ).run(example["qps"], num_queries=example["num_queries"])

    base = run(False)
    sharded = run(True)
    _require(
        np.array_equal(base.latencies_s, sharded.latencies_s),
        "single-shard colocated gather changed latencies vs plain path",
    )
    _require(
        base.batch_sizes == sharded.batch_sizes,
        "single-shard colocated gather changed batch assembly",
    )
    _require(
        sharded.gather_counts == {},
        f"colocated layout performed remote gathers: "
        f"{sharded.gather_counts}",
    )


# -- 7. TimeSeries shard-merge losslessness --------------------------------


def _timeseries_examples() -> st.SearchStrategy:
    # Track names are disjoint per op: a TimeSeries track has one kind
    # for its whole life (counter vs histogram).
    names = {"count": ("arrivals", "errors"), "observe": ("latency_ms",)}
    event = st.sampled_from(("count", "observe")).flatmap(
        lambda op: st.fixed_dictionaries({
            "op": st.just(op),
            "track": st.sampled_from(names[op]),
            "t": st.floats(
                0.0, 100.0, allow_nan=False, allow_infinity=False
            ),
            # Integer-valued amounts keep float accumulation exact, so
            # the single-series and shard-merged paths must agree
            # bitwise.
            "value": st.integers(1, 1000),
        })
    )
    return st.fixed_dictionaries({
        "window_s": st.sampled_from((0.5, 1.0, 10.0)),
        "num_shards": st.integers(2, 4),
        "events": st.lists(event, min_size=1, max_size=40),
    })


def _check_timeseries(example: Mapping[str, Any]) -> None:
    from repro.telemetry.timeseries import TimeSeries

    def apply(ts, event):
        if event["op"] == "count":
            ts.count(event["track"], event["t"], float(event["value"]))
        else:
            ts.observe(event["track"], event["t"], float(event["value"]))

    single = TimeSeries(example["window_s"])
    shards = [
        TimeSeries(example["window_s"])
        for _ in range(example["num_shards"])
    ]
    # Counters are additive cells — exact under any split. Histograms
    # are lossless under *window-split* sharding (each window's events
    # wholly on one shard, as per-replica sharding produces), so route
    # observations by window ownership.
    for i, event in enumerate(example["events"]):
        apply(single, event)
        if event["op"] == "count":
            shard = shards[i % len(shards)]
        else:
            shard = shards[single.window_index(event["t"]) % len(shards)]
        apply(shard, event)
    merged = TimeSeries(example["window_s"])
    for shard in shards:
        merged.merge(shard)
    single_state = json.dumps(single.to_state(), sort_keys=True)
    merged_state = json.dumps(merged.to_state(), sort_keys=True)
    _require(
        single_state == merged_state,
        "shard-merged TimeSeries state differs from the single-series "
        "state on integer-valued inputs",
    )


# -- 8. ServiceTimeModel extrapolation past the top knot -------------------


def _service_time_examples() -> st.SearchStrategy:
    # An amortizing service curve: a fixed cost plus a per-query cost
    # growing at most linearly, so per-query time never rises with
    # batch; communication is linear in batch.
    return st.fixed_dictionaries({
        "batches": st.lists(
            st.integers(1, 1 << 14), min_size=2, max_size=6, unique=True
        ),
        "overhead_s": st.floats(0.0, 1e-2),
        "per_query_s": st.floats(1e-7, 1e-3),
        "exponent": st.floats(0.5, 1.0),
        "comm_per_query_s": st.floats(0.0, 1e-4),
        "probes": st.lists(st.integers(1, 1 << 24), min_size=1, max_size=12),
    })


def _check_service_time(example: Mapping[str, Any]) -> None:
    from repro.runtime.scheduler import ServiceTimeModel
    from repro.runtime.session import InferenceProfile

    batches = sorted(example["batches"])
    stm = ServiceTimeModel.from_profiles([
        InferenceProfile(
            model_name="fuzz", platform_name="sim", platform_kind="cpu",
            batch_size=b,
            compute_seconds=example["overhead_s"]
            + example["per_query_s"] * b ** example["exponent"],
            data_comm_seconds=example["comm_per_query_s"] * b,
            op_time_by_kind={},
        )
        for b in batches
    ])
    top, prev = batches[-1], batches[-2]
    probes = sorted(set(example["probes"]) | {top, 2 * top})
    for name, curve in (("seconds", stm.seconds),
                        ("comm_seconds", stm.comm_seconds)):
        values = [curve(b) for b in probes]
        for i in range(1, len(probes)):
            _require(
                values[i - 1] <= values[i] * (1 + 1e-12),
                f"{name} fell from {values[i - 1]!r} at batch "
                f"{probes[i - 1]} to {values[i]!r} at batch {probes[i]} "
                f"(knots {batches})",
            )
    marginal = (stm.seconds(top) - stm.seconds(prev)) / (top - prev)
    for b in probes:
        if b > top:
            _require(
                b / stm.seconds(b) <= (1 + 1e-9) / marginal,
                f"throughput {b / stm.seconds(b)!r} QPS at batch {b} "
                f"exceeds 1/marginal = {1 / marginal!r} above the top knot "
                f"{top} (knots {batches})",
            )


# -- 9. CLI argv: exit 0, 1 or 2, never a traceback -------------------------

#: Stands for the per-check scratch directory in drawn argv, so examples
#: stay JSON and their digest does not depend on the temp path.
_TMP = "{tmp}"
_PATHS = (
    f"{_TMP}/missing", f"{_TMP}/empty", f"{_TMP}/ledger", f"{_TMP}/out.json",
)
_COUNTS = ("0", "-3", "x", "1", "16", "64")

#: Values drawn per option dest: a few valid ones kept small (cheap
#: models, <= 200 queries), bad counts, unknown names and missing paths.
#: Dests not listed draw from their argparse ``choices`` plus "bogus".
_ARGV_VALUES: Dict[str, Tuple[str, ...]] = {
    "model": ("ncf", "rm1", "bert"),
    "models": ("ncf", "din", "bert"),
    "platform": ("broadwell", "t4", "tpu"),
    "platforms": ("broadwell", "t4", "tpu"),
    "fallback": ("none", "broadwell", "tpu"),
    "batch": _COUNTS,
    "batch_size": _COUNTS,
    "batches": _COUNTS,
    "queries": ("0", "-3", "x", "1", "50", "200"),
    "max_queries": ("0", "-1", "5"),
    "top_queries": ("0", "-1", "5"),
    "shards": ("0", "1", "2", "4"),
    "replicas": ("0", "1", "2"),
    "hot_k": ("-1", "0", "64"),
    "seed": ("0", "7", "-1"),
    "qps": ("-5", "0", "nan", "200", "2000"),
    "alpha": ("-1", "0", "1.1"),
    "deadline_ms": ("-1", "0", "5"),
    "sample_rate": ("-0.5", "0.1", "2"),
    "slowdown_multiplier": ("0", "3", "nan"),
    "tail_threshold_ms": ("-1", "1"),
    "tolerance": ("-1", "0.05", "inf"),
    "window_ms": ("-1", "0", "5"),
    "what_if": ("all", "queue_wait", "fault_windows", "bogus"),
    "select": ("REP001", "REP999"),
    # Fuzzing inside the fuzz would recurse: only unknown contracts and
    # budgets that are no budget.
    "contract": ("nope",),
    "budget": ("-1", "0"),
    "paths": (f"{_TMP}/mod.py", f"{_TMP}/missing"),
    "rules": (f"{_TMP}/rules.toml", f"{_TMP}/missing"),
    **{dest: _PATHS for dest in (
        "against", "baseline", "candidate", "corpus_dir", "metrics_output",
        "out", "output", "record_dir", "records", "report", "trace",
    )},
}

#: Options always drawn, so no valid run writes outside the scratch
#: directory, fuzzes, or falls back to a large default.
_ARGV_ALWAYS: Dict[str, Tuple[str, ...]] = {
    "explain": ("queries",),
    "fuzz": ("contract",),
    "lint": ("paths",),
    "metrics": ("queries",),
    "monitor": ("queries",),
    "optimal": ("batches",),
    "record": ("out", "models", "queries"),
    "resilience": ("queries",),
    "shard": ("queries",),
    "sweep": ("models",),
    "trace": ("output", "queries"),
    "verify": ("models",),
}

_ARGV_RULES = """[[rule]]
name = "tail latency budget"
metric = "p99_latency_s"
max = 0.05
severity = "fail"
"""


def _argv_values(action) -> st.SearchStrategy:
    """The argv words one argparse action contributes."""
    if action.nargs == 0:
        return st.just([])
    pool = _ARGV_VALUES.get(action.dest)
    if pool is None:
        pool = tuple(action.choices or ()) + ("bogus",)
    one = st.sampled_from(pool)
    if action.nargs in ("*", "+"):
        words = st.lists(one, min_size=1, max_size=3)
    elif action.nargs == "?":
        words = st.lists(one, max_size=1)
    else:
        words = one.map(lambda v: [v])
    if action.option_strings:
        flag = action.option_strings[-1]
        return words.map(lambda ws: [flag, *ws])
    return words


def _argv_examples() -> st.SearchStrategy:
    import argparse

    from repro.cli import build_parser

    (table,) = [
        a.choices for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]

    def for_command(name: str) -> st.SearchStrategy:
        if name not in table:
            return st.just([name])
        actions = [a for a in table[name]._actions
                   if not isinstance(a, argparse._HelpAction)]
        always = _ARGV_ALWAYS.get(name, ())
        fixed = [_argv_values(a) for a in actions
                 if not a.option_strings or a.required or a.dest in always]
        optional = [a for a in actions if a.option_strings]
        extra = st.lists(
            st.sampled_from(optional).flatmap(_argv_values), max_size=3
        ) if optional else st.just([])
        unknown = st.sampled_from(([], [], [], ["--bogus"]))
        return st.tuples(st.tuples(*fixed), extra, unknown).map(
            lambda parts: [name] + [
                w for p in (*parts[0], *parts[1], parts[2]) for w in p
            ]
        )

    names = sorted(table) + ["bogus"]
    return st.sampled_from(names).flatmap(for_command).map(
        lambda argv: {"argv": argv}
    )


def _check_cli_argv(example: Mapping[str, Any]) -> None:
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from repro.cli import main

    shown = " ".join(example["argv"])
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "empty").mkdir()
        (Path(tmp) / "mod.py").write_text("VALUE = 1\n", encoding="utf-8")
        (Path(tmp) / "rules.toml").write_text(_ARGV_RULES, encoding="utf-8")
        if any(f"{_TMP}/ledger" in word for word in example["argv"]):
            from repro.ledger import RunLedger, record_profile

            RunLedger(Path(tmp) / "ledger").write(
                record_profile("ncf", "broadwell", 1)
            )
        argv = [word.replace(_TMP, tmp) for word in example["argv"]]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:
            raise ContractViolation(
                f"repro {shown} ended in a traceback: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    _require(code in (0, 1, 2), f"repro {shown} exited {code!r}")


# -- registry --------------------------------------------------------------

CONTRACTS: Tuple[Contract, ...] = (
    Contract(
        "lowering_agreement",
        "framework lowerings redistribute per-kind time without changing "
        "the total (modulo runtime_overhead) or going negative",
        _lowering_examples, _check_lowering, cost=0.01,
    ),
    Contract(
        "optimizer_numerics",
        "optimize(graph) preserves executed outputs within documented "
        "float tolerance on random models and batches",
        _optimizer_examples, _check_optimizer, cost=0.05,
    ),
    Contract(
        "verifier_spec_inference",
        "verifier-inferred output specs match executed output names, "
        "shapes, and dtypes",
        _verifier_examples, _check_verifier, cost=0.03,
    ),
    Contract(
        "ledger_byte_stability",
        "run-ledger records are byte-stable across re-recordings and "
        "JSON round trips",
        _ledger_examples, _check_ledger, cost=0.15,
    ),
    Contract(
        "scheduler_conservation",
        "completed + shed + dropped == issued under random fault plans "
        "and policy mixes",
        _scheduler_examples, _check_scheduler, cost=0.02,
    ),
    Contract(
        "latency_decomposition_conservation",
        "query-trace capture is bit-neutral to the schedule and every "
        "retained decomposition sums exactly (==) to its measured "
        "latency under random fault plans x policy mixes x shard "
        "layouts",
        _querytrace_examples, _check_querytrace, cost=0.05,
    ),
    Contract(
        "single_shard_colocation",
        "a colocated single-shard gather layout is bit-identical to the "
        "plain scheduler path",
        _colocation_examples, _check_colocation, cost=0.1,
    ),
    Contract(
        "timeseries_merge_lossless",
        "shard-merged TimeSeries state is byte-identical to the "
        "single-series state on exactly-representable inputs",
        _timeseries_examples, _check_timeseries, cost=0.01,
    ),
    Contract(
        "service_time_extrapolation",
        "ServiceTimeModel seconds and comm_seconds never fall as the batch "
        "grows, past the top knot too, and throughput above the top knot "
        "stays <= 1/marginal cost, on random knots of an amortizing "
        "service curve",
        _service_time_examples, _check_service_time, cost=0.005,
    ),
    Contract(
        "cli_argv",
        "repro.cli.main exits 0, 1 or 2 and never ends in a traceback on "
        "argv drawn from the parser's own subcommand and option table",
        _argv_examples, _check_cli_argv, cost=0.1,
    ),
)


def contract_by_name(name: str) -> Contract:
    for contract in CONTRACTS:
        if contract.name == name:
            return contract
    known = [c.name for c in CONTRACTS]
    raise KeyError(f"unknown contract {name!r}; available: {known}")

"""Workload-table caches and the profile entry points.

Every profile — one cell from :meth:`InferenceSession.profile
<repro.runtime.session.InferenceSession.profile>`, or a whole
(models x platforms x batches) grid from :class:`~repro.core.SpeedupStudy`
— is an evaluation of the vectorized cost models
(:func:`~repro.uarch.vectorized.profile_cells_cpu`,
:func:`~repro.gpusim.vectorized.profile_cells_gpu`) over
:class:`~repro.ops.tables.WorkloadTable` rows:

1. A table is extracted once per ``(model, batch)`` from the cached
   graph and kept in a process-level LRU. Tables are
   platform-independent, and each caches its own one-cell stack, so a
   cell profiled on four platforms builds its table, slot views and GPU
   traffic once.
2. A grid sweep pads all its tables into one
   :class:`~repro.ops.tables.StackedTables` and evaluates each platform
   once over every cell.

No tensor data is ever allocated: tables read only specs and workload
descriptors.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.graph import Graph
from repro.hw import PlatformSpec, platform_by_name
from repro.ops.tables import (
    StackedTables,
    WorkloadTable,
    stack_tables,
    table_from_graph,
)
from repro.runtime import graph_cache
from repro.runtime.session import InferenceProfile

__all__ = [
    "WorkloadTable",
    "StackedTables",
    "get_workload_table",
    "table_from_graph",
    "stack_tables",
    "profile_spec",
    "profile_spec_sweep",
    "clear_spec_caches",
    "spec_cache_stats",
]


#: Workload tables by ``graph_cache.cache_key``: platform-independent,
#: so one entry serves every platform of a (model, batch) cell.
_TABLES = graph_cache.LRUCache(maxsize=512)


def _table(
    model,
    batch: int,
    signature: Optional[Tuple] = None,
    graph: Optional[Graph] = None,
) -> WorkloadTable:
    """The table for ``(model, batch)``, built on a miss from ``graph``
    (or from the graph cache when none is given)."""
    if signature is None:
        signature = graph_cache.model_signature(model)

    def build() -> WorkloadTable:
        source = (
            graph if graph is not None
            else graph_cache.get_graph(model, batch, signature)
        )
        input_nbytes = [
            desc.spec.nbytes for desc in model.input_descriptions(batch)
        ]
        return table_from_graph(
            source,
            input_nbytes,
            model_name=getattr(model, "name", source.name),
            batch=batch,
        )

    key = graph_cache.cache_key(model, batch, signature)
    return _TABLES.lookup(key, build)[0]


def get_workload_table(model, batch: int) -> WorkloadTable:
    """Fetch (or build) the workload table for ``(model, batch)``."""
    return _table(model, batch)


def _tables_for_sweep(
    models: Mapping[str, object], batch_sizes: Sequence[int]
) -> Tuple[List[Tuple[str, int]], List[WorkloadTable]]:
    """Tables for the full grid; one signature computation per model.

    ``graph_signature()`` walks the whole model config, which dominates
    warm lookups when repeated per (model, batch) cell.
    """
    pairs = [(name, batch) for name in models for batch in batch_sizes]
    signatures = {
        name: graph_cache.model_signature(models[name]) for name in models
    }
    tables = [
        _table(models[name], batch, signature=signatures[name])
        for name, batch in pairs
    ]
    return pairs, tables


def clear_spec_caches() -> None:
    """Drop cached workload tables and their hit/miss counts."""
    _TABLES.clear()


def spec_cache_stats() -> Dict[str, int]:
    return {
        "hits": _TABLES.hits,
        "misses": _TABLES.misses,
        "size": len(_TABLES),
    }


# -- top-level profiling API -------------------------------------------------


def _to_inference_profile(
    raw, platform: PlatformSpec, cell: WorkloadTable
) -> InferenceProfile:
    cpu = platform.kind == "cpu"
    return InferenceProfile(
        model_name=cell.model_name,
        platform_name=platform.name,
        platform_kind=platform.kind,
        batch_size=cell.batch,
        compute_seconds=raw.compute_seconds,
        data_comm_seconds=(
            raw.data_load_seconds if cpu else raw.data_comm_seconds
        ),
        op_time_by_kind=raw.time_by_kind(),
        events=raw.events if cpu else None,
        raw=raw,
    )


def _evaluate(
    stacked: StackedTables, platform: PlatformSpec, constants=None
) -> List[InferenceProfile]:
    """Evaluate every stacked cell on one platform."""
    if platform.kind == "cpu":
        from repro.uarch.vectorized import profile_cells_cpu

        raws = profile_cells_cpu(stacked, platform, constants)
    else:
        if constants is not None:
            raise ValueError("uarch constants only apply to CPU platforms")
        from repro.gpusim.vectorized import profile_cells_gpu

        raws = profile_cells_gpu(stacked, platform)
    return [
        _to_inference_profile(raw, platform, cell)
        for raw, cell in zip(raws, stacked.cells)
    ]


def profile_spec(
    model,
    platform: Union[str, PlatformSpec],
    batch: int,
    constants=None,
) -> InferenceProfile:
    """Profile one (model, platform, batch) cell.

    The graph is looked up on every call, so graph-cache accounting and
    verification are those of any graph lookup; the table (and its
    one-cell stack) comes from the table cache.
    """
    spec = platform_by_name(platform) if isinstance(platform, str) else platform
    signature = graph_cache.model_signature(model)
    graph = graph_cache.get_graph(model, batch, signature)
    table = _table(model, batch, signature, graph)
    return _evaluate(table.stacked(), spec, constants)[0]


def profile_spec_sweep(
    models: Mapping[str, object],
    platform_names: Sequence[str],
    batch_sizes: Sequence[int],
) -> Dict[Tuple[str, str, int], InferenceProfile]:
    """Profiles for a full sweep grid.

    All (model, batch) tables are stacked once; each platform is then a
    single vectorized evaluation over every cell. The returned dict is
    keyed and ordered exactly like the cell-by-cell sweep merge:
    ``(model, platform, batch)`` in canonical serial order.
    """
    pairs, tables = _tables_for_sweep(models, batch_sizes)
    stacked = stack_tables(tables)
    by_platform = {
        name: _evaluate(stacked, platform_by_name(name))
        for name in platform_names
    }

    index = {pair: i for i, pair in enumerate(pairs)}
    profiles: Dict[Tuple[str, str, int], InferenceProfile] = {}
    for model_name in models:
        for platform_name in platform_names:
            for batch in batch_sizes:
                profiles[(model_name, platform_name, batch)] = by_platform[
                    platform_name
                ][index[(model_name, batch)]]
    if telemetry.enabled():
        telemetry.get_registry().counter(
            "specmode.sweeps", platforms=",".join(platform_names)
        ).inc()
    return profiles

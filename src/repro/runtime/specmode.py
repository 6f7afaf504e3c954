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
   once over every cell; repeated identical sweeps come from a memo.

No tensor data is ever allocated: tables read only specs and workload
descriptors.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
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


class _TableCache:
    """Bounded LRU of workload tables, keyed like the graph cache."""

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self._tables: "OrderedDict[Tuple, WorkloadTable]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(
        self,
        model,
        batch: int,
        signature: Optional[Tuple] = None,
        graph: Optional[Graph] = None,
    ) -> WorkloadTable:
        """The table for ``(model, batch)``, built on a miss from
        ``graph`` (or from the graph cache when none is given)."""
        if signature is None:
            signature = graph_cache.model_signature(model)
        key = (getattr(model, "name", type(model).__name__), batch, signature)
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                self._hits += 1
                return table
        if graph is None:
            graph = graph_cache.get_graph(model, batch, signature)
        input_nbytes = [
            desc.spec.nbytes for desc in model.input_descriptions(batch)
        ]
        table = table_from_graph(
            graph,
            input_nbytes,
            model_name=getattr(model, "name", graph.name),
            batch=batch,
        )
        with self._lock:
            self._misses += 1
            self._tables[key] = table
            while len(self._tables) > self.maxsize:
                self._tables.popitem(last=False)
        return table

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self._hits = 0
            self._misses = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._tables),
            }


_TABLES = _TableCache()


class _SweepMemo:
    """Bounded memo of stacked tables + per-platform evaluations.

    Keyed by the identity of the (LRU-cached, immutable) workload
    tables, with strong references held so ids stay stable. A model
    edit changes its ``graph_signature`` and therefore misses the table
    cache, which in turn misses here — no staleness. Entries cache the
    stacked arrays and, per platform, the evaluated profile lists, so
    repeated identical sweeps (monitor loops, benchmark arms) skip the
    vectorized evaluation.
    """

    def __init__(self, maxsize: int = 4) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._lock = threading.Lock()

    def entry(
        self, tables: Sequence[WorkloadTable]
    ) -> Tuple[StackedTables, Dict[str, List[InferenceProfile]]]:
        key = tuple(id(t) for t in tables)
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
                return found[1], found[2]
        stacked = stack_tables(tables)
        evals: Dict[str, List[InferenceProfile]] = {}
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                return found[1], found[2]
            self._entries[key] = (list(tables), stacked, evals)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return stacked, evals

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_SWEEPS = _SweepMemo()


def get_workload_table(model, batch: int) -> WorkloadTable:
    """Fetch (or build) the workload table for ``(model, batch)``."""
    return _TABLES.get(model, batch)


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
        _TABLES.get(models[name], batch, signature=signatures[name])
        for name, batch in pairs
    ]
    return pairs, tables


def clear_spec_caches() -> None:
    """Drop cached workload tables and sweep evaluations."""
    _TABLES.clear()
    _SWEEPS.clear()


def spec_cache_stats() -> Dict[str, int]:
    stats = _TABLES.stats()
    stats["sweep_entries"] = len(_SWEEPS)
    return stats


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
    table = _TABLES.get(model, batch, signature, graph)
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

    Repeated sweeps over unchanged models return memoized profile
    objects (the tables are immutable and the evaluation is a pure
    function of table + platform); ``clear_spec_caches`` resets this.
    """
    pairs, tables = _tables_for_sweep(models, batch_sizes)
    stacked, evals = _SWEEPS.entry(tables)

    by_platform: Dict[str, List[InferenceProfile]] = {}
    for platform_name in platform_names:
        profs = evals.get(platform_name)
        if profs is None:
            profs = _evaluate(stacked, platform_by_name(platform_name))
            evals[platform_name] = profs
        by_platform[platform_name] = profs

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

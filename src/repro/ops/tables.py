"""Workload tables: the cost models' input, as flat arrays.

Both cost evaluators (:func:`repro.uarch.vectorized.profile_cells_cpu`
and :func:`repro.gpusim.vectorized.profile_cells_gpu`) read operator
work from tables rather than from :class:`OpWorkload` objects:

1. A :class:`WorkloadTable` holds one graph's hardware-neutral
   quantities — one row per node, in topological order — as float64 /
   int64 arrays. It is built from the same ``op.workload(input_specs)``
   calls a graph walk would make, so no value is re-derived.
2. :class:`StackedTables` pads any number of tables into
   ``(cells, nodes)`` and ``(cells, nodes, streams)`` arrays, so one
   evaluation covers every cell of a platform at once. Profiling one
   graph is the one-cell case (:meth:`WorkloadTable.stacked`).

No tensor data is ever read: tables need only specs and workload
descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.ops.workload import RANDOM, OpWorkload

__all__ = [
    "WorkloadTable",
    "StackedTables",
    "table_from_graph",
    "table_from_workloads",
    "stack_tables",
]


@dataclass(eq=False)
class WorkloadTable:
    """Per-(model, batch) workload quantities as flat arrays.

    One entry per graph node, in topological order; stream quantities
    are slot-major ``(max_streams, n)`` — slot ``k`` holds each node's
    ``k``-th stream — with a validity mask (operators touch between one
    and a handful of memory streams).
    """

    model_name: str
    graph_name: str
    batch: int
    n: int
    max_streams: int
    names: List[str]
    kinds: List[str]
    #: ``OpWorkload.op_kind`` per node (usually == ``kinds``; GPU device
    #: profiles report the workload's kind).
    wl_kinds: List[str]
    unique_blocks: List[int]
    input_nbytes: Tuple[int, ...]
    # -- per-node arrays (n,) ------------------------------------------------
    flops: np.ndarray  # int64
    vector_fraction: np.ndarray
    scalar_ops: np.ndarray  # int64
    code_bytes: np.ndarray  # int64
    entries: np.ndarray  # effective_code_entries, int64
    branches: np.ndarray  # int64
    branch_entropy: np.ndarray
    kernel_launches: np.ndarray  # int64
    bytes_written: np.ndarray  # int64
    uses_fma: np.ndarray  # bool
    # -- per-stream arrays (max_streams, n) ----------------------------------
    s_footprint: np.ndarray  # int64
    s_accesses: np.ndarray  # int64
    s_granule: np.ndarray  # int64
    s_locality: np.ndarray
    s_parallelism: np.ndarray  # int64
    s_is_write: np.ndarray  # bool
    s_is_random: np.ndarray  # bool
    s_valid: np.ndarray  # bool
    _stacked: Optional["StackedTables"] = field(default=None, repr=False)

    @property
    def total_input_bytes(self) -> int:
        return sum(self.input_nbytes)

    def stacked(self) -> "StackedTables":
        """This table as a one-cell stack, built once.

        Cached tables are profiled on every platform; keeping the stack
        (and the slot views and GPU traffic it derives lazily, which do
        not depend on the platform) makes each further platform a pure
        evaluation.
        """
        if self._stacked is None:
            self._stacked = stack_tables([self])
        return self._stacked


def table_from_workloads(
    graph_name: str,
    names: Sequence[str],
    kinds: Sequence[str],
    workloads: Sequence[OpWorkload],
    input_nbytes: Sequence[int] = (),
    model_name: Optional[str] = None,
    batch: int = 0,
) -> WorkloadTable:
    """Tabulate per-node workloads (one row per workload, in order)."""
    n = len(workloads)
    max_streams = max([len(w.streams) for w in workloads] + [1])

    i64 = lambda vals: np.asarray(vals, dtype=np.int64)  # noqa: E731
    f64 = lambda vals: np.asarray(vals, dtype=np.float64)  # noqa: E731

    s_shape = (max_streams, n)
    s_footprint = np.zeros(s_shape, dtype=np.int64)
    s_accesses = np.zeros(s_shape, dtype=np.int64)
    s_granule = np.zeros(s_shape, dtype=np.int64)
    s_locality = np.zeros(s_shape, dtype=np.float64)
    s_parallelism = np.ones(s_shape, dtype=np.int64)
    s_is_write = np.zeros(s_shape, dtype=bool)
    s_is_random = np.zeros(s_shape, dtype=bool)
    s_valid = np.zeros(s_shape, dtype=bool)
    for j, w in enumerate(workloads):
        for k, s in enumerate(w.streams):
            s_footprint[k, j] = s.footprint_bytes
            s_accesses[k, j] = s.accesses
            s_granule[k, j] = s.granule_bytes
            s_locality[k, j] = s.locality
            s_parallelism[k, j] = s.parallelism
            s_is_write[k, j] = s.is_write
            s_is_random[k, j] = s.pattern == RANDOM
            s_valid[k, j] = True

    return WorkloadTable(
        model_name=model_name if model_name is not None else graph_name,
        graph_name=graph_name,
        batch=batch,
        n=n,
        max_streams=max_streams,
        names=list(names),
        kinds=list(kinds),
        wl_kinds=[w.op_kind for w in workloads],
        unique_blocks=[w.unique_code_blocks for w in workloads],
        input_nbytes=tuple(int(b) for b in input_nbytes),
        flops=i64([w.flops for w in workloads]),
        vector_fraction=f64([w.vector_fraction for w in workloads]),
        scalar_ops=i64([w.scalar_ops for w in workloads]),
        code_bytes=i64([w.code_bytes for w in workloads]),
        entries=i64([w.effective_code_entries for w in workloads]),
        branches=i64([w.branches for w in workloads]),
        branch_entropy=f64([w.branch_entropy for w in workloads]),
        kernel_launches=i64([w.kernel_launches for w in workloads]),
        bytes_written=i64([w.bytes_written for w in workloads]),
        uses_fma=np.asarray([w.uses_fma for w in workloads], dtype=bool),
        s_footprint=s_footprint,
        s_accesses=s_accesses,
        s_granule=s_granule,
        s_locality=s_locality,
        s_parallelism=s_parallelism,
        s_is_write=s_is_write,
        s_is_random=s_is_random,
        s_valid=s_valid,
    )


def table_from_graph(
    graph,
    input_nbytes: Sequence[int],
    model_name: Optional[str] = None,
    batch: int = 0,
) -> WorkloadTable:
    """Extract a workload table from an already-built graph."""
    nodes = graph.nodes
    workloads = [
        node.op.workload([graph.spec_of(s) for s in node.inputs])
        for node in nodes
    ]
    return table_from_workloads(
        graph.name,
        [node.name for node in nodes],
        [node.kind for node in nodes],
        workloads,
        input_nbytes,
        model_name=model_name,
        batch=batch,
    )


class _Streams(NamedTuple):
    """Stream quantities and the masks derived from them, slot-major
    ``(streams, cells, nodes)``: slot ``k`` holds each node's ``k``-th
    stream, and evaluators visit the slots in order.

    Everything here is platform-independent, so the evaluators share it
    across every platform of a sweep (and across repeated sweeps via
    the stacked-tables memo) instead of re-deriving masks per platform.
    """

    footprint: np.ndarray
    accesses: np.ndarray
    granule: np.ndarray
    locality: np.ndarray
    parallelism: np.ndarray
    valid: np.ndarray
    is_write: np.ndarray
    is_random: np.ndarray
    sqrt_par: np.ndarray  # sqrt(max(parallelism, 1))
    total: np.ndarray  # accesses * granule
    live_acc: np.ndarray  # valid & accesses > 0
    w: np.ndarray  # valid writes
    r: np.ndarray  # valid random reads
    q: np.ndarray  # valid sequential reads
    rmask: np.ndarray  # live random reads
    smask: np.ndarray  # live sequential reads
    any_valid: List[bool]  # per slot
    any_live: List[bool]  # per slot


@dataclass(eq=False)
class StackedTables:
    """All sweep cells padded into shared arrays.

    Node arrays are ``(cells, max_nodes)``; stream arrays are slot-major
    ``(max_streams, cells, max_nodes)``. Padding lanes are masked by
    ``valid`` — evaluators compute over the full arrays (junk lanes may
    produce inf/nan under ``np.errstate(all="ignore")``) and select
    through the mask at every accumulation, so padding never
    contaminates results.
    """

    cells: List[WorkloadTable]
    valid: np.ndarray
    flops: np.ndarray
    vector_fraction: np.ndarray
    scalar_ops: np.ndarray
    code_bytes: np.ndarray
    entries: np.ndarray
    branches: np.ndarray
    branch_entropy: np.ndarray
    kernel_launches: np.ndarray
    bytes_written: np.ndarray
    uses_fma: np.ndarray
    s_footprint: np.ndarray
    s_accesses: np.ndarray
    s_granule: np.ndarray
    s_locality: np.ndarray
    s_parallelism: np.ndarray
    s_is_write: np.ndarray
    s_is_random: np.ndarray
    s_valid: np.ndarray
    _streams: Optional[_Streams] = field(default=None, repr=False)
    _gpu_traffic: Optional[Tuple[np.ndarray, ...]] = field(
        default=None, repr=False
    )

    def streams(self) -> _Streams:
        """The stream arrays plus their derived masks, built once per
        stack (one array per quantity, so a stack holds a fixed number
        of arrays however wide its widest operator is)."""
        if self._streams is None:
            acc, valid = self.s_accesses, self.s_valid
            is_write, is_random = self.s_is_write, self.s_is_random
            nonw = valid & ~is_write
            live_acc = valid & (acc > 0)
            read = live_acc & ~is_write
            self._streams = _Streams(
                footprint=self.s_footprint,
                accesses=acc,
                granule=self.s_granule,
                locality=self.s_locality,
                parallelism=self.s_parallelism,
                valid=valid,
                is_write=is_write,
                is_random=is_random,
                sqrt_par=np.sqrt(np.maximum(self.s_parallelism, 1)),
                total=acc * self.s_granule,
                live_acc=live_acc,
                w=valid & is_write,
                r=nonw & is_random,
                q=nonw & ~is_random,
                rmask=read & is_random,
                smask=read & ~is_random,
                any_valid=valid.any(axis=(1, 2)).tolist(),
                any_live=live_acc.any(axis=(1, 2)).tolist(),
            )
        return self._streams

    def gpu_traffic(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node ``(seq_bytes, rand_bytes, has_gather)`` DRAM terms.

        The GPU kernel model's stream walk is entirely platform
        independent, so it is computed once per stack and shared by
        every GPU evaluation. Streams with high locality hit the device
        L2: locality-covered re-touches cost at most one pass over the
        (touched part of the) footprint rather than the full access
        volume.
        """
        if self._gpu_traffic is None:
            st = self.streams()
            seq = np.zeros(self.valid.shape, dtype=np.float64)
            rand = np.zeros(self.valid.shape, dtype=np.float64)
            has_gather = np.zeros(self.valid.shape, dtype=bool)
            for s, any_valid in enumerate(st.any_valid):
                if not any_valid:
                    continue
                live, total, is_rand = st.valid[s], st.total[s], st.is_random[s]
                cached = np.minimum(st.footprint[s], total)
                loc = st.locality[s]
                traffic = loc * cached + (1.0 - loc) * total
                seq = seq + np.where(live & ~is_rand, traffic, 0.0)
                rand = rand + np.where(live & is_rand, traffic, 0.0)
                has_gather |= st.r[s]
            self._gpu_traffic = (seq, rand, has_gather)
        return self._gpu_traffic


_NODE_FIELDS = (
    "flops",
    "vector_fraction",
    "scalar_ops",
    "code_bytes",
    "entries",
    "branches",
    "branch_entropy",
    "kernel_launches",
    "bytes_written",
    "uses_fma",
)
_STREAM_FIELDS = (
    "s_footprint",
    "s_accesses",
    "s_granule",
    "s_locality",
    "s_parallelism",
    "s_is_write",
    "s_is_random",
    "s_valid",
)


def stack_tables(tables: Sequence[WorkloadTable]) -> StackedTables:
    """Pad per-cell tables into one stacked array set.

    One table needs no padding: its stack is views of its own arrays.
    """
    if not tables:
        raise ValueError("cannot stack an empty table list")
    cells = list(tables)
    if len(cells) == 1:
        (t,) = cells
        return StackedTables(
            cells=cells,
            valid=np.ones((1, t.n), dtype=bool),
            **{name: getattr(t, name)[None, :] for name in _NODE_FIELDS},
            **{name: getattr(t, name)[:, None, :] for name in _STREAM_FIELDS},
        )
    n_max = max(t.n for t in cells)
    s_max = max(t.max_streams for t in cells)
    shape = (len(cells), n_max)

    stacked: Dict[str, np.ndarray] = {}
    for name in _NODE_FIELDS:
        proto = getattr(cells[0], name)
        stacked[name] = np.zeros(shape, dtype=proto.dtype)
    for name in _STREAM_FIELDS:
        proto = getattr(cells[0], name)
        stacked[name] = np.zeros((s_max,) + shape, dtype=proto.dtype)
    valid = np.zeros(shape, dtype=bool)
    for i, t in enumerate(cells):
        valid[i, : t.n] = True
        for name in _NODE_FIELDS:
            stacked[name][i, : t.n] = getattr(t, name)
        for name in _STREAM_FIELDS:
            stacked[name][: t.max_streams, i, : t.n] = getattr(t, name)
    return StackedTables(cells=cells, valid=valid, **stacked)

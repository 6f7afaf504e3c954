"""Systems-platform evaluation (paper Section IV, Figs 3-5).

Sweeps (model x batch size x platform), computes speedups over the
Broadwell baseline, the optimal-platform grid, and the GPU
data-communication overhead decomposition.

The sweep is the hot path of the whole reproduction (every figure
starts from it), so :meth:`SpeedupStudy.run` can fan the
(model, platform) cells out over a thread or process pool. Profiles
are pure deterministic computation — lazy parameters mean nothing is
materialized, and ``rng_for`` seeds are content digests — so parallel
and serial sweeps produce identical results; the merge inserts
profiles in the canonical serial order.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.hw import PLATFORM_ORDER
from repro.models import MODEL_FACTORIES, RecommendationModel, build_all_models
from repro.runtime import InferenceProfile, InferenceSession
from repro.runtime.graph_cache import signature_digest
from repro.workloads import paper_batch_sizes

__all__ = [
    "SweepResult",
    "SpeedupStudy",
    "OptimalCell",
    "PROCESS_POOL_MIN_WORK",
    "shutdown_sweep_pools",
]

BASELINE_PLATFORM = "broadwell"

#: Minimum per-cell work (sum of profiled batch sizes) for ``mode=
#: "auto"`` to pick the process pool. Below this, round-tripping work
#: across process boundaries costs more than the profiling itself.
#: Persistent pools plus signature-based worker hydration (workers
#: rebuild graphs from their own graph cache instead of unpickling
#: them) removed the per-sweep setup cost, but the full paper grid
#: (per-cell work ~2.1e4) still measures ~1.4x slower under a warm
#: process pool than serial on a single-core host: the residual is
#: pure IPC — pickling 256 result profiles (~2 MB) back plus context
#: switching — so auto stays on threads, which share the graph cache
#: for free.
PROCESS_POOL_MIN_WORK = 200_000

# Sweep pools persist across SpeedupStudy.run calls: pool startup (and,
# for processes, interpreter spawn + imports) is comparable to the sweep
# itself at paper-grid sizes, so each (kind, workers) pool is created
# once and reused. `shutdown_sweep_pools` tears them down explicitly
# (tests, benchmark cold arms, interpreter exit hygiene).
_POOLS: Dict[Tuple[str, int], concurrent.futures.Executor] = {}
_POOLS_LOCK = threading.Lock()


def _get_pool(kind: str, workers: int) -> concurrent.futures.Executor:
    with _POOLS_LOCK:
        pool = _POOLS.get((kind, workers))
        if pool is None:
            if kind == "thread":
                pool = concurrent.futures.ThreadPoolExecutor(workers)
            else:
                pool = concurrent.futures.ProcessPoolExecutor(workers)
            _POOLS[(kind, workers)] = pool
        return pool


def _discard_pool(kind: str, workers: int) -> None:
    """Drop a broken pool so the next sweep builds a fresh one."""
    with _POOLS_LOCK:
        pool = _POOLS.pop((kind, workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_sweep_pools() -> None:
    """Shut down every persistent sweep executor."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


# Persistent pools must not outlive the interpreter's ability to join
# them: without this, process pools die noisily in weakref callbacks
# during shutdown.
atexit.register(shutdown_sweep_pools)


@dataclass
class SweepResult:
    """All profiles for one sweep, indexed by (model, platform, batch)."""

    profiles: Dict[Tuple[str, str, int], InferenceProfile]
    model_names: List[str]
    platform_names: List[str]
    batch_sizes: List[int]

    def profile(self, model: str, platform: str, batch: int) -> InferenceProfile:
        return self.profiles[(model, platform, batch)]

    def total_seconds(self, model: str, platform: str, batch: int) -> float:
        return self.profile(model, platform, batch).total_seconds

    def speedup(self, model: str, platform: str, batch: int) -> float:
        """End-to-end speedup over the Broadwell baseline (Fig 3)."""
        base = self.total_seconds(model, BASELINE_PLATFORM, batch)
        return base / self.total_seconds(model, platform, batch)

    def speedup_series(self, model: str, platform: str) -> List[Tuple[int, float]]:
        return [(b, self.speedup(model, platform, b)) for b in self.batch_sizes]

    def data_comm_fraction(self, model: str, platform: str, batch: int) -> float:
        """Share of end-to-end time in data communication (Fig 4)."""
        return self.profile(model, platform, batch).data_comm_fraction


@dataclass(frozen=True)
class OptimalCell:
    """One cell of the Fig 5 optimal-platform grid."""

    model: str
    batch_size: int
    platform: str
    speedup: float


class SpeedupStudy:
    """Runs and caches the full heterogeneous-platform sweep."""

    def __init__(
        self,
        models: Optional[Mapping[str, RecommendationModel]] = None,
        platform_names: Optional[Sequence[str]] = None,
        batch_sizes: Optional[Sequence[int]] = None,
    ) -> None:
        self.models = dict(models) if models is not None else build_all_models()
        self.platform_names = (
            list(platform_names) if platform_names is not None else list(PLATFORM_ORDER)
        )
        if BASELINE_PLATFORM not in self.platform_names:
            raise ValueError(f"sweep must include the {BASELINE_PLATFORM} baseline")
        self.batch_sizes = (
            list(batch_sizes) if batch_sizes is not None else paper_batch_sizes()
        )

    def run(
        self,
        workers: int = 1,
        mode: str = "auto",
        profile_mode: str = "numeric",
    ) -> SweepResult:
        """Profile every (model, platform, batch) cell.

        Both profile modes run the one cost evaluator
        (:mod:`repro.runtime.specmode`) and return identical profiles;
        they differ in how the grid is cut:

        * ``profile_mode="numeric"`` profiles cell by cell — one
          :meth:`InferenceSession.profile` call per cell — so the
          (model, platform) cells can fan out over a pool;
        * ``profile_mode="spec"`` stacks every (model, batch) table and
          evaluates each platform once over the whole grid; repeated
          identical sweeps come from a memo. ``workers`` is ignored.

        For ``profile_mode="numeric"``, ``workers > 1`` fans the
        (model, platform) cells out over a persistent
        ``concurrent.futures`` pool (reused across sweeps; see
        :func:`shutdown_sweep_pools`). ``mode`` selects the pool:

        * ``"thread"`` — shares model objects and the process-level
          graph cache; always available.
        * ``"process"`` — true CPU parallelism. Cells are grouped by
          model into one submission per worker: each worker rebuilds
          its models by name (``repro.models.build_model``), verifies
          the rebuild against the parent's structural signature digest,
          and hydrates graphs from its own process-level graph cache —
          no graphs are ever pickled across the boundary.
        * ``"auto"`` — ``"process"`` only when all models are canonical
          zoo builds *and* the per-cell work (sum of profiled batch
          sizes) clears :data:`PROCESS_POOL_MIN_WORK`; otherwise
          ``"thread"``, since below that threshold serialization
          overhead dominates the profiling work. The decision lands in
          the ``sweep.pool_mode`` telemetry counter when telemetry is
          enabled.

        Both arguments are validated up front, whatever the worker
        count. Results are merged in the canonical serial order, so
        parallel, serial, and spec sweeps are profile-for-profile
        identical.
        """
        if profile_mode not in ("numeric", "spec"):
            raise ValueError(f"unknown profile mode {profile_mode!r}")
        if mode not in ("auto", "thread", "process"):
            raise ValueError(f"unknown sweep mode {mode!r}")
        if profile_mode == "spec":
            from repro.runtime import specmode

            profiles = specmode.profile_spec_sweep(
                self.models, self.platform_names, self.batch_sizes
            )
            return SweepResult(
                profiles=dict(profiles),
                model_names=list(self.models),
                platform_names=list(self.platform_names),
                batch_sizes=list(self.batch_sizes),
            )
        cells = [(m, p) for m in self.models for p in self.platform_names]
        if workers <= 1 or len(cells) <= 1:
            cell_profiles = [self._profile_cell(m, p) for m, p in cells]
        else:
            cell_profiles = self._run_parallel(cells, workers, mode)
        profiles: Dict[Tuple[str, str, int], InferenceProfile] = {}
        for (model_name, platform), by_batch in zip(cells, cell_profiles):
            for batch, profile in by_batch:
                profiles[(model_name, platform, batch)] = profile
        return SweepResult(
            profiles=profiles,
            model_names=list(self.models),
            platform_names=list(self.platform_names),
            batch_sizes=list(self.batch_sizes),
        )

    def _profile_cell(
        self, model_name: str, platform: str
    ) -> List[Tuple[int, InferenceProfile]]:
        session = InferenceSession(self.models[model_name], platform)
        return [(batch, session.profile(batch)) for batch in self.batch_sizes]

    def _cell_work(self) -> int:
        """Per-cell work proxy: total queries profiled in one cell."""
        return sum(self.batch_sizes)

    @staticmethod
    def _note_pool_mode(mode: str) -> None:
        """Record the auto-resolved pool choice as a telemetry counter."""
        from repro import telemetry

        if telemetry.enabled():
            telemetry.get_registry().counter(
                "sweep.pool_mode", mode=mode
            ).inc()

    def _process_safe(self) -> bool:
        """Whether every model can be rebuilt by name in a worker process."""
        for name, model in self.models.items():
            if name not in MODEL_FACTORIES:
                return False
            if MODEL_FACTORIES[name]().graph_signature() != model.graph_signature():
                return False
        return True

    def _run_parallel(
        self,
        cells: Sequence[Tuple[str, str]],
        workers: int,
        mode: str,
    ) -> List[List[Tuple[int, InferenceProfile]]]:
        if mode == "auto":
            mode = (
                "process"
                if self._process_safe()
                and self._cell_work() >= PROCESS_POOL_MIN_WORK
                else "thread"
            )
            self._note_pool_mode(mode)
        elif mode == "process" and not self._process_safe():
            raise ValueError(
                "process-mode sweeps require canonical zoo models "
                "(rebuildable by name); use mode='thread' for custom models"
            )
        workers = min(workers, len(cells))
        if mode == "thread":
            pool = _get_pool("thread", workers)
            futures = [
                pool.submit(self._profile_cell, m, p) for m, p in cells
            ]
            return [f.result() for f in futures]
        return self._run_process_chunks(cells, workers)

    def _run_process_chunks(
        self, cells: Sequence[Tuple[str, str]], workers: int
    ) -> List[List[Tuple[int, InferenceProfile]]]:
        """One submission per worker, cells grouped by model.

        The original per-cell submissions rebuilt every model (and its
        graphs) once per platform in whichever worker picked the cell
        up, then pickled a profile batch back per cell — the process
        arm benchmarked ~1.8x *slower* than serial. Grouping keeps each
        model on one worker, so it is rebuilt once and its graphs are
        hydrated once from that worker's graph cache; only the compact
        structural digests travel to the workers.
        """
        model_names = list(dict.fromkeys(m for m, _ in cells))
        digests = tuple(
            (name, signature_digest(self.models[name])) for name in model_names
        )
        chunk_count = min(workers, len(model_names))
        base, extra = divmod(len(model_names), chunk_count)
        chunks: List[Tuple[Tuple[str, str], ...]] = []
        start = 0
        for j in range(chunk_count):
            size = base + (1 if j < extra else 0)
            group = set(model_names[start : start + size])
            chunks.append(tuple(c for c in cells if c[0] in group))
            start += size
        batches = tuple(self.batch_sizes)
        for attempt in (0, 1):
            pool = _get_pool("process", workers)
            futures = [
                pool.submit(_profile_chunk_by_name, chunk, batches, digests)
                for chunk in chunks
            ]
            try:
                chunk_results = [f.result() for f in futures]
            except concurrent.futures.BrokenExecutor:
                _discard_pool("process", workers)
                if attempt:
                    raise
                continue
            return [cell for chunk in chunk_results for cell in chunk]
        raise AssertionError("unreachable")

    @staticmethod
    def optimal_platform_grid(sweep: SweepResult) -> List[OptimalCell]:
        """Fig 5: best platform (and its speedup) per (model, batch)."""
        cells = []
        for model in sweep.model_names:
            for batch in sweep.batch_sizes:
                best = max(
                    sweep.platform_names,
                    key=lambda p: sweep.speedup(model, p, batch),
                )
                cells.append(
                    OptimalCell(
                        model=model,
                        batch_size=batch,
                        platform=best,
                        speedup=sweep.speedup(model, best, batch),
                    )
                )
        return cells


def _profile_cell_by_name(
    model_name: str, platform: str, batch_sizes: Tuple[int, ...]
) -> List[Tuple[int, InferenceProfile]]:
    """Process-pool worker: rebuild the model by name and profile it."""
    from repro.models import build_model

    session = InferenceSession(build_model(model_name), platform)
    return [(batch, session.profile(batch)) for batch in batch_sizes]


def _profile_chunk_by_name(
    chunk: Tuple[Tuple[str, str], ...],
    batch_sizes: Tuple[int, ...],
    digests: Tuple[Tuple[str, str], ...],
) -> List[List[Tuple[int, InferenceProfile]]]:
    """Process-pool worker: profile a model-grouped run of cells.

    Models are rebuilt by name once per chunk and checked against the
    parent's structural signature digest (stable content-digest seeds
    make the rebuild deterministic); graphs hydrate from this worker's
    own process-level graph cache across all its platforms and batches.
    """
    from repro.models import build_model

    expected = dict(digests)
    models: Dict[str, RecommendationModel] = {}
    results: List[List[Tuple[int, InferenceProfile]]] = []
    for model_name, platform in chunk:
        model = models.get(model_name)
        if model is None:
            model = build_model(model_name)
            digest = signature_digest(model)
            if digest != expected[model_name]:
                raise RuntimeError(
                    f"worker rebuild of {model_name!r} does not match the "
                    f"parent sweep (digest {digest} != {expected[model_name]})"
                )
            models[model_name] = model
        session = InferenceSession(model, platform)
        results.append(
            [(batch, session.profile(batch)) for batch in batch_sizes]
        )
    return results

"""Process-level graph cache shared across sessions and platforms.

Graphs are platform-independent: the same ``(model, batch size)`` graph
feeds the CPU pipeline model, the GPU model, and the functional
executor. Before this cache each :class:`InferenceSession` kept its own
``_graphs`` dict, so a four-platform sweep built every graph four
times. The cache keys on ``(model name, batch size, structural
signature)`` — the signature (see
:meth:`repro.models.base.RecommendationModel.graph_signature`)
guarantees that two models sharing a name but differing in
configuration never alias.

Entries are kept in LRU order with a bounded capacity so long-running
variant sweeps (which generate hundreds of distinct models) cannot grow
the cache without bound. :class:`LRUCache` is that policy on its own;
the workload-table cache in :mod:`repro.runtime.specmode` uses it too.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Tuple

from repro import telemetry
from repro.analysis import assert_verified
from repro.graph import Graph

__all__ = [
    "GraphCache",
    "GraphCacheStats",
    "LRUCache",
    "cache_key",
    "get_graph",
    "clear_graph_cache",
    "graph_cache_stats",
    "model_signature",
    "signature_digest",
]


def model_signature(model) -> Tuple:
    """A model's structural graph signature (identity for others)."""
    return (
        model.graph_signature()
        if hasattr(model, "graph_signature")
        else ("id", id(model))
    )


def signature_digest(model) -> str:
    """Stable hex digest of a model's structural graph signature.

    The in-process cache keys on the raw signature tuple; run-ledger
    records need the same identity *across* processes and checkouts, so
    this digests the signature's repr with BLAKE2b (process-salt free,
    unlike ``hash()``). Models falling back to identity signatures get
    an explicitly unstable ``"id:..."`` digest so records never claim a
    stable identity they don't have.
    """
    signature = model_signature(model)
    if len(signature) >= 2 and signature[-2] == "id":
        return f"id:{signature[-1]:x}"
    return hashlib.blake2b(
        repr(signature).encode("utf-8"), digest_size=8
    ).hexdigest()


@dataclass(frozen=True)
class GraphCacheStats:
    hits: int
    misses: int
    size: int


class LRUCache:
    """Bounded, thread-safe LRU map that builds entries on a miss."""

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(
        self, key: Hashable, build: Callable[[], object]
    ) -> Tuple[object, bool]:
        """``(value, hit)`` for ``key``, calling ``build()`` on a miss.

        The build runs under the lock, so concurrent callers never build
        one key twice; a build that raises caches and counts nothing.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return value, True
            value = build()
            self._entries[key] = value
            self.misses += 1
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return value, False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


def cache_key(
    model, batch_size: int, signature: Optional[Tuple] = None
) -> Tuple:
    """``(model name, batch size, structural signature)`` cache key."""
    if signature is None:
        signature = model_signature(model)
    return (getattr(model, "name", type(model).__name__), batch_size, signature)


class GraphCache(LRUCache):
    """Bounded LRU cache of built, verified graphs."""

    def get(
        self, model, batch_size: int, signature: Optional[Tuple] = None
    ) -> Graph:
        """The cached graph for ``(model, batch_size)``, building on miss.

        ``signature`` is ``model_signature(model)`` when the caller
        already has it. A cached graph is served to every session and
        platform, so a graph the static verifier rejects is never
        cached (``assert_verified`` raises ``GraphVerifyError``).
        """

        def build() -> Graph:
            graph = model.build_graph(batch_size)
            assert_verified(graph)
            return graph

        graph, hit = self.lookup(cache_key(model, batch_size, signature), build)
        if telemetry.enabled():
            name = "graph_cache.hits" if hit else "graph_cache.misses"
            telemetry.get_registry().counter(name).inc()
        return graph

    def stats(self) -> GraphCacheStats:
        with self._lock:
            return GraphCacheStats(
                hits=self.hits, misses=self.misses, size=len(self._entries)
            )


_GLOBAL = GraphCache()


def get_graph(
    model, batch_size: int, signature: Optional[Tuple] = None
) -> Graph:
    """Fetch (or build) a graph from the process-level cache.

    Every profile reaches its graph through here, so this is where a
    batch size below 1 is rejected.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    return _GLOBAL.get(model, batch_size, signature)


def clear_graph_cache() -> None:
    _GLOBAL.clear()


def graph_cache_stats() -> GraphCacheStats:
    return _GLOBAL.stats()

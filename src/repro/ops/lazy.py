"""Lazy parameter materialization — the profiling fast path.

The performance models only ever read parameter *shapes* (via
``TensorSpec``s and byte counts); only the functional executor needs
the actual arrays. A :class:`LazyParam` therefore stores the
initializer recipe — shape, dtype, init function name, and the seed
key fed to :func:`repro.ops.initializers.rng_for` — and materializes
the NumPy array on first numeric access. ``profile()`` over a freshly
built graph allocates nothing; ``run()`` sees exactly the array the
recipe describes, independent of when (or in which thread) it
is materialized.

The module also keeps a process-wide materialization counter so tests
and benchmarks can assert that a profiling path stayed allocation-free.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graph.tensor import TensorSpec
from repro.ops import initializers

__all__ = [
    "LazyParam",
    "materialization_count",
    "reset_materialization_count",
]

_lock = threading.Lock()
_materializations = 0


def materialization_count() -> int:
    """Parameter arrays materialized process-wide since the last reset."""
    return _materializations


def reset_materialization_count() -> None:
    global _materializations
    with _lock:
        _materializations = 0


def _init_xavier_uniform(shape, rng, scale):
    return initializers.xavier_uniform(shape, rng)


def _init_scaled_normal(shape, rng, scale):
    return initializers.scaled_normal(shape, rng, scale)


def _init_zeros(shape, rng, scale):
    return np.zeros(shape, dtype=np.float32)


def _init_adopted(shape, rng, scale):  # pragma: no cover - unreachable
    raise RuntimeError("adopted parameters are materialized at construction")


_INIT_FNS = {
    "xavier_uniform": _init_xavier_uniform,
    "scaled_normal": _init_scaled_normal,
    "zeros": _init_zeros,
    "adopted": _init_adopted,
}


class LazyParam:
    """One parameter array, described by its initializer recipe.

    ``init`` names a recipe in ``_INIT_FNS``; ``seed_key`` is the
    structural key handed to :func:`rng_for`, so equal recipes always
    materialize bit-identical arrays — in any process, in any order.
    """

    __slots__ = ("shape", "dtype", "init", "seed_key", "scale", "_value")

    def __init__(
        self,
        shape: Sequence[int],
        init: str,
        seed_key: Tuple[object, ...] = (),
        scale: float = 0.01,
        dtype: str = "float32",
    ) -> None:
        if init not in _INIT_FNS:
            raise ValueError(
                f"unknown initializer {init!r}; available: {sorted(_INIT_FNS)}"
            )
        self.shape = tuple(int(d) for d in shape)
        self.dtype = dtype
        self.init = init
        self.seed_key = tuple(seed_key)
        self.scale = scale
        self._value: Optional[np.ndarray] = None

    @classmethod
    def from_array(cls, array: np.ndarray) -> "LazyParam":
        """Wrap an explicitly supplied array (already materialized)."""
        array = np.asarray(array)
        param = cls(array.shape, "adopted", dtype=str(array.dtype))
        param._value = array
        return param

    # -- spec side (never allocates) ----------------------------------------

    @property
    def spec(self) -> TensorSpec:
        return TensorSpec(self.shape, self.dtype)

    @property
    def nbytes(self) -> int:
        return self.spec.nbytes

    @property
    def is_materialized(self) -> bool:
        return self._value is not None

    # -- value side ---------------------------------------------------------

    def materialize(self) -> np.ndarray:
        """The parameter array, created on first access."""
        value = self._value
        if value is None:
            with _lock:
                if self._value is None:
                    global _materializations
                    rng = (
                        initializers.rng_for(*self.seed_key)
                        if self.init != "zeros"
                        else None
                    )
                    self._value = _INIT_FNS[self.init](self.shape, rng, self.scale)
                    _materializations += 1
                value = self._value
        return value

    # recipe equality (value-independent), used by graph signatures
    @property
    def signature(self) -> Tuple[object, ...]:
        if self.init == "adopted":
            # Adopted arrays have no recipe; key on the array's identity
            # so structurally equal models with different explicit
            # weights never alias in the graph cache. (The cached graph
            # keeps the array alive, so the id cannot be recycled while
            # the cache entry exists.)
            return (self.shape, self.dtype, self.init, id(self._value))
        return (self.shape, self.dtype, self.init, self.seed_key, self.scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "materialized" if self.is_materialized else "lazy"
        return f"<LazyParam {self.init} {self.shape} {state}>"

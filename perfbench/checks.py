"""Output checks and simulated-output digests shared by the workloads."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np


class Checks:
    """Counts checked operations and keeps the ones whose check failed."""

    def __init__(self) -> None:
        self.ops = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.ops += 1
        if not ok:
            self.failures.append(what)
        return ok


def _canon(obj: Any) -> Any:
    """A JSON-able form that keeps every bit of every float."""
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [str(obj.dtype), list(obj.shape),
                hashlib.blake2b(np.ascontiguousarray(obj).tobytes(),
                                digest_size=16).hexdigest()]
    if isinstance(obj, dict):
        return [[str(k), _canon(v)] for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))]
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj: Any) -> str:
    text = json.dumps(_canon(obj), separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@dataclass
class PassResult:
    """One pass of a workload: its end-to-end figures and its checks.

    ``primary`` and ``secondary`` are the workload's two throughputs
    (units per host second); ``wall_s`` is the host time of the pass's
    timed calls, excluding the benchmark's own checks.
    """

    primary: float
    secondary: float
    wall_s: float
    checks: Checks
    digest: str
    #: Factor to the nominal host, when the pass measures its own
    #: reference (hostspeed.spawn_index); otherwise the worker scales it
    #: by the kernel index around the pass.
    scale: Optional[float] = None

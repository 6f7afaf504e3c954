"""Host-speed indices: fixed reference work timed next to every pass.

The benchmark's host is shared: the same pass of the same code runs up
to 40% slower for minutes at a time when neighbours are busy (measured
on the 2-core VM this benchmark was sized on). The end-to-end timings
are therefore scaled to a nominal host: each raw time is multiplied by
``nominal / index``, where ``index`` is the time of reference work done
next to the pass. The reference is the benchmark's own code, so no
change to the program moves it. Raw times are printed next to the
scaled ones.

Two references, because host load slows two kinds of work differently:

* :func:`index` runs an in-process kernel with the mix the program's
  hot loops run (dict and tuple churn, float math, small NumPy calls),
  for workloads whose passes run in the worker;
* :func:`spawn_index` starts an interpreter that imports NumPy and a few
  standard modules, for workloads whose passes start interpreters.
  The kernel tracks those badly: over a 90 s trial the kernel-scaled
  command times spread more than the raw ones, the spawn-scaled ones a
  third as much.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from typing import Dict

import numpy as np

#: Each index on an unloaded reference host; scaled times read as
#: seconds on that host.
NOMINAL_S = 0.010
SPAWN_NOMINAL_S = 0.200
REPEATS = 5
SPAWN_PROBE = "import numpy, json, argparse, dataclasses, typing"


def _objects() -> float:
    table = {}
    acc = 0.0
    rows = []
    for i in range(25_000):
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += math.sqrt(i + 1.0)
        rows.append((i, key, acc))
        if len(rows) > 512:
            rows = []
    return acc


def _numpy() -> float:
    values = np.arange(64.0)
    for _ in range(1_500):
        values = np.sort(values * 1.0001)
        np.searchsorted(values, 10.0)
    return float(values[0])


def index() -> float:
    """Geometric mean of each kernel's median time, in seconds."""
    medians = []
    for kernel in (_objects, _numpy):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        medians.append(statistics.median(times))
    return math.sqrt(medians[0] * medians[1])


def spawn_index(env: Dict[str, str]) -> float:
    """Wall time of one fresh interpreter running :data:`SPAWN_PROBE`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_PROBE], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0

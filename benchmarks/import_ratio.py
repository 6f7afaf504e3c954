"""Cold-start gate: ``import repro.cli`` against ``import numpy``.

Each import is timed inside a fresh interpreter, which reads the clock
around the import statement alone; each module keeps its best of
``--repeats`` runs. ``--check`` fails when the CLI import costs more
than ``MAX_RATIO`` times the numpy import: building the parser must not
load the layers the commands run (numpy among them). The gate is a
ratio of two imports on one host, so a slower CI machine does not trip
it. ``tests/test_cold_start.py`` pins the module sets themselves.

Run::

    PYTHONPATH=src python benchmarks/import_ratio.py [--repeats 5] [--check]
"""

from __future__ import annotations

import argparse
import subprocess
import sys

#: ``--check`` gate on best(import repro.cli) / best(import numpy).
MAX_RATIO = 0.7

PROBE = ("import time; t = time.perf_counter(); import {module}; "
         "print(time.perf_counter() - t)")


def best_import_s(module: str, repeats: int) -> float:
    """Best-of-``repeats`` seconds to import ``module`` in a fresh
    interpreter (the environment, and so ``PYTHONPATH``, is inherited)."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE.format(module=module)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        runs.append(float(proc.stdout.strip()))
    return min(runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 if the ratio exceeds {MAX_RATIO}")
    args = parser.parse_args()
    cli = best_import_s("repro.cli", args.repeats)
    numpy = best_import_s("numpy", args.repeats)
    ratio = cli / numpy
    print(f"import repro.cli {cli * 1e3:.1f} ms, import numpy "
          f"{numpy * 1e3:.1f} ms (best of {args.repeats}): ratio "
          f"{ratio:.2f}x, gate {MAX_RATIO}x")
    if args.check and ratio > MAX_RATIO:
        print("FAIL: import repro.cli exceeds the gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

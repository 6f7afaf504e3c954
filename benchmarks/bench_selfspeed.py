"""Self-speed benchmark: wall-clock of the repo's own hot path.

Measures the full (model x platform x batch) sweep two ways, each from
empty graph and workload-table caches —

* ``cell_by_cell`` — one ``InferenceSession.profile`` per cell
  (``profile_mode="numeric"``, the reference);
* ``grid_cold``    — the default stacked grid: builds the workload
  tables from verifier-inferred specs and evaluates each platform once
  over every cell, never allocating tensor data.

Each arm reports the best of ``REPEATS`` runs. The results (plus the
derived speedup) go to ``BENCH_sweep.json`` at the repo root, seeding the
performance trajectory across PRs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_selfspeed.py [--smoke]

with ``--check`` to enforce the regression gates (neither arm
materializes a tensor, and the cold grid is at least as fast as the cold
cell-by-cell sweep), or as a pytest bench target (smoke mode)::

    PYTHONPATH=src python -m pytest benchmarks/bench_selfspeed.py -q
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from typing import Dict, List, Optional

from repro.core import SpeedupStudy
from repro.models import build_model
from repro.ops import materialization_count
from repro.runtime import clear_graph_cache
from repro.runtime import specmode

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sweep.json"

SMOKE_MODELS = ["rm1", "dien"]
SMOKE_BATCHES = [1, 64]

#: Runs per arm; each arm reports its fastest.
REPEATS = 3

#: ``--check`` gate: the cold grid must be no slower than the cold
#: cell-by-cell sweep (the smoke grid measures ~1.9x on a 2-core host;
#: 1.0x leaves room for timer noise on loaded CI hosts).
GRID_MIN_SPEEDUP = 1.0


def _study(model_names: List[str], batches: List[int]) -> SpeedupStudy:
    models = {name: build_model(name) for name in model_names}
    return SpeedupStudy(models=models, batch_sizes=batches)


def _time_cold(study: SpeedupStudy, **run_kwargs) -> float:
    """Best wall-clock of ``REPEATS`` runs, each from empty caches."""
    best = float("inf")
    for _ in range(REPEATS):
        clear_graph_cache()
        specmode.clear_spec_caches()
        t0 = time.perf_counter()
        study.run(**run_kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def run_bench(
    smoke: bool = False,
    output: Optional[pathlib.Path] = DEFAULT_OUTPUT,
) -> Dict:
    from repro.models import MODEL_ORDER
    from repro.workloads import paper_batch_sizes

    model_names = SMOKE_MODELS if smoke else list(MODEL_ORDER)
    batches = SMOKE_BATCHES if smoke else paper_batch_sizes()
    study = _study(model_names, batches)

    arms: Dict[str, float] = {}
    before = materialization_count()
    arms["cell_by_cell_s"] = _time_cold(study, profile_mode="numeric")
    cell_materializations = materialization_count() - before

    before = materialization_count()
    arms["grid_cold_s"] = _time_cold(study)
    grid_materializations = materialization_count() - before

    result = {
        "benchmark": "full_sweep_selfspeed",
        "smoke": smoke,
        "models": model_names,
        "batch_sizes": batches,
        "cells": len(model_names) * 4 * len(batches),
        "repeats": REPEATS,
        "cell_by_cell_materializations": cell_materializations,
        "grid_materializations": grid_materializations,
        "arms": {k: round(v, 4) for k, v in arms.items()},
        "speedups": {
            "grid_cold_vs_cell_by_cell": round(
                arms["cell_by_cell_s"] / arms["grid_cold_s"], 2
            ),
        },
    }
    if output is not None:
        output.write_text(json.dumps(result, indent=2) + "\n")
    return result


def check_result(result: Dict) -> List[str]:
    """Return a list of human-readable gate failures (empty = pass)."""
    failures: List[str] = []
    for arm in ("cell_by_cell", "grid"):
        count = result[f"{arm}_materializations"]
        if count != 0:
            failures.append(f"{arm} sweep materialized {count} tensors")
    speedup = result["speedups"]["grid_cold_vs_cell_by_cell"]
    if speedup < GRID_MIN_SPEEDUP:
        failures.append(
            f"cold grid only {speedup}x over the cold cell-by-cell sweep "
            f"(gate: >= {GRID_MIN_SPEEDUP}x)"
        )
    return failures


def test_selfspeed_smoke(write_output):
    """Smoke bench: both sweeps profile without materializing."""
    result = run_bench(smoke=True, output=None)
    assert result["cell_by_cell_materializations"] == 0
    assert result["grid_materializations"] == 0
    assert result["arms"]["cell_by_cell_s"] > 0
    assert result["arms"]["grid_cold_s"] > 0
    write_output(
        "selfspeed_smoke",
        json.dumps(result, indent=2),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny config for CI")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless the speed gates hold (see module docstring)",
    )
    parser.add_argument(
        "-o", "--output", default=str(DEFAULT_OUTPUT),
        help="result JSON path (default BENCH_sweep.json at repo root)",
    )
    args = parser.parse_args()
    result = run_bench(
        smoke=args.smoke,
        output=pathlib.Path(args.output),
    )
    print(json.dumps(result, indent=2))
    if args.check:
        failures = check_result(result)
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        if failures:
            return 1
        print("CHECK PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
